#!/usr/bin/env python3
"""The repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. Builds the runner (perfbench/CMakeLists.txt,
Release) into .bench_build on first use, generates the workload's inputs
from --seed, runs the runner and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
report the end-to-end metrics of BENCHMARK.json, traced runs its
per-layer metrics. Exits nonzero when any output was wrong.

    python3 perfbench/run.py --calibrate

attacks every attack_dse candidate twice and prints the counts from which
perfbench/attack_targets.json was pinned. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as it was
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns the build type."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as out:
        steps = []
        if not os.path.exists(cache):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def host_record(workload, seed, build_type):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except OSError:
        sha = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha or "unknown", "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "cpu_model": model,
            "build_type": build_type, "workload": workload, "seed": seed}


def write_plan(path, workload, seconds, trace, items, work_dir, trace_path):
    lines = ["workload " + workload, "seconds %r" % float(seconds),
             "trace %d" % trace, "threads %d" % (os.cpu_count() or 1),
             "min_samples %d" % (0 if trace else benchlib.MIN_SAMPLES),
             "work_dir " + work_dir, "trace_path " + trace_path] + items
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def run_plan(plan_path):
    try:
        proc = subprocess.run([RUNNER, plan_path], capture_output=True,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("runner timed out after %ds" % RUNNER_TIMEOUT_S)
        return None, 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        log("runner printed no result (exit %d)" % proc.returncode)
        return None, proc.returncode or 1


# The design names of each workload's headline numbers, printed for
# people; the JSON result carries the generic end-to-end names.
ALIASES = {
    "exec_fig5": [("exec_rop_minsns_per_s", "cpu.rop.minsns_per_s", "M/s"),
                  ("exec_vm_minsns_per_s", "cpu.vm.minsns_per_s", "M/s"),
                  ("rop_vs_2vm_insns", "exec.rop_vs_2vm_insns", "ratio")],
    "obfuscate_cold": [("chain_bytes_per_fn", "gadgets.chain_bytes_per_fn",
                        "B")],
    "obfuscate_restart": [("chain_bytes_per_fn",
                           "gadgets.chain_bytes_per_fn", "B")],
    "attack_dse": [],
}
WORK_ALIAS = {"exec_fig5": "sim_insns_per_s", "obfuscate_cold":
              "obf_funcs_per_s", "obfuscate_restart": "obf_funcs_per_s",
              "attack_dse": "attacks_per_s"}
OP_ALIAS = {"exec_fig5": "call", "obfuscate_cold": "job",
            "obfuscate_restart": "job", "attack_dse": "attack"}


def calibrate():
    if build() is None:
        log("build failed; see .bench_build/build.log")
        return 2
    items = []
    obf_seed = 1000
    for config in ("NATIVE", "ROP0.05"):
        for control in range(6):
            for nbytes in (1, 2):
                for seed in (1, 2, 3):
                    items.append("candidate %d %d %d %s %d" %
                                 (control, nbytes, seed, config, obf_seed))
                    obf_seed += 1
    plan = os.path.join(BUILD, "calibrate.plan")
    write_plan(plan, "calibrate", 0, 0, items, "", "")
    return subprocess.run([RUNNER, plan]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()
    if args.calibrate:
        return calibrate()
    if not args.workload:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "attack_targets.json")) as f:
        targets = json.load(f)["targets"]

    build_type = build()
    if build_type is None:
        log("build failed; see .bench_build/build.log")
        return 2
    host = host_record(args.workload, args.seed, build_type)
    print("host: " + json.dumps(host))
    if build_type != "Release":
        banner = ("WARNING: %s build -- these numbers are not comparable "
                  "with Release results" % (build_type or "untyped"))
        print(banner)
        log(banner)

    tag = "%s_%d_%d" % (args.workload, args.seed, args.trace)
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    plan_path = os.path.join(BUILD, "runs", tag + ".plan")
    trace_path = os.path.join(BUILD, "runs", tag + ".spans.jsonl")
    # Leftovers of an interrupted run must not be read as this run's.
    shutil.rmtree(os.path.join(BUILD, "work"), ignore_errors=True)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    work_dir = os.path.join(BUILD, "work", tag)
    write_plan(plan_path, args.workload, args.seconds, args.trace,
               benchlib.plan_items(args.workload, args.seed, targets),
               work_dir, trace_path)
    raw, rc = run_plan(plan_path)
    if raw is None:
        return 1

    attempted, failed = raw["attempted"], raw["failed"]
    for why in raw["failures"]:
        print("failure: " + why)
    try:
        share = benchlib.failed_share(attempted, failed)
        if args.trace:
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = benchlib.per_layer(raw, benchlib.read_spans(trace_path),
                                        names)
        else:
            values = benchlib.end_to_end(args.workload, raw)
    except (OSError, ValueError) as e:
        log("cannot derive metrics: %s" % e)
        return 1
    correct = rc == 0 and failed == 0 and attempted >= 1

    print("failed_share: %.6g (%d of %d operations)" % (share, failed,
                                                        attempted))
    print("samples: %d latencies over %.3f s of timed work" %
          (len(raw["samples_ms"]), raw["timed_s"]))
    if not args.trace:
        print("%s: %.6g 1/s" % (WORK_ALIAS[args.workload],
                                values["work_per_s"][0]))
        op = OP_ALIAS[args.workload]
        for p in (50, 90):
            print("%s_p%d_ms: %.6g ms" % (op, p, values["op_p%d_ms" % p][0]))
        print("%s_p95_ms: %.6g ms" % (
            op, benchlib.percentile(raw["samples_ms"], 95)))
        for alias, key, unit in ALIASES[args.workload]:
            print("%s: %.6g %s" % (alias, raw["counters"].get(key, 0.0),
                                   unit))
    for name, (value, unit) in values.items():
        print("%s: %.6g %s" % (name, value, unit))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (v, u) in values.items()}}
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        f.write(json.dumps({"host": host, "trace": args.trace,
                            "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
