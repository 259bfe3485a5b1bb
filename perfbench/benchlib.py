"""Pure logic of the benchmark front end: seeded plans, percentiles,
failure accounting, span self times and the metrics derived from a
runner's raw result. run.py does the I/O; test_benchlib.py tests this."""

import json
import math
import random
import statistics

WORKLOADS = ("exec_fig5", "obfuscate_cold", "obfuscate_restart", "attack_dse")

# Latencies are reported as the median and the 90th percentile (p95 is
# printed too, for people; on obfuscate_cold its run-to-run spread was
# wider than any bound the benchmark may set). Each percentile needs this
# many samples beyond it.
MIN_BEYOND = 10
TAIL_PERCENTILE = 90
MIN_SAMPLES = 200  # smallest n with MIN_BEYOND samples beyond p95
# Workloads whose latency percentiles are those of a typical pass (see
# typical_pass_percentile); exec_fig5 pools all samples. Chosen by
# measurement: over the same six seeds, the spread (IQR / median) of
# p50 and p90 was 0.10 and 0.14 per pass against 0.21 and 0.18 pooled
# on attack_dse, but 0.10 and 0.15 per pass against 0.07 and 0.10
# pooled on exec_fig5, where the per-pass p90 jumps between its 79
# unlike calls. Pooled, obfuscate_restart's p90 once spread 0.26.
TYPICAL_PASS_WORKLOADS = ("obfuscate_cold", "obfuscate_restart",
                          "attack_dse")

# The clbg kernels, each with the argument the timed phase passes it
# (scaled down from the suite's defaults so one pass takes about 2 s) and
# whether its 2VM-IMPlast build runs. fannkuch's work does not shrink with
# its argument and its 2VM build alone would take ~1.5 s, so only its
# native and ROP builds run; rop_vs_2vm_insns covers the other nine.
KERNELS = (
    ("b-trees", 3, True),
    ("fannkuch", 6, False),
    ("fasta", 25, True),
    ("fasta-redux", 25, True),
    ("mandelbrot", 3, True),
    ("n-body", 6, True),
    ("pidigits", 16, True),
    ("regex", 20, True),
    ("rev-comp", 25, True),
    ("sp-norm", 3, True),
)
EXEC_BUILDS = 5  # native, 2VM-IMPlast, ROP0.05, ROP0.50, ROP1.00
# Each pass calls every ROP build this many times and the other builds
# once, so ROP and VM dispatch get similar shares of the timed phase.
EXEC_ROP_REPEAT = 2
EXEC_ROP_SEED = 7
EXEC_VM_SEED = 3

OBF_JOBS = 48  # modules per pass
OBF_FUNCTIONS = 40  # functions per module
OBF_P3_FRACTION = 0.5


class InsufficientSamples(ValueError):
    pass


def _rng(workload, seed):
    # Both obfuscate workloads run the same job list for a seed.
    family = "obfuscate" if workload.startswith("obfuscate") else workload
    return random.Random("%s/%d" % (family, seed))


def _seed31(rng):
    return rng.randrange(1, 2**31)


def plan_items(workload, seed, targets=()):
    """The workload's inputs for `seed`, as runner plan records."""
    rng = _rng(workload, seed)
    if workload == "exec_fig5":
        # The seed picks the call order only. The builds keep the
        # obfuscation seeds of bench/bench_fig5.cpp, so every seed runs
        # the same instructions and the ratios stay exact.
        items = ["kernel %s %d %d %d" % (name, arg, EXEC_ROP_SEED,
                                         EXEC_VM_SEED)
                 for name, arg, _ in KERNELS]
        calls = [(k, b) for k, (_, _, vm) in enumerate(KERNELS)
                 for b in range(EXEC_BUILDS) if vm or b != 1
                 for _ in range(EXEC_ROP_REPEAT if b >= 2 else 1)]
        rng.shuffle(calls)
        items += ["call %d %d" % c for c in calls]
        return items
    if workload in ("obfuscate_cold", "obfuscate_restart"):
        return ["job %d %d %d %s" % (_seed31(rng), OBF_FUNCTIONS,
                                     _seed31(rng), OBF_P3_FRACTION)
                for _ in range(OBF_JOBS)]
    if workload == "attack_dse":
        order = list(targets)
        rng.shuffle(order)
        return ["target %d %d %d %s %d %d %d" % (
            t["control"], t["input_bytes"], t["seed"], t["config"],
            t["obf_seed"], t["traces"], t["solver_queries"]) for t in order]
    raise ValueError("unknown workload %r" % workload)


def percentile(samples, q):
    """Nearest-rank q-th percentile. Refuses (InsufficientSamples) when
    fewer than MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            "p%g of %d samples has %d beyond it; need %d" %
            (q, n, max(n - rank, 0), MIN_BEYOND))
    return sorted(samples)[rank - 1]


def typical_pass_percentile(samples, pass_ends, q):
    """Median over passes of each pass's nearest-rank q-th percentile.
    Every pass repeats the same operations, so a host stall that slows a
    few passes moves a few of these values, not their median. The pooled
    samples must still hold MIN_BEYOND beyond the percentile."""
    percentile(samples, q)
    per_pass, start = [], 0
    for end in pass_ends:
        chunk = sorted(samples[start:end])
        if chunk:
            per_pass.append(chunk[math.ceil(q / 100.0 * len(chunk)) - 1])
        start = end
    if not per_pass or start != len(samples):
        raise ValueError("pass ends %s do not cover %d samples" %
                         (pass_ends[-3:], len(samples)))
    return statistics.median(per_pass)


def failed_share(attempted, failed):
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%d outside [0, %d]" % (failed, attempted))
    return failed / attempted


def self_times(spans):
    """Self time per span name: each span's duration minus the time its
    children cover. The root span's self time is returned as
    `unaccounted_s`, so the values sum to the root's duration (`wall_s`)."""
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0) +
                                       s["end"] - s["start"])
    roots = [s for s in spans if s["parent"] < 0]
    if len(roots) != 1:
        raise ValueError("expected one root span, found %d" % len(roots))
    out = {}
    for s in spans:
        if s["parent"] >= 0:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
    root = roots[0]
    wall = root["end"] - root["start"]
    unaccounted = wall - child_time.get(root["id"], 0.0)
    return out, unaccounted, wall


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def end_to_end(workload, raw):
    """End-to-end metrics of an untraced run (name -> (value, unit))."""
    samples = raw["samples_ms"]
    if workload in TYPICAL_PASS_WORKLOADS:
        def latency(q):
            return typical_pass_percentile(samples, raw["pass_ends"], q)
    else:
        def latency(q):
            return percentile(samples, q)
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "work_per_s": (raw["rate"], "1/s"),
        "op_p50_ms": (latency(50), "ms"),
        "op_p90_ms": (latency(TAIL_PERCENTILE), "ms"),
    }


def per_layer(raw, spans, names):
    """Per-layer metrics of a traced run, for every name in `names`
    (name -> unit); a layer the workload never enters reads 0."""
    self_s, unaccounted, wall = self_times(spans)
    unknown = sorted(n for n in self_s if n + "_s" not in names)
    if unknown:
        raise ValueError("spans without a per-layer metric: %s" % unknown)
    values = dict(raw["counters"])
    for name, secs in self_s.items():
        values[name + "_s"] = secs
    values["unaccounted_s"] = unaccounted
    values["trace.wall_s"] = wall
    untraced = raw["untraced_rate"]
    values["trace.overhead_share"] = (1.0 - raw["rate"] / untraced
                                      if untraced > 0 else 0.0)
    return {n: (values.get(n, 0.0), unit) for n, unit in names.items()}
