// perfbench_runner <plan file>
//
// Runs one workload as the plan describes and prints its raw result as
// one JSON object on the last line of stdout; perfbench/run.py turns
// that into the benchmark's metrics. A traced plan also writes every
// span to the plan's trace path.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <plan file>\n", argv[0]);
    return 2;
  }
  now_s();  // start the span clock
  Plan plan;
  Raw raw;
  int rc = 0;
  try {
    plan = Plan::read(argv[1]);
    if (plan.workload == "calibrate") return run_calibrate(plan);
    if (!plan.work_dir.empty())
      std::filesystem::create_directories(plan.work_dir);
    tracer().enable(plan.trace);
    const int root = tracer().begin("bench.run");
    if (plan.workload == "exec_fig5") rc = run_exec(plan, raw);
    else if (plan.workload == "obfuscate_cold") rc = run_obfuscate(plan, raw, true);
    else if (plan.workload == "obfuscate_restart") rc = run_obfuscate(plan, raw, false);
    else if (plan.workload == "attack_dse") rc = run_attack(plan, raw);
    else {
      std::fprintf(stderr, "unknown workload %s\n", plan.workload.c_str());
      return 2;
    }
    tracer().end(root);
    if (!plan.work_dir.empty()) remove_tree(plan.work_dir);
    if (plan.trace && !tracer().write(plan.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", plan.trace_path.c_str());
      rc = 1;
    }
  } catch (const std::exception& e) {
    raw.fail(std::string("runner error: ") + e.what());
    rc = 1;
  }
  raw.print();
  return rc;
}
