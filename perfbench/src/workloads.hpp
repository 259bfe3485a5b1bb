// The workloads the runner runs. Each reads its records from the plan,
// repeats its set-up, runs the timed phase through run_timed and fills
// `raw`; a nonzero return means the set-up itself failed.
#pragma once

#include "common.hpp"

namespace perfbench {

int run_exec(const Plan& plan, Raw& raw);
int run_obfuscate(const Plan& plan, Raw& raw, bool cold);
int run_attack(const Plan& plan, Raw& raw);
// Attacks each `candidate` record twice and prints its counts: the input
// for the pinned target list, not a benchmark run.
int run_calibrate(const Plan& plan);

}  // namespace perfbench
