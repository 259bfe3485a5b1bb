// Tigress RandomFuns stand-in (§VII-B, Appendix A): generates the 72
// synthetic hash functions used for the resilience measurements -- 6
// control structures (Table IV) x 4 input types {char, short, int, long}
// x 3 seeds -- with the point test (G1 secret finding) and the coverage
// probes at CFG split/join points (G2). Generation carries no ground
// truth: reachable_probes computes the G2 target set on demand.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "minic/ast.hpp"

namespace raindrop::workload {

struct RandomFunSpec {
  int control = 0;              // 0..5, Table IV rows
  minic::Type type = minic::Type::I32;  // input/state type (1/2/4/8 bytes)
  std::uint64_t seed = 1;
  bool point_test = true;       // RandomFunsPointTest: return state==SECRET
  bool probes = true;           // RandomFunsTrace=2: probes at split/join
};

struct RandomFun {
  RandomFunSpec spec;
  minic::Module module;
  std::string name = "target";
  std::int64_t secret_input = 0;   // a winning input (ground truth)
  std::int64_t secret_const = 0;   // the state value the point test checks
  int probe_count = 0;
};

// Human-readable control structure strings matching Table IV.
const char* control_structure_name(int control);

// Generation is cheap: one interpreter run derives the secret.
RandomFun make_random_fun(const RandomFunSpec& spec);

// Ground truth for the G2 "all or nothing" coverage criterion, computed
// on demand since only coverage attacks read it: the probe ids reached
// over every input for 1-byte types, otherwise over 2,048 seeded samples
// plus the winning input, 0 and the all-ones input. That is 256 or 2,051
// interpreter runs. Empty when the spec compiles no probes.
std::set<std::int64_t> reachable_probes(const RandomFun& rf);

// The paper's full 72-function suite: 6 controls x 4 types x seeds 1..3.
std::vector<RandomFunSpec> paper_suite(bool point_test = true,
                                       bool probes = true);

}  // namespace raindrop::workload
