// Dynamic symbolic execution driver (S2E stand-in, §III-B1): concolic
// exploration with branch negation and class-uniform path analysis
// (CUPA, [72]) as the state-selection strategy -- the configuration the
// paper found most effective across ROP and VM targets (§VII-B).
#pragma once

#include <cstdint>
#include <set>

#include "attack/goals.hpp"
#include "attack/shadow.hpp"
#include "support/stopwatch.hpp"

namespace raindrop {
struct LoadedImage;
}

namespace raindrop::attack {

struct DseConfig {
  int input_bytes = 4;
  Goal goal = Goal::kSecretFinding;
  // G1: success when the target returns this value.
  std::uint64_t success_rax = 1;
  // G2: the ground-truth reachable probe set ("all or nothing").
  std::set<std::int64_t> target_probes;
  // Memory model: false = byte concretization (S2E default), true =
  // windowed theory-of-arrays (the base64 case study setting, §VII-C3).
  bool toa_memory = false;
  std::uint64_t max_trace_insns = 3'000'000;
  int max_negations_per_trace = 24;
  double solver_slice_s = 1.0;  // per-query budget slice
  // Branch pcs an auxiliary analysis (TDS) marked as obfuscation-internal
  // and not worth negating. Input-tainted branches can never be listed
  // here (§V-C); see attack/tds.
  std::set<std::uint64_t> skip_pcs;
};

// Attacks `fn_addr` of a frozen LoadedImage (Image::load_shared): every
// concolic trace re-clones the snapshot, so the prewarmed CodeCache is
// imported once per trace instead of re-decoding the image each time --
// the hot path of the table2/casestudy sweeps.
AttackOutcome dse_attack(const LoadedImage& li, std::uint64_t fn_addr,
                         const DseConfig& cfg, const Deadline& deadline);

}  // namespace raindrop::attack
