// Static symbolic execution approximation (angr stand-in, §III-B1).
// Eager state expansion without concrete seeding: every symbolic branch
// is explored in both directions and -- the behaviour that distinguishes
// SE from concolic DSE -- symbolic-address dereferences (P1's array
// reads, symbolic RSP in chains) are *enumerated* across all satisfiable
// targets rather than pinned to the observed concrete value. This is
// what makes the P1 aliasing blow the state space up (§VII-A1).
#pragma once

#include "attack/dse.hpp"

namespace raindrop::attack {

struct SeConfig {
  int input_bytes = 4;
  Goal goal = Goal::kSecretFinding;
  std::uint64_t success_rax = 1;
  std::set<std::int64_t> target_probes;
  int max_enum_per_pin = 32;      // candidate values per address pin
  std::uint64_t max_states = 100000;
  std::uint64_t max_trace_insns = 2'000'000;
};

struct SeOutcome : AttackOutcome {
  std::uint64_t states_forked = 0;
};

// Attacks `fn_addr` of a frozen LoadedImage (Image::load_shared); each
// explored state is one shadow_run over a fresh clone.
SeOutcome se_attack(const LoadedImage& li, std::uint64_t fn_addr,
                    const SeConfig& cfg, const Deadline& deadline);

}  // namespace raindrop::attack
