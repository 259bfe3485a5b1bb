// Taint-driven simplification (TDS, [7] stand-in, §III-B1): records a
// concrete trace, tracks explicit input taint, and applies semantics-
// preserving simplifications -- crucially *restricted* from propagating
// constants across input-tainted conditional jumps (the limitation P3
// exploits by construction, §V-C). Produces a simplified CFG and the set
// of branch sites DSE may safely skip (the TDS+DSE symbiosis of [7]).
#pragma once

#include <cstdint>
#include <set>

#include "attack/shadow.hpp"

namespace raindrop::attack {

struct TdsResult {
  std::uint64_t trace_len = 0;        // executed instructions
  std::uint64_t kept = 0;             // instructions surviving simplification
  std::uint64_t distinct_addrs = 0;   // simplified CFG nodes
  std::uint64_t tainted_branches = 0; // input-dependent decisions (cannot
                                      // be simplified away)
  std::uint64_t untainted_branches = 0;
  double reduction = 0.0;             // 1 - kept/trace_len
  // Branch pcs classified obfuscation-internal (safe for DSE to skip).
  std::set<std::uint64_t> skip_pcs;
};

// Traces `fn_addr` of a frozen LoadedImage (Image::load_shared) on one
// concrete input.
TdsResult tds_simplify(const LoadedImage& li, std::uint64_t fn_addr,
                       std::uint64_t input, int input_bytes,
                       std::uint64_t max_insns = 3'000'000);

}  // namespace raindrop::attack
