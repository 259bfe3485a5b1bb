// ROPMEMU-style dynamic multi-path chain exploration (§III-B2): emulate
// the chain, find the gadgets that leak condition flags into the RSP
// update, flip the leaked flag, and re-run hoping to reveal alternate
// chain regions. P2's data-dependent RSP updates derail exactly these
// flipped re-runs (§V-B, §VII-A2).
#pragma once

#include <cstdint>
#include <set>

#include "support/stopwatch.hpp"

namespace raindrop {
struct LoadedImage;
}

namespace raindrop::attack {

struct RopMemuResult {
  std::set<std::uint64_t> chain_offsets;  // discovered chain positions
  std::uint64_t baseline_offsets = 0;     // from the unmodified run
  std::uint64_t flips_attempted = 0;
  std::uint64_t flips_derailed = 0;       // fault / runaway after a flip
  std::uint64_t flips_revealing = 0;      // flips that found new offsets
};

// Explores the chain of `fn_addr` in a frozen LoadedImage
// (Image::load_shared): each emulation run clones the snapshot and
// imports its prewarmed CodeCache (the per-insn hook demotes dispatch
// to the central loop, but decode still starts warm).
RopMemuResult ropmemu_explore(const LoadedImage& li, std::uint64_t fn_addr,
                              std::uint64_t chain_addr,
                              std::uint64_t chain_size, std::uint64_t arg,
                              const Deadline& deadline);

}  // namespace raindrop::attack
