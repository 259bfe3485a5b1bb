// Shareable superblock cache built over a frozen Memory snapshot
// (DESIGN.md §10). A CodeCache decodes once, up front, and is then
// imported read-only by any number of Cpus whose Memory descends from
// the snapshot (Memory::clone of a frozen Memory): call_function clones
// per call, the shadow/ropmemu attack engines clone per run, and all of
// them start warm instead of re-decoding the same .text.
//
// Cached blocks carry their pre-lowered µop streams (DecodedBlock::uops,
// DESIGN.md §11): decode_superblock lowers at decode time, so importing
// clones start warm in lowered form too -- the copy-on-first-fetch
// import clones the µop vector verbatim (µops hold only absolute
// addresses and constants; only the successor links are per-Cpu and are
// cleared on copy).
//
// Soundness rests on the frozen-ancestor rule: the cache's epoch() is
// the snapshot id of the immutable Memory it was built over, and
// Cpu::import_cache admits it only into memories whose lineage() equals
// that id. Descendants revalidate imported blocks lazily against their
// own page generations -- generations only move forward from the
// ancestor's, so an equal generation implies identical bytes. Two
// sibling clones share no such anchor (equal generations, different
// bytes) and are rejected by the lineage check.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "cpu/cpu.hpp"
#include "mem/memory.hpp"

namespace raindrop {

class CodeCache {
 public:
  struct Entry {
    const DecodedBlock* block = nullptr;
    std::uint32_t index = 0;  // instruction index within the block
  };

  // Snapshot id of the frozen Memory this cache was built over.
  std::uint64_t epoch() const { return epoch_; }

  const Entry* lookup(std::uint64_t addr) const {
    auto it = index_.find(addr);
    return it == index_.end() ? nullptr : &it->second;
  }

  std::size_t block_count() const { return arena_.size(); }

 private:
  friend std::shared_ptr<const CodeCache> build_code_cache(
      const Memory&, std::span<const std::pair<std::uint64_t, std::uint64_t>>);
  CodeCache() = default;

  std::deque<DecodedBlock> arena_;  // node-stable; Entry points in here
  std::unordered_map<std::uint64_t, Entry> index_;
  std::uint64_t epoch_ = 0;
};

// Sweeps the [lo, hi) address ranges of `frozen` (typically function
// bodies) and decodes every superblock that starts on the linear sweep,
// skipping undecodable bytes. This is the one warming path
// (Image::load_shared builds it). Returns nullptr unless
// `frozen.frozen()` -- a cache anchored to mutable memory could never
// be revalidated soundly.
std::shared_ptr<const CodeCache> build_code_cache(
    const Memory& frozen,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ranges);

}  // namespace raindrop
