#include "cpu/code_cache.hpp"

namespace raindrop {

std::shared_ptr<const CodeCache> build_code_cache(
    const Memory& frozen,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> ranges) {
  if (!frozen.frozen()) return nullptr;
  std::shared_ptr<CodeCache> cc(new CodeCache());
  cc->epoch_ = frozen.lineage();
  for (const auto& [lo, hi] : ranges) {
    std::uint64_t a = lo;
    while (a < hi) {
      if (const CodeCache::Entry* e = cc->lookup(a)) {
        // Already covered (possibly as the interior of an overlapping
        // block): skip to that block's end.
        std::uint64_t next = e->block->start + e->block->byte_len;
        a = next > a ? next : a + 1;
        continue;
      }
      // decode_superblock also lowers (DecodedBlock::uops), so the
      // shared cache hands out blocks ready for µop dispatch.
      DecodedBlock b = decode_superblock(frozen, a);
      if (b.insns.empty()) {
        ++a;  // undecodable byte (data between functions): skip
        continue;
      }
      std::uint64_t next = b.start + b.byte_len;
      cc->arena_.push_back(std::move(b));
      DecodedBlock& blk = cc->arena_.back();
      std::uint64_t addr = blk.start;
      for (std::uint32_t i = 0;
           i < static_cast<std::uint32_t>(blk.insns.size()); ++i) {
        cc->index_.try_emplace(addr, CodeCache::Entry{&blk, i});
        addr += blk.insns[i].length;
      }
      a = next;
    }
  }
  return cc;
}

}  // namespace raindrop
