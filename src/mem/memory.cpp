#include "mem/memory.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace raindrop {

// page_for's TLB-hit paths and page_gen are inline in the header: they
// sit on the µop executor's load/store and block-validation fast paths.

Memory::Page& Memory::page_for_write_miss(std::uint64_t addr) {
  if (frozen_)
    throw std::logic_error("raindrop::Memory: write to frozen snapshot");
  std::uint64_t key = addr >> kPageBits;
  PageSlot* slot = tlb_.find(key);
  if (slot == nullptr) {
    slot = &pages_.try_emplace(key).first->second;
    if (slot->page == nullptr) slot->page = std::make_shared<Page>();
    tlb_.fill(key, slot);
  }
  if (slot->page.use_count() > 1) {
    // Copy-on-write: pages are shared between cloned memories (attack
    // engines fork states constantly; deep copies would dominate
    // runtime).
    slot->page = std::make_shared<Page>(*slot->page);
  }
  write_epoch_ += slot->code;
  return *slot->page;
}

const Memory::Page* Memory::page_for_read_miss(std::uint64_t addr) const {
  std::uint64_t key = addr >> kPageBits;
  auto it = pages_.find(key);
  if (it == pages_.end()) return nullptr;
  // The slot is only ever written through by the mutable overload,
  // which needs a non-const Memory.
  if (!frozen_) tlb_.fill(key, const_cast<PageSlot*>(&it->second));
  return it->second.page.get();
}

void Memory::watch_code(std::uint64_t addr) {
  if (frozen_) return;
  PageSlot& slot = pages_[addr >> kPageBits];
  if (slot.page == nullptr) slot.page = std::make_shared<Page>();
  slot.code = true;
}

std::uint8_t Memory::read_u8(std::uint64_t addr) const {
  const Page* p = page_for(addr);
  return p ? p->bytes[addr & (kPageSize - 1)] : 0;
}

void Memory::write_u8(std::uint64_t addr, std::uint8_t v) {
  Page& p = page_for(addr);
  p.bytes[addr & (kPageSize - 1)] = v;
  ++p.gen;
}

std::uint64_t Memory::read(std::uint64_t addr, unsigned size) const {
  std::uint64_t off = addr & (kPageSize - 1);
  if (off + size <= kPageSize) {
    // One page probe instead of one per byte. The CPU's lowered load,
    // push/pop and RET paths use read_fixed instead; this serves the
    // exec() reference switch, attacks and loaders.
    const Page* p = page_for(addr);
    if (!p) return 0;
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p->bytes.data() + off, size);
    } else {
      for (unsigned i = 0; i < size; ++i)
        v |= std::uint64_t(p->bytes[off + i]) << (8 * i);
    }
    return v;
  }
  std::uint64_t v = 0;  // page-straddling access: rare, byte-wise
  for (unsigned i = 0; i < size; ++i)
    v |= std::uint64_t(read_u8(addr + i)) << (8 * i);
  return v;
}

void Memory::write(std::uint64_t addr, std::uint64_t v, unsigned size) {
  std::uint64_t off = addr & (kPageSize - 1);
  if (off + size <= kPageSize) {
    Page& p = page_for(addr);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p.bytes.data() + off, &v, size);
    } else {
      for (unsigned i = 0; i < size; ++i)
        p.bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    ++p.gen;
    return;
  }
  for (unsigned i = 0; i < size; ++i)
    write_u8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void Memory::write_bytes(std::uint64_t addr,
                         std::span<const std::uint8_t> bytes) {
  std::size_t i = 0;
  while (i < bytes.size()) {
    std::uint64_t a = addr + i;
    std::size_t off = a & (kPageSize - 1);
    std::size_t n = std::min(bytes.size() - i,
                             static_cast<std::size_t>(kPageSize - off));
    Page& p = page_for(a);
    std::memcpy(p.bytes.data() + off, bytes.data() + i, n);
    ++p.gen;
    i += n;
  }
}

std::vector<std::uint8_t> Memory::read_bytes(std::uint64_t addr,
                                             std::size_t len) const {
  std::vector<std::uint8_t> out(len);
  std::size_t i = 0;
  while (i < len) {
    std::uint64_t a = addr + i;
    std::size_t off = a & (kPageSize - 1);
    std::size_t n =
        std::min(len - i, static_cast<std::size_t>(kPageSize - off));
    if (const Page* p = page_for(a))
      std::memcpy(out.data() + i, p->bytes.data() + off, n);
    i += n;
  }
  return out;
}

void Memory::map_region(std::uint64_t addr, std::uint64_t size, Perm perm,
                        std::string name) {
  if (frozen_)
    throw std::logic_error("raindrop::Memory: map_region on frozen snapshot");
  ++write_epoch_;
  std::uint32_t idx = static_cast<std::uint32_t>(regions_.size());
  regions_.push_back(Region{addr, size, perm, std::move(name)});
  if (size == 0) return;  // can never contain an address; keep out of index
  auto pos = std::upper_bound(
      by_start_.begin(), by_start_.end(), addr,
      [&](std::uint64_t a, std::uint32_t i) { return a < regions_[i].start; });
  if (!overlapping_) {
    // Disjointness check against the sorted neighbours; the first overlap
    // permanently demotes lookups to the linear first-match scan.
    if (pos != by_start_.begin()) {
      const Region& prev = regions_[*(pos - 1)];
      if (prev.start + prev.size > addr) overlapping_ = true;
    }
    if (pos != by_start_.end() && regions_[*pos].start < addr + size)
      overlapping_ = true;
  }
  by_start_.insert(pos, idx);
}

bool Memory::is_mapped(std::uint64_t addr) const {
  return region_at(addr) != nullptr;
}

Perm Memory::perm_at(std::uint64_t addr) const {
  const Region* r = region_at(addr);
  return r ? r->perm : kPermNone;
}

const std::string* Memory::region_name(std::uint64_t addr) const {
  const Region* r = region_at(addr);
  return r ? &r->name : nullptr;
}

const Memory::Region* Memory::find_region(const std::string& name) const {
  for (const auto& r : regions_)
    if (r.name == name) return &r;
  return nullptr;
}

const Memory::Region* Memory::region_at(std::uint64_t addr) const {
  if (overlapping_) {
    // Overlapping regions: the sorted index cannot express first-match
    // precedence, so fall back to the original linear scan.
    for (const auto& r : regions_)
      if (r.contains(addr)) return &r;
    return nullptr;
  }
  // Disjoint regions: the unique candidate is the greatest start <= addr.
  auto pos = std::upper_bound(
      by_start_.begin(), by_start_.end(), addr,
      [&](std::uint64_t a, std::uint32_t i) { return a < regions_[i].start; });
  if (pos == by_start_.begin()) return nullptr;
  const Region& r = regions_[*(pos - 1)];
  return r.contains(addr) ? &r : nullptr;
}

Memory Memory::clone() const {
  // Shallow copy; pages become shared and copy-on-write on next write.
  Memory c = *this;
  if (frozen_) {
    // Descendant of an immutable snapshot: writable, and anchored to the
    // ancestor for cache-import lineage checks.
    c.frozen_ = false;
    c.lineage_ = snapshot_id_;
    c.snapshot_id_ = 0;
  }
  return c;
}

void Memory::freeze() {
  if (frozen_) return;
  static std::atomic<std::uint64_t> next_id{1};
  snapshot_id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  frozen_ = true;
  // Frozen snapshots may be read from several threads; an empty TLB that
  // is never filled again keeps those reads free of shared writes.
  tlb_.clear();
}

}  // namespace raindrop
