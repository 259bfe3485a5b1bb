// Sparse paged memory with section-level permissions. This is the address
// space both native code and ROP chains live in: .text gadgets, .data
// chains, the native stack and the stack-switching array ss all map here.
//
// Every write advances a per-page generation counter (one bump per page
// touched per operation). Consumers that cache derived views of memory --
// the CPU's superblock decode cache above all -- snapshot the generations
// of the pages they read and lazily rebuild when a generation moves, so a
// write to one page never invalidates caches built over another. Pages
// that hold decoded code are additionally marked (watch_code()): a write
// to a marked page also advances the Memory-wide write epoch, which lets
// the CPU skip per-page checks while only stack and data pages change.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

// A Memory can additionally be frozen() into an immutable snapshot with a
// process-unique snapshot id. Clones of a frozen snapshot (and clones of
// those clones) carry the snapshot id as their lineage(), which is what
// makes cross-Memory cache import sound: a cache built over the frozen
// ancestor may be imported into any descendant and revalidated purely via
// page generations, because the ancestor's pages can never change under
// it. Siblings share no such anchor (see page_gen()) and have distinct
// lineages unless both descend from the same frozen snapshot -- in which
// case import is anchored to that common immutable ancestor and is sound.

namespace raindrop {

enum Perm : std::uint8_t {
  kPermNone = 0,
  kPermR = 1,
  kPermW = 2,
  kPermX = 4,
  kPermRW = kPermR | kPermW,
  kPermRX = kPermR | kPermX,
  kPermRWX = kPermR | kPermW | kPermX,
};

class Memory {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;

  // Plain byte access. Reads of unmapped memory return 0 -- callers that
  // must fault on bad accesses use the checked_* API instead.
  std::uint8_t read_u8(std::uint64_t addr) const;
  void write_u8(std::uint64_t addr, std::uint8_t v);

  std::uint64_t read(std::uint64_t addr, unsigned size) const;  // LE
  void write(std::uint64_t addr, std::uint64_t v, unsigned size);

  std::uint64_t read_u64(std::uint64_t addr) const { return read(addr, 8); }
  void write_u64(std::uint64_t addr, std::uint64_t v) { write(addr, v, 8); }

  // Compile-time-sized variants of read()/write() for callers that know
  // the access width statically (the CPU's pre-lowered µop executor:
  // every lowered load/store/push/pop/ret carries its width in the
  // opcode). Same semantics, including zero reads from unmapped pages
  // and byte-wise page-straddling fallback; the win is that the size
  // branch and the memcpy length are constants. Defined below the class.
  template <unsigned N>
  std::uint64_t read_fixed(std::uint64_t addr) const;
  template <unsigned N>
  void write_fixed(std::uint64_t addr, std::uint64_t v);

  void write_bytes(std::uint64_t addr, std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> read_bytes(std::uint64_t addr,
                                       std::size_t len) const;

  // Write generation of the page containing `addr`. 0 for pages never
  // written; otherwise bumped at least once whenever any byte of the page
  // may have changed. A cached view of a byte range is stale iff any
  // spanned page's generation differs from the snapshot taken at build
  // time -- within one Memory, or from a frozen ancestor into its
  // clones (generations are copied at clone time and only move
  // forward). Two *sibling* clones can reach equal generations with
  // different bytes, so caches must never migrate between siblings.
  std::uint32_t page_gen(std::uint64_t addr) const {
    const Page* p = page_for(addr);
    return p ? p->gen : 0;
  }

  // Monotonic counter bumped whenever the generation of a page marked by
  // watch_code() moves (once per marked page touched per write), and on
  // region appends. Writes to unmarked pages -- stacks, chains, data --
  // leave it alone. Cheap "has any code page changed since?" probe: equal
  // epochs imply every *marked* page's generation is unchanged, so a
  // cached view over marked pages validated at that epoch is still
  // valid. Unequal epochs say nothing -- fall back to per-page
  // generation checks. Marks are never cleared, so the proof holds for
  // any view whose pages were marked before it was validated.
  std::uint64_t write_epoch() const { return write_epoch_; }

  // Mark the page containing `addr` as holding decoded code (see
  // write_epoch()). The mark lives in this Memory's own page table, not
  // in the (possibly shared) page, so copy-on-write siblings are never
  // touched; clones inherit it. A never-written page is materialized as
  // a zero page (reads still return 0, page_gen() stays 0) so that every
  // page-table slot holds a page. No-op on a frozen Memory, which can
  // never be written.
  void watch_code(std::uint64_t addr);

  // Freeze this Memory into an immutable snapshot and assign it a
  // process-unique snapshot id (idempotent). Writes and region appends on
  // a frozen Memory throw std::logic_error. clone() of a frozen Memory
  // yields a writable descendant whose lineage() is the ancestor's id.
  void freeze();
  bool frozen() const { return frozen_; }
  // Snapshot id of the frozen ancestor this Memory descends from (its own
  // id if frozen itself); 0 when it has no frozen ancestor.
  std::uint64_t lineage() const { return frozen_ ? snapshot_id_ : lineage_; }

  // Region bookkeeping. Regions are what the CPU consults for NX checks
  // and what attacks use to tell ".text addresses" from data.
  void map_region(std::uint64_t addr, std::uint64_t size, Perm perm,
                  std::string name);
  bool is_mapped(std::uint64_t addr) const;
  Perm perm_at(std::uint64_t addr) const;
  const std::string* region_name(std::uint64_t addr) const;

  struct Region {
    std::uint64_t start = 0;
    std::uint64_t size = 0;
    Perm perm = kPermNone;
    std::string name;
    bool contains(std::uint64_t a) const {
      return a >= start && a - start < size;
    }
  };
  const std::vector<Region>& regions() const { return regions_; }
  const Region* find_region(const std::string& name) const;
  // First region containing `addr` (same precedence as perm_at), or null.
  const Region* region_at(std::uint64_t addr) const;

  // The page-TLB entry that `addr`'s page maps to (tests pin the spread).
  static std::size_t tlb_entry(std::uint64_t addr) {
    return PageTlb::index(addr >> kPageBits);
  }

  // Deep copy (forking attack states, checkpoint/restore in tests).
  Memory clone() const;

 private:
  struct Page {
    std::array<std::uint8_t, kPageSize> bytes{};
    std::uint32_t gen = 0;  // see page_gen()
  };

  // One pages_ entry: the page, shared copy-on-write between clones,
  // and this Memory's own watch_code() mark. `page` is never null.
  struct PageSlot {
    std::shared_ptr<Page> page;
    bool code = false;
  };

  // Direct-mapped page translation cache in front of pages_: page key ->
  // pointer to that key's pages_ slot (unordered_map nodes never move).
  // A copy starts empty and a move empties its source, so Memory keeps
  // defaulted special members and never reaches another Memory's slots.
  class PageTlb {
   public:
    static constexpr int kIndexBits = 6;
    static constexpr std::size_t kEntries = std::size_t{1} << kIndexBits;

    PageTlb() = default;
    PageTlb(const PageTlb&) noexcept {}
    PageTlb(PageTlb&& o) noexcept { o.clear(); }
    PageTlb& operator=(const PageTlb&) noexcept {
      clear();
      return *this;
    }
    PageTlb& operator=(PageTlb&& o) noexcept {
      clear();
      o.clear();
      return *this;
    }

    // A multiplicative index, not `key % kEntries`: the section bases
    // (.text, .rodata, .data, .ropdata, heap) are all multiples of 64
    // pages, so a modulo maps them to one entry, and page i of .text to
    // the entry of page i of .ropdata, which a ROP chain reads in
    // alternation. The top bits of key times an odd 64-bit constant
    // (xxHash64's second prime) give each base its own entry.
    static std::size_t index(std::uint64_t key) {
      return static_cast<std::size_t>((key * 0xC2B2AE3D27D4EB4Full) >>
                                      (64 - kIndexBits));
    }
    // The cached slot for `key`, or null on a miss.
    PageSlot* find(std::uint64_t key) const {
      const Entry& e = entries_[index(key)];
      return e.key == key ? e.slot : nullptr;
    }
    void fill(std::uint64_t key, PageSlot* slot) {
      entries_[index(key)] = Entry{key, slot};
    }
    void clear() { entries_.fill(Entry{}); }

   private:
    struct Entry {
      // No page key reaches ~0 (keys are addresses >> kPageBits).
      std::uint64_t key = ~std::uint64_t{0};
      PageSlot* slot = nullptr;
    };
    std::array<Entry, kEntries> entries_{};
  };

  // Page translation for every access; both overloads go through tlb_.
  // TLB contract: a copy, clone or moved-from Memory starts with an empty
  // TLB; the write path's copy-on-write swaps the page inside the cached
  // slot, so the entry stays exact; a frozen snapshot never fills its TLB
  // (freeze() clears it), because frozen snapshots are the one Memory
  // read from several threads at once; misses are never cached, so a
  // page created later is found by the next probe. A cached slot pointer
  // is valid until its entry is erased, and pages are never erased -- if
  // an erase is ever added, it must clear tlb_.
  //
  // Each overload is an inline TLB hit plus one out-of-line cold path, so
  // the µop executor's read_fixed/write_fixed inline without the hash-map
  // and allocation code. The mutable overload is the sole mutation
  // gateway: every write path lands here exactly once per page
  // generation bump, and advances the write epoch with it iff the slot
  // is marked (write_epoch() doc above). Its hit path needs no frozen
  // check, because a frozen Memory's TLB is always empty.
  Page& page_for(std::uint64_t addr) {
    PageSlot* slot = tlb_.find(addr >> kPageBits);
    if (slot != nullptr && slot->page.use_count() == 1) [[likely]] {
      write_epoch_ += slot->code;
      return *slot->page;
    }
    return page_for_write_miss(addr);
  }
  const Page* page_for(std::uint64_t addr) const {
    if (PageSlot* slot = tlb_.find(addr >> kPageBits)) [[likely]]
      return slot->page.get();
    return page_for_read_miss(addr);
  }
  // Cold paths: TLB miss, copy-on-write and the frozen-snapshot throw.
  [[gnu::noinline]] Page& page_for_write_miss(std::uint64_t addr);
  [[gnu::noinline]] const Page* page_for_read_miss(std::uint64_t addr) const;

  std::unordered_map<std::uint64_t, PageSlot> pages_;
  mutable PageTlb tlb_;
  std::vector<Region> regions_;
  // Region indices ordered by start address. Regions are append-only and
  // in practice disjoint, so containment lookups binary-search this index
  // instead of walking the region list (which sits on the block-build and
  // NX-check hot paths). The first overlapping append flips overlapping_
  // and lookups fall back to the linear scan, preserving the documented
  // first-match precedence exactly.
  std::vector<std::uint32_t> by_start_;
  bool overlapping_ = false;
  std::uint64_t write_epoch_ = 0;
  bool frozen_ = false;
  std::uint64_t snapshot_id_ = 0;  // nonzero once frozen
  std::uint64_t lineage_ = 0;      // frozen ancestor's snapshot id
};

// Both fixed-width accessors are declared inline on purpose: GCC gives
// an un-annotated template only its small automatic-inlining budget,
// which left write_fixed<8> called out of line from run_lowered.
template <unsigned N>
inline std::uint64_t Memory::read_fixed(std::uint64_t addr) const {
  static_assert(N == 1 || N == 2 || N == 4 || N == 8);
  std::uint64_t off = addr & (kPageSize - 1);
  if (off + N <= kPageSize) [[likely]] {
    const Page* p = page_for(addr);
    if (!p) return 0;
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p->bytes.data() + off, N);
    } else {
      for (unsigned i = 0; i < N; ++i)
        v |= std::uint64_t(p->bytes[off + i]) << (8 * i);
    }
    return v;
  }
  return read(addr, N);  // page-straddling access: rare, byte-wise
}

template <unsigned N>
inline void Memory::write_fixed(std::uint64_t addr, std::uint64_t v) {
  static_assert(N == 1 || N == 2 || N == 4 || N == 8);
  std::uint64_t off = addr & (kPageSize - 1);
  if (off + N <= kPageSize) [[likely]] {
    Page& p = page_for(addr);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p.bytes.data() + off, &v, N);
    } else {
      for (unsigned i = 0; i < N; ++i)
        p.bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    ++p.gen;
    return;
  }
  write(addr, v, N);
}

}  // namespace raindrop
