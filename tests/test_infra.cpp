// Infrastructure units: sparse memory (copy-on-write semantics), image
// building/loading, chain materialization, and the gadget pool's
// diversification contract.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "gadgets/catalog.hpp"
#include "image/image.hpp"
#include "isa/encode.hpp"
#include "mem/memory.hpp"
#include "rop/chain.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace raindrop {
namespace {

TEST(Memory, ReadWriteRoundTripAllSizes) {
  Memory m;
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    std::uint64_t v = 0x1122334455667788ull &
                      (size == 8 ? ~0ull : ((1ull << (size * 8)) - 1));
    m.write(0x1000, v, size);
    EXPECT_EQ(m.read(0x1000, size), v) << size;
  }
}

TEST(Memory, UnmappedReadsZero) {
  Memory m;
  EXPECT_EQ(m.read_u64(0xdeadbeef000), 0u);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  std::uint64_t addr = Memory::kPageSize - 3;
  m.write_u64(addr, 0x0123456789abcdefull);
  EXPECT_EQ(m.read_u64(addr), 0x0123456789abcdefull);
}

TEST(Memory, CloneIsCopyOnWrite) {
  Memory a;
  a.write_u64(0x100, 42);
  Memory b = a.clone();
  b.write_u64(0x100, 99);
  EXPECT_EQ(a.read_u64(0x100), 42u);
  EXPECT_EQ(b.read_u64(0x100), 99u);
  a.write_u64(0x108, 7);
  EXPECT_EQ(b.read_u64(0x108), 0u);
}

TEST(Memory, PageGenerationsAdvanceOnWrite) {
  Memory m;
  EXPECT_EQ(m.page_gen(0x1000), 0u);  // never-written page
  m.write_u8(0x1000, 1);
  std::uint32_t g1 = m.page_gen(0x1000);
  EXPECT_GT(g1, 0u);
  // Same-page address maps to the same generation counter.
  EXPECT_EQ(m.page_gen(0x1fff), g1);
  // A write to a different page leaves this one's generation alone.
  m.write_u64(0x5000, 7);
  EXPECT_EQ(m.page_gen(0x1000), g1);
  // Any mutation path bumps: scalar writes, bulk writes.
  m.write_u64(0x1008, 9);
  std::uint32_t g2 = m.page_gen(0x1000);
  EXPECT_GT(g2, g1);
  std::vector<std::uint8_t> blob(Memory::kPageSize + 100, 0xab);
  m.write_bytes(0x1800, blob);  // straddles into the next page
  EXPECT_GT(m.page_gen(0x1000), g2);
  EXPECT_GT(m.page_gen(0x2000), 0u);
}

TEST(Memory, PageGenerationsAreCowIsolated) {
  Memory a;
  a.write_u64(0x100, 42);
  std::uint32_t ga = a.page_gen(0x100);
  Memory b = a.clone();
  EXPECT_EQ(b.page_gen(0x100), ga);  // snapshot shared at clone time
  b.write_u64(0x100, 99);
  EXPECT_GT(b.page_gen(0x100), ga);
  EXPECT_EQ(a.page_gen(0x100), ga);  // the source is untouched
}

// Page-TLB coherence. Each test warms the TLB (reads and writes through
// every page it later touches) before acting. Test page p < 64 is the
// first page from 0x400000 up in TLB entry p, so all 64 stay
// TLB-resident at once: every later access is a hit on a slot cached
// before the act under test. Test page p + 64 is the next page in entry
// p, so it shares page p's slot.
constexpr std::uint64_t kTlbPages = 64;

// The next page above `addr`'s that maps to the same TLB entry.
std::uint64_t next_alias(std::uint64_t addr) {
  std::uint64_t page = addr & ~(Memory::kPageSize - 1);
  do {
    page += Memory::kPageSize;
  } while (Memory::tlb_entry(page) != Memory::tlb_entry(addr));
  return page;
}

std::uint64_t tlb_addr(std::uint64_t page) {
  static const std::vector<std::uint64_t> pages = [] {
    std::vector<std::uint64_t> out(2 * kTlbPages, 0);
    std::size_t found = 0;
    for (std::uint64_t a = 0x400000; found < kTlbPages; a += Memory::kPageSize)
      if (out[Memory::tlb_entry(a)] == 0) {
        out[Memory::tlb_entry(a)] = a;
        ++found;
      }
    for (std::uint64_t p = 0; p < kTlbPages; ++p)
      out[kTlbPages + p] = next_alias(out[p]);
    return out;
  }();
  return pages.at(page) + 8 * (page % 16);
}

TEST(Memory, TlbSectionBasesGetDistinctEntries) {
  // The first pages of every image section and the heap each keep their
  // own entry, and page i of .text never evicts page i of .ropdata (a
  // ROP chain reads both in alternation).
  std::set<std::size_t> entries;
  for (std::uint64_t base :
       {kTextBase, kRodataBase, kDataBase, kRopDataBase, kHeapBase})
    entries.insert(Memory::tlb_entry(base));
  EXPECT_EQ(entries.size(), 5u);
  for (std::uint64_t i = 0; i < kTlbPages; ++i)
    EXPECT_NE(Memory::tlb_entry(kTextBase + i * Memory::kPageSize),
              Memory::tlb_entry(kRopDataBase + i * Memory::kPageSize))
        << "page " << i;
}

void warm_tlb(Memory& m, std::uint64_t base_value) {
  for (std::uint64_t p = 0; p < kTlbPages; ++p)
    m.write_u64(tlb_addr(p), base_value + p);
  for (std::uint64_t p = 0; p < kTlbPages; ++p)
    ASSERT_EQ(m.read_u64(tlb_addr(p)), base_value + p) << p;
}

void expect_pages(const Memory& m, std::uint64_t base_value) {
  for (std::uint64_t p = 0; p < kTlbPages; ++p)
    EXPECT_EQ(m.read_u64(tlb_addr(p)), base_value + p) << p;
}

TEST(Memory, TlbCloneIsolationBothWays) {
  Memory a;
  warm_tlb(a, 1000);
  Memory b = a.clone();
  expect_pages(b, 1000);  // warms b over pages still shared with a
  warm_tlb(b, 2000);      // every write must copy-on-write away from a
  expect_pages(a, 1000);
  warm_tlb(a, 3000);  // a's cached slots now hold pages shared with no one
  expect_pages(b, 2000);
  expect_pages(a, 3000);
  // A second clone re-shares a's pages under a's warm TLB.
  Memory c = a.clone();
  a.write_fixed<8>(tlb_addr(7), 1);
  a.write_u8(tlb_addr(8), 2);
  EXPECT_EQ(c.read_u64(tlb_addr(7)), 3007u);
  EXPECT_EQ(c.read_u8(tlb_addr(8)), 3008u & 0xff);
  c.write_u64(tlb_addr(9), 3);
  EXPECT_EQ(a.read_u64(tlb_addr(9)), 3009u);
}

TEST(Memory, TlbCopyAssignOntoWarmedMemory) {
  Memory src;
  warm_tlb(src, 100);
  Memory dst;
  warm_tlb(dst, 500);  // same page keys: dst's slots cache its own pages
  dst = src;
  expect_pages(dst, 100);
  dst.write_u64(tlb_addr(3), 42);
  EXPECT_EQ(src.read_u64(tlb_addr(3)), 103u);
  EXPECT_EQ(dst.read_u64(tlb_addr(3)), 42u);
  Memory& alias = dst;
  dst = alias;  // self-assignment keeps the contents
  EXPECT_EQ(dst.read_u64(tlb_addr(3)), 42u);
  expect_pages(src, 100);
}

TEST(Memory, TlbMovedFromMemoryAssignedAndReused) {
  Memory a;
  warm_tlb(a, 10);
  Memory b = std::move(a);
  expect_pages(b, 10);
  a = Memory{};  // reuse the moved-from object
  for (std::uint64_t p = 0; p < kTlbPages; ++p)
    EXPECT_EQ(a.read_u64(tlb_addr(p)), 0u) << p;
  warm_tlb(a, 20);
  expect_pages(b, 10);

  Memory c;
  warm_tlb(c, 30);
  c = std::move(b);  // move-assign onto a warmed Memory
  expect_pages(c, 10);
  b = c.clone();
  warm_tlb(b, 40);
  expect_pages(c, 10);
  expect_pages(a, 20);
}

TEST(Memory, TlbPageCreatedAfterCachedMiss) {
  Memory m;
  // `alias` shares `hit`'s direct-mapped TLB slot.
  std::uint64_t hit = 0x7000, alias = next_alias(hit);
  m.write_u64(hit, 5);
  EXPECT_EQ(m.read_u64(hit), 5u);
  const Memory& cm = m;
  EXPECT_EQ(cm.read_u64(alias), 0u);  // miss on an unmapped page
  EXPECT_EQ(cm.page_gen(alias), 0u);
  m.write_u64(alias, 6);  // creates the page
  EXPECT_EQ(cm.read_u64(alias), 6u);
  EXPECT_GT(cm.page_gen(alias), 0u);
  EXPECT_EQ(cm.read_u64(hit), 5u);
  // The same through write_bytes and a miss in the other direction.
  std::uint64_t fresh = next_alias(alias);
  EXPECT_EQ(cm.read_u8(fresh), 0u);
  std::vector<std::uint8_t> blob{1, 2, 3};
  m.write_bytes(fresh, blob);
  EXPECT_EQ(cm.read_bytes(fresh, 3), blob);
  EXPECT_EQ(cm.read_u64(alias), 6u);
}

TEST(Memory, TlbPageGenAndWriteEpochAdvanceThroughHits) {
  Memory m;
  warm_tlb(m, 0);
  std::uint64_t addr = tlb_addr(11);  // a data page: never marked
  std::uint64_t code = tlb_addr(12);  // a code page: marked below
  m.watch_code(code);
  // Every write moves its page's generation; only a write to a marked
  // page also moves the write epoch.
  auto step = [&](Memory& mm, std::uint64_t at, bool marked, auto&& write,
                  const char* what) {
    std::uint32_t g = mm.page_gen(at);
    std::uint64_t e = mm.write_epoch();
    write();
    EXPECT_GT(mm.page_gen(at), g) << what;
    if (marked)
      EXPECT_GT(mm.write_epoch(), e) << what;
    else
      EXPECT_EQ(mm.write_epoch(), e) << what;
  };
  std::vector<std::uint8_t> blob(16, 4);
  for (std::uint64_t at : {addr, code}) {
    bool marked = at == code;
    step(m, at, marked, [&] { m.write_u8(at, 1); }, "write_u8");
    step(m, at, marked, [&] { m.write(at, 2, 4); }, "write");
    step(m, at, marked, [&] { m.write_fixed<8>(at, 3); }, "write_fixed");
    step(m, at, marked, [&] { m.write_bytes(at, blob); }, "write_bytes");
  }
  // write_bytes across a marked/unmarked page line, in both directions:
  // both generations move, and the epoch moves for the marked page.
  std::uint64_t line = (code & ~(Memory::kPageSize - 1)) + Memory::kPageSize;
  (void)m.read_u64(line);  // warm the unmarked neighbour's entry
  for (std::uint64_t at : {line - 8, line - Memory::kPageSize - 8}) {
    std::uint32_t g_lo = m.page_gen(at), g_hi = m.page_gen(at + 8);
    std::uint64_t e = m.write_epoch();
    m.write_bytes(at, blob);
    EXPECT_GT(m.page_gen(at), g_lo) << at;
    EXPECT_GT(m.page_gen(at + 8), g_hi) << at;
    EXPECT_GT(m.write_epoch(), e) << at;
  }
  std::uint32_t g_line = m.page_gen(line);
  std::uint64_t e_line = m.write_epoch();
  m.write_bytes(line + 8, blob);  // the unmarked page alone
  EXPECT_GT(m.page_gen(line), g_line);
  EXPECT_EQ(m.write_epoch(), e_line);
  // Through a copy-on-write swap: the source's generation moves, the
  // clone keeps the snapshot it copied. The clone inherits the marks.
  Memory c = m.clone();
  std::uint32_t shared = c.page_gen(addr);
  std::uint32_t shared_code = c.page_gen(code);
  step(m, addr, false, [&] { m.write_u64(addr, 5); }, "cow write");
  step(m, code, true, [&] { m.write_u64(code, 5); }, "cow write, marked");
  EXPECT_EQ(c.page_gen(addr), shared);
  EXPECT_EQ(c.page_gen(code), shared_code);
  EXPECT_EQ(c.read_u8(addr), 4u);
  EXPECT_EQ(c.read_u8(code), 4u);
  step(c, addr, false, [&] { c.write_u64(addr, 6); }, "clone write");
  step(c, code, true, [&] { c.write_u64(code, 6); }, "clone write, marked");
  // Reads never move either counter.
  std::uint32_t g = m.page_gen(code);
  std::uint64_t e = m.write_epoch();
  (void)m.read_u64(code);
  EXPECT_EQ(m.page_gen(code), g);
  EXPECT_EQ(m.write_epoch(), e);
}

TEST(Memory, CodeMarkOnNeverWrittenPage) {
  // Marking a page that was never written materializes a zero page, so
  // a read that fills the TLB with the slot and a write through that
  // TLB entry both find a page behind it.
  Memory m;
  m.watch_code(0x5000);
  EXPECT_EQ(m.read_u8(0x5000), 0u);
  EXPECT_EQ(m.page_gen(0x5000), 0u);
  std::uint64_t e = m.write_epoch();
  m.write_u8(0x5000, 1);
  EXPECT_EQ(m.read_u8(0x5000), 1u);
  EXPECT_GT(m.page_gen(0x5000), 0u);
  EXPECT_GT(m.write_epoch(), e);
}

TEST(Memory, TlbFrozenSnapshotReadByThreadsWhileClonesWrite) {
  // Twice the TLB's reach: test pages p and p + 64 share a slot, so
  // every snapshot read below misses and would refill a shared slot if
  // a frozen Memory filled its TLB (a data race the sanitizers flag).
  constexpr std::uint64_t kPages = 2 * kTlbPages;
  Memory snap;
  for (std::uint64_t p = 0; p < kPages; ++p)
    snap.write_u64(tlb_addr(p), 7000 + p);
  for (std::uint64_t p = 0; p < kPages; ++p)
    ASSERT_EQ(snap.read_u64(tlb_addr(p)), 7000 + p);
  snap.freeze();  // the TLB is warm when the snapshot freezes
  constexpr int kThreads = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        Memory mine = snap.clone();
        std::uint64_t base = 100000u * (t + 1) + round;
        for (std::uint64_t p = 0; p < kPages; ++p) {
          if (snap.read_u64(tlb_addr(p)) != 7000 + p) ++bad;
          mine.write_u64(tlb_addr(p), base + p);
          if (snap.read_u64(tlb_addr(p)) != 7000 + p) ++bad;
        }
        for (std::uint64_t p = 0; p < kPages; ++p)
          if (mine.read_u64(tlb_addr(p)) != base + p) ++bad;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  expect_pages(snap, 7000);
}

TEST(ThreadPool, SingleThreadRunsInlineWithoutWorkers) {
  ThreadPool tp(1);
  EXPECT_EQ(tp.thread_count(), 0);  // no workers spawned, no churn
  std::thread::id caller = std::this_thread::get_id();
  bool inline_submit = false;
  tp.submit([&] { inline_submit = std::this_thread::get_id() == caller; });
  EXPECT_TRUE(inline_submit);  // submit() ran before returning
  std::vector<std::size_t> order;
  tp.parallel_for(4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  tp.wait_idle();  // trivially idle; must not deadlock
}

TEST(ThreadPool, MultiThreadCompletesAllTasks) {
  ThreadPool tp(4);
  EXPECT_EQ(tp.thread_count(), 4);
  std::vector<int> hits(64, 0);
  tp.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstExceptionAndSurvives) {
  // A throwing body must not bring a worker down (or deadlock the
  // latch): parallel_for captures the first exception, finishes the
  // remaining indices, rethrows on the calling thread, and the pool
  // stays fully usable afterwards.
  ThreadPool tp(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(tp.parallel_for(64,
                               [&](std::size_t i) {
                                 if (i % 7 == 3)
                                   throw std::runtime_error("task boom");
                                 ran.fetch_add(1, std::memory_order_relaxed);
                               }),
               std::runtime_error);
  EXPECT_GT(ran.load(), 0);
  // The pool survived: every worker still drains new work.
  std::vector<int> hits(64, 0);
  tp.parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  tp.wait_idle();

  // Inline (single-thread) flavour: same contract, immediate propagation.
  ThreadPool inline_tp(1);
  int before = 0;
  EXPECT_THROW(inline_tp.parallel_for(8,
                                      [&](std::size_t i) {
                                        if (i == 2)
                                          throw std::runtime_error("boom");
                                        ++before;
                                      }),
               std::runtime_error);
  EXPECT_EQ(before, 2);  // indices 0,1 ran; 2 threw; 3.. skipped
}

TEST(Memory, RegionsAndPermissions) {
  Memory m;
  m.map_region(0x1000, 0x1000, kPermRX, ".text");
  m.map_region(0x3000, 0x1000, kPermRW, ".data");
  EXPECT_EQ(m.perm_at(0x1800), kPermRX);
  EXPECT_EQ(m.perm_at(0x3800), kPermRW);
  EXPECT_EQ(m.perm_at(0x9999), kPermNone);
  ASSERT_NE(m.region_name(0x1000), nullptr);
  EXPECT_EQ(*m.region_name(0x1000), ".text");
  EXPECT_NE(m.find_region(".data"), nullptr);
}

// Containment lookups run over a start-sorted index (not a linear region
// scan); the index must stay exact across out-of-order appends, gaps,
// boundary addresses, and appends made after earlier lookups -- and an
// overlapping append must fall back to the documented first-mapped-wins
// precedence.
TEST(Memory, RegionLookupIndexExactAcrossAppendsAndOverlap) {
  Memory m;
  m.map_region(0x3000, 0x1000, kPermRX, "c");
  m.map_region(0x1000, 0x1000, kPermRW, "a");
  m.map_region(0x5000, 0x1000, kPermR, "e");
  EXPECT_EQ(m.perm_at(0x1000), kPermRW);   // first byte
  EXPECT_EQ(m.perm_at(0x1fff), kPermRW);   // last byte
  EXPECT_EQ(m.perm_at(0x2000), kPermNone); // gap between a and c
  EXPECT_EQ(m.perm_at(0x2fff), kPermNone);
  ASSERT_NE(m.region_name(0x3fff), nullptr);
  EXPECT_EQ(*m.region_name(0x3fff), "c");
  EXPECT_EQ(m.perm_at(0x4000), kPermNone); // gap between c and e
  EXPECT_EQ(m.perm_at(0x0), kPermNone);    // below every region
  EXPECT_TRUE(m.is_mapped(0x5fff));
  EXPECT_FALSE(m.is_mapped(0x6000));       // above every region

  // Append into a gap after lookups ran: the index must pick it up.
  m.map_region(0x2000, 0x800, kPermW, "b");
  EXPECT_EQ(m.perm_at(0x2400), kPermW);
  EXPECT_EQ(m.perm_at(0x2900), kPermNone);

  // Overlapping append: earlier-mapped regions keep precedence where
  // they cover, and the new region answers only where they do not.
  m.map_region(0x1800, 0x1800, kPermRX, "overlay");  // spans a, b, gap
  EXPECT_EQ(m.perm_at(0x1900), kPermRW);  // still "a" (mapped first)
  EXPECT_EQ(m.perm_at(0x2100), kPermW);   // still "b"
  EXPECT_EQ(m.perm_at(0x2900), kPermRX);  // only the overlay covers this
  ASSERT_NE(m.region_at(0x2900), nullptr);
  EXPECT_EQ(m.region_at(0x2900)->name, "overlay");
}

TEST(Memory, WriteEpochAdvancesOnCodePageWritesAndRegionAppends) {
  Memory m;
  m.map_region(0x1000, 0x2000, kPermRW, "d");
  std::uint64_t e0 = m.write_epoch();
  m.write_u8(0x1000, 1);
  EXPECT_EQ(m.write_epoch(), e0);  // unmarked page: generation only
  m.watch_code(0x1000);
  EXPECT_EQ(m.write_epoch(), e0);  // marking is not a mutation
  m.write_u8(0x1000, 2);
  std::uint64_t e1 = m.write_epoch();
  EXPECT_GT(e1, e0);
  (void)m.read_u64(0x1000);
  EXPECT_EQ(m.write_epoch(), e1);  // reads never move the epoch
  m.write_bytes(0x1ff0, std::vector<std::uint8_t>(32, 0xcc));
  EXPECT_EQ(m.write_epoch(), e1 + 1);  // one bump per marked page touched
  std::uint64_t e2 = m.write_epoch();
  m.map_region(0x9000, 0x1000, kPermR, "r");
  EXPECT_GT(m.write_epoch(), e2);  // region appends count as mutations
}

TEST(Memory, CodeMarkOnFrozenSnapshotIsNoOp) {
  Memory m;
  m.write_u64(0x1000, 42);
  m.freeze();
  std::uint64_t e = m.write_epoch();
  EXPECT_NO_THROW(m.watch_code(0x1000));
  EXPECT_NO_THROW(m.watch_code(0x8000));  // never written: not created
  EXPECT_EQ(m.write_epoch(), e);
  EXPECT_EQ(m.read_u64(0x1000), 42u);
  EXPECT_EQ(m.page_gen(0x8000), 0u);
  // Nothing was marked, so a clone's writes leave its epoch alone.
  Memory c = m.clone();
  c.write_u64(0x1000, 7);
  c.write_u64(0x8000, 7);
  EXPECT_EQ(c.write_epoch(), e);
  EXPECT_EQ(m.read_u64(0x1000), 42u);
}

TEST(Memory, FreezeLineageAndImmutability) {
  Memory m;
  m.map_region(0x1000, 0x1000, kPermRW, "d");
  m.write_u64(0x1000, 42);
  EXPECT_FALSE(m.frozen());
  EXPECT_EQ(m.lineage(), 0u);  // no frozen ancestor yet

  m.freeze();
  EXPECT_TRUE(m.frozen());
  std::uint64_t id = m.lineage();
  EXPECT_NE(id, 0u);
  m.freeze();                    // idempotent: the id must not change
  EXPECT_EQ(m.lineage(), id);
  EXPECT_THROW(m.write_u64(0x1000, 1), std::logic_error);
  EXPECT_THROW(m.write_bytes(0x1000, std::vector<std::uint8_t>{1}),
               std::logic_error);
  EXPECT_THROW(m.map_region(0x9000, 0x1000, kPermRW, "x"), std::logic_error);
  EXPECT_EQ(m.read_u64(0x1000), 42u);  // reads still fine

  // Clones are writable descendants carrying the ancestor's lineage.
  Memory c = m.clone();
  EXPECT_FALSE(c.frozen());
  EXPECT_EQ(c.lineage(), id);
  c.write_u64(0x1000, 7);
  EXPECT_EQ(c.read_u64(0x1000), 7u);
  EXPECT_EQ(m.read_u64(0x1000), 42u);
  Memory g = c.clone();  // grandchildren keep the same anchor
  EXPECT_EQ(g.lineage(), id);

  // A different frozen snapshot gets a process-unique id.
  Memory other;
  other.map_region(0x1000, 0x1000, kPermRW, "d");
  other.freeze();
  EXPECT_NE(other.lineage(), id);
}

TEST(Image, AppendPatchAndLoad) {
  Image img;
  std::uint8_t data[] = {1, 2, 3, 4};
  std::uint64_t a = img.append(".data", data);
  EXPECT_EQ(a, kDataBase);
  img.patch_u32(a, 0xaabbccdd);
  EXPECT_EQ(img.byte_at(a), 0xdd);
  std::uint64_t b = img.reserve(".data", 8);
  img.patch_u64(b, 0x1122334455667788ull);
  EXPECT_EQ(img.u64_at(b), 0x1122334455667788ull);
  Memory mem = img.load();
  EXPECT_EQ(mem.read_u64(b), 0x1122334455667788ull);
  EXPECT_TRUE(mem.perm_at(kTextBase) == kPermNone ||
              (mem.perm_at(kTextBase) & kPermX));
}

TEST(Image, FunctionLookup) {
  Image img;
  img.add_function(FunctionSym{"f", 0x400000, 32, false, 2});
  img.add_function(FunctionSym{"g", 0x400020, 16, false, 1});
  EXPECT_EQ(img.function("g")->addr, 0x400020u);
  EXPECT_EQ(img.function_at(0x400025)->name, "g");
  EXPECT_EQ(img.function_at(0x40001f)->name, "f");
  EXPECT_EQ(img.function("missing"), nullptr);
}

TEST(Chain, MaterializeDeltasAndLabels) {
  rop::Chain ch;
  int l1 = ch.new_label(), anchor = ch.new_label();
  ch.g(0x400100);
  ch.delta(l1, anchor, -3);
  ch.g(0x400200);
  ch.bind(anchor);
  ch.imm(7);
  ch.bind(l1);
  ch.g(0x400300);
  auto mat = ch.materialize();
  ASSERT_EQ(mat.bytes.size(), 5u * 8);
  // items: g(8) delta(8) g(8) [anchor] imm(8) [l1] g(8)
  EXPECT_EQ(mat.label_offsets.at(anchor), 24u);
  EXPECT_EQ(mat.label_offsets.at(l1), 32u);
  // delta value = 32 - 24 - 3 = 5
  std::uint64_t delta = 0;
  for (int i = 0; i < 8; ++i)
    delta |= std::uint64_t(mat.bytes[8 + i]) << (8 * i);
  EXPECT_EQ(delta, 5u);
}

TEST(Chain, AbsolutePositionsUseChainBase) {
  rop::Chain ch;
  int l = ch.new_label();
  ch.abs_pos(l);
  ch.bind(l);
  ch.g(0x400100);
  auto mat = ch.materialize(0x3000000);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(mat.bytes[i]) << (8 * i);
  EXPECT_EQ(v, 0x3000000u + 8);
}

TEST(Chain, RawBytesShiftLayout) {
  rop::Chain ch;
  ch.g(0x400100);
  ch.raw({0xaa, 0xbb, 0xcc});
  int l = ch.new_label();
  ch.bind(l);
  ch.imm(1);
  auto mat = ch.materialize();
  EXPECT_EQ(mat.label_offsets.at(l), 11u);
  EXPECT_EQ(mat.bytes.size(), 19u);
}

TEST(Chain, UnboundLabelThrows) {
  rop::Chain ch;
  int l = ch.new_label(), a = ch.new_label();
  ch.delta(l, a);
  ch.bind(a);
  EXPECT_THROW(ch.materialize(), std::runtime_error);
}

// Gadgets are chosen only through the batch plan: plan_batch against the
// frozen catalog, then commit_plan appends the planned gadgets.
gadgets::GadgetRequest request(std::vector<isa::Insn> core,
                               analysis::RegSet allowed, bool jop = false,
                               isa::Reg jop_target = isa::Reg::RAX) {
  std::string key = gadgets::GadgetPool::key_of(core, jop, jop_target);
  return {std::move(core), jop, jop_target, allowed, std::move(key)};
}

std::vector<std::uint64_t> resolve(
    gadgets::GadgetPool& pool,
    const std::vector<gadgets::GadgetRequest>& reqs, int shards = 1) {
  std::vector<const gadgets::GadgetRequest*> ptrs;
  for (const auto& r : reqs) ptrs.push_back(&r);
  return pool.commit_plan(pool.plan_batch(ptrs, shards, /*threads=*/1));
}

TEST(GadgetPool, SynthesizesAndReuses) {
  Image img;
  gadgets::GadgetPool pool(&img, 1, 4);
  std::vector<isa::Insn> core = {isa::ib::pop(isa::Reg::RDI)};
  std::uint64_t a1 = resolve(pool, {request(core, analysis::RegSet())})[0];
  // With no junk allowed, variants are identical cores; the pool may
  // still synthesize a couple for diversity but must stay bounded.
  std::vector<gadgets::GadgetRequest> reqs(50,
                                           request(core, analysis::RegSet()));
  std::vector<std::uint64_t> got = resolve(pool, reqs);
  std::set<std::uint64_t> addrs(got.begin(), got.end());
  EXPECT_LE(addrs.size(), 4u);
  EXPECT_TRUE(addrs.count(a1));
  const gadgets::Gadget* g = pool.at(a1);
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->jop);
}

TEST(GadgetPool, JunkRespectsClobberSet) {
  std::vector<isa::Insn> mov_ab = {isa::ib::mov(isa::Reg::RAX, isa::Reg::RBX)};
  std::vector<isa::Insn> mov_cd = {isa::ib::mov(isa::Reg::RCX, isa::Reg::RDX)};
  analysis::RegSet allowed;
  allowed.add(isa::Reg::R9);
  std::vector<gadgets::GadgetRequest> reqs;
  for (int i = 0; i < 40; ++i)
    reqs.push_back(request(i % 2 ? mov_cd : mov_ab, allowed));

  Image img;
  gadgets::GadgetPool pool(&img, 2, 8);
  std::vector<std::uint64_t> addrs = resolve(pool, reqs);
  for (std::uint64_t a : addrs) {
    const gadgets::Gadget* g = pool.at(a);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->extra_clobbers.minus(allowed).empty());
    for (const auto& insn : g->body) {
      // Junk must never touch flags (mov-only) nor the core registers.
      EXPECT_FALSE(isa::writes_flags(insn.op));
    }
  }

  // Sharding is invisible in the output: 3 shards resolve every request
  // to the same address and append the same bytes as 1.
  Image img3;
  gadgets::GadgetPool pool3(&img3, 2, 8);
  EXPECT_EQ(resolve(pool3, reqs, /*shards=*/3), addrs);
  EXPECT_EQ(img3.section_bytes(".text"), img.section_bytes(".text"));
}

TEST(GadgetPool, JopGadgetTerminatesWithJump) {
  Image img;
  gadgets::GadgetPool pool(&img, 3, 4);
  std::vector<isa::Insn> core = {
      isa::ib::xchg_m(isa::Reg::RSP, isa::MemRef::base_disp(isa::Reg::RAX))};
  std::uint64_t a = resolve(pool, {request(core, analysis::RegSet(),
                                           /*jop=*/true, isa::Reg::RCX)})[0];
  const gadgets::Gadget* g = pool.at(a);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->jop);
  EXPECT_EQ(g->jop_target, isa::Reg::RCX);
}

TEST(GadgetPool, HarvestFindsPlantedGadgets) {
  Image img;
  std::vector<std::uint8_t> bytes;
  isa::encode(isa::ib::pop(isa::Reg::RDI), bytes);
  isa::encode(isa::ib::ret(), bytes);
  const std::uint64_t add_off = bytes.size();
  isa::encode(isa::ib::add(isa::Reg::RAX, isa::Reg::RBX), bytes);
  isa::encode(isa::ib::ret(), bytes);
  std::uint64_t base = img.append(".text", bytes);
  gadgets::GadgetPool pool(&img, 4, 4);
  EXPECT_GE(pool.harvest(base, base + bytes.size()), 2u);

  const gadgets::Gadget* pop = pool.at(base);
  ASSERT_NE(pop, nullptr);
  ASSERT_EQ(pop->body.size(), 1u);
  EXPECT_EQ(pop->body[0].op, isa::Op::POP_R);
  EXPECT_FALSE(pop->jop);
  const gadgets::Gadget* add = pool.at(base + add_off);
  ASSERT_NE(add, nullptr);
  ASSERT_EQ(add->body.size(), 1u);
  EXPECT_EQ(add->body[0].op, isa::Op::ADD_RR);
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(8);
  int buckets[8] = {};
  for (int i = 0; i < 8000; ++i) ++buckets[c.below(8)];
  for (int k = 0; k < 8; ++k) EXPECT_GT(buckets[k], 700);
}

}  // namespace
}  // namespace raindrop
