// Persistent artifact-store tests (DESIGN.md §13): records must
// round-trip byte-exactly, corruption in any form -- bit rot, torn
// writes, torn segment tails, leftover files -- must be detected,
// evicted and recomputed (never fatal, never output-changing), and a
// fresh process over a populated store must produce byte-identical
// modules with a perfect store hit rate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cache.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "gadgets/catalog.hpp"
#include "image/image.hpp"
#include "isa/insn.hpp"
#include "minic/codegen.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"
#include "support/binio.hpp"
#include "support/faultpoint.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"

namespace raindrop {
namespace {

namespace fs = std::filesystem;
using analysis::AnalysisCache;
using store::ArtifactStore;
using store::Kind;

fs::path fresh_dir(const char* name) {
  fs::path d = fs::path(::testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(d, ec);
  return d;
}

std::vector<std::uint8_t> sample_payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return p;
}

rop::ObfConfig store_cfg(std::uint64_t seed) {
  rop::ObfConfig c = rop::rop_k(0.25, seed);
  c.p2 = true;
  c.gadget_confusion = true;
  return c;
}

struct StoreRun {
  Image img;
  engine::ModuleResult mod;
};

StoreRun run_corpus(const workload::Corpus& cp,
                    std::shared_ptr<AnalysisCache> cache,
                    bool record_tier_only = false) {
  StoreRun out;
  out.img = minic::compile(cp.module);
  engine::ObfuscationEngine eng(&out.img, store_cfg(7), cache);
  // An empty pre-batch makes the engine non-virgin, which disables the
  // whole-module fast path: the run then exercises the per-record tier
  // (analysis entries, craft memos, harvest) like a mid-life engine.
  if (record_tier_only)
    eng.materialize_module(eng.resolve_module(eng.craft_module({}, 1)));
  out.mod = eng.obfuscate_module(cp.functions, 1);
  return out;
}

// Every record of `kind` under `dir`, in segment / offset order.
std::vector<ArtifactStore::EntryInfo> records_of(const fs::path& dir,
                                                 Kind kind,
                                                 bool verify = true) {
  std::vector<ArtifactStore::EntryInfo> out;
  for (auto& e : ArtifactStore::scan(dir.string(), verify))
    if (e.kind == kind) out.push_back(std::move(e));
  return out;
}

// The segment files under `dir`, all kinds.
std::set<std::string> segment_files(const fs::path& dir) {
  std::set<std::string> out;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file() && e.path().extension() == ".seg")
      out.insert(e.path().string());
  return out;
}

// Disk rot: flips the low bit of the byte at `offset` of a segment.
void flip_byte(const std::string& segment, std::uint64_t offset) {
  std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << segment;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x01));
}

// The last payload byte of a record scan() reported.
std::uint64_t last_payload_byte(const ArtifactStore::EntryInfo& e) {
  return e.offset + 40 + e.payload_size - 1;
}

void expect_same_image(const Image& a, const Image& b, const char* what) {
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(a.section_bytes(sec), b.section_bytes(sec))
        << what << ": " << sec << " diverges";
}

void expect_same_result(const rop::RewriteResult& a,
                        const rop::RewriteResult& b, const std::string& what) {
  EXPECT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.failure, b.failure) << what;
  EXPECT_EQ(a.detail, b.detail) << what;
  EXPECT_EQ(a.stats.program_points, b.stats.program_points) << what;
  EXPECT_EQ(a.stats.gadget_slots, b.stats.gadget_slots) << what;
  EXPECT_EQ(a.stats.unique_gadgets, b.stats.unique_gadgets) << what;
  EXPECT_EQ(a.stats.gadgets_per_point, b.stats.gadgets_per_point) << what;
  EXPECT_EQ(a.stats.chain_bytes, b.stats.chain_bytes) << what;
  EXPECT_EQ(a.chain_addr, b.chain_addr) << what;
  EXPECT_EQ(a.chain_size, b.chain_size) << what;
}

void expect_same_results(const std::vector<rop::RewriteResult>& a,
                         const std::vector<rop::RewriteResult>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_same_result(a[i], b[i],
                       std::string(what) + " #" + std::to_string(i));
}

TEST(ArtifactStoreTest, RecordRoundTripAndContentAddressedSkip) {
  fs::path dir = fresh_dir("store_roundtrip");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  auto payload = sample_payload(333);

  EXPECT_FALSE(st.get(Kind::kAnalysis, 42).has_value());  // cold miss
  st.put(Kind::kAnalysis, 42, payload);
  auto got = st.get(Kind::kAnalysis, 42);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  // Content-addressed: a second put of the same (kind, key) is a no-op.
  st.put(Kind::kAnalysis, 42, payload);
  EXPECT_EQ(st.stats().spills, 1u);

  // Kinds are separate namespaces: same key, different record.
  EXPECT_FALSE(st.get(Kind::kHarvest, 42).has_value());
  st.put(Kind::kHarvest, 42, sample_payload(7));
  EXPECT_EQ(st.get(Kind::kHarvest, 42)->size(), 7u);
  EXPECT_EQ(st.get(Kind::kAnalysis, 42)->size(), 333u);

  auto s = st.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.corrupt_evictions, 0u);
}

TEST(ArtifactStoreTest, AsyncSpillFlushLeavesNoTempFiles) {
  fs::path dir = fresh_dir("store_async");
  ArtifactStore st(dir.string());
  for (std::uint64_t k = 0; k < 32; ++k)
    st.put(Kind::kCraftMemo, k, sample_payload(64 + k));
  st.flush();
  for (std::uint64_t k = 0; k < 32; ++k) {
    auto got = st.get(Kind::kCraftMemo, k);
    ASSERT_TRUE(got.has_value()) << "key " << k << " not durable after flush";
    EXPECT_EQ(*got, sample_payload(64 + k));
  }
  // After flush the directory holds one segment with every record framed
  // and digest-clean, back to back, and nothing else.
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    EXPECT_EQ(e.path().extension(), ".seg") << "stray file: " << e.path();
  }
  auto recs = records_of(dir, Kind::kCraftMemo);
  ASSERT_EQ(recs.size(), 32u);
  std::uint64_t next = 0;
  for (const auto& e : recs) {
    EXPECT_TRUE(e.valid) << "key " << e.key;
    EXPECT_EQ(e.segment, recs.front().segment);
    EXPECT_EQ(e.offset, next);
    next = e.offset + 40 + e.payload_size;
  }
  EXPECT_EQ(fs::file_size(recs.front().segment), next);
  EXPECT_EQ(st.stats().spills, 32u);
}

TEST(ArtifactStoreTest, BitFlippedRecordIsEvictedAndRewritable) {
  fs::path dir = fresh_dir("store_bitflip");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  auto payload = sample_payload(100);
  st.put(Kind::kAnalysis, 7, payload);

  // Disk rot: flip the last payload byte of the record in its segment.
  auto recs = records_of(dir, Kind::kAnalysis);
  ASSERT_EQ(recs.size(), 1u);
  flip_byte(recs[0].segment, last_payload_byte(recs[0]));

  EXPECT_FALSE(st.get(Kind::kAnalysis, 7).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  // Out of the index: the next read is a plain miss, not a second
  // eviction.
  EXPECT_FALSE(st.get(Kind::kAnalysis, 7).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);

  // The caller recomputes and re-puts; the store serves clean again.
  st.put(Kind::kAnalysis, 7, payload);
  auto healed = st.get(Kind::kAnalysis, 7);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, payload);
  // The clean copy landed after the rotten one, so it wins at any open.
  recs = records_of(dir, Kind::kAnalysis);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_FALSE(recs[0].valid);
  EXPECT_TRUE(recs[1].valid);
  EXPECT_GT(recs[1].offset, recs[0].offset);
  ArtifactStore reopened(dir.string(), /*async_spill=*/false);
  EXPECT_EQ(reopened.get(Kind::kAnalysis, 7), payload);
}

TEST(ArtifactStoreTest, TruncatedRecordIsEvicted) {
  fs::path dir = fresh_dir("store_truncated");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  st.put(Kind::kModule, 9, sample_payload(200));
  auto recs = records_of(dir, Kind::kModule);
  ASSERT_EQ(recs.size(), 1u);
  fs::resize_file(recs[0].segment, fs::file_size(recs[0].segment) - 50);

  // The indexed record now runs past the end of its segment: the read
  // comes up short and evicts it.
  EXPECT_FALSE(st.get(Kind::kModule, 9).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  EXPECT_FALSE(st.get(Kind::kModule, 9).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
}

TEST(ArtifactStoreTest, TornWriteFaultIsDetectedOnRead) {
  fs::path dir = fresh_dir("store_torn");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  auto payload = sample_payload(128);

  fault::arm("store.write.torn", fault::Spec::every_nth(1, /*cap=*/1));
  st.put(Kind::kHarvest, 3, payload);  // published torn: tail missing
  EXPECT_EQ(fault::site_stats("store.write.torn").fires, 1u);
  fault::disarm_all();

  // The torn record carries the final name but fails the header/digest
  // checks: evicted on first read, then recomputed + rewritten cleanly.
  EXPECT_FALSE(st.get(Kind::kHarvest, 3).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  st.put(Kind::kHarvest, 3, payload);
  auto healed = st.get(Kind::kHarvest, 3);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, payload);
}

TEST(ArtifactStoreTest, ReadCorruptFaultEvictsAndHeals) {
  fs::path dir = fresh_dir("store_readrot");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  auto payload = sample_payload(64);
  st.put(Kind::kCraftMemo, 5, payload);

  fault::arm("store.read.corrupt", fault::Spec::every_nth(1, /*cap=*/1));
  EXPECT_FALSE(st.get(Kind::kCraftMemo, 5).has_value());
  fault::disarm_all();
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);

  // Evicted for real: the next read is a plain miss, and a re-put heals.
  EXPECT_FALSE(st.get(Kind::kCraftMemo, 5).has_value());
  st.put(Kind::kCraftMemo, 5, payload);
  EXPECT_EQ(*st.get(Kind::kCraftMemo, 5), payload);
}

TEST(ArtifactStoreTest, ScanVerifyAndPrune) {
  fs::path dir = fresh_dir("store_prune");
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    for (std::uint64_t k = 1; k <= 3; ++k)
      st.put(Kind::kAnalysis, k, sample_payload(32 * k));
  }
  // Sabotage: rot the middle record, plant a crash-leftover temp file and
  // an old-layout record file.
  auto recs = records_of(dir, Kind::kAnalysis);
  ASSERT_EQ(recs.size(), 3u);
  flip_byte(recs[1].segment, last_payload_byte(recs[1]));
  fs::path stray = dir / "analysis" / ".00000000deadbeef.0.tmp";
  std::ofstream(stray, std::ios::binary) << "partial";
  fs::path old_layout = dir / "analysis" / "0000000000000002.art";
  std::ofstream(old_layout, std::ios::binary) << "junk";

  auto entries = ArtifactStore::scan(dir.string(), /*verify=*/true);
  ASSERT_EQ(entries.size(), 3u);  // only segment records are listed
  std::size_t valid = 0;
  for (const auto& e : entries) valid += e.valid ? 1 : 0;
  EXPECT_EQ(valid, 2u);
  EXPECT_FALSE(entries[1].valid);
  EXPECT_EQ(entries[1].key, 2u);
  // Without verify, only framing is checked: all three are framed.
  for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/false))
    EXPECT_TRUE(e.valid);

  std::size_t removed = ArtifactStore::prune(dir.string());
  EXPECT_EQ(removed, 3u);  // rotten record + stray temp + old-layout file
  EXPECT_FALSE(fs::exists(recs[1].segment)) << "compacted segment kept";
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_FALSE(fs::exists(old_layout));
  entries = ArtifactStore::scan(dir.string(), /*verify=*/true);
  ASSERT_EQ(entries.size(), 2u);
  for (const auto& e : entries) EXPECT_TRUE(e.valid);
  EXPECT_EQ(entries[0].key, 1u);
  EXPECT_EQ(entries[1].key, 3u);
}

TEST(ArtifactStoreTest, TornTailTruncatedAtOpenUnlessWriterLive) {
  fs::path dir = fresh_dir("store_torn_tail");
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    st.put(Kind::kHarvest, 1, sample_payload(90));
    st.put(Kind::kHarvest, 2, sample_payload(70));
  }
  auto recs = records_of(dir, Kind::kHarvest);
  ASSERT_EQ(recs.size(), 2u);
  const std::string seg = recs[0].segment;
  const std::uintmax_t clean_size = fs::file_size(seg);

  // A crash mid-append: a whole header, then half the payload it
  // announces.
  std::vector<char> head(40 + 30);
  {
    std::ifstream in(seg, std::ios::binary);
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
  }
  std::ofstream(seg, std::ios::binary | std::ios::app)
      .write(head.data(), static_cast<std::streamsize>(head.size()));
  auto torn = records_of(dir, Kind::kHarvest);
  ASSERT_EQ(torn.size(), 3u);
  EXPECT_FALSE(torn[2].valid);
  EXPECT_EQ(torn[2].offset, clean_size);

  // Open cuts the tail, keeps both records, and appends after them in a
  // segment of its own; a later open reads all three.
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    EXPECT_EQ(fs::file_size(seg), clean_size);
    EXPECT_EQ(st.get(Kind::kHarvest, 1), sample_payload(90));
    EXPECT_EQ(st.get(Kind::kHarvest, 2), sample_payload(70));
    st.put(Kind::kHarvest, 3, sample_payload(50));
    EXPECT_EQ(st.get(Kind::kHarvest, 3), sample_payload(50));
    EXPECT_EQ(st.stats().corrupt_evictions, 0u);
  }
  for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/true))
    EXPECT_TRUE(e.valid);
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    EXPECT_EQ(st.get(Kind::kHarvest, 3), sample_payload(50));
    EXPECT_DOUBLE_EQ(st.stats().hit_rate(), 1.0);
  }

  // A live writer's unframed tail is an append in flight: another open
  // leaves it alone, and scan() does not report it.
  ArtifactStore writer(dir.string(), /*async_spill=*/false);
  writer.put(Kind::kHarvest, 4, sample_payload(40));
  std::string live_seg;
  for (const auto& e : records_of(dir, Kind::kHarvest))
    if (e.key == 4) live_seg = e.segment;
  ASSERT_FALSE(live_seg.empty());
  const std::uintmax_t live_size = fs::file_size(live_seg);
  std::ofstream(live_seg, std::ios::binary | std::ios::app)
      .write(head.data(), static_cast<std::streamsize>(head.size()));
  {
    ArtifactStore reader(dir.string(), /*async_spill=*/false);
    EXPECT_EQ(fs::file_size(live_seg), live_size + head.size());
    EXPECT_EQ(reader.get(Kind::kHarvest, 4), sample_payload(40));
  }
  for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/true))
    EXPECT_TRUE(e.valid) << e.segment << " @ " << e.offset;
}

TEST(ArtifactStoreTest, InteriorBitFlipEvictsOnlyItsRecord) {
  fs::path dir = fresh_dir("store_interior_flip");
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    for (std::uint64_t k = 1; k <= 5; ++k)
      st.put(Kind::kCraftMemo, k, sample_payload(50 + k));
  }
  auto recs = records_of(dir, Kind::kCraftMemo);
  ASSERT_EQ(recs.size(), 5u);
  ASSERT_EQ(recs[1].key, 2u);
  flip_byte(recs[1].segment, recs[1].offset + 40 + 7);

  ArtifactStore st(dir.string(), /*async_spill=*/false);
  EXPECT_FALSE(st.get(Kind::kCraftMemo, 2).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  // The flip left the framing intact: the records after it still hit.
  for (std::uint64_t k : {1, 3, 4, 5})
    EXPECT_EQ(st.get(Kind::kCraftMemo, k), sample_payload(50 + k)) << k;
  EXPECT_EQ(st.stats().hits, 4u);
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
}

TEST(ArtifactStoreTest, SequentialInstancesShareOneDirectory) {
  // The cross-process contract at the record level: a populate instance
  // spills asynchronously and is destroyed; a restart instance over the
  // same directory serves every record byte-identically with a 1.0 hit
  // rate, and writes nothing.
  fs::path dir = fresh_dir("store_sequential");
  std::map<std::pair<Kind, std::uint64_t>, std::vector<std::uint8_t>> want;
  {
    ArtifactStore st(dir.string());
    for (std::uint64_t k = 0; k < 60; ++k) {
      Kind kind = k % 3 == 0 ? Kind::kAnalysis
                  : k % 3 == 1 ? Kind::kCraftMemo
                               : Kind::kResolvedPlan;
      want[{kind, k * 0x9e3779b97f4a7c15ull}] = sample_payload(10 + 37 * k);
    }
    for (const auto& [id, payload] : want) st.put(id.first, id.second, payload);
  }
  const std::set<std::string> segments = segment_files(dir);
  EXPECT_EQ(segments.size(), 3u);  // one per kind written

  ArtifactStore st(dir.string());
  for (const auto& [id, payload] : want)
    EXPECT_EQ(st.get(id.first, id.second), payload);
  for (const auto& [id, payload] : want) st.put(id.first, id.second, payload);
  st.flush();
  EXPECT_EQ(st.stats().hits, want.size());
  EXPECT_EQ(st.stats().misses, 0u);
  EXPECT_DOUBLE_EQ(st.stats().hit_rate(), 1.0);
  EXPECT_EQ(st.stats().spills, 0u);
  EXPECT_EQ(segment_files(dir), segments);
}

TEST(ArtifactStoreTest, ConcurrentPutsAndGetsShareOneSegment) {
  // Craft threads probe while the spiller (and queue overflow) append to
  // the instance's one segment: every get is a clean hit or a miss,
  // never a torn read, and after flush every record is indexed.
  fs::path dir = fresh_dir("store_concurrent");
  ArtifactStore st(dir.string());
  constexpr std::uint64_t kThreads = 4, kKeys = 200;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        const std::uint64_t k = t * kKeys + i;
        st.put(Kind::kHarvest, k, sample_payload(16 + k % 97));
        const std::uint64_t other = ((t + 1) % kThreads) * kKeys + i;
        auto got = st.get(Kind::kHarvest, other);
        if (got && *got != sample_payload(16 + other % 97)) ++bad;
      }
    });
  for (auto& th : threads) th.join();
  st.flush();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(st.stats().corrupt_evictions, 0u);
  EXPECT_EQ(st.stats().spills, kThreads * kKeys);
  for (std::uint64_t k = 0; k < kThreads * kKeys; ++k)
    EXPECT_EQ(st.get(Kind::kHarvest, k), sample_payload(16 + k % 97)) << k;
  EXPECT_EQ(segment_files(dir).size(), 1u);
}

TEST(ArtifactStoreTest, CompactionKeepsLiveRecordsAndDropsEvicted) {
  fs::path dir = fresh_dir("store_compaction");
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    for (std::uint64_t k = 1; k <= 6; ++k)
      st.put(Kind::kAnalysis, k, sample_payload(20 * k));
    // An owner rejects record 2 and re-puts its rebuild: the first copy
    // is superseded.
    EXPECT_TRUE(st.evict(Kind::kAnalysis, 2));
    st.put(Kind::kAnalysis, 2, sample_payload(11));
  }
  {
    // A second instance adds a record of its own.
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    st.put(Kind::kAnalysis, 7, sample_payload(77));
  }
  auto recs = records_of(dir, Kind::kAnalysis);
  ASSERT_EQ(recs.size(), 8u);
  ASSERT_EQ(recs[4].key, 5u);
  flip_byte(recs[4].segment, last_payload_byte(recs[4]));  // rot 5
  const std::string first_seg = recs.front().segment;
  const std::string second_seg = recs.back().segment;
  ASSERT_NE(first_seg, second_seg);

  // The superseded copy of 2 and the rotten 5 go; the first segment is
  // rewritten, the clean second one is left as it is.
  EXPECT_EQ(ArtifactStore::prune(dir.string()), 2u);
  EXPECT_FALSE(fs::exists(first_seg));
  EXPECT_TRUE(fs::exists(second_seg));
  std::map<std::uint64_t, std::size_t> copies;
  for (const auto& e : records_of(dir, Kind::kAnalysis)) {
    EXPECT_TRUE(e.valid) << e.key;
    ++copies[e.key];
  }
  EXPECT_EQ(copies, (std::map<std::uint64_t, std::size_t>{
                        {1, 1}, {2, 1}, {3, 1}, {4, 1}, {6, 1}, {7, 1}}));

  ArtifactStore st(dir.string(), /*async_spill=*/false);
  for (std::uint64_t k : {1, 3, 4, 6})
    EXPECT_EQ(st.get(Kind::kAnalysis, k), sample_payload(20 * k)) << k;
  EXPECT_EQ(st.get(Kind::kAnalysis, 2), sample_payload(11));
  EXPECT_EQ(st.get(Kind::kAnalysis, 7), sample_payload(77));
  EXPECT_FALSE(st.get(Kind::kAnalysis, 5).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 0u);
  // Compacting a compacted store is a no-op.
  EXPECT_EQ(ArtifactStore::prune(dir.string()), 0u);
}

TEST(ArtifactStoreTest, ObfuscatedImageSerializationRoundTrips) {
  auto cp = workload::make_corpus(11, 25);
  StoreRun run = run_corpus(cp, std::make_shared<AnalysisCache>());
  ASSERT_GT(run.mod.ok_count, 0u);

  Image back = store::deserialize_image(store::serialize_image(run.img));
  expect_same_image(run.img, back, "serialize round-trip");

  // The reloaded module is executable and behaviourally identical.
  const FunctionSym* f0 = run.img.function(cp.functions[0]);
  const FunctionSym* f1 = back.function(cp.functions[0]);
  ASSERT_NE(f0, nullptr);
  ASSERT_NE(f1, nullptr);
  EXPECT_EQ(f0->addr, f1->addr);
  EXPECT_EQ(f0->arg_count, f1->arg_count);
  LoadedImage li0 = run.img.load_shared();
  LoadedImage li1 = back.load_shared();
  auto r0 = call_function(li0, f0->addr, {{5}});
  auto r1 = call_function(li1, f1->addr, {{5}});
  ASSERT_EQ(r0.status, CpuStatus::kHalted);
  ASSERT_EQ(r1.status, CpuStatus::kHalted);
  EXPECT_EQ(r0.rax, r1.rax);
}

TEST(ArtifactStoreTest, ModuleRecordRoundTripAndParseFailureEvicts) {
  auto cp = workload::make_corpus(11, 25);
  StoreRun run = run_corpus(cp, std::make_shared<AnalysisCache>());

  fs::path dir = fresh_dir("store_module");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  EXPECT_FALSE(store::get_module(st, 0xabc).has_value());
  const std::vector<std::uint64_t> gadget_addrs = {0x401000, 0x401008,
                                                   0x401000};
  store::put_module(st, 0xabc, run.img, run.mod.results, 837, gadget_addrs);
  auto back = store::get_module(st, 0xabc);
  ASSERT_TRUE(back.has_value());
  expect_same_image(run.img, back->img, "module record round-trip");
  expect_same_results(run.mod.results, back->results, "module record");
  EXPECT_EQ(back->program_points, 837u);
  EXPECT_EQ(back->gadget_addrs, gadget_addrs);

  // A record whose container digest is fine but whose payload does not
  // parse (stale encoder, bit rot that re-hashed) must evict, not throw.
  st.put(Kind::kModule, 0xdef, sample_payload(40));
  EXPECT_FALSE(store::get_module(st, 0xdef).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  // Evicted: the next probe misses without reaching the parser.
  EXPECT_FALSE(st.get(Kind::kModule, 0xdef).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);

  // The same for a record whose image parses but whose results table is
  // cut short, or followed by trailing bytes.
  std::vector<std::uint8_t> good = *st.get(Kind::kModule, 0xabc);
  std::vector<std::uint8_t> cut(good.begin(), good.end() - 1);
  std::vector<std::uint8_t> extra = good;
  extra.push_back(0);
  st.put(Kind::kModule, 0x123, cut);
  st.put(Kind::kModule, 0x456, extra);
  EXPECT_FALSE(store::get_module(st, 0x123).has_value());
  EXPECT_FALSE(store::get_module(st, 0x456).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 3u);
}

TEST(ArtifactStoreTest, ModuleRecordHitReturnsTheSpilledResults) {
  // Two virgin engines over one store: the second is served the whole
  // module record, and must report exactly what the first one built --
  // including through rewrite_function, which reads results.front().
  auto cp = workload::make_corpus(17, 12);
  fs::path dir = fresh_dir("store_module_results");
  auto pass = [&](const std::vector<std::string>& names) {
    auto cache = std::make_shared<AnalysisCache>();
    cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
    StoreRun out;
    out.img = minic::compile(cp.module);
    engine::ObfuscationEngine eng(&out.img, store_cfg(7), cache);
    out.mod = eng.obfuscate_module(names, 1);
    return out;
  };

  StoreRun built = pass(cp.functions);
  EXPECT_EQ(built.mod.store_hits, 0u);
  ASSERT_EQ(built.mod.results.size(), cp.functions.size());
  StoreRun hit = pass(cp.functions);
  EXPECT_EQ(hit.mod.store_hits, 1u);
  EXPECT_EQ(hit.mod.ok_count, built.mod.ok_count);
  expect_same_results(built.mod.results, hit.mod.results, "module hit");
  expect_same_image(built.img, hit.img, "module hit");

  // rewrite_function: pass 0 spills a one-function module into an empty
  // store, pass 1 is served by that record without a single miss.
  std::size_t ok_at = 0;
  while (ok_at < built.mod.results.size() && !built.mod.results[ok_at].ok)
    ++ok_at;
  ASSERT_LT(ok_at, cp.functions.size());
  const std::string& name = cp.functions[ok_at];
  fs::path single_dir = fresh_dir("store_module_single");
  rop::RewriteResult first, second;
  for (rop::RewriteResult* r : {&first, &second}) {
    auto cache = std::make_shared<AnalysisCache>();
    auto disk = std::make_shared<ArtifactStore>(single_dir.string());
    cache->attach_store(disk);
    Image img = minic::compile(cp.module);
    engine::ObfuscationEngine eng(&img, store_cfg(7), cache);
    *r = eng.rewrite_function(name);
    if (r == &second) EXPECT_EQ(disk->stats().misses, 0u);
  }
  EXPECT_TRUE(first.ok) << first.detail;
  expect_same_result(first, second, "rewrite_function hit");
}

TEST(ArtifactStoreTest, ModuleRecordHitRestoresTheAggregate) {
  // Two virgin engines over one store: the one served the whole module
  // record reports the same program points and gadget statistics as the
  // one that built and spilled it.
  auto cp = workload::make_corpus(17, 12);
  fs::path dir = fresh_dir("store_module_aggregate");
  auto pass = [&](std::size_t expect_hits) {
    auto cache = std::make_shared<AnalysisCache>();
    cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
    Image img = minic::compile(cp.module);
    engine::ObfuscationEngine eng(&img, store_cfg(7), cache);
    EXPECT_EQ(eng.obfuscate_module(cp.functions, 1).store_hits, expect_hits);
    return eng.aggregate();
  };
  engine::ObfuscationEngine::Aggregate built = pass(0);
  engine::ObfuscationEngine::Aggregate hit = pass(1);
  EXPECT_GT(built.program_points, 0u);
  EXPECT_GT(built.unique_gadgets, 0u);
  EXPECT_EQ(hit.program_points, built.program_points);
  EXPECT_EQ(hit.gadget_slots, built.gadget_slots);
  EXPECT_EQ(hit.unique_gadgets, built.unique_gadgets);
}

TEST(ArtifactStoreTest, WarmRestartIsByteIdenticalWithPerfectHitRate) {
  // The cross-process sharing contract: process A populates the store
  // and exits; process B (fresh cache, fresh store object, same
  // directory) rebuilds byte-identically with a 1.0 store hit rate.
  auto cp = workload::make_corpus(13, 30);
  StoreRun ref = run_corpus(cp, std::make_shared<AnalysisCache>());

  fs::path dir = fresh_dir("store_restart");
  {
    auto cache = std::make_shared<AnalysisCache>();
    cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
    StoreRun a = run_corpus(cp, cache);
    expect_same_image(ref.img, a.img, "populate pass");
    EXPECT_GT(a.mod.store_misses, 0u);  // cold store: all probes missed
    EXPECT_EQ(a.mod.store_hits, 0u);
    EXPECT_GT(a.mod.store_spills, 0u);
  }  // "process exit": cache and store destroyed, files remain

  {
    // Restart on the per-record tier (non-virgin engine: no module fast
    // path): every analysis and craft memo comes off the disk, and the
    // rebuild replays to byte-identical per-function results.
    auto cache = std::make_shared<AnalysisCache>();
    auto disk = std::make_shared<ArtifactStore>(dir.string());
    cache->attach_store(disk);
    StoreRun b = run_corpus(cp, cache, /*record_tier_only=*/true);
    expect_same_image(ref.img, b.img, "record-tier restart pass");
    ASSERT_EQ(ref.mod.results.size(), b.mod.results.size());
    for (std::size_t i = 0; i < ref.mod.results.size(); ++i) {
      EXPECT_EQ(ref.mod.results[i].ok, b.mod.results[i].ok);
      EXPECT_EQ(ref.mod.results[i].chain_addr, b.mod.results[i].chain_addr);
      EXPECT_EQ(ref.mod.results[i].chain_size, b.mod.results[i].chain_size);
    }
    EXPECT_GT(b.mod.store_hits, 0u);
    EXPECT_EQ(b.mod.store_misses, 0u);
    EXPECT_DOUBLE_EQ(b.mod.store_hit_rate, 1.0);
    EXPECT_DOUBLE_EQ(b.mod.analysis_cache_hit_rate, 1.0);
    EXPECT_GT(b.mod.craft_memo_hits, 0u);
    EXPECT_EQ(b.mod.craft_memo_misses, 0u);
    EXPECT_DOUBLE_EQ(disk->stats().hit_rate(), 1.0);
    EXPECT_EQ(disk->stats().corrupt_evictions, 0u);
  }

  // Restart on the whole-module fast path (virgin engine): the finished
  // module record reloads without crafting anything, byte-identical,
  // with the per-function results the populate pass spilled.
  auto cache = std::make_shared<AnalysisCache>();
  auto disk = std::make_shared<ArtifactStore>(dir.string());
  cache->attach_store(disk);
  StoreRun m = run_corpus(cp, cache);
  expect_same_image(ref.img, m.img, "module-reload restart pass");
  expect_same_results(ref.mod.results, m.mod.results, "module reload");
  EXPECT_EQ(m.mod.ok_count, ref.mod.ok_count);
  EXPECT_EQ(m.mod.store_hits, 1u);
  EXPECT_EQ(m.mod.store_misses, 0u);
  EXPECT_DOUBLE_EQ(m.mod.store_hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(disk->stats().hit_rate(), 1.0);
  EXPECT_EQ(disk->stats().corrupt_evictions, 0u);
}

TEST(ArtifactStoreTest, ResolvedPlanRecordRoundTripReplaysAcrossPools) {
  // The plan codec contract: serialize_plan(plan_batch(R)) replayed via
  // plan_from_payload on a second pool with equal plan_key produces the
  // same committed addresses and catalog state as planning from scratch.
  using gadgets::GadgetPool;
  using gadgets::GadgetRequest;
  namespace ib = isa::ib;
  using isa::Reg;

  auto cp = workload::make_corpus(5, 8);
  Image img_a = minic::compile(cp.module);
  Image img_b = minic::compile(cp.module);
  GadgetPool pool_a(&img_a, 99);
  GadgetPool pool_b(&img_b, 99);

  analysis::RegSet clob;
  clob.add(Reg::R10);
  clob.add(Reg::R11);
  std::vector<GadgetRequest> reqs;
  auto mk = [&](std::vector<isa::Insn> core, bool jop, Reg tgt) {
    GadgetRequest r;
    r.core = std::move(core);
    r.jop = jop;
    r.jop_target = tgt;
    r.allowed_clobbers = clob;
    r.key = GadgetPool::key_of(r.core, jop, tgt);
    reqs.push_back(std::move(r));
  };
  mk({ib::mov(Reg::RDX, Reg::RSI)}, false, Reg::RAX);
  mk({ib::add(Reg::RAX, Reg::RBX)}, false, Reg::RAX);
  mk({ib::mov(Reg::RDX, Reg::RSI)}, false, Reg::RAX);  // bank reuse/growth
  mk({ib::mov(Reg::RDX, Reg::RSI)}, false, Reg::RAX);
  mk({ib::pop(Reg::RDI)}, true, Reg::RCX);  // JOP request
  mk({}, false, Reg::RAX);                  // plain ret
  std::vector<const GadgetRequest*> flat;
  for (const auto& r : reqs) flat.push_back(&r);

  // Key purity: two virgin pools over identical images agree.
  const std::uint64_t key = pool_a.plan_key(flat);
  EXPECT_EQ(key, pool_b.plan_key(flat));

  ThreadPool workers(3);
  gadgets::ResolvedPlan plan = pool_a.plan_batch(flat, workers);
  std::vector<std::uint8_t> payload = GadgetPool::serialize_plan(plan);

  // A truncated payload is rejected WITHOUT touching pool state: no
  // freeze, no ordinal consumption (the plan key is unchanged).
  std::vector<std::uint8_t> torn(payload.begin(), payload.end() - 1);
  EXPECT_FALSE(pool_b.plan_from_payload(torn, flat.size()).has_value());
  EXPECT_FALSE(pool_b.frozen());
  EXPECT_EQ(key, pool_b.plan_key(flat));

  // Round-trip through a real store record, then replay on pool B.
  fs::path dir = fresh_dir("store_plan_roundtrip");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  st.put(Kind::kResolvedPlan, key, payload);
  auto back = st.get(Kind::kResolvedPlan, key);
  ASSERT_TRUE(back.has_value());
  auto loaded = pool_b.plan_from_payload(*back, flat.size());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(pool_b.frozen());  // plan_batch's side effects reproduced
  EXPECT_EQ(loaded->size(), plan.size());
  EXPECT_EQ(loaded->planned_count(), plan.planned_count());
  EXPECT_GT(plan.planned_count(), 0u);

  std::vector<std::uint64_t> addrs_a = pool_a.commit_plan(std::move(plan));
  std::vector<std::uint64_t> addrs_b =
      pool_b.commit_plan(std::move(*loaded));
  EXPECT_EQ(addrs_a, addrs_b);
  EXPECT_EQ(pool_a.fingerprint(), pool_b.fingerprint());
  EXPECT_EQ(img_a.section_bytes(".text"), img_b.section_bytes(".text"));
}

TEST(ArtifactStoreTest, PlanPayloadIsIdenticalAtEveryPoolWidth) {
  // plan_key leaves the pool width out, so the plan record's payload
  // must not depend on it: one batch of real craft requests, planned on
  // pools of width 1, 2, 3 and 8 (as many core-key shards), serializes
  // to the same bytes every time.
  auto cp = workload::make_corpus(5, 40);
  Image craft_img = minic::compile(cp.module);
  engine::ObfuscationEngine eng(&craft_img, store_cfg(7),
                                std::make_shared<AnalysisCache>());
  engine::CraftedModule cm = eng.craft_module(cp.functions, 1);
  std::vector<const gadgets::GadgetRequest*> flat;
  for (const engine::CraftedFunction& cf : cm.crafted)
    if (cf.ok)
      for (const gadgets::GadgetRequest& req : cf.art->requests)
        flat.push_back(&req);
  ASSERT_GT(flat.size(), 100u);

  std::vector<std::uint8_t> ref;
  for (int width : {1, 2, 3, 8}) {
    Image img = minic::compile(cp.module);
    gadgets::GadgetPool pool(&img, 99);
    ThreadPool workers(width);
    gadgets::ResolvedPlan plan = pool.plan_batch(flat, workers);
    std::vector<std::uint8_t> payload =
        gadgets::GadgetPool::serialize_plan(plan);
    if (width == 1) {
      EXPECT_GT(plan.planned_count(), 0u);
      ref = std::move(payload);
    } else {
      EXPECT_EQ(payload, ref) << "pool width " << width;
    }
  }
}

TEST(ArtifactStoreTest, ResolvedPlanWarmRestartReplaysPhase2aFromDisk) {
  // End-to-end: a populate pass spills the phase-2a plan as its own
  // record kind; a fresh process replays resolve from that record with a
  // perfect hit rate and byte-identical output.
  auto cp = workload::make_corpus(19, 20);
  StoreRun ref = run_corpus(cp, std::make_shared<AnalysisCache>());

  fs::path dir = fresh_dir("store_plan_restart");
  {
    auto cache = std::make_shared<AnalysisCache>();
    cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
    StoreRun a = run_corpus(cp, cache, /*record_tier_only=*/true);
    expect_same_image(ref.img, a.img, "plan populate pass");
  }  // store flushed + closed; files remain

  bool plan_record = false;
  for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/true))
    if (e.kind == Kind::kResolvedPlan && e.valid && e.payload_size > 0)
      plan_record = true;
  EXPECT_TRUE(plan_record) << "no ResolvedPlan record spilled";

  auto cache = std::make_shared<AnalysisCache>();
  auto disk = std::make_shared<ArtifactStore>(dir.string());
  cache->attach_store(disk);
  StoreRun b = run_corpus(cp, cache, /*record_tier_only=*/true);
  expect_same_image(ref.img, b.img, "plan restart pass");
  EXPECT_GT(b.mod.store_hits, 0u);
  EXPECT_EQ(b.mod.store_misses, 0u);
  EXPECT_DOUBLE_EQ(b.mod.store_hit_rate, 1.0);
  EXPECT_EQ(disk->stats().corrupt_evictions, 0u);
  EXPECT_DOUBLE_EQ(disk->stats().hit_rate(), 1.0);
}

// An analysis record whose container digest is fine but whose payload
// does not parse is evicted and rebuilt, and -- like the memo and plan
// kinds -- counted exactly once in ModuleResult::store_corrupt_evictions.
// `record_tier_only` = false runs a virgin engine, which also probes and
// spills the whole-module record around the same per-record lookups.
void expect_rejected_analysis_records_counted_once(bool record_tier_only,
                                                   const char* dirname) {
  auto cp = workload::make_corpus(13, 30);
  StoreRun ref = run_corpus(cp, std::make_shared<AnalysisCache>());
  fs::path dir = fresh_dir(dirname);
  {
    auto cache = std::make_shared<AnalysisCache>();
    cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
    run_corpus(cp, cache, /*record_tier_only=*/true);
  }
  std::size_t replaced = 0;
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/false)) {
      if (e.kind != Kind::kAnalysis) continue;
      st.evict(Kind::kAnalysis, e.key);
      st.put(Kind::kAnalysis, e.key, sample_payload(3));
      ++replaced;
    }
  }
  ASSERT_GT(replaced, 0u);

  auto cache = std::make_shared<AnalysisCache>();
  auto disk = std::make_shared<ArtifactStore>(dir.string());
  cache->attach_store(disk);
  StoreRun b = run_corpus(cp, cache, record_tier_only);
  expect_same_image(ref.img, b.img, "rebuilt after rejected records");
  EXPECT_EQ(disk->stats().corrupt_evictions, replaced);
  EXPECT_EQ(b.mod.store_corrupt_evictions, replaced);
}

TEST(ArtifactStoreTest, RejectedAnalysisRecordsReachModuleResult) {
  expect_rejected_analysis_records_counted_once(/*record_tier_only=*/true,
                                                "store_analysis_reject");
}

TEST(ArtifactStoreTest, RejectedAnalysisRecordsCountOnceOnVirginEngine) {
  expect_rejected_analysis_records_counted_once(
      /*record_tier_only=*/false, "store_analysis_reject_virgin");
}

TEST(ArtifactStoreTest, RejectedModuleRecordCountsItsOwnEviction) {
  // A virgin engine whose module record fails the store's digest check,
  // or passes it but does not parse, rebuilds the module byte-identically
  // from the per-record tier and reports that one eviction.
  auto cp = workload::make_corpus(13, 30);
  StoreRun ref = run_corpus(cp, std::make_shared<AnalysisCache>());
  fs::path dir = fresh_dir("store_module_reject");
  auto pass = [&] {
    auto cache = std::make_shared<AnalysisCache>();
    cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
    return run_corpus(cp, cache);
  };
  pass();  // spills every record kind, the module record included

  // The engine's first store read is its harvest layer; the second is
  // the module record.
  fault::arm("store.read.corrupt", fault::Spec::every_nth(2, /*cap=*/1));
  StoreRun rotted = pass();
  fault::disarm_all();
  EXPECT_GT(rotted.mod.store_hits, 1u) << "the module record was served";
  EXPECT_EQ(rotted.mod.store_corrupt_evictions, 1u);
  expect_same_image(ref.img, rotted.img, "rebuilt after a rotted record");

  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    const std::uint64_t key = records_of(dir, Kind::kModule).back().key;
    st.evict(Kind::kModule, key);
    st.put(Kind::kModule, key, sample_payload(40));
  }
  StoreRun garbled = pass();
  EXPECT_GT(garbled.mod.store_hits, 1u) << "the module record was served";
  EXPECT_EQ(garbled.mod.store_corrupt_evictions, 1u);
  expect_same_image(ref.img, garbled.img, "rebuilt after a garbled record");
}

// -- Codec properties over every kind the two-tier lookup serves --------

// The largest record of each kind from one record-tier run.
const std::map<Kind, std::vector<std::uint8_t>>& sample_records() {
  static const auto records = [] {
    fs::path dir = fresh_dir("store_codec_samples");
    {
      auto cache = std::make_shared<AnalysisCache>();
      cache->attach_store(std::make_shared<ArtifactStore>(dir.string()));
      run_corpus(workload::make_corpus(19, 20), cache,
                 /*record_tier_only=*/true);
    }
    std::map<Kind, std::vector<std::uint8_t>> out;
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/true)) {
      std::optional<std::vector<std::uint8_t>> p = st.get(e.kind, e.key);
      if (p && p->size() > out[e.kind].size()) out[e.kind] = std::move(*p);
    }
    return out;
  }();
  return records;
}

// decode then encode through `kind`'s codec; nullopt when decode
// rejects. A plan decodes for `nreqs` requests, as resolve_module would.
std::optional<std::vector<std::uint8_t>> reencode(
    Kind kind, std::span<const std::uint8_t> payload, std::size_t nreqs) {
  auto via = [&](const auto& codec)
      -> std::optional<std::vector<std::uint8_t>> {
    auto value = codec.decode(payload);
    if (!value) return std::nullopt;
    return codec.encode(*value);
  };
  switch (kind) {
    case Kind::kAnalysis:
      return via(AnalysisCache::EntryCodec{});
    case Kind::kCraftMemo:
      return via(engine::CraftMemoCodec{});
    case Kind::kHarvest:
      return via(gadgets::HarvestCodec{});
    case Kind::kResolvedPlan: {
      Image img;
      gadgets::GadgetPool pool(&img, 1);
      return via(gadgets::PlanCodec{&pool, nreqs});
    }
    default:
      ADD_FAILURE() << "no codec for " << store::kind_name(kind);
      return std::nullopt;
  }
}

class CodecPropertyTest : public ::testing::TestWithParam<Kind> {};

TEST_P(CodecPropertyTest, RoundTripsAndRejectsTruncation) {
  const Kind kind = GetParam();
  auto it = sample_records().find(kind);
  ASSERT_NE(it, sample_records().end()) << "no record spilled";
  const std::vector<std::uint8_t>& p = it->second;
  ASSERT_FALSE(p.empty());
  std::size_t nreqs = 0;
  if (kind == Kind::kResolvedPlan) nreqs = binio::Reader(p).vu64();

  // encode(decode(encode(x))) == encode(x), with x = decode(p).
  std::optional<std::vector<std::uint8_t>> once = reencode(kind, p, nreqs);
  ASSERT_TRUE(once.has_value()) << "a spilled record does not decode";
  EXPECT_EQ(*once, p) << "the encoding is not canonical";
  std::optional<std::vector<std::uint8_t>> twice =
      reencode(kind, *once, nreqs);
  ASSERT_TRUE(twice.has_value());
  EXPECT_EQ(*twice, *once);

  // Every truncation decodes to null without throwing: 64 evenly spaced
  // lengths plus each length in the last 16 bytes.
  std::set<std::size_t> lengths;
  for (std::size_t i = 0; i < 64; ++i) lengths.insert(p.size() * i / 64);
  for (std::size_t k = 1; k <= 16 && k <= p.size(); ++k)
    lengths.insert(p.size() - k);
  for (std::size_t n : lengths) {
    std::optional<std::vector<std::uint8_t>> got;
    EXPECT_NO_THROW(
        got = reencode(kind, std::span<const std::uint8_t>(p.data(), n), nreqs))
        << "truncated to " << n << " of " << p.size() << " bytes";
    EXPECT_FALSE(got.has_value())
        << "decoded a payload truncated to " << n << " of " << p.size()
        << " bytes";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryLookupKind, CodecPropertyTest,
    ::testing::Values(Kind::kAnalysis, Kind::kCraftMemo, Kind::kHarvest,
                      Kind::kResolvedPlan),
    [](const ::testing::TestParamInfo<Kind>& info) {
      return std::string(store::kind_name(info.param));
    });

TEST(ArtifactStoreTest, RetentionPruneEvictsByAgeThenLru) {
  fs::path dir = fresh_dir("store_retention");
  // Four segments of 200 bytes each (160 payload + 40 header): one store
  // instance per record, each appending to its own segment.
  std::map<std::uint64_t, std::string> seg_of;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    st.put(Kind::kAnalysis, k, sample_payload(160));
  }
  for (const auto& e : records_of(dir, Kind::kAnalysis))
    seg_of[e.key] = e.segment;
  ASSERT_EQ(seg_of.size(), 4u);
  ASSERT_EQ(segment_files(dir).size(), 4u);
  auto age = [&](std::uint64_t k, int seconds) {
    fs::last_write_time(seg_of.at(k), fs::file_time_type::clock::now() -
                                          std::chrono::seconds(seconds));
  };

  // Age policy: segments last used beyond max_age_s are expired.
  age(1, 7200);
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 0, 3600), 1u);
  EXPECT_FALSE(fs::exists(seg_of[1]));
  EXPECT_TRUE(fs::exists(seg_of[2]));

  // LRU policy: 2 is the stalest on disk, but the first get() of a store
  // instance refreshes its segment's mtime, so the byte cap evicts 3
  // (now least recently used) instead. 3 x 200 = 600 bytes against a
  // 450-byte cap: exactly one eviction.
  age(2, 600);
  age(3, 300);
  {
    ArtifactStore st(dir.string(), /*async_spill=*/false);
    EXPECT_TRUE(st.get(Kind::kAnalysis, 2).has_value());
  }
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 450, 0), 1u);
  EXPECT_FALSE(fs::exists(seg_of[3]));
  EXPECT_TRUE(fs::exists(seg_of[2]));
  EXPECT_TRUE(fs::exists(seg_of[4]));

  // (0, 0) degenerates to plain compaction: nothing to remove. Nor does
  // an age bound reaching back past the epoch expire anything.
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 0, 0), 0u);
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 0,
                                 std::numeric_limits<std::uint64_t>::max()),
            0u);
  EXPECT_EQ(segment_files(dir).size(), 2u);
}

TEST(ArtifactStoreTest, ServiceStoreDirWiresTheDiskTier) {
  // ServiceConfig.store_dir end-to-end: two sequential services (each
  // with its own private cache) over one directory; the second starts
  // warm purely from disk and reports it in Stats.
  auto cp = workload::make_corpus(17, 25);
  Image ref_img = minic::compile(cp.module);
  {
    engine::ObfuscationEngine eng(&ref_img, store_cfg(3),
                                  std::make_shared<AnalysisCache>());
    eng.obfuscate_module(cp.functions, 1);
  }

  fs::path dir = fresh_dir("store_service");
  auto serve = [&](engine::ObfuscationService::Stats* st_out) {
    engine::ServiceConfig sc;
    sc.craft_threads = 2;
    sc.store_dir = dir.string();
    engine::ObfuscationService service(sc);
    Image img = minic::compile(cp.module);
    auto session = service.open_session(&img, store_cfg(3));
    auto mr = session->submit(cp.functions).wait();
    EXPECT_FALSE(mr.error.has_value());
    expect_same_image(ref_img, img, "store-backed service");
    *st_out = service.stats();
  };

  engine::ObfuscationService::Stats first, second;
  serve(&first);
  EXPECT_GT(first.store_spills, 0u);
  EXPECT_EQ(first.store_hits, 0u);
  serve(&second);
  EXPECT_GT(second.store_hits, 0u);
  EXPECT_EQ(second.store_misses, 0u);
  EXPECT_DOUBLE_EQ(second.store_hit_rate(), 1.0);
}

}  // namespace
}  // namespace raindrop
