// Persistent artifact-store tests (DESIGN.md §13): records must
// round-trip byte-exactly, corruption in any form -- bit rot, torn
// writes, truncation, stray temp files -- must be detected, evicted and
// recomputed (never fatal, never output-changing), and a fresh process
// over a populated store must produce byte-identical modules with a
// perfect store hit rate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
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

void expect_same_image(const Image& a, const Image& b, const char* what) {
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(a.section_bytes(sec), b.section_bytes(sec))
        << what << ": " << sec << " diverges";
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
  // The atomic-publish protocol: after flush, only final .art names.
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::string name = e.path().filename().string();
    EXPECT_NE(name[0], '.') << "stray temp file survived flush: " << name;
    EXPECT_EQ(e.path().extension(), ".art");
  }
  EXPECT_EQ(st.stats().spills, 32u);
}

TEST(ArtifactStoreTest, BitFlippedRecordIsEvictedAndRewritable) {
  fs::path dir = fresh_dir("store_bitflip");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  auto payload = sample_payload(100);
  st.put(Kind::kAnalysis, 7, payload);

  // Disk rot: flip the last byte of the record file on disk.
  fs::path rec = dir / "analysis" / "0000000000000007.art";
  ASSERT_TRUE(fs::exists(rec));
  {
    std::fstream f(rec, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) - 1);
    char last;
    f.seekg(static_cast<std::streamoff>(size) - 1);
    f.get(last);
    f.seekp(static_cast<std::streamoff>(size) - 1);
    f.put(static_cast<char>(last ^ 0x01));
  }

  EXPECT_FALSE(st.get(Kind::kAnalysis, 7).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  EXPECT_FALSE(fs::exists(rec)) << "corrupt record left on disk";

  // The caller recomputes and re-puts; the store serves clean again.
  st.put(Kind::kAnalysis, 7, payload);
  auto healed = st.get(Kind::kAnalysis, 7);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(*healed, payload);
}

TEST(ArtifactStoreTest, TruncatedRecordIsEvicted) {
  fs::path dir = fresh_dir("store_truncated");
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  st.put(Kind::kModule, 9, sample_payload(200));
  fs::path rec = dir / "module" / "0000000000000009.art";
  ASSERT_TRUE(fs::exists(rec));
  fs::resize_file(rec, fs::file_size(rec) - 50);

  EXPECT_FALSE(st.get(Kind::kModule, 9).has_value());
  EXPECT_EQ(st.stats().corrupt_evictions, 1u);
  EXPECT_FALSE(fs::exists(rec));
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
  // Sabotage: corrupt one record, plant a crash-leftover temp file and a
  // wrongly-named file.
  fs::path bad = dir / "analysis" / "0000000000000002.art";
  fs::resize_file(bad, fs::file_size(bad) - 3);
  fs::path stray = dir / "analysis" / ".00000000deadbeef.0.tmp";
  std::ofstream(stray, std::ios::binary) << "partial";
  fs::path bogus = dir / "analysis" / "notakey.art";
  std::ofstream(bogus, std::ios::binary) << "junk";

  auto entries = ArtifactStore::scan(dir.string(), /*verify=*/true);
  ASSERT_EQ(entries.size(), 4u);  // 3 records + bogus; temp files hidden
  std::size_t valid = 0;
  for (const auto& e : entries) valid += e.valid ? 1 : 0;
  EXPECT_EQ(valid, 2u);

  std::size_t removed = ArtifactStore::prune(dir.string());
  EXPECT_EQ(removed, 3u);  // truncated record + stray temp + bogus name
  EXPECT_FALSE(fs::exists(bad));
  EXPECT_FALSE(fs::exists(stray));
  EXPECT_FALSE(fs::exists(bogus));
  for (const auto& e : ArtifactStore::scan(dir.string(), /*verify=*/true))
    EXPECT_TRUE(e.valid);
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
  Memory m0 = run.img.load();
  Memory m1 = back.load();
  auto r0 = call_function(m0, f0->addr, {{5}});
  auto r1 = call_function(m1, f1->addr, {{5}});
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
  store::put_module(st, 0xabc, run.img);
  auto back = store::get_module(st, 0xabc);
  ASSERT_TRUE(back.has_value());
  expect_same_image(run.img, *back, "module record round-trip");

  // A record whose container digest is fine but whose payload does not
  // parse (stale encoder, bit rot that re-hashed) must evict, not throw.
  st.put(Kind::kModule, 0xdef, sample_payload(40));
  EXPECT_FALSE(store::get_module(st, 0xdef).has_value());
  EXPECT_FALSE(fs::exists(dir / "module" / "0000000000000def.art"));
  EXPECT_GE(st.stats().corrupt_evictions, 1u);
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
  // with per-function success recovered from the rop_rewritten flags.
  auto cache = std::make_shared<AnalysisCache>();
  auto disk = std::make_shared<ArtifactStore>(dir.string());
  cache->attach_store(disk);
  StoreRun m = run_corpus(cp, cache);
  expect_same_image(ref.img, m.img, "module-reload restart pass");
  EXPECT_TRUE(m.mod.results.empty());  // nothing was crafted
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

  gadgets::ResolvedPlan plan = pool_a.plan_batch(flat, 3, 2);
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

TEST(ArtifactStoreTest, RejectedAnalysisRecordsReachModuleResult) {
  // An analysis record whose container digest is fine but whose payload
  // does not parse is evicted and rebuilt, and -- like the memo and plan
  // kinds -- counted in ModuleResult::store_corrupt_evictions.
  auto cp = workload::make_corpus(13, 30);
  StoreRun ref = run_corpus(cp, std::make_shared<AnalysisCache>());
  fs::path dir = fresh_dir("store_analysis_reject");
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
  StoreRun b = run_corpus(cp, cache, /*record_tier_only=*/true);
  expect_same_image(ref.img, b.img, "rebuilt after rejected records");
  EXPECT_EQ(disk->stats().corrupt_evictions, replaced);
  EXPECT_EQ(b.mod.store_corrupt_evictions, replaced);
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
  ArtifactStore st(dir.string(), /*async_spill=*/false);
  // Four records of 200 bytes each on disk (160 payload + 40 header).
  for (std::uint64_t k = 1; k <= 4; ++k)
    st.put(Kind::kAnalysis, k, sample_payload(160));
  auto path_of = [&](std::uint64_t k) {
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.art",
                  static_cast<unsigned long long>(k));
    return dir / "analysis" / name;
  };
  auto age = [&](std::uint64_t k, int seconds) {
    fs::last_write_time(path_of(k), fs::file_time_type::clock::now() -
                                        std::chrono::seconds(seconds));
  };

  // Age policy: records last used beyond max_age_s are expired.
  age(1, 7200);
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 0, 3600), 1u);
  EXPECT_FALSE(fs::exists(path_of(1)));
  EXPECT_TRUE(fs::exists(path_of(2)));

  // LRU policy: 2 is the stalest on disk, but a get() refreshes its
  // mtime, so the byte cap evicts 3 (now least recently used) instead.
  // 3 x 200 = 600 bytes against a 450-byte cap: exactly one eviction.
  age(2, 600);
  age(3, 300);
  EXPECT_TRUE(st.get(Kind::kAnalysis, 2).has_value());
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 450, 0), 1u);
  EXPECT_FALSE(fs::exists(path_of(3)));
  EXPECT_TRUE(fs::exists(path_of(2)));
  EXPECT_TRUE(fs::exists(path_of(4)));

  // (0, 0) degenerates to the plain validity prune: nothing to remove.
  EXPECT_EQ(ArtifactStore::prune(dir.string(), 0, 0), 0u);
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
