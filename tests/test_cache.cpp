// Content-addressed cache tests (DESIGN.md §7): cold-vs-warm runs must
// be byte-identical, stale entries must never survive a byte changing
// anywhere the analyses looked (function body, jump-table cells, callee
// argument counts), and the capacity bound must evict.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "analysis/cache.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "store/store.hpp"
#include "support/faultpoint.hpp"
#include "workload/corpus.hpp"

namespace raindrop {
namespace {

using analysis::AnalysisCache;

rop::ObfConfig cache_cfg(std::uint64_t seed) {
  rop::ObfConfig c = rop::rop_k(0.25, seed);
  c.p2 = true;
  c.gadget_confusion = true;
  return c;
}

struct CacheRun {
  Image img;
  engine::ModuleResult mod;
};

CacheRun run_corpus(const workload::Corpus& cp,
                    std::shared_ptr<AnalysisCache> cache, int threads = 2) {
  CacheRun out;
  out.img = minic::compile(cp.module);
  engine::ObfuscationEngine eng(&out.img, cache_cfg(7), cache);
  out.mod = eng.obfuscate_module(cp.functions, threads);
  return out;
}

TEST(AnalysisCacheTest, ColdVsWarmRunsAreByteIdentical) {
  auto cp = workload::make_corpus(3, 150);
  auto cache = std::make_shared<AnalysisCache>();
  CacheRun cold = run_corpus(cp, cache);
  CacheRun warm = run_corpus(cp, cache);

  // Identical committed images...
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(cold.img.section_bytes(sec), warm.img.section_bytes(sec))
        << sec << " diverges between cold and warm cache runs";
  // ...and identical RewriteResults.
  ASSERT_EQ(cold.mod.results.size(), warm.mod.results.size());
  EXPECT_EQ(cold.mod.ok_count, warm.mod.ok_count);
  for (std::size_t i = 0; i < cold.mod.results.size(); ++i) {
    const auto& a = cold.mod.results[i];
    const auto& b = warm.mod.results[i];
    EXPECT_EQ(a.ok, b.ok) << cp.functions[i];
    EXPECT_EQ(a.failure, b.failure) << cp.functions[i];
    EXPECT_EQ(a.chain_addr, b.chain_addr) << cp.functions[i];
    EXPECT_EQ(a.chain_size, b.chain_size) << cp.functions[i];
    EXPECT_EQ(a.stats.gadget_slots, b.stats.gadget_slots);
    EXPECT_EQ(a.stats.unique_gadgets, b.stats.unique_gadgets);
    EXPECT_EQ(a.stats.program_points, b.stats.program_points);
  }

  // The cold run missed everywhere, the warm run hit everywhere -- for
  // both the analyses and the whole-artifact craft memo.
  EXPECT_EQ(cold.mod.analysis_cache_hits, 0u);
  EXPECT_GT(cold.mod.analysis_cache_misses, 0u);
  EXPECT_EQ(warm.mod.analysis_cache_misses, 0u);
  EXPECT_DOUBLE_EQ(warm.mod.analysis_cache_hit_rate, 1.0);
  EXPECT_EQ(warm.mod.craft_memo_misses, 0u);
  EXPECT_GT(warm.mod.craft_memo_hits, 0u);
}

TEST(AnalysisCacheTest, PatchingFunctionBytesInvalidates) {
  auto cp = workload::make_corpus(5, 40);
  Image img = minic::compile(cp.module);
  AnalysisCache cache;
  const FunctionSym* fn = nullptr;
  for (const auto& name : cp.functions) {
    const FunctionSym* f = img.function(name);
    if (f && f->size > 16) {
      fn = f;
      break;
    }
  }
  ASSERT_NE(fn, nullptr);

  analysis::LookupOutcome o;
  auto a1 = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                  &o);
  EXPECT_FALSE(o.hit);
  auto a2 = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                  &o);
  EXPECT_TRUE(o.hit);
  EXPECT_EQ(a1.get(), a2.get());  // shared, not recomputed

  // Patch one byte of the body: the content hash changes, so the next
  // lookup computes a fresh analysis instead of reusing the stale one.
  std::uint8_t orig = img.byte_at(fn->addr);
  std::uint8_t flipped[1] = {static_cast<std::uint8_t>(orig ^ 0xff)};
  img.patch(fn->addr, flipped);
  auto a3 = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                  &o);
  EXPECT_FALSE(o.hit);
  EXPECT_NE(a1.get(), a3.get());

  // Restoring the bytes restores the original entry.
  std::uint8_t restore[1] = {orig};
  img.patch(fn->addr, restore);
  auto a4 = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                  &o);
  EXPECT_TRUE(o.hit);
  EXPECT_EQ(a1.get(), a4.get());
}

TEST(AnalysisCacheTest, JumpTableCellsAreValidatedDependencies) {
  using minic::e_int;
  using minic::e_var;
  using minic::SwitchCase;
  minic::Module m;
  std::vector<SwitchCase> cases;
  for (int i = 0; i < 5; ++i)
    cases.push_back(SwitchCase{i, {minic::s_return(e_int(i * 3))}});
  m.functions.push_back(minic::Function{
      "f", minic::Type::I64, {{"x", minic::Type::I64}},
      {minic::s_switch(e_var("x"), cases, {minic::s_return(e_int(-1))})}});
  Image img = minic::compile(m);
  const FunctionSym* f = img.function("f");

  AnalysisCache cache;
  analysis::LookupOutcome o;
  auto a1 = cache.lookup_or_build(img, f->addr, f->size, f->arg_count, &o);
  ASSERT_TRUE(a1->cfg.complete);
  const analysis::JumpTable* jt = nullptr;
  for (const auto& [addr, bb] : a1->cfg.blocks)
    if (bb.jump_table) jt = &*bb.jump_table;
  ASSERT_NE(jt, nullptr);

  // Redirect one table cell (function bytes unchanged!): the recorded
  // table dependency must force a rebuild, and the fresh CFG must see
  // the new target.
  std::uint64_t evictions_before = cache.stats().evictions;
  img.patch_u64(jt->table_addr + 8, jt->targets[0]);
  auto a2 = cache.lookup_or_build(img, f->addr, f->size, f->arg_count, &o);
  EXPECT_FALSE(o.hit);
  EXPECT_FALSE(o.memory_corrupt) << "a stale entry counted as corruption";
  EXPECT_NE(a1.get(), a2.get());
  EXPECT_GT(cache.stats().evictions, evictions_before);
  const analysis::JumpTable* jt2 = nullptr;
  for (const auto& [addr, bb] : a2->cfg.blocks)
    if (bb.jump_table) jt2 = &*bb.jump_table;
  ASSERT_NE(jt2, nullptr);
  EXPECT_EQ(jt2->targets[1], jt->targets[0]);
}

TEST(AnalysisCacheTest, CalleeArgCountIsValidatedDependency) {
  using minic::e_call;
  using minic::e_int;
  using minic::e_var;
  minic::Module m;
  m.functions.push_back(minic::Function{
      "leaf", minic::Type::I64,
      {{"a", minic::Type::I64}, {"b", minic::Type::I64}},
      {minic::s_return(e_var("a"))}});
  m.functions.push_back(minic::Function{
      "caller", minic::Type::I64, {{"x", minic::Type::I64}},
      {minic::s_return(e_call("leaf", {e_var("x"), e_int(1)},
                              minic::Type::I64))}});
  Image img = minic::compile(m);
  const FunctionSym* f = img.function("caller");

  AnalysisCache cache;
  analysis::LookupOutcome o;
  auto a1 = cache.lookup_or_build(img, f->addr, f->size, f->arg_count, &o);
  EXPECT_FALSE(o.hit);
  // The callee's prototype changing refines liveness at the call site:
  // the cached artifact must not survive it.
  img.function("leaf")->arg_count = 0;
  auto a2 = cache.lookup_or_build(img, f->addr, f->size, f->arg_count, &o);
  EXPECT_FALSE(o.hit);
  EXPECT_NE(a1.get(), a2.get());
}

TEST(AnalysisCacheTest, CraftMemoInheritsDependencyRevalidation) {
  // A .rodata jump-table cell changing under unchanged function bytes
  // must miss the whole-artifact craft memo too: the second engine's
  // chain has to dispatch to the *new* target, not replay the cached
  // chain built against the old table.
  using minic::e_int;
  using minic::e_var;
  using minic::SwitchCase;
  minic::Module m;
  std::vector<SwitchCase> cases;
  for (int i = 0; i < 5; ++i)
    cases.push_back(SwitchCase{i, {minic::s_return(e_int(i * 3))}});
  m.functions.push_back(minic::Function{
      "f", minic::Type::I64, {{"x", minic::Type::I64}},
      {minic::s_switch(e_var("x"), cases, {minic::s_return(e_int(-1))})}});

  auto cache = std::make_shared<AnalysisCache>();
  rop::ObfConfig cfg = rop::rop_k(0.25, 3);

  Image img1 = minic::compile(m);
  engine::ObfuscationEngine e1(&img1, cfg, cache);
  ASSERT_EQ(e1.obfuscate_module({"f"}, 1).ok_count, 1u);

  // Identical bytes, but case 1's table cell redirected to case 0's
  // target before obfuscation.
  Image img2 = minic::compile(m);
  {
    const FunctionSym* f = img2.function("f");
    auto cfg2 = analysis::build_cfg(img2, f->addr, f->size);
    const analysis::JumpTable* jt = nullptr;
    for (const auto& [addr, bb] : cfg2.blocks)
      if (bb.jump_table) jt = &*bb.jump_table;
    ASSERT_NE(jt, nullptr);
    img2.patch_u64(jt->table_addr + 8, jt->targets[0]);
  }
  engine::ObfuscationEngine e2(&img2, cfg, cache);
  auto mr2 = e2.obfuscate_module({"f"}, 1);
  ASSERT_EQ(mr2.ok_count, 1u);
  EXPECT_EQ(mr2.craft_memo_hits, 0u);  // stale artifact must not serve

  LoadedImage li1 = img1.load_shared();
  LoadedImage li2 = img2.load_shared();
  std::uint64_t a1 = img1.function("f")->addr;
  std::uint64_t a2 = img2.function("f")->addr;
  auto r1 = call_function(li1, a1, {{1}});
  auto r2 = call_function(li2, a2, {{1}});
  ASSERT_EQ(r1.status, CpuStatus::kHalted);
  ASSERT_EQ(r2.status, CpuStatus::kHalted);
  EXPECT_EQ(static_cast<std::int64_t>(r1.rax), 3);  // original case 1
  EXPECT_EQ(static_cast<std::int64_t>(r2.rax), 0);  // redirected to case 0
}

TEST(AnalysisCacheTest, CapacityBoundEvicts) {
  auto cp = workload::make_corpus(9, 30);
  Image img = minic::compile(cp.module);
  AnalysisCache cache(/*shard_count=*/1, /*capacity_per_shard=*/2);
  int analysed = 0;
  for (const auto& name : cp.functions) {
    const FunctionSym* f = img.function(name);
    if (!f) continue;
    cache.lookup_or_build(img, f->addr, f->size, f->arg_count);
    ++analysed;
    if (analysed >= 6) break;
  }
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 6u);
  EXPECT_GE(s.evictions, 4u);  // only 2 entries may survive
}

TEST(AnalysisCacheTest, CorruptedEntryIsDetectedEvictedAndRecomputed) {
  // DESIGN.md §12: a corrupted cached analysis must never be served. The
  // fault registry plants a corrupted copy at insert time; the next
  // lookup's integrity digest catches it, evicts, recomputes, and the
  // healed entry then serves clean hits.
  auto cp = workload::make_corpus(5, 40);
  Image img = minic::compile(cp.module);
  const FunctionSym* fn = nullptr;
  for (const auto& name : cp.functions) {
    const FunctionSym* f = img.function(name);
    if (f && f->size > 16) {
      fn = f;
      break;
    }
  }
  ASSERT_NE(fn, nullptr);

  AnalysisCache cache;
  fault::arm("cache.analysis.corrupt", fault::Spec::every_nth(1));
  analysis::LookupOutcome o;
  auto clean = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                     &o);
  EXPECT_FALSE(o.hit);
  EXPECT_EQ(fault::site_stats("cache.analysis.corrupt").fires, 1u);
  fault::disarm_all();
  // The caller of the corrupting insert still got the clean artifact.
  EXPECT_EQ(clean->integrity, clean->compute_integrity());

  // The cached copy is corrupted: the next lookup must detect the
  // digest mismatch and rebuild instead of serving it.
  auto s0 = cache.stats();
  auto healed = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                      &o);
  EXPECT_FALSE(o.hit) << "a corrupted entry was served as a hit";
  EXPECT_TRUE(o.memory_corrupt);
  auto s1 = cache.stats();
  EXPECT_EQ(s1.integrity_evictions, s0.integrity_evictions + 1);
  EXPECT_EQ(healed->integrity, healed->compute_integrity());
  EXPECT_EQ(healed->dep_fingerprint, clean->dep_fingerprint);

  // Healed: subsequent lookups hit the recomputed entry.
  auto again = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                     &o);
  EXPECT_TRUE(o.hit);
  EXPECT_EQ(again.get(), healed.get());
}

TEST(AnalysisCacheTest, HealedEntryKeepsLiveEntriesInTheCapacityBound) {
  // Healing must not leave the evicted key's FIFO slot behind: the
  // rebuild pushes the key again, and a stale slot would later evict the
  // fresh entry early. With room for two entries, heal f1, insert f2:
  // both stay live, and the only eviction is the corrupted copy.
  auto cp = workload::make_corpus(9, 30);
  Image img = minic::compile(cp.module);
  std::vector<const FunctionSym*> fns;
  for (const auto& name : cp.functions)
    if (const FunctionSym* f = img.function(name); f && fns.size() < 2)
      fns.push_back(f);
  ASSERT_EQ(fns.size(), 2u);
  AnalysisCache cache(/*shard_count=*/1, /*capacity_per_shard=*/2);
  auto look = [&](const FunctionSym* f) {
    analysis::LookupOutcome o;
    cache.lookup_or_build(img, f->addr, f->size, f->arg_count, &o);
    return o;
  };

  fault::arm("cache.analysis.corrupt", fault::Spec::every_nth(1));
  look(fns[0]);  // caches a corrupted copy of f1
  fault::disarm_all();
  EXPECT_TRUE(look(fns[0]).memory_corrupt);  // heal f1
  look(fns[1]);                              // insert f2
  EXPECT_TRUE(look(fns[0]).hit) << "the healed entry was evicted early";
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().integrity_evictions, 1u);
}

TEST(AnalysisCacheTest, HealedAnalysisCorruptionsReachModuleResult) {
  // Corrupt every analysis insert on a cold run; the warm run heals each
  // poisoned entry, and ModuleResult reports exactly the healed count.
  auto cp = workload::make_corpus(3, 40);
  auto cache = std::make_shared<AnalysisCache>();
  fault::arm("cache.analysis.corrupt", fault::Spec::every_nth(1, /*cap=*/0));
  run_corpus(cp, cache, 1);
  fault::disarm_all();

  std::uint64_t before = cache->stats().integrity_evictions;
  CacheRun warm = run_corpus(cp, cache, 1);
  std::uint64_t healed = cache->stats().integrity_evictions - before;
  EXPECT_GT(healed, 0u);
  EXPECT_EQ(warm.mod.corruptions_recovered, healed);
}

TEST(AnalysisCacheTest, CorruptedCraftMemoHealsToByteIdenticalOutput) {
  // End-to-end recovery: corrupt every craft-memo insert during the cold
  // run, then re-run warm. Every poisoned memo entry must be detected,
  // evicted and re-crafted -- and both runs' images must be
  // byte-identical to a never-corrupted reference.
  auto cp = workload::make_corpus(3, 40);
  CacheRun ref = run_corpus(cp, std::make_shared<AnalysisCache>(), 1);

  auto cache = std::make_shared<AnalysisCache>();
  fault::arm("cache.craft_memo.corrupt",
             fault::Spec::every_nth(1, /*cap=*/0));  // poison every insert
  CacheRun cold = run_corpus(cp, cache, 1);
  EXPECT_GT(fault::site_stats("cache.craft_memo.corrupt").fires, 0u);
  fault::disarm_all();
  // The cold run crafted from the clean artifacts; corruption only went
  // into the cache.
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(cold.img.section_bytes(sec), ref.img.section_bytes(sec))
        << sec << " diverges on the corrupting cold run";

  CacheRun warm = run_corpus(cp, cache, 1);
  EXPECT_GT(warm.mod.corruptions_recovered, 0u)
      << "no memo corruption was detected on the warm run";
  EXPECT_EQ(warm.mod.craft_memo_hits, 0u)
      << "a corrupted memo artifact was served";
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(warm.img.section_bytes(sec), ref.img.section_bytes(sec))
        << sec << " diverges after corruption recovery";
}

TEST(AnalysisCacheTest, CorruptedHarvestLayerIsRescanned) {
  // The gadget finder's memoized harvest scan heals the same way: a
  // poisoned layer fails its integrity check on attach, is evicted from
  // the cache, and the engine rescans -- both engines end up with
  // identical pools.
  auto cp = workload::make_corpus(2, 25);
  auto cache = std::make_shared<AnalysisCache>();
  Image a = minic::compile(cp.module);
  Image b = minic::compile(cp.module);
  fault::arm("cache.harvest.corrupt", fault::Spec::every_nth(1));
  engine::ObfuscationEngine e1(&a, cache_cfg(3), cache);
  EXPECT_EQ(fault::site_stats("cache.harvest.corrupt").fires, 1u);
  fault::disarm_all();

  auto aux0 = cache->aux_stats();
  engine::ObfuscationEngine e2(&b, cache_cfg(3), cache);
  auto aux1 = cache->aux_stats();
  EXPECT_GT(aux1.integrity_evictions, aux0.integrity_evictions)
      << "the corrupted harvest layer was attached without detection";
  EXPECT_EQ(e1.pool().unique_count(), e2.pool().unique_count());
}

TEST(AnalysisCacheTest, StoreTierPromotesAndHealsAcrossCaches) {
  // DESIGN.md §13: the attached ArtifactStore is a second tier under the
  // in-memory map. A fresh cache over a populated store promotes from
  // disk (hit, store_hit both set); a corrupted record is evicted and
  // rebuilt -- equal to the original -- and the rebuild re-spills.
  auto cp = workload::make_corpus(5, 40);
  Image img = minic::compile(cp.module);
  const FunctionSym* fn = nullptr;
  for (const auto& name : cp.functions) {
    const FunctionSym* f = img.function(name);
    if (f && f->size > 16) {
      fn = f;
      break;
    }
  }
  ASSERT_NE(fn, nullptr);

  auto dir = std::filesystem::path(::testing::TempDir()) / "cache_store_tier";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  std::uint64_t ref_fp = 0, ref_integrity = 0;
  {
    AnalysisCache cache;
    cache.attach_store(std::make_shared<store::ArtifactStore>(dir.string()));
    analysis::LookupOutcome o;
    auto art = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                     &o);
    EXPECT_FALSE(o.hit);
    EXPECT_FALSE(o.store_hit);
    ref_fp = art->dep_fingerprint;
    ref_integrity = art->integrity;
  }  // store destroyed: pending spill drained to disk

  {
    AnalysisCache cache;
    auto disk = std::make_shared<store::ArtifactStore>(dir.string());
    cache.attach_store(disk);
    analysis::LookupOutcome o;
    auto art = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                     &o);
    EXPECT_TRUE(o.hit) << "populated store did not serve a fresh cache";
    EXPECT_TRUE(o.store_hit);
    EXPECT_EQ(art->dep_fingerprint, ref_fp);
    EXPECT_EQ(art->integrity, ref_integrity);
    // Promoted into memory: the next lookup hits without touching disk.
    auto again = cache.lookup_or_build(img, fn->addr, fn->size,
                                       fn->arg_count, &o);
    EXPECT_TRUE(o.hit);
    EXPECT_FALSE(o.store_hit);
    EXPECT_EQ(again.get(), art.get());
    EXPECT_EQ(disk->stats().hits, 1u);
  }

  // Third process, rotten disk: the read-corruption fault defeats the
  // record digest check; the store evicts, the cache rebuilds the same
  // artifact, and the rebuild spills a clean replacement.
  {
    AnalysisCache cache;
    auto disk = std::make_shared<store::ArtifactStore>(dir.string());
    cache.attach_store(disk);
    fault::arm("store.read.corrupt", fault::Spec::every_nth(1, /*cap=*/1));
    analysis::LookupOutcome o;
    auto art = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                     &o);
    fault::disarm_all();
    EXPECT_FALSE(o.hit) << "a corrupted store record was served";
    EXPECT_FALSE(o.store_hit);
    EXPECT_EQ(disk->stats().corrupt_evictions, 1u);
    EXPECT_EQ(art->dep_fingerprint, ref_fp);
    EXPECT_EQ(art->integrity, ref_integrity);
    disk->flush();
    EXPECT_EQ(disk->stats().spills, 1u) << "the rebuild did not re-spill";
  }
}

TEST(AnalysisCacheTest, TornSpillNeverServesAndHeals) {
  // A spill torn mid-write (power loss before the durability barrier)
  // stays framed in its segment but fails the digest check: the next
  // process treats it as a miss, rebuilds byte-identically, and appends
  // a replacement.
  auto cp = workload::make_corpus(5, 40);
  Image img = minic::compile(cp.module);
  const FunctionSym* fn = nullptr;
  for (const auto& name : cp.functions) {
    const FunctionSym* f = img.function(name);
    if (f && f->size > 16) {
      fn = f;
      break;
    }
  }
  ASSERT_NE(fn, nullptr);

  auto dir = std::filesystem::path(::testing::TempDir()) / "cache_store_torn";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  std::uint64_t ref_fp = 0;
  {
    AnalysisCache cache;
    // Synchronous spill so the fault deterministically strikes the one
    // write this test performs.
    cache.attach_store(std::make_shared<store::ArtifactStore>(
        dir.string(), /*async_spill=*/false));
    fault::arm("store.write.torn", fault::Spec::every_nth(1, /*cap=*/1));
    auto art = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count);
    EXPECT_EQ(fault::site_stats("store.write.torn").fires, 1u);
    fault::disarm_all();
    ref_fp = art->dep_fingerprint;
  }

  {
    AnalysisCache cache;
    auto disk = std::make_shared<store::ArtifactStore>(dir.string());
    cache.attach_store(disk);
    analysis::LookupOutcome o;
    auto art = cache.lookup_or_build(img, fn->addr, fn->size, fn->arg_count,
                                     &o);
    EXPECT_FALSE(o.hit) << "a torn record was served";
    EXPECT_FALSE(o.store_hit);
    EXPECT_EQ(disk->stats().corrupt_evictions, 1u);
    EXPECT_EQ(art->dep_fingerprint, ref_fp);
  }
}

TEST(AnalysisCacheTest, HarvestLayerSharedAcrossEngines) {
  auto cp = workload::make_corpus(2, 25);
  auto cache = std::make_shared<AnalysisCache>();
  Image a = minic::compile(cp.module);
  Image b = minic::compile(cp.module);
  engine::ObfuscationEngine e1(&a, cache_cfg(3), cache);
  EXPECT_EQ(cache->aux_stats().hits, 0u);
  engine::ObfuscationEngine e2(&b, cache_cfg(3), cache);
  // The second engine's harvest scan over identical .text bytes attaches
  // the memoized layer instead of re-scanning.
  EXPECT_GE(cache->aux_stats().hits, 1u);
  EXPECT_EQ(e1.pool().unique_count(), e2.pool().unique_count());
}

}  // namespace
}  // namespace raindrop
