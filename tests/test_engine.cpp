// Two-phase ObfuscationEngine tests: the batch API must produce
// bit-identical images and statistics at every thread count (phase 1 is
// pure and stream-seeded; phase 2 commits serially), and the coverage
// corpus's failure-class populations (§VII-C1) must keep firing through
// the batch path.
#include <gtest/gtest.h>

#include <atomic>

#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workload/corpus.hpp"

namespace raindrop {
namespace {

rop::ObfConfig full_cfg(std::uint64_t seed) {
  rop::ObfConfig c = rop::rop_k(0.25, seed);
  c.p2 = true;
  c.gadget_confusion = true;
  return c;
}

struct BatchRun {
  Image img;
  engine::ModuleResult mod;
  engine::ObfuscationEngine::Aggregate agg;
};

BatchRun run_batch(const workload::Corpus& cp, int threads,
                   std::uint64_t seed) {
  BatchRun out;
  out.img = minic::compile(cp.module);
  // Private cache per run: with the shared process cache, run 2+ would
  // serve every artifact from the craft memo and never exercise the
  // parallel craft path these determinism tests exist to compare
  // (cold-vs-warm equivalence is test_cache.cpp's job).
  engine::ObfuscationEngine eng(&out.img, full_cfg(seed),
                                std::make_shared<analysis::AnalysisCache>());
  out.mod = eng.obfuscate_module(cp.functions, threads);
  out.agg = eng.aggregate();
  return out;
}

TEST(EngineDeterminism, ParallelBatchIsByteIdenticalToSerial) {
  auto cp = workload::make_corpus(3, 250);
  BatchRun serial = run_batch(cp, 1, 9);
  BatchRun parallel = run_batch(cp, 4, 9);

  // Byte-identical images: the chains, the planted gadgets, and the data
  // embeddings (P1 arrays, spill slots) all land identically.
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(serial.img.section_bytes(sec), parallel.img.section_bytes(sec))
        << sec << " diverges between 1 and 4 craft threads";

  // Identical per-function results and stats.
  ASSERT_EQ(serial.mod.results.size(), parallel.mod.results.size());
  EXPECT_EQ(serial.mod.ok_count, parallel.mod.ok_count);
  for (std::size_t i = 0; i < serial.mod.results.size(); ++i) {
    const auto& a = serial.mod.results[i];
    const auto& b = parallel.mod.results[i];
    EXPECT_EQ(a.ok, b.ok) << cp.functions[i];
    EXPECT_EQ(a.failure, b.failure) << cp.functions[i];
    EXPECT_EQ(a.chain_addr, b.chain_addr) << cp.functions[i];
    EXPECT_EQ(a.chain_size, b.chain_size) << cp.functions[i];
    EXPECT_EQ(a.stats.program_points, b.stats.program_points);
    EXPECT_EQ(a.stats.gadget_slots, b.stats.gadget_slots);
    EXPECT_EQ(a.stats.unique_gadgets, b.stats.unique_gadgets);
    EXPECT_EQ(a.stats.chain_bytes, b.stats.chain_bytes);
  }
  EXPECT_EQ(serial.agg.program_points, parallel.agg.program_points);
  EXPECT_EQ(serial.agg.gadget_slots, parallel.agg.gadget_slots);
  EXPECT_EQ(serial.agg.unique_gadgets, parallel.agg.unique_gadgets);
}

TEST(EngineDeterminism, PoolWidthSweepBitIdentical) {
  // Phase 1 crafts on the pool and phase 2a plans one core-key shard per
  // worker of it; both must reproduce the serial (inline pool)
  // reference bit for bit at every width: same-key requests share a
  // shard, planned gadgets merge in global request order, and every
  // random decision is a counter-based per-request stream.
  auto cp = workload::make_corpus(7, 100);
  BatchRun ref = run_batch(cp, 1, 11);
  for (int width : {2, 3, 5, 8}) {
    BatchRun other = run_batch(cp, width, 11);
    for (const char* sec : {".ropdata", ".text", ".data"})
      EXPECT_EQ(ref.img.section_bytes(sec), other.img.section_bytes(sec))
          << sec << " diverges at pool width " << width;
    ASSERT_EQ(ref.mod.results.size(), other.mod.results.size());
    EXPECT_EQ(ref.mod.ok_count, other.mod.ok_count);
    for (std::size_t i = 0; i < ref.mod.results.size(); ++i) {
      EXPECT_EQ(ref.mod.results[i].chain_addr,
                other.mod.results[i].chain_addr);
      EXPECT_EQ(ref.mod.results[i].stats.unique_gadgets,
                other.mod.results[i].stats.unique_gadgets);
    }
    EXPECT_EQ(ref.agg.unique_gadgets, other.agg.unique_gadgets);
  }
}

TEST(EngineDeterminism, RewrittenBatchStillExecutesCorrectly) {
  // The parallel batch path must preserve functional behaviour, not just
  // reproduce itself: spot-check rewritten functions against the
  // interpreter oracle.
  auto cp = workload::make_corpus(5, 120);
  BatchRun run = run_batch(cp, 4, 2);
  LoadedImage li = run.img.load_shared();
  minic::Interp interp(cp.module);
  int checked = 0;
  for (const std::string& name : cp.runnable) {
    if (checked >= 25) break;
    const FunctionSym* f = run.img.function(name);
    if (!f || !f->rop_rewritten) continue;
    std::vector<std::int64_t> iargs(static_cast<std::size_t>(f->arg_count),
                                    7);
    auto oracle = interp.call(name, iargs);
    if (!oracle.ok) continue;
    std::vector<std::uint64_t> args(iargs.begin(), iargs.end());
    auto r = call_function(li, f->addr, args);
    ASSERT_EQ(r.status, CpuStatus::kHalted) << name << ": " << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), oracle.value) << name;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(EngineStages, ExplicitThreeStageDriveMatchesFacade) {
  // The public craft/resolve/materialize stages driven by hand -- the
  // exact sequence the service's three stage workers execute -- must
  // land the same bytes and stats as the obfuscate_module facade, and
  // the resolve stage must be pure with respect to the image (nothing
  // lands until materialize).
  auto cp = workload::make_corpus(13, 80);
  BatchRun facade = run_batch(cp, 2, 21);

  Image img = minic::compile(cp.module);
  engine::ObfuscationEngine eng(&img, full_cfg(21),
                                std::make_shared<analysis::AnalysisCache>());
  engine::CraftedModule cm = eng.craft_module(cp.functions, 2);
  const auto text_after_craft = img.section_bytes(".text");
  const auto ropdata_after_craft = img.section_bytes(".ropdata");
  engine::ResolvedModule rm = eng.resolve_module(std::move(cm), 2);
  // Resolve planned new gadgets but appended none: the image is
  // untouched between craft and materialize.
  EXPECT_GT(rm.plan.planned_count(), 0u);
  EXPECT_EQ(img.section_bytes(".text"), text_after_craft)
      << "resolve_module must not synthesize into the image";
  EXPECT_EQ(img.section_bytes(".ropdata"), ropdata_after_craft);
  engine::ModuleResult mr = eng.materialize_module(std::move(rm));

  EXPECT_EQ(mr.ok_count, facade.mod.ok_count);
  EXPECT_GT(mr.materialize_seconds, 0.0);
  for (const char* sec : {".ropdata", ".text", ".data"})
    EXPECT_EQ(img.section_bytes(sec), facade.img.section_bytes(sec))
        << sec << " diverges between staged drive and facade";
  ASSERT_EQ(mr.results.size(), facade.mod.results.size());
  for (std::size_t i = 0; i < mr.results.size(); ++i) {
    EXPECT_EQ(mr.results[i].chain_addr, facade.mod.results[i].chain_addr);
    EXPECT_EQ(mr.results[i].stats.unique_gadgets,
              facade.mod.results[i].stats.unique_gadgets);
  }
}

TEST(EngineFailureClasses, CorpusPopulationsStillFire) {
  // §VII-C1 regression: each failure class fires on the corpus population
  // that promises it, through the batch path, at full corpus scale.
  auto cp = workload::make_corpus(1, 1354);
  BatchRun run = run_batch(cp, 2, 9);
  int too_short = 0, pressure = 0, unsupported = 0, cfg_fail = 0, ok = 0;
  for (const auto& r : run.mod.results) {
    if (r.ok) {
      ++ok;
      continue;
    }
    switch (r.failure) {
      case rop::RewriteFailure::TooShort: ++too_short; break;
      case rop::RewriteFailure::RegisterPressure: ++pressure; break;
      case rop::RewriteFailure::CfgIncomplete: ++cfg_fail; break;
      default: ++unsupported; break;
    }
  }
  EXPECT_EQ(too_short, cp.expected_too_short);
  EXPECT_EQ(pressure, cp.expected_pressure);
  EXPECT_EQ(unsupported, cp.expected_unsupported);
  EXPECT_EQ(cfg_fail, cp.expected_cfg_fail);
  EXPECT_EQ(ok, static_cast<int>(cp.functions.size()) - too_short -
                    pressure - unsupported - cfg_fail);
}

TEST(EngineFacade, RewriteFunctionMatchesSingleFunctionBatch) {
  // rewrite_function is a 1-element batch: same results, same bytes.
  auto cp = workload::make_corpus(11, 20);
  Image a = minic::compile(cp.module);
  Image b = minic::compile(cp.module);
  engine::ObfuscationEngine single(&a, full_cfg(5));
  engine::ObfuscationEngine eng(&b, full_cfg(5));
  for (const std::string& name : cp.functions) {
    auto ra = single.rewrite_function(name);
    auto rb = eng.obfuscate_module({name}, 1).results.front();
    EXPECT_EQ(ra.ok, rb.ok) << name;
    EXPECT_EQ(ra.chain_addr, rb.chain_addr) << name;
    EXPECT_EQ(ra.chain_size, rb.chain_size) << name;
  }
  EXPECT_EQ(a.section_bytes(".ropdata"), b.section_bytes(".ropdata"));
  EXPECT_EQ(a.section_bytes(".text"), b.section_bytes(".text"));
}

TEST(RngStream, CounterBasedStreamsAreOrderIndependent) {
  Rng a = Rng::stream(42, 7);
  // Interleave draws from other streams; stream 7 must not notice.
  Rng noise0 = Rng::stream(42, 0);
  Rng noise1 = Rng::stream(42, 99);
  (void)noise0.next();
  (void)noise1.next();
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  // Different indices and seeds decorrelate.
  EXPECT_NE(Rng::stream(42, 7).next(), Rng::stream(42, 8).next());
  EXPECT_NE(Rng::stream(42, 7).next(), Rng::stream(43, 7).next());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 4}) {
    ThreadPool tp(threads);
    std::vector<std::atomic<int>> hits(512);
    for (auto& h : hits) h = 0;
    tp.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << i << " with " << threads << " threads";
  }
}

}  // namespace
}  // namespace raindrop
