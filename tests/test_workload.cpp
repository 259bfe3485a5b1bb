// Workload generators: RandomFuns suite (§VII-B), clbg kernels (§VII-C2),
// base64 (§VII-C3) and the coreutils-like corpus (§VII-C1). Each must
// compile, run natively, agree with the interpreter, and -- where
// applicable -- survive ROP rewriting unchanged.
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "workload/base64.hpp"
#include "workload/clbg.hpp"
#include "workload/corpus.hpp"
#include "workload/randomfuns.hpp"

namespace raindrop {
namespace {

TEST(RandomFuns, SuiteHas72Specs) {
  auto specs = workload::paper_suite();
  EXPECT_EQ(specs.size(), 72u);
}

TEST(RandomFuns, SecretInputWins) {
  for (auto& spec : workload::paper_suite()) {
    auto rf = workload::make_random_fun(spec);
    minic::Interp in(rf.module);
    auto r = in.call(rf.name, {{rf.secret_input}});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value, 1) << "control=" << spec.control
                          << " type=" << static_cast<int>(spec.type)
                          << " seed=" << spec.seed;
  }
}

TEST(RandomFuns, SecretIsNontrivial) {
  // A wrong input should normally not win (hash collisions allowed, but
  // 0 must not be universally winning across the suite).
  int zero_wins = 0;
  for (auto& spec : workload::paper_suite()) {
    auto rf = workload::make_random_fun(spec);
    if (rf.secret_input == 0) continue;
    minic::Interp in(rf.module);
    auto r = in.call(rf.name, {{0}});
    if (r.ok && r.value == 1) ++zero_wins;
  }
  EXPECT_LT(zero_wins, 8);
}

TEST(RandomFuns, NativeAgreesWithInterp) {
  for (auto& spec : workload::paper_suite()) {
    if (spec.seed != 1) continue;  // one seed is enough for codegen checks
    auto rf = workload::make_random_fun(spec);
    Image img = minic::compile(rf.module);
    LoadedImage li = img.load_shared();
    std::uint64_t fn = img.function(rf.name)->addr;
    minic::Interp in(rf.module);
    for (std::int64_t x : {rf.secret_input, std::int64_t(0), std::int64_t(-1),
                           std::int64_t(12345)}) {
      auto e = in.call(rf.name, {{x}});
      auto r = call_function(li, fn, {{static_cast<std::uint64_t>(x)}});
      ASSERT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
      EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value);
      EXPECT_EQ(r.probes, e.probes);
    }
  }
}

TEST(RandomFuns, RopRewriteAgrees) {
  int checked = 0;
  for (auto& spec : workload::paper_suite()) {
    if (spec.seed != 2 || spec.control % 3 != 0) continue;  // sample
    auto rf = workload::make_random_fun(spec);
    Image img = minic::compile(rf.module);
    engine::ObfuscationEngine rw(&img, rop::rop_k(0.5, 11));
    auto res = rw.rewrite_function(rf.name);
    ASSERT_TRUE(res.ok) << res.detail;
    LoadedImage li = img.load_shared();
    std::uint64_t fn = img.function(rf.name)->addr;
    minic::Interp in(rf.module);
    for (std::int64_t x :
         {rf.secret_input, std::int64_t(7), std::int64_t(-7)}) {
      auto e = in.call(rf.name, {{x}});
      auto r = call_function(li, fn, {{static_cast<std::uint64_t>(x)}});
      ASSERT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
      EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value);
      EXPECT_EQ(r.probes, e.probes);
    }
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST(RandomFuns, ReachableProbesRecorded) {
  workload::RandomFunSpec spec;
  spec.control = 1;
  spec.type = minic::Type::I8;
  spec.seed = 1;
  auto rf = workload::make_random_fun(spec);
  EXPECT_GT(rf.probe_count, 0);
  EXPECT_FALSE(rf.reachable_probes.empty());
  EXPECT_LE(static_cast<int>(rf.reachable_probes.size()), rf.probe_count);
}

TEST(Clbg, AllKernelsRunAndMatchInterp) {
  for (auto& b : workload::clbg_suite()) {
    Image img = minic::compile(b.module);
    LoadedImage li = img.load_shared();
    std::uint64_t fn = img.function(b.entry)->addr;
    minic::Interp in(b.module);
    auto e = in.call(b.entry, {{b.arg}});
    ASSERT_TRUE(e.ok) << b.name << ": " << e.error;
    auto r = call_function(li, fn, {{static_cast<std::uint64_t>(b.arg)}});
    ASSERT_EQ(r.status, CpuStatus::kHalted) << b.name << ": "
                                            << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value) << b.name;
    EXPECT_GT(r.insns, 1000u) << b.name << " trivially small";
  }
}

TEST(Clbg, RopRewriteAgrees) {
  for (auto& b : workload::clbg_suite()) {
    Image img = minic::compile(b.module);
    engine::ObfuscationEngine rw(&img, rop::rop_k(0.25, 5));
    for (auto& f : b.obfuscate) {
      auto res = rw.rewrite_function(f);
      ASSERT_TRUE(res.ok) << b.name << "/" << f << ": " << res.detail;
    }
    LoadedImage li = img.load_shared();
    std::uint64_t fn = img.function(b.entry)->addr;
    minic::Interp in(b.module);
    auto e = in.call(b.entry, {{b.arg}});
    auto r = call_function(li, fn, {{static_cast<std::uint64_t>(b.arg)}});
    ASSERT_EQ(r.status, CpuStatus::kHalted) << b.name << ": "
                                            << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value) << b.name;
  }
}

TEST(Base64, EncodeChecksRoundTrip) {
  auto w = workload::make_base64(3);
  minic::Interp in(w.module);
  auto hit = in.call(w.check_fn, {{static_cast<std::int64_t>(w.secret)}});
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_EQ(hit.value, 1);
  auto miss = in.call(w.check_fn,
                      {{static_cast<std::int64_t>(w.secret ^ 0x10000)}});
  EXPECT_EQ(miss.value, 0);

  Image img = minic::compile(w.module);
  LoadedImage li = img.load_shared();
  auto r = call_function(li, img.function(w.check_fn)->addr, {{w.secret}});
  ASSERT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
  EXPECT_EQ(r.rax, 1u);
}

TEST(Base64, RopRewriteAgrees) {
  auto w = workload::make_base64(4);
  Image img = minic::compile(w.module);
  engine::ObfuscationEngine rw(&img, rop::rop_k(1.0, 6));
  for (auto f : {"b64_encode", "b64_check", "b64_hash"}) {
    auto res = rw.rewrite_function(f);
    ASSERT_TRUE(res.ok) << f << ": " << res.detail;
  }
  LoadedImage li = img.load_shared();
  auto r = call_function(li, img.function(w.check_fn)->addr, {{w.secret}});
  ASSERT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
  EXPECT_EQ(r.rax, 1u);
  auto r2 = call_function(li, img.function(w.check_fn)->addr,
                          {{w.secret + 1}});
  EXPECT_EQ(r2.rax, 0u);
}

TEST(Corpus, GeneratesRequestedSizeAndCompiles) {
  auto cp = workload::make_corpus(1, 300);  // scaled-down for test speed
  EXPECT_EQ(cp.functions.size(), 300u);
  Image img = minic::compile(cp.module);
  EXPECT_EQ(img.functions().size(), 300u);
}

TEST(Corpus, RunnableSubsetAgreesWithInterp) {
  auto cp = workload::make_corpus(2, 200);
  Image img = minic::compile(cp.module);
  LoadedImage li = img.load_shared();
  int checked = 0;
  for (const auto& name : cp.runnable) {
    if (checked >= 60) break;
    const FunctionSym* f = img.function(name);
    std::vector<std::uint64_t> args(static_cast<std::size_t>(f->arg_count),
                                    5);
    std::vector<std::int64_t> iargs(args.begin(), args.end());
    // Fresh interpreter per function: call_function clones fresh memory,
    // so persistent interpreter globals would diverge.
    minic::Interp in(cp.module);
    auto e = in.call(name, iargs);
    if (!e.ok) continue;  // interp budget or deliberate traps: skip
    auto r = call_function(li, f->addr, args);
    ASSERT_EQ(r.status, CpuStatus::kHalted) << name << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value) << name;
    ++checked;
  }
  EXPECT_GE(checked, 40);
}

}  // namespace
}  // namespace raindrop
