// Workload generators: RandomFuns suite (§VII-B), clbg kernels (§VII-C2),
// base64 (§VII-C3) and the coreutils-like corpus (§VII-C1). Each must
// compile, run natively, agree with the interpreter, and -- where
// applicable -- survive ROP rewriting unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "analysis/cache.hpp"
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
  auto reachable = workload::reachable_probes(rf);
  EXPECT_FALSE(reachable.empty());
  EXPECT_LE(static_cast<int>(reachable.size()), rf.probe_count);
  // A module compiled without probes has no ground truth to find.
  spec.probes = false;
  EXPECT_TRUE(workload::reachable_probes(workload::make_random_fun(spec))
                  .empty());
}

// Generation golden: pins every paper_suite() module (a digest of its
// compiled image), its secret and its probe count, plus the exact
// reachable-probe sets of one spec per control (I8, seed 1) and two I16
// specs. The secret comes from a MiniC interpreter run, so this guards
// the interpreter as well as the generator's draw order.
std::uint64_t image_digest(const Image& img) {
  std::vector<std::uint8_t> bytes = img.serialize();
  return analysis::AnalysisCache::hash_bytes(bytes.data(), bytes.size());
}

TEST(RandomFuns, GenerationGolden) {
  struct Pin {
    std::uint64_t image_digest;
    std::int64_t secret_input;
    std::int64_t secret_const;
    int probe_count;
  };
  const Pin pins[] = {
    // control 0: I8, I16, I32, I64 x seeds 1..3
    {0x10de996e73c6f0dau, 157, -64, 3},
    {0x953ffa78fc8152dau, 229, 80, 3},
    {0xf555c2845d3ae240u, 155, 0, 3},
    {0xa33d8ed636c1e80du, 30344, 10480, 3},
    {0x4cafddc3b7c8afffu, 13758, 8545, 3},
    {0xe789c8a655cbbcc9u, 3935, -129, 3},
    {0xb1de0a3369070188u, 3315141081, -4460545, 3},
    {0xb4773038b141aa75u, 1265963479, -276826113, 3},
    {0x4b116527235d0e3bu, 357630225, -654887960, 3},
    {0x3552256d5c96aaeeu, 7838016743298102514, 7558670787932509502, 3},
    {0x20989c091abe3b96u, -2650241484807981011, -2650241484807868418, 3},
    {0x116bd31ca41457b6u, -8211355837656464811, 7740827656215007010, 3},
    // control 1: I8, I16, I32, I64 x seeds 1..3
    {0x138c0a3d6a1c3054u, 85, -71, 5},
    {0x979b95df61ee029eu, 133, 56, 5},
    {0x685a4dc2e3828d49u, 210, -25, 5},
    {0xed135f184760d243u, 10471, -20432, 5},
    {0xa7757c8147194981u, 64319, 13289, 5},
    {0x7279dee5277027c3u, 40750, -2179, 5},
    {0xdfe0e598ae3874b6u, 2830972879, -25759100, 5},
    {0xa226d03218132c81u, 293535821, 1031753711, 5},
    {0xa979d92dd994e679u, 1895113356, -280988725, 5},
    {0xfdacdb92aab3c1b1u, 5728675357599732139, -5811657968042942706, 5},
    {0x29de1fcfcc1c961bu, -1649149152811489809, 7590, 5},
    {0x813914386c94aea4u, -7785807332671190216, -5479933519930989057, 5},
    // control 2: I8, I16, I32, I64 x seeds 1..3
    {0x496629a587321a26u, 18, -55, 4},
    {0x48b6684fdec3aa26u, 113, 21, 4},
    {0xe1f7cbaf0bb81ad0u, 229, 61, 4},
    {0x8b5e898343c893aau, 60045, 272, 4},
    {0x7e760de9eba31e2au, 34284, -1681, 4},
    {0x3e14c3b5b2ebc51au, 38831, 16, 4},
    {0xfbedaf0c0bd062e1u, 1157547473, 1442831220, 4},
    {0x59950dc8e6096120u, 1381425751, 547463164, 4},
    {0x8483f848dd5c5039u, 1536346134, 0, 4},
    {0xc518a47d14c0aa77u, 4854047040057125749, -693737626034004424, 4},
    {0x78d78ff48a968dc0u, -3148980557505282690, -6628778881794089272, 4},
    {0x4b58fc5157bb45a0u, -4873597530601594462, -4611721202799493121, 4},
    // control 3: I8, I16, I32, I64 x seeds 1..3
    {0x971f472fe5b86c65u, 195, -4, 7},
    {0xdefa33cd2b533f22u, 220, 55, 7},
    {0x26bf892dc9b01bd6u, 8, 72, 7},
    {0xb16172576722b6c2u, 15655, 28560, 7},
    {0x542ec6c0d3ccbfeeu, 12734, -15861, 7},
    {0xd2d5e6b068e950fbu, 19015, 20332, 7},
    {0x089f2b21ce7847c8u, 3644833339, -1841313849, 7},
    {0x54c869444150b7d0u, 1244890702, -1801202116, 7},
    {0xd86117ef6df717b7u, 4155278812, -124520050, 7},
    {0x9a122e6c77999645u, -2900323923189109122, -1618282096224080, 7},
    {0x3906465c17203ee0u, 2303139132441616392, 8020832122190921848, 7},
    {0x85d74a79b401d587u, -4784246011786225827, 9066060250168285021, 7},
    // control 4: I8, I16, I32, I64 x seeds 1..3
    {0x9b2bceb8db807598u, 129, -128, 11},
    {0x9851f3c4f3202dd7u, 66, 119, 11},
    {0x07dc48a20d683802u, 199, 0, 11},
    {0x1d33d16983c9c744u, 24228, 4977, 11},
    {0xa9fe1b797b6ab62au, 20261, -21204, 11},
    {0x91be506b8861fd33u, 53223, 0, 11},
    {0x46707879da03ec8cu, 587608192, 1342734496, 11},
    {0x50f71c05ad655457u, 4182690499, -1111837075, 11},
    {0x85ebead0c80cf4d3u, 890879582, 932945789, 11},
    {0xfdcee2c17406d2e4u, -7637378408534985942, -5159901614971455423, 11},
    {0xa0e43f6e66294defu, -5908124630299582130, -6482302770865360094, 11},
    {0x50e3cb6f6dcbe87cu, 5283611625879742971, 8060312862972014326, 11},
    // control 5: I8, I16, I32, I64 x seeds 1..3
    {0x4a05bc12fd6f082du, 147, 17, 15},
    {0xb07db414b65e821cu, 44, -56, 15},
    {0x9c721c27f0d8020du, 61, -96, 15},
    {0xeb9ee03231969c4eu, 37992, 18995, 15},
    {0x7cf89e9669f24f8cu, 59245, -8193, 15},
    {0x3ebe8a2323abefa4u, 8144, -22475, 15},
    {0x5383b2b20709d0eeu, 2497425451, -1931814198, 15},
    {0xd65c876102560e2du, 3835574865, 287349911, 15},
    {0xc499a8b4fe674776u, 1547582110, 2126512109, 15},
    {0x8095438fbeb846b5u, -4108303695579972495, -49714975025898, 15},
    {0xaa6334cb40e248e7u, 4974072593652142625, -8570696763052856668, 15},
    {0xc689fe3b87be610eu, 3078804665925802858, -8592587494521673862, 15},
  };
  auto specs = workload::paper_suite();
  ASSERT_EQ(specs.size(), std::size(pins));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto rf = workload::make_random_fun(specs[i]);
    SCOPED_TRACE("control=" + std::to_string(specs[i].control) +
                 " type=" + std::to_string(static_cast<int>(specs[i].type)) +
                 " seed=" + std::to_string(specs[i].seed));
    EXPECT_EQ(image_digest(minic::compile(rf.module)), pins[i].image_digest);
    EXPECT_EQ(rf.secret_input, pins[i].secret_input);
    EXPECT_EQ(rf.secret_const, pins[i].secret_const);
    EXPECT_EQ(rf.probe_count, pins[i].probe_count);
  }
}

TEST(RandomFuns, ReachableProbesGolden) {
  struct Pin {
    int control;
    minic::Type type;
    std::uint64_t seed;
    std::set<std::int64_t> reachable;
  };
  const Pin pins[] = {
      {0, minic::Type::I8, 1, {1, 2}},
      {1, minic::Type::I8, 1, {1, 2, 3, 4}},
      {2, minic::Type::I8, 1, {0, 1, 2, 3}},
      {3, minic::Type::I8, 1, {0, 1, 2, 3, 4, 5, 6}},
      {4, minic::Type::I8, 1, {0, 1, 2, 4, 5, 6, 7, 8, 9, 10}},
      {5, minic::Type::I8, 1, {3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14}},
      {1, minic::Type::I16, 2, {0, 1, 2, 3, 4}},
      {5, minic::Type::I16, 3, {10, 11, 13, 14}},
  };
  for (const auto& p : pins) {
    workload::RandomFunSpec spec;
    spec.control = p.control;
    spec.type = p.type;
    spec.seed = p.seed;
    auto rf = workload::make_random_fun(spec);
    EXPECT_EQ(workload::reachable_probes(rf), p.reachable)
        << "control=" << p.control << " seed=" << p.seed;
  }
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
