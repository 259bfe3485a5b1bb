// VM obfuscator tests: virtualized functions must agree with their
// originals (interpreter and compiled execution), across nesting depths
// and implicit-VPC configurations -- and compose with ROP rewriting, as
// in the paper's "already obfuscated code" experiments (§IV-C).
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "vmobf/vmobf.hpp"
#include "workload/randomfuns.hpp"

namespace raindrop {
namespace {

using minic::BinOp;
using minic::e_bin;
using minic::e_int;
using minic::e_var;
using minic::Function;
using minic::Module;
using minic::s_assign;
using minic::s_decl;
using minic::s_if;
using minic::s_return;
using minic::s_trace;
using minic::s_while;
using minic::Type;

Module hash_module() {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_decl(Type::I64, "h", e_int(0x9dc5)), s_decl(Type::I64, "i", e_int(0)),
       s_while(e_bin(BinOp::Lt, e_var("i"), e_int(6)),
               {s_trace(1),
                s_assign("h",
                         e_bin(BinOp::Xor,
                               e_bin(BinOp::Mul, e_var("h"), e_int(0x01000193)),
                               e_bin(BinOp::Add, e_var("x"), e_var("i")))),
                s_if(e_bin(BinOp::Eq,
                           e_bin(BinOp::And, e_var("h"), e_int(7)), e_int(0)),
                     {s_trace(2),
                      s_assign("h", e_bin(BinOp::Add, e_var("h"), e_int(99)))}),
                s_assign("i", e_bin(BinOp::Add, e_var("i"), e_int(1)))}),
       s_return(e_var("h"))}});
  return m;
}

void check_vm_agreement(int layers, vmobf::ImpWhere imp) {
  Module orig = hash_module();
  Module obf = hash_module();
  ASSERT_TRUE(vmobf::virtualize_layers(obf, "f", layers, imp, 42));
  minic::Interp in_orig(orig);
  Image img = minic::compile(obf);
  LoadedImage li = img.load_shared();
  std::uint64_t fn = img.function("f")->addr;
  for (std::int64_t x : {0ll, 1ll, -5ll, 777777ll}) {
    auto e = in_orig.call("f", {{x}});
    ASSERT_TRUE(e.ok);
    // Virtualized interp-level agreement (3VM needs a huge step budget).
    minic::Interp in_obf(obf, 4'000'000'000ull);
    auto vo = in_obf.call("f", {{x}});
    ASSERT_TRUE(vo.ok) << vo.error;
    EXPECT_EQ(vo.value, e.value) << layers << " layers, x=" << x;
    EXPECT_EQ(vo.probes, e.probes);
    // Compiled agreement.
    auto r = call_function(li, fn, {{static_cast<std::uint64_t>(x)}},
                           2'000'000'000);
    ASSERT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value);
    EXPECT_EQ(r.probes, e.probes);
  }
}

TEST(VmObf, OneLayer) { check_vm_agreement(1, vmobf::ImpWhere::None); }
TEST(VmObf, OneLayerImplicit) {
  check_vm_agreement(1, vmobf::ImpWhere::All);
}
TEST(VmObf, TwoLayers) { check_vm_agreement(2, vmobf::ImpWhere::None); }
TEST(VmObf, TwoLayersImpLast) {
  check_vm_agreement(2, vmobf::ImpWhere::Last);
}
TEST(VmObf, TwoLayersImpFirst) {
  check_vm_agreement(2, vmobf::ImpWhere::First);
}
TEST(VmObf, ThreeLayersImpAll) {
  check_vm_agreement(3, vmobf::ImpWhere::All);
}

TEST(VmObf, InterpreterOverheadGrowsWithLayers) {
  // Each virtualization layer multiplies the dispatch cost; check the
  // ordering native < 1VM < 2VM (the paper's 5-6 orders for 3VM).
  std::uint64_t insns[3] = {0, 0, 0};
  for (int layers = 0; layers <= 2; ++layers) {
    Module m = hash_module();
    if (layers > 0)
      ASSERT_TRUE(vmobf::virtualize_layers(m, "f", layers,
                                           vmobf::ImpWhere::None, 7));
    Image img = minic::compile(m);
    LoadedImage li = img.load_shared();
    auto r = call_function(li, img.function("f")->addr, {{42}},
                           4'000'000'000ull);
    ASSERT_EQ(r.status, CpuStatus::kHalted);
    insns[layers] = r.insns;
  }
  EXPECT_GT(insns[1], insns[0] * 5);
  EXPECT_GT(insns[2], insns[1] * 5);
}

TEST(VmObf, RandomFunsVirtualizeCleanly) {
  int ok = 0;
  for (auto& spec : workload::paper_suite()) {
    if (spec.seed != 3 || spec.control > 2) continue;
    auto rf = workload::make_random_fun(spec);
    Module obf = rf.module;
    if (!vmobf::virtualize(obf, rf.name, {spec.seed, false})) continue;
    minic::Interp a(rf.module);
    minic::Interp b(obf);
    auto ea = a.call(rf.name, {{rf.secret_input}});
    auto eb = b.call(rf.name, {{rf.secret_input}});
    ASSERT_TRUE(eb.ok) << eb.error;
    EXPECT_EQ(eb.value, ea.value);
    EXPECT_EQ(eb.value, 1);
    ++ok;
  }
  EXPECT_GE(ok, 10);
}

TEST(VmObf, RopOnTopOfVm) {
  // §IV-C: the rewriter could transform functions already protected by
  // (nested) VM obfuscation. ROP-rewrite the 1VM interpreter.
  Module obf = hash_module();
  ASSERT_TRUE(vmobf::virtualize_layers(obf, "f", 1, vmobf::ImpWhere::None,
                                       13));
  Image img = minic::compile(obf);
  engine::ObfuscationEngine rw(&img, rop::rop_k(0.25, 21));
  auto res = rw.rewrite_function("f");
  ASSERT_TRUE(res.ok) << res.detail;
  LoadedImage li = img.load_shared();
  Module oracle = hash_module();
  minic::Interp in(oracle);
  for (std::int64_t x : {3ll, -3ll}) {
    auto e = in.call("f", {{x}});
    auto r = call_function(li, img.function("f")->addr,
                           {{static_cast<std::uint64_t>(x)}},
                           2'000'000'000ull);
    ASSERT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value);
  }
}

}  // namespace
}  // namespace raindrop
