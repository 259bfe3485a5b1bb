// End-to-end rewriter tests: functions compiled from MiniC are rewritten
// into ROP chains and must behave identically to their native versions
// (same return values, same coverage probes) on every input -- with every
// predicate combination enabled. This is the correctness core of the
// reproduction: Figure 2's whole pipeline plus §V's predicates.
#include <gtest/gtest.h>

#include "analysis/disasm.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "rop/predicates.hpp"
#include "support/rng.hpp"

namespace raindrop {
namespace {

using minic::BinOp;
using minic::e_bin;
using minic::e_call;
using minic::e_cast;
using minic::e_index;
using minic::e_int;
using minic::e_un;
using minic::e_var;
using minic::Function;
using minic::Global;
using minic::Module;
using minic::s_assign;
using minic::s_assign_index;
using minic::s_break;
using minic::s_decl;
using minic::s_do_while;
using minic::s_if;
using minic::s_return;
using minic::s_switch;
using minic::s_trace;
using minic::s_while;
using minic::SwitchCase;
using minic::Type;

// Compiles, rewrites `fns`, and checks native-vs-ROP-vs-interpreter
// agreement over the given inputs.
void check_rop_agreement(const Module& mod,
                         const std::vector<std::string>& fns,
                         const std::string& entry,
                         const std::vector<std::vector<std::int64_t>>& inputs,
                         const rop::ObfConfig& cfg) {
  Image native_img = minic::compile(mod);
  Image rop_img = minic::compile(mod);
  engine::ObfuscationEngine rw(&rop_img, cfg);
  for (const std::string& f : fns) {
    auto r = rw.rewrite_function(f);
    ASSERT_TRUE(r.ok) << f << ": " << rop::failure_name(r.failure) << " "
                      << r.detail;
    EXPECT_GT(r.stats.gadget_slots, 0u);
  }
  LoadedImage native_li = native_img.load_shared();
  LoadedImage rop_li = rop_img.load_shared();
  std::uint64_t native_fn = native_img.function(entry)->addr;
  std::uint64_t rop_fn = rop_img.function(entry)->addr;

  for (const auto& in : inputs) {
    minic::Interp interp(mod);
    auto expect = interp.call(entry, in);
    ASSERT_TRUE(expect.ok) << expect.error;
    std::vector<std::uint64_t> uargs(in.begin(), in.end());
    CallResult n = call_function(native_li, native_fn, uargs);
    ASSERT_EQ(n.status, CpuStatus::kHalted) << n.fault_reason;
    CallResult r = call_function(rop_li, rop_fn, uargs);
    ASSERT_EQ(r.status, CpuStatus::kHalted)
        << "ROP execution fault: " << r.fault_reason;
    EXPECT_EQ(static_cast<std::int64_t>(n.rax), expect.value);
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), expect.value)
        << "ROP result diverges for input";
    EXPECT_EQ(r.probes, expect.probes) << "ROP probe trace diverges";
  }
}

Module simple_branch_module() {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_trace(1),
       s_if(e_bin(BinOp::Eq, e_var("x"), e_int(0)),
            {s_trace(2), s_return(e_int(1))},
            {s_trace(3), s_return(e_int(2))})}});
  return m;
}

rop::ObfConfig plain_cfg() {
  rop::ObfConfig c;
  c.seed = 7;
  return c;
}

TEST(RopRewriter, Figure1StyleBranch) {
  // The running example from the paper's Figure 1: rdi = (rax==0) ? 1 : 2.
  check_rop_agreement(simple_branch_module(), {"f"}, "f",
                      {{0}, {5}, {-1}}, plain_cfg());
}

TEST(RopRewriter, StraightLineArithmetic) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}, {"y", Type::I64}},
      {s_decl(Type::I64, "a",
              e_bin(BinOp::Add, e_bin(BinOp::Mul, e_var("x"), e_int(7)),
                    e_var("y"))),
       s_assign("a", e_bin(BinOp::Xor, e_var("a"),
                           e_bin(BinOp::Shl, e_var("x"), e_int(3)))),
       s_return(e_var("a"))}});
  check_rop_agreement(m, {"f"}, "f", {{1, 2}, {-5, 100}, {1 << 20, 3}},
                      plain_cfg());
}

TEST(RopRewriter, LoopsAndProbes) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"n", Type::I64}},
      {s_decl(Type::I64, "s", e_int(0)), s_decl(Type::I64, "i", e_int(0)),
       s_while(e_bin(BinOp::Lt, e_var("i"), e_var("n")),
               {s_trace(10),
                s_assign("s", e_bin(BinOp::Add, e_var("s"), e_var("i"))),
                s_assign("i", e_bin(BinOp::Add, e_var("i"), e_int(1)))}),
       s_trace(11), s_return(e_var("s"))}});
  check_rop_agreement(m, {"f"}, "f", {{0}, {1}, {7}, {20}}, plain_cfg());
}

TEST(RopRewriter, CallsNativeFromRop) {
  // ROP function calling a native (unrewritten) helper: the stack switch
  // of Figure 4 must round-trip.
  Module m;
  m.functions.push_back(Function{
      "helper",
      Type::I64,
      {{"a", Type::I64}},
      {s_return(e_bin(BinOp::Mul, e_var("a"), e_int(3)))}});
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_return(e_bin(BinOp::Add,
                      e_call("helper", {e_var("x")}, Type::I64),
                      e_int(1)))}});
  check_rop_agreement(m, {"f"}, "f", {{0}, {4}, {-9}}, plain_cfg());
}

TEST(RopRewriter, RopCallsRopAndRecursion) {
  Module m;
  m.functions.push_back(Function{
      "fib",
      Type::I64,
      {{"n", Type::I64}},
      {s_if(e_bin(BinOp::Lt, e_var("n"), e_int(2)), {s_return(e_var("n"))}),
       s_return(e_bin(
           BinOp::Add,
           e_call("fib", {e_bin(BinOp::Sub, e_var("n"), e_int(1))},
                  Type::I64),
           e_call("fib", {e_bin(BinOp::Sub, e_var("n"), e_int(2))},
                  Type::I64)))}});
  check_rop_agreement(m, {"fib"}, "fib", {{0}, {1}, {8}, {12}}, plain_cfg());
}

TEST(RopRewriter, MixedNativeRopCallChain) {
  // native caller -> ROP callee -> native callee -> ROP callee.
  Module m;
  m.functions.push_back(Function{
      "leaf", Type::I64, {{"a", Type::I64}},
      {s_return(e_bin(BinOp::Add, e_var("a"), e_int(11)))}});
  m.functions.push_back(Function{
      "mid", Type::I64, {{"a", Type::I64}},
      {s_return(e_bin(BinOp::Mul, e_call("leaf", {e_var("a")}, Type::I64),
                      e_int(2)))}});
  m.functions.push_back(Function{
      "top", Type::I64, {{"a", Type::I64}},
      {s_return(e_bin(BinOp::Sub, e_call("mid", {e_var("a")}, Type::I64),
                      e_int(5)))}});
  check_rop_agreement(m, {"leaf", "top"}, "top", {{1}, {100}, {-3}},
                      plain_cfg());
}

TEST(RopRewriter, SwitchJumpTable) {
  Module m;
  std::vector<SwitchCase> cases;
  for (int i = 0; i < 6; ++i)
    cases.push_back(SwitchCase{
        i, {s_trace(100 + i), s_assign("r", e_int(i * 5 + 2)), s_break()}});
  cases[2].body = {s_trace(102), s_assign("r", e_int(999))};  // fallthrough
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_decl(Type::I64, "r", e_int(-1)),
       s_switch(e_var("x"), cases, {s_trace(200), s_assign("r", e_int(42))}),
       s_return(e_var("r"))}});
  std::vector<std::vector<std::int64_t>> inputs;
  for (std::int64_t v = -1; v <= 7; ++v) inputs.push_back({v});
  check_rop_agreement(m, {"f"}, "f", inputs, plain_cfg());
}

TEST(RopRewriter, GlobalArraysAndScalars) {
  Module m;
  std::vector<std::int64_t> lut;
  for (int i = 0; i < 32; ++i) lut.push_back((i * 13 + 5) & 0xff);
  m.globals.push_back(Global{"lut", Type::U8, 32, lut, true});
  m.globals.push_back(Global{"acc", Type::I64, 1, {7}, false});
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::U64}},
      {s_assign("acc",
                e_bin(BinOp::Add, e_var("acc"),
                      e_index("lut",
                              e_bin(BinOp::And, e_var("x", Type::U64),
                                    e_int(31)),
                              Type::U8))),
       s_assign_index("lut", e_bin(BinOp::And, e_var("x", Type::U64),
                                   e_int(31)),
                      e_int(0)),
       s_return(e_var("acc"))}});
  check_rop_agreement(m, {"f"}, "f", {{3}, {31}, {64}}, plain_cfg());
}

// ---- predicate configurations: same functions must still agree --------

rop::ObfConfig with(bool p1, bool p2, double k, int p3v, bool confusion,
                    std::uint64_t seed = 99) {
  rop::ObfConfig c;
  c.seed = seed;
  c.p1 = p1;
  c.p2 = p2;
  c.p3_fraction = k;
  c.p3_variant = p3v;
  c.gadget_confusion = confusion;
  return c;
}

Module rich_module() {
  // Exercises branches of every comparison kind, loops, calls, arrays.
  Module m;
  std::vector<std::int64_t> tab;
  for (int i = 0; i < 64; ++i) tab.push_back((i * 31 + 7) & 0xff);
  m.globals.push_back(Global{"tab", Type::U8, 64, tab, true});
  m.functions.push_back(Function{
      "mix",
      Type::I64,
      {{"a", Type::I64}, {"b", Type::I64}},
      {s_return(e_bin(BinOp::Xor, e_bin(BinOp::Mul, e_var("a"), e_int(17)),
                      e_var("b")))}});
  std::vector<minic::StmtPtr> body;
  body.push_back(s_decl(Type::I64, "h", e_int(0x12345)));
  body.push_back(s_decl(Type::I64, "i", e_int(0)));
  body.push_back(s_while(
      e_bin(BinOp::Lt, e_var("i"), e_int(8)),
      {s_trace(1),
       s_assign("h",
                e_bin(BinOp::Add,
                      e_call("mix", {e_var("h"), e_var("x")}, Type::I64),
                      e_index("tab",
                              e_bin(BinOp::And, e_var("h"), e_int(63)),
                              Type::U8))),
       s_if(e_bin(BinOp::Gt, e_var("h"), e_int(0)), {s_trace(2)},
            {s_trace(3), s_assign("h", e_un(minic::UnOp::Neg, e_var("h")))}),
       s_if(e_bin(BinOp::Lt, e_cast(Type::U64, e_var("h")),
                  e_cast(Type::U64, e_var("x"))),
            {s_trace(4)}),
       s_assign("i", e_bin(BinOp::Add, e_var("i"), e_int(1)))}));
  body.push_back(s_return(e_var("h")));
  m.functions.push_back(
      Function{"f", Type::I64, {{"x", Type::I64}}, body});
  return m;
}

std::vector<std::vector<std::int64_t>> rich_inputs() {
  return {{0}, {1}, {-1}, {123456}, {-98765}, {0x7fffffffffffffffll}};
}

TEST(RopPredicates, P1Only) {
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(),
                      with(true, false, 0, 1, false));
}

TEST(RopPredicates, P2Only) {
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(),
                      with(false, true, 0, 1, false));
}

TEST(RopPredicates, P3ForVariant) {
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(),
                      with(false, false, 1.0, 1, false));
}

TEST(RopPredicates, P3ArrayVariant) {
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(),
                      with(true, false, 1.0, 2, false));
}

TEST(RopPredicates, GadgetConfusionOnly) {
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(),
                      with(false, false, 0, 1, true));
}

TEST(RopPredicates, EverythingOn) {
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(),
                      with(true, true, 0.5, 3, true));
}

TEST(RopPredicates, EverythingOnManySeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    check_rop_agreement(rich_module(), {"mix", "f"}, "f",
                        {{7}, {-7}, {1 << 30}},
                        with(true, true, 0.7, 3, true, seed));
  }
}

TEST(RopPredicates, ShuffledBlocks) {
  rop::ObfConfig c = with(true, true, 0.3, 1, true);
  c.shuffle_blocks = true;
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(), c);
}

TEST(RopPredicates, ReadOnlyChainSpills) {
  rop::ObfConfig c = plain_cfg();
  c.read_only_chain = true;
  check_rop_agreement(rich_module(), {"mix", "f"}, "f", rich_inputs(), c);
}

TEST(RopRewriter, FailsOnTooShortFunction) {
  Module m;
  m.functions.push_back(
      Function{"tiny", Type::I64, {}, {s_return(e_int(1))}});
  Image img = minic::compile(m);
  // Shrink the recorded size below the stub size to model the paper's
  // "shorter than the pivoting sequence" class.
  img.function("tiny")->size = engine::ObfuscationEngine::pivot_stub_size() - 1;
  engine::ObfuscationEngine rw(&img, plain_cfg());
  auto r = rw.rewrite_function("tiny");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure, rop::RewriteFailure::TooShort);
}

TEST(RopRewriter, StatsArePopulated) {
  Image img = minic::compile(simple_branch_module());
  engine::ObfuscationEngine rw(&img, rop::rop_k(0.5, 3));
  auto r = rw.rewrite_function("f");
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.stats.program_points, 5u);
  EXPECT_GT(r.stats.gadget_slots, r.stats.program_points);
  EXPECT_GT(r.stats.unique_gadgets, 0u);
  EXPECT_GT(r.stats.gadgets_per_point, 1.0);
  auto agg = rw.aggregate();
  EXPECT_EQ(agg.gadget_slots, r.stats.gadget_slots);
}

TEST(RopRewriter, ChainLivesInRopData) {
  Image img = minic::compile(simple_branch_module());
  engine::ObfuscationEngine rw(&img, plain_cfg());
  auto r = rw.rewrite_function("f");
  ASSERT_TRUE(r.ok);
  EXPECT_GE(r.chain_addr, kRopDataBase);
  EXPECT_GT(r.chain_size, 0u);
}

TEST(RopRewriter, P1ArrayInvariant) {
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    auto a = rop::P1Array::generate(rng, 4, 6, 32, 7);
    EXPECT_TRUE(a.invariant_holds());
    EXPECT_EQ(a.cells.size(), 6u * 32u);
  }
}

TEST(RopPredicates, CondBitFormulasExhaustive8Bit) {
  // Property test: the flag-independent P2 formulas must agree with the
  // condition semantics for all 8-bit operand pairs (sign-extended), for
  // every covered condition code.
  using isa::Cond;
  for (int ci = 0; ci < isa::kNumConds; ++ci) {
    Cond cc = static_cast<Cond>(ci);
    if (cc == Cond::O || cc == Cond::NO) continue;
    for (int ai = 0; ai < 256; ++ai) {
      for (int bi = 0; bi < 256; bi += 7) {  // stride keeps runtime sane
        std::uint64_t a = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int8_t>(ai)));
        std::uint64_t b = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(static_cast<std::int8_t>(bi)));
        // Oracle vs x86-style flag evaluation on the CPU is covered in
        // test_cpu; here check the bit-trick formulas via cond_holds.
        bool expect = false;
        std::int64_t sa = static_cast<std::int64_t>(a);
        std::int64_t sb = static_cast<std::int64_t>(b);
        switch (cc) {
          case Cond::E: expect = a == b; break;
          case Cond::NE: expect = a != b; break;
          case Cond::B: expect = a < b; break;
          case Cond::AE: expect = a >= b; break;
          case Cond::BE: expect = a <= b; break;
          case Cond::A: expect = a > b; break;
          case Cond::L: expect = sa < sb; break;
          case Cond::GE: expect = sa >= sb; break;
          case Cond::LE: expect = sa <= sb; break;
          case Cond::G: expect = sa > sb; break;
          case Cond::S: expect = static_cast<std::int64_t>(a - b) < 0; break;
          case Cond::NS:
            expect = static_cast<std::int64_t>(a - b) >= 0;
            break;
          default: break;
        }
        EXPECT_EQ(rop::cond_holds(cc, a, b), expect)
            << isa::cond_name(cc) << " " << sa << " " << sb;
      }
    }
  }
}

}  // namespace
}  // namespace raindrop
