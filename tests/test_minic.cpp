// Differential tests: the MiniC interpreter (semantic oracle) vs the
// code generator executed on the CPU. Every feature the workloads use is
// covered: arithmetic, typed truncation, control flow, switches (dense ->
// jump tables, sparse -> compare chains), calls, recursion, global
// arrays, probes.
#include <gtest/gtest.h>

#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "support/rng.hpp"
#include "workload/clbg.hpp"
#include "workload/randomfuns.hpp"

namespace raindrop::minic {
namespace {

std::int64_t run_native(const Module& mod, const std::string& fn,
                        std::vector<std::int64_t> args,
                        std::vector<std::int64_t>* probes = nullptr) {
  Image img = compile(mod);
  LoadedImage li = img.load_shared();
  const FunctionSym* f = img.function(fn);
  EXPECT_NE(f, nullptr);
  std::vector<std::uint64_t> uargs(args.begin(), args.end());
  CallResult r = call_function(li, f->addr, uargs);
  EXPECT_EQ(r.status, CpuStatus::kHalted) << r.fault_reason;
  if (probes) *probes = r.probes;
  return static_cast<std::int64_t>(r.rax);
}

void check_agree(const Module& mod, const std::string& fn,
                 std::vector<std::int64_t> args) {
  Interp in(mod);
  auto expected = in.call(fn, args);
  ASSERT_TRUE(expected.ok) << expected.error;
  std::vector<std::int64_t> probes;
  std::int64_t got = run_native(mod, fn, args, &probes);
  EXPECT_EQ(got, expected.value) << fn;
  EXPECT_EQ(probes, expected.probes) << fn;
}

TEST(MiniC, ReturnConstant) {
  Module m;
  m.functions.push_back(Function{"f", Type::I64, {}, {s_return(e_int(42))}});
  check_agree(m, "f", {});
}

TEST(MiniC, ParamArithmetic) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"a", Type::I64}, {"b", Type::I64}},
      {s_return(e_bin(BinOp::Add, e_bin(BinOp::Mul, e_var("a"), e_int(3)),
                      e_var("b")))}});
  check_agree(m, "f", {7, 9});
  check_agree(m, "f", {-2, 100});
}

TEST(MiniC, TypedTruncationOnAssign) {
  // char c = x; return c;  -> sign-extended low byte
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_decl(Type::I8, "c", e_var("x")), s_return(e_var("c"))}});
  for (std::int64_t v : {0x1234ll, -1ll, 0x80ll, 0xffll, 0x7fll})
    check_agree(m, "f", {v});
}

TEST(MiniC, UnsignedVsSignedComparison) {
  Module m;
  m.functions.push_back(Function{
      "s",
      Type::I64,
      {{"a", Type::I64}, {"b", Type::I64}},
      {s_return(e_bin(BinOp::Lt, e_var("a"), e_var("b")))}});
  m.functions.push_back(Function{
      "u",
      Type::I64,
      {{"a", Type::U64}, {"b", Type::U64}},
      {s_return(e_bin(BinOp::Lt, e_var("a", Type::U64),
                      e_var("b", Type::U64)))}});
  check_agree(m, "s", {-1, 1});
  check_agree(m, "u", {-1, 1});  // -1 as unsigned is huge
  check_agree(m, "s", {5, 5});
  check_agree(m, "u", {5, 6});
}

TEST(MiniC, IfElseAndLogicalOps) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_if(e_bin(BinOp::LAnd, e_bin(BinOp::Gt, e_var("x"), e_int(0)),
                  e_bin(BinOp::Lt, e_var("x"), e_int(10))),
            {s_return(e_int(1))}, {s_return(e_int(2))})}});
  for (std::int64_t v : {-5ll, 0ll, 5ll, 10ll, 15ll}) check_agree(m, "f", {v});
}

TEST(MiniC, WhileLoopSum) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"n", Type::I64}},
      {s_decl(Type::I64, "s", e_int(0)), s_decl(Type::I64, "i", e_int(0)),
       s_while(e_bin(BinOp::Lt, e_var("i"), e_var("n")),
               {s_assign("s", e_bin(BinOp::Add, e_var("s"), e_var("i"))),
                s_assign("i", e_bin(BinOp::Add, e_var("i"), e_int(1)))}),
       s_return(e_var("s"))}});
  for (std::int64_t v : {0ll, 1ll, 17ll, 100ll}) check_agree(m, "f", {v});
}

TEST(MiniC, DoWhileBreakContinue) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"n", Type::I64}},
      {s_decl(Type::I64, "s", e_int(0)), s_decl(Type::I64, "i", e_int(0)),
       s_do_while(
           {s_assign("i", e_bin(BinOp::Add, e_var("i"), e_int(1))),
            s_if(e_bin(BinOp::Eq,
                       e_bin(BinOp::Rem, e_var("i", Type::U64), e_int(2)),
                       e_int(0)),
                 {s_continue()}),
            s_if(e_bin(BinOp::Gt, e_var("i"), e_int(20)), {s_break()}),
            s_assign("s", e_bin(BinOp::Add, e_var("s"), e_var("i")))},
           e_bin(BinOp::Lt, e_var("i"), e_var("n")))},
  });
  m.functions.back().body.push_back(s_return(e_var("s")));
  for (std::int64_t v : {0ll, 5ll, 30ll, 100ll}) check_agree(m, "f", {v});
}

TEST(MiniC, DenseSwitchJumpTable) {
  Module m;
  std::vector<SwitchCase> cases;
  for (int i = 0; i < 6; ++i)
    cases.push_back(SwitchCase{
        i, {s_assign("r", e_int(i * 11 + 1)), s_break()}});
  // case 3 falls through into case 4 (no break).
  cases[3].body = {s_assign("r", e_int(1000))};
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_decl(Type::I64, "r", e_int(-1)),
       s_switch(e_var("x"), cases, {s_assign("r", e_int(777))}),
       s_return(e_var("r"))}});
  for (std::int64_t v = -2; v <= 8; ++v) check_agree(m, "f", {v});
}

TEST(MiniC, SparseSwitchCompareChain) {
  Module m;
  std::vector<SwitchCase> cases;
  for (std::int64_t v : {5ll, 1000ll, -77ll})
    cases.push_back(SwitchCase{v, {s_return(e_int(v * 2))}});
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_switch(e_var("x"), cases, {s_return(e_int(0))})}});
  for (std::int64_t v : {5ll, 1000ll, -77ll, 6ll, 0ll})
    check_agree(m, "f", {v});
}

TEST(MiniC, GlobalScalarReadWrite) {
  Module m;
  m.globals.push_back(Global{"counter", Type::I64, 1, {100}, false});
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_assign("counter", e_bin(BinOp::Add, e_var("counter"), e_var("x"))),
       s_return(e_var("counter"))}});
  check_agree(m, "f", {5});
}

TEST(MiniC, GlobalArraysAllElementSizes) {
  for (Type elem : {Type::U8, Type::I8, Type::I16, Type::U32, Type::I64}) {
    Module m;
    m.globals.push_back(Global{"tab", elem, 16, {1, -2, 300, -70000}, false});
    m.functions.push_back(Function{
        "f",
        Type::I64,
        {{"i", Type::U64}},
        {s_assign_index("tab", e_int(5),
                        e_bin(BinOp::Add, e_index("tab", e_var("i"), elem),
                              e_int(7))),
         s_return(e_index("tab", e_int(5), elem))}});
    for (std::int64_t i : {0ll, 1ll, 2ll, 3ll})
      check_agree(m, "f", {i});
  }
}

TEST(MiniC, RodataArrayLookup) {
  Module m;
  std::vector<std::int64_t> init;
  for (int i = 0; i < 64; ++i) init.push_back((i * 37 + 11) & 0xff);
  m.globals.push_back(Global{"lut", Type::U8, 64, init, true});
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"i", Type::U64}},
      {s_return(e_index(
          "lut", e_bin(BinOp::And, e_var("i", Type::U64), e_int(63)),
          Type::U8))}});
  for (std::int64_t i : {0ll, 7ll, 63ll, 64ll, 1000ll})
    check_agree(m, "f", {i});
}

TEST(MiniC, FunctionCallsAndRecursion) {
  Module m;
  m.functions.push_back(Function{
      "fib",
      Type::I64,
      {{"n", Type::I64}},
      {s_if(e_bin(BinOp::Lt, e_var("n"), e_int(2)),
            {s_return(e_var("n"))}),
       s_return(e_bin(
           BinOp::Add,
           e_call("fib", {e_bin(BinOp::Sub, e_var("n"), e_int(1))},
                  Type::I64),
           e_call("fib", {e_bin(BinOp::Sub, e_var("n"), e_int(2))},
                  Type::I64)))}});
  for (std::int64_t n : {0ll, 1ll, 2ll, 10ll, 15ll}) check_agree(m, "fib", {n});
}

TEST(MiniC, CallWithSixArgs) {
  Module m;
  m.functions.push_back(Function{
      "g",
      Type::I64,
      {{"a", Type::I64},
       {"b", Type::I64},
       {"c", Type::I64},
       {"d", Type::I64},
       {"e", Type::I64},
       {"f", Type::I64}},
      {s_return(e_bin(
          BinOp::Sub,
          e_bin(BinOp::Add,
                e_bin(BinOp::Add, e_var("a"),
                      e_bin(BinOp::Mul, e_var("b"), e_int(10))),
                e_bin(BinOp::Mul, e_var("c"), e_var("d"))),
          e_bin(BinOp::Xor, e_var("e"), e_var("f"))))}});
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_return(e_call("g",
                       {e_var("x"), e_int(2), e_int(3), e_int(4), e_int(5),
                        e_int(6)},
                       Type::I64))}});
  check_agree(m, "f", {9});
}

TEST(MiniC, DeepExpressionSpillsCorrectly) {
  // Build an expression deeper than the 6-register pool to force the
  // spill-to-machine-stack path.
  Module m;
  ExprPtr e = e_var("x");
  for (int i = 1; i <= 12; ++i) {
    // ((x op c) nested 12 deep) with subexpressions on the right so the
    // left value stays live on the virtual stack.
    e = e_bin(i % 2 ? BinOp::Add : BinOp::Xor,
              e_bin(BinOp::Mul, e, e_int(3)), e_int(i * 1001));
  }
  // A pathological right-deep tree as well.
  ExprPtr r = e_int(1);
  for (int i = 0; i < 12; ++i)
    r = e_bin(BinOp::Add, e_var("x"), e_bin(BinOp::Mul, r, e_int(2)));
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_return(e_bin(BinOp::Xor, e, r))}});
  for (std::int64_t v : {0ll, 1ll, -7ll, 123456789ll}) check_agree(m, "f", {v});
}

TEST(MiniC, ShiftAndDivSemantics) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}, {"y", Type::U64}},
      {s_decl(Type::I64, "a",
              e_bin(BinOp::Shr, e_var("x"), e_int(3))),  // arithmetic
       s_decl(Type::U64, "b",
              e_bin(BinOp::Shr, e_var("y", Type::U64), e_int(3))),  // logical
       s_decl(Type::U64, "c",
              e_bin(BinOp::Div, e_var("y", Type::U64), e_int(7))),
       s_decl(Type::U64, "d",
              e_bin(BinOp::Rem, e_var("y", Type::U64), e_int(7))),
       s_return(e_bin(BinOp::Xor,
                      e_bin(BinOp::Xor, e_var("a"), e_var("b", Type::U64)),
                      e_bin(BinOp::Xor, e_var("c", Type::U64),
                            e_var("d", Type::U64))))}});
  check_agree(m, "f", {-1024, 12345});
  check_agree(m, "f", {1024, static_cast<std::int64_t>(0xffffffffffffffull)});
}

TEST(MiniC, TraceProbesMatchInterp) {
  Module m;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_trace(1),
       s_if(e_bin(BinOp::Gt, e_var("x"), e_int(0)),
            {s_trace(2)}, {s_trace(3)}),
       s_trace(4), s_return(e_int(0))}});
  check_agree(m, "f", {5});
  check_agree(m, "f", {-5});
}

TEST(MiniC, CastsAllWidths) {
  Module m;
  std::vector<StmtPtr> body;
  body.push_back(s_decl(Type::I64, "acc", e_int(0)));
  for (Type t : {Type::I8, Type::U8, Type::I16, Type::U16, Type::I32,
                 Type::U32}) {
    body.push_back(s_assign(
        "acc", e_bin(BinOp::Add,
                     e_bin(BinOp::Mul, e_var("acc"), e_int(31)),
                     e_cast(t, e_var("x")))));
  }
  body.push_back(s_return(e_var("acc")));
  m.functions.push_back(Function{"f", Type::I64, {{"x", Type::I64}}, body});
  for (std::int64_t v :
       {0ll, -1ll, 0x7fll, 0x80ll, 0x7fffll, 0x8000ll, 0x7fffffffll,
        0x80000000ll, 0x123456789abcdefll})
    check_agree(m, "f", {v});
}

TEST(MiniC, RandomizedExpressionPrograms) {
  // Property-style sweep: random straight-line programs over a few locals;
  // interpreter and compiled code must agree on every input.
  Rng rng(2024);
  for (int prog = 0; prog < 40; ++prog) {
    Module m;
    std::vector<StmtPtr> body;
    std::vector<std::string> vars = {"x", "y"};
    body.push_back(s_decl(Type::I64, "y", e_int(static_cast<std::int64_t>(
                                              rng.next() & 0xffff))));
    for (int s = 0; s < 12; ++s) {
      BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And,
                     BinOp::Or, BinOp::Xor, BinOp::Shl};
      BinOp op = ops[rng.below(7)];
      ExprPtr rhs;
      if (op == BinOp::Shl)
        rhs = e_int(static_cast<std::int64_t>(rng.below(63)));
      else
        rhs = rng.chance(1, 2)
                  ? e_var(vars[rng.below(2)])
                  : e_int(static_cast<std::int64_t>(rng.next() & 0xffffff));
      const std::string& tgt = vars[rng.below(2)];
      body.push_back(s_assign(tgt, e_bin(op, e_var(tgt), rhs)));
    }
    body.push_back(s_return(e_bin(BinOp::Xor, e_var("x"), e_var("y"))));
    m.functions.push_back(Function{"f", Type::I64, {{"x", Type::I64}}, body});
    check_agree(m, "f", {static_cast<std::int64_t>(rng.next())});
  }
}

// Interpreter-only semantics. The oracle's dynamic name rules (a Decl
// re-types its name, an undeclared name falls through to the global of
// that name) and its traps and step counts are what every differential
// test leans on, so they are pinned here directly.

TEST(Interp, RedeclarationRetypesTheName) {
  Module m;
  // if (x > 0) { i8 v = 0; } else { i16 v = 0; }  v = 300; return v;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {{"x", Type::I64}},
      {s_if(e_bin(BinOp::Gt, e_var("x"), e_int(0)),
            {s_decl(Type::I8, "v", e_int(0))},
            {s_decl(Type::I16, "v", e_int(0))}),
       s_assign("v", e_int(300)), s_return(e_var("v"))}});
  // u8 v = 0; v = 300; i16 v = v; v = 70000; return v;
  m.functions.push_back(Function{
      "g",
      Type::I64,
      {},
      {s_decl(Type::U8, "v", e_int(0)), s_assign("v", e_int(300)),
       s_decl(Type::I16, "v", e_var("v")), s_assign("v", e_int(70000)),
       s_return(e_var("v"))}});
  Interp in(m);
  EXPECT_EQ(in.call("f", {{1}}).value, 44);    // 300 as i8
  EXPECT_EQ(in.call("f", {{-1}}).value, 300);  // fits i16
  EXPECT_EQ(in.call("g", {}).value, 4464);     // 70000 as i16
}

TEST(Interp, UndeclaredLocalFallsThroughToGlobal) {
  Module m;
  m.globals.push_back(Global{"g", Type::I8, 1, {7}, false});
  // i64 r = g; g = 300; i64 g = 100; g = g + 1; return r * 1000 + g;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {},
      {s_decl(Type::I64, "r", e_var("g")), s_assign("g", e_int(300)),
       s_decl(Type::I64, "g", e_int(100)),
       s_assign("g", e_bin(BinOp::Add, e_var("g"), e_int(1))),
       s_return(e_bin(BinOp::Add, e_bin(BinOp::Mul, e_var("r"), e_int(1000)),
                      e_var("g")))}});
  m.functions.push_back(Function{"h", Type::I64, {}, {s_return(e_var("g"))}});
  m.functions.push_back(
      Function{"read", Type::I64, {}, {s_return(e_var("nope"))}});
  m.functions.push_back(Function{
      "write", Type::I64, {}, {s_assign("nope", e_int(1)), s_return(e_int(0))}});
  Interp in(m);
  auto f = in.call("f", {});
  ASSERT_TRUE(f.ok) << f.error;
  EXPECT_EQ(f.value, 7101);             // read the global 7, then local 101
  EXPECT_EQ(in.call("h", {}).value, 44);  // the global took 300 as i8
  auto r = in.call("read", {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unbound variable nope");
  auto w = in.call("write", {});
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.error, "assign to unbound nope");
}

TEST(Interp, GlobalArrayStoreAndLoad) {
  Module m;
  m.globals.push_back(Global{"tab", Type::U8, 4, {1, 2, 3, 4}, false});
  m.functions.push_back(Function{
      "put",
      Type::I64,
      {{"i", Type::I64}, {"v", Type::I64}},
      {s_assign_index("tab", e_var("i"), e_var("v")), s_return(e_int(0))}});
  m.functions.push_back(Function{
      "get",
      Type::I64,
      {{"i", Type::I64}},
      {s_return(e_index("tab", e_var("i"), Type::U8))}});
  m.functions.push_back(Function{
      "bad",
      Type::I64,
      {},
      {s_assign_index("nope", e_int(0), e_int(1)), s_return(e_int(0))}});
  Interp in(m);
  EXPECT_TRUE(in.call("put", {{1, 511}}).ok);
  EXPECT_EQ(in.call("get", {{1}}).value, 255);  // stored as u8
  EXPECT_EQ(in.call("get", {{3}}).value, 4);
  auto oob = in.call("put", {{4, 0}});
  EXPECT_FALSE(oob.ok);
  EXPECT_EQ(oob.error, "array index out of bounds");
  EXPECT_EQ(in.call("get", {{-1}}).error, "array index out of bounds");
  EXPECT_EQ(in.call("bad", {}).error, "no such array nope");
  EXPECT_EQ(in.call("get", {{1}}).value, 255);  // globals persist
}

TEST(Interp, RecursionTrapsAtDepth64) {
  Module m;
  // d(n) = n == 0 ? 0 : d(n - 1) + 1
  m.functions.push_back(Function{
      "d",
      Type::I64,
      {{"n", Type::I64}},
      {s_if(e_bin(BinOp::Eq, e_var("n"), e_int(0)), {s_return(e_int(0))}),
       s_return(e_bin(BinOp::Add,
                      e_call("d", {e_bin(BinOp::Sub, e_var("n"), e_int(1))},
                             Type::I64),
                      e_int(1)))}});
  Interp in(m);
  auto ok = in.call("d", {{63}});  // 64 frames deep
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.value, 63);
  EXPECT_EQ(ok.steps, 699u);
  auto deep = in.call("d", {{64}});
  EXPECT_FALSE(deep.ok);
  EXPECT_EQ(deep.error, "interp recursion limit");
  EXPECT_EQ(deep.steps, 640u);
  EXPECT_EQ(in.call("d", {{3}}).value, 3);  // the depth unwinds
}

TEST(Interp, StepBudgetTraps) {
  Module m;
  // i64 x = 0; while (1) { x = x + 1; } return x;
  m.functions.push_back(Function{
      "f",
      Type::I64,
      {},
      {s_decl(Type::I64, "x", e_int(0)),
       s_while(e_int(1),
               {s_assign("x", e_bin(BinOp::Add, e_var("x"), e_int(1)))}),
       s_return(e_var("x"))}});
  Interp in(m, 1000);
  auto r = in.call("f", {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "interp budget exceeded");
  EXPECT_EQ(r.steps, 1001u);
}

TEST(Interp, MissingFunction) {
  Module m;
  m.functions.push_back(Function{
      "f", Type::I64, {}, {s_return(e_call("nope", {e_int(1)}, Type::I64))}});
  Interp in(m);
  auto top = in.call("nope", {});
  EXPECT_FALSE(top.ok);
  EXPECT_EQ(top.error, "no such function: nope");
  EXPECT_EQ(top.steps, 0u);
  auto nested = in.call("f", {});
  EXPECT_FALSE(nested.ok);
  EXPECT_EQ(nested.error, "no such function nope");
  EXPECT_EQ(nested.steps, 2u);
}

TEST(Interp, StepCountsOnWorkloads) {
  for (const auto& b : workload::clbg_suite()) {
    if (b.name != "fannkuch") continue;
    Interp in(b.module);
    auto r = in.call(b.entry, {{b.arg}});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value, 301);
    EXPECT_EQ(r.steps, 40161u);
  }
  workload::RandomFunSpec spec;
  spec.control = 3;
  spec.type = Type::I32;
  spec.seed = 2;
  auto rf = workload::make_random_fun(spec);
  Interp in(rf.module);
  auto r = in.call(rf.name, {{rf.secret_input}});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value, 1);
  EXPECT_EQ(r.steps, 27290u);
  EXPECT_EQ(r.probes.size(), 1926u);
}

}  // namespace
}  // namespace raindrop::minic
