// Parameterized property sweeps (TEST_P): the heavy differential
// batteries that hammer the rewriter across obfuscation configurations,
// seeds and workloads; the P2 condition-bit formulas executed on the
// real CPU; and solver round-trips.
#include <gtest/gtest.h>

#include "cpu/cpu.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "isa/encode.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "rop/predicates.hpp"
#include "solver/solver.hpp"
#include "workload/randomfuns.hpp"

namespace raindrop {
namespace {

// ---- P2 condition-bit micro-op programs executed on the CPU ----------

struct CondCase {
  isa::Cond cc;
  bool b_is_imm;
};

class CondBitExec : public ::testing::TestWithParam<CondCase> {};

TEST_P(CondBitExec, MatchesSemanticsOnCpu) {
  auto [cc, b_imm] = GetParam();
  using isa::Reg;
  const std::int64_t samples[] = {0,  1,  -1, 5,  -5, 127, -128,
                                  255, 64, 63, -2, 2,  100, -100};
  for (std::int64_t av : samples) {
    for (std::int64_t bv : samples) {
      auto ops = rop::cond_bit_microops(cc, Reg::RDI, b_imm, Reg::RSI, bv,
                                        Reg::RAX, Reg::RCX, Reg::RDX,
                                        Reg::R8);
      ASSERT_TRUE(ops.has_value());
      // Assemble the micro-ops into a straight-line program.
      Memory mem;
      mem.map_region(0, 1 << 20, kPermRWX, "all");
      std::vector<std::uint8_t> bytes;
      for (const auto& m : *ops) {
        if (m.k == rop::MicroOp::K::Const)
          isa::encode(isa::ib::mov_i64(m.dst, m.value), bytes);
        else
          isa::encode(m.insn, bytes);
      }
      isa::encode(isa::ib::hlt(), bytes);
      mem.write_bytes(0x1000, bytes);
      Cpu cpu(&mem);
      cpu.set_reg(Reg::RDI, static_cast<std::uint64_t>(av));
      cpu.set_reg(Reg::RSI, static_cast<std::uint64_t>(bv));
      // Pollute the flags: the whole point is flag independence.
      cpu.set_flags(0xf);
      cpu.set_reg(Reg::RSP, 0x80000);
      cpu.set_rip(0x1000);
      ASSERT_EQ(cpu.run(1000), CpuStatus::kHalted);
      bool expect = rop::cond_holds(cc, static_cast<std::uint64_t>(av),
                                    static_cast<std::uint64_t>(bv));
      EXPECT_EQ(cpu.reg(Reg::RAX), expect ? 1u : 0u)
          << isa::cond_name(cc) << " a=" << av << " b=" << bv
          << " imm=" << b_imm;
    }
  }
}

std::vector<CondCase> all_cond_cases() {
  std::vector<CondCase> v;
  for (int c = 0; c < isa::kNumConds; ++c) {
    isa::Cond cc = static_cast<isa::Cond>(c);
    if (cc == isa::Cond::O || cc == isa::Cond::NO) continue;
    v.push_back({cc, false});
    v.push_back({cc, true});
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, CondBitExec, ::testing::ValuesIn(all_cond_cases()),
    [](const ::testing::TestParamInfo<CondCase>& info) {
      return std::string(isa::cond_name(info.param.cc)) +
             (info.param.b_is_imm ? "_imm" : "_reg");
    });

// ---- Rewriter differential sweep over RandomFuns x configs -----------

struct SweepCase {
  int control;
  minic::Type type;
  std::uint64_t obf_seed;
};

class RewriterSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RewriterSweep, FullConfigAgreesWithOracle) {
  auto [control, type, obf_seed] = GetParam();
  workload::RandomFunSpec spec;
  spec.control = control;
  spec.type = type;
  spec.seed = 2;
  auto rf = workload::make_random_fun(spec);

  Image img = minic::compile(rf.module);
  rop::ObfConfig cfg = rop::rop_k(0.6, obf_seed);
  cfg.p3_variant = 3;  // mixed
  cfg.shuffle_blocks = obf_seed % 2 == 0;
  engine::ObfuscationEngine rw(&img, cfg);
  auto res = rw.rewrite_function(rf.name);
  ASSERT_TRUE(res.ok) << res.detail;
  LoadedImage li = img.load_shared();
  std::uint64_t fn = img.function(rf.name)->addr;

  std::int64_t mask =
      minic::type_size(type) >= 8
          ? -1
          : (1ll << (8 * minic::type_size(type))) - 1;
  Rng rng(obf_seed * 31 + control);
  std::vector<std::int64_t> inputs = {rf.secret_input, 0, mask};
  for (int i = 0; i < 5; ++i)
    inputs.push_back(static_cast<std::int64_t>(rng.next()) & mask);
  for (std::int64_t x : inputs) {
    minic::Interp in(rf.module);
    auto e = in.call(rf.name, {{x}});
    ASSERT_TRUE(e.ok);
    auto r = call_function(li, fn, {{static_cast<std::uint64_t>(x)}},
                           1'000'000'000ull);
    ASSERT_EQ(r.status, CpuStatus::kHalted)
        << r.fault_reason << " x=" << x;
    EXPECT_EQ(static_cast<std::int64_t>(r.rax), e.value) << "x=" << x;
    EXPECT_EQ(r.probes, e.probes) << "x=" << x;
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> v;
  const minic::Type types[] = {minic::Type::I8, minic::Type::I32};
  for (int c = 0; c < 6; ++c)
    for (auto t : types)
      for (std::uint64_t s : {101ull, 202ull}) v.push_back({c, t, s});
  return v;
}

INSTANTIATE_TEST_SUITE_P(Controls, RewriterSweep,
                         ::testing::ValuesIn(sweep_cases()));

// ---- Solver round-trip sweep ------------------------------------------

// Random circuit over two input bytes.
solver::ExprRef random_circuit(Rng& rng, solver::ExprPool& pool) {
  auto in = pool.bin(solver::Ex::Or, pool.var(0),
                     pool.bin(solver::Ex::Shl, pool.var(1),
                              pool.constant(8)));
  solver::ExprRef e = in;
  for (int i = 0; i < 6; ++i) {
    solver::Ex ops[] = {solver::Ex::Add, solver::Ex::Xor, solver::Ex::Mul,
                        solver::Ex::Or};
    e = pool.bin(ops[rng.below(4)], e,
                 pool.constant(rng.next() & 0xffff));
    if (rng.chance(1, 3))
      e = pool.bin(solver::Ex::Shl, e,
                   pool.constant(rng.below(8)));
  }
  return e;
}

class SolverRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(SolverRoundTrip, InvertsRandomTwoByteCircuits) {
  int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  solver::ExprPool pool;
  solver::ExprRef e = random_circuit(rng, pool);
  solver::Assignment truth{};
  truth[0] = static_cast<std::uint8_t>(rng.next());
  truth[1] = static_cast<std::uint8_t>(rng.next());
  auto target = pool.constant(pool.eval(e, truth));
  std::vector<solver::ExprRef> cs{pool.eq(e, target)};
  solver::Solver s(&pool);
  auto sol = s.solve(cs, 2, Deadline(10.0));
  ASSERT_TRUE(sol.has_value()) << "seed " << seed;
  EXPECT_EQ(pool.eval(cs[0], *sol), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverRoundTrip, ::testing::Range(1, 13));

// Many solutions, several per lane batch: the lane-batched enumeration
// must return the one the one-value-at-a-time scan finds first (lowest
// in0 | in1 << 8), both with 32 lanes and, under a >= 32 k-node
// constraint, with one lane.
TEST(Solver, EnumerationReturnsFirstSolution) {
  for (bool big : {false, true}) {
    solver::ExprPool pool;
    auto in0 = pool.var(0), in1 = pool.var(1);
    std::vector<solver::ExprRef> cs{pool.eq(
        pool.bin(solver::Ex::And, pool.bin(solver::Ex::Xor, in0, in1),
                 pool.constant(0x0f)),
        pool.constant(0x0a))};
    if (big) {
      // Always true, but 2 nodes per step: the batch outgrows the lane
      // budget.
      solver::ExprRef t = in0;
      for (int i = 0; i < 16'500; ++i)
        t = pool.add(t, pool.constant(static_cast<std::uint64_t>(i) + 1));
      cs.push_back(pool.bin(solver::Ex::Ult,
                            pool.bin(solver::Ex::And, t, pool.constant(0xff)),
                            pool.constant(0x100)));
      ASSERT_GE(pool.size(), 32'000u);
    }
    solver::ExprPool::Batch batch(pool, cs);
    EXPECT_EQ(batch.lanes(), big ? 1 : solver::ExprPool::Batch::kMaxLanes);

    solver::Solver s(&pool);
    auto sol = s.solve(cs, 2, Deadline(30.0));
    ASSERT_TRUE(sol.has_value()) << "big=" << big;
    EXPECT_EQ(*sol, (solver::Assignment{0x0a, 0, 0, 0, 0, 0, 0, 0}));
    // 0x0a + 1 values were tried up to and including the answer.
    EXPECT_EQ(s.stats().evals, 0x0au + 1);

    // The first solution several deadline polls in, off any lane
    // boundary.
    cs.push_back(pool.eq(in1, pool.constant(0x03)));
    sol = s.solve(cs, 2, Deadline(30.0));
    ASSERT_TRUE(sol.has_value()) << "big=" << big;
    EXPECT_EQ(*sol,
              (solver::Assignment{0x0a ^ 0x03, 0x03, 0, 0, 0, 0, 0, 0}));
  }
}

// ---- Expression pool invariants ----------------------------------------

TEST(ExprPool, HashConsingDeduplicates) {
  solver::ExprPool pool;
  auto a = pool.add(pool.var(0), pool.constant(5));
  auto b = pool.add(pool.var(0), pool.constant(5));
  EXPECT_EQ(a, b);
}

TEST(ExprPool, ConstantFoldingAndIdentities) {
  solver::ExprPool pool;
  auto v = pool.var(0);
  EXPECT_EQ(pool.add(v, pool.constant(0)), v);
  EXPECT_EQ(pool.bin(solver::Ex::Mul, v, pool.constant(1)), v);
  std::uint64_t cv = 0;
  EXPECT_TRUE(pool.is_const(pool.bin(solver::Ex::Xor, v, v), &cv));
  EXPECT_EQ(cv, 0u);
  EXPECT_TRUE(pool.is_const(
      pool.add(pool.constant(3), pool.constant(4)), &cv));
  EXPECT_EQ(cv, 7u);
}

TEST(ExprPool, BatchMatchesPointEval) {
  Rng rng(99);
  solver::ExprPool pool;
  auto e1 = pool.bin(solver::Ex::Mul, pool.var(0), pool.constant(37));
  auto e2 = pool.bin(solver::Ex::Xor,
                     pool.ext(solver::Ex::SExt, pool.var(1), 1), e1);
  auto c1 = pool.bin(solver::Ex::Ult, e2, pool.constant(500000));
  auto c2 = pool.eq(pool.bin(solver::Ex::And, e1, pool.constant(1)),
                    pool.constant(1));
  std::vector<solver::ExprRef> roots{c1, c2};
  solver::ExprPool::Batch batch(pool, roots);
  for (int t = 0; t < 200; ++t) {
    solver::Assignment a{};
    a[0] = static_cast<std::uint8_t>(rng.next());
    a[1] = static_cast<std::uint8_t>(rng.next());
    bool batch_ok = batch.all_true(a);
    bool point_ok = pool.eval(c1, a) != 0 && pool.eval(c2, a) != 0;
    ASSERT_EQ(batch_ok, point_ok);
    EXPECT_EQ(batch.value_of(e2), pool.eval(e2, a));
  }
}

TEST(ExprPool, HashConsSurvivesGrowth) {
  solver::ExprPool pool;
  std::vector<solver::ExprRef> vars;
  for (int b = 0; b < 8; ++b) vars.push_back(pool.var(b));
  constexpr std::uint64_t kN = 60'000;  // 120 k nodes: several resizes
  std::vector<solver::ExprRef> consts, xors, sums;
  for (std::uint64_t i = 0; i < kN; ++i) {
    std::size_t next = pool.size();
    consts.push_back(pool.constant(i + 1));
    ASSERT_EQ(consts.back(), next);
    xors.push_back(pool.bin(solver::Ex::Xor, vars[i % 8], consts.back()));
    ASSERT_EQ(xors.back(), next + 1);
  }
  // Sums of neighbours carry the union of their supports.
  for (std::uint64_t i = 1; i < 1000; ++i) {
    std::size_t next = pool.size();
    sums.push_back(pool.add(xors[i - 1], xors[i]));
    ASSERT_EQ(sums.back(), next);
  }
  const std::size_t size = pool.size();
  EXPECT_EQ(size, 1 + 8 + 2 * kN + 999);
  for (int b = 0; b < 8; ++b) {
    EXPECT_EQ(pool.var(b), vars[b]);
    EXPECT_EQ(pool.support(vars[b]), 1u << b);
  }
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(pool.constant(i + 1), consts[i]);
    ASSERT_EQ(pool.bin(solver::Ex::Xor, vars[i % 8], consts[i]), xors[i]);
    ASSERT_EQ(pool.support(consts[i]), 0u);
    ASSERT_EQ(pool.support(xors[i]), 1u << (i % 8));
  }
  for (std::uint64_t i = 1; i < 1000; ++i) {
    ASSERT_EQ(pool.add(xors[i - 1], xors[i]), sums[i - 1]);
    ASSERT_EQ(pool.support(sums[i - 1]),
              (1u << ((i - 1) % 8)) | (1u << (i % 8)));
  }
  EXPECT_EQ(pool.constant(0), 0u);
  EXPECT_EQ(pool.size(), size);
}

// Wraps a random circuit in the operators it lacks, so every case of the
// batch evaluator runs.
solver::ExprRef decorate(Rng& rng, solver::ExprPool& pool,
                         solver::ExprRef e) {
  using solver::Ex;
  for (int i = 0; i < 4; ++i) {
    switch (rng.below(6)) {
      case 0: {
        Ex ops[] = {Ex::Sub, Ex::UDiv, Ex::URem, Ex::And};
        e = pool.bin(ops[rng.below(4)], e, pool.constant(rng.below(300)));
        break;
      }
      case 1:
        e = pool.bin(rng.chance(1, 2) ? Ex::LShr : Ex::AShr, e,
                     pool.constant(rng.below(70)));
        break;
      case 2: e = pool.un(rng.chance(1, 2) ? Ex::Not : Ex::Neg, e); break;
      case 3:
        e = pool.ext(rng.chance(1, 2) ? Ex::SExt : Ex::ZExt, e,
                     1 + static_cast<int>(rng.below(7)));
        break;
      case 4: {
        Ex ops[] = {Ex::Eq, Ex::Ne, Ex::Ult, Ex::Slt};
        auto c = pool.bin(ops[rng.below(4)], e,
                          pool.constant(rng.next() & 0xffff));
        e = pool.ite(c, e, pool.bin(Ex::Xor, e, pool.var(1)));
        break;
      }
      default:
        e = pool.bin(rng.chance(1, 2) ? Ex::UDiv : Ex::URem,
                     pool.constant(rng.next()), e);
        break;
    }
  }
  return e;
}

TEST(ExprPool, LaneBatchMatchesPointEval) {
  using solver::Ex;
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    solver::ExprPool pool;
    std::vector<solver::ExprRef> roots;
    const int k = 1 + static_cast<int>(rng.below(5));
    for (int r = 0; r < k; ++r) {
      auto e = decorate(rng, pool, random_circuit(rng, pool));
      auto c = pool.constant(rng.next() & 0xff);
      switch (rng.below(3)) {
        case 0: roots.push_back(pool.bin(Ex::Ne, e, c)); break;
        case 1:
          roots.push_back(pool.bin(
              Ex::Ult, pool.bin(Ex::And, e, pool.constant(0xff)), c));
          break;
        default:
          roots.push_back(pool.eq(pool.bin(Ex::And, e, pool.constant(1)),
                                  pool.constant(rng.below(2))));
          break;
      }
    }
    solver::ExprPool::Batch batch(pool, roots);
    ASSERT_EQ(batch.lanes(), solver::ExprPool::Batch::kMaxLanes);
    // A batch rooted at every node, for value_of over the whole pool.
    std::vector<solver::ExprRef> every(pool.size());
    for (std::size_t r = 0; r < every.size(); ++r)
      every[r] = static_cast<solver::ExprRef>(r);
    solver::ExprPool::Batch whole(pool, every);

    for (int n : {1, 7, batch.lanes()}) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<solver::Assignment> in(static_cast<std::size_t>(n));
        for (auto& a : in)
          for (auto& byte : a) byte = static_cast<std::uint8_t>(rng.next());
        int expect = -1;
        for (int l = 0; l < n && expect < 0; ++l) {
          bool all = true;
          for (auto root : roots) all = all && pool.eval(root, in[l]) != 0;
          if (all) expect = l;
        }
        ASSERT_EQ(batch.first_true(in.data(), n), expect)
            << "seed " << seed << " n " << n << " trial " << trial;
        for (auto root : roots)
          ASSERT_EQ(batch.value_of(root), pool.eval(root, in[0]));
        if (n == 1) {
          whole.all_true(in[0]);
          for (auto r : every)
            ASSERT_EQ(whole.value_of(r), pool.eval(r, in[0]))
                << "seed " << seed << " node " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace raindrop
