// CPU interpreter tests: arithmetic/flag semantics (including the x86
// quirks ROP encodings exploit: neg's CF, adc, INC preserving CF),
// stack ops, control transfers, and a hand-built ROP chain mirroring the
// paper's Figure 1.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>

#include "cpu/cpu.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "isa/encode.hpp"
#include "minic/codegen.hpp"
#include "workload/corpus.hpp"
#include "workload/randomfuns.hpp"

namespace raindrop {
namespace {

using isa::Cond;
using isa::MemRef;
using isa::Reg;
namespace ib = isa::ib;

constexpr std::uint64_t kCode = 0x1000;
constexpr std::uint64_t kStack = 0x20000;

struct Machine {
  Memory mem;
  Cpu cpu{&mem};
  Machine() {
    mem.map_region(0, 1 << 20, kPermRWX, "all");
    cpu.set_reg(Reg::RSP, kStack);
    cpu.set_rip(kCode);
  }
  void load(const std::vector<isa::Insn>& insns) {
    std::vector<std::uint8_t> bytes;
    for (const auto& i : insns) isa::encode(i, bytes);
    mem.write_bytes(kCode, bytes);
  }
  CpuStatus run(std::uint64_t budget = 100000) { return cpu.run(budget); }
  std::uint64_t r(Reg reg) const { return cpu.reg(reg); }
};

TEST(Cpu, MovAndArithmetic) {
  Machine m;
  m.load({ib::mov_i32(Reg::RAX, 7), ib::mov_i32(Reg::RBX, 5),
          ib::add(Reg::RAX, Reg::RBX), ib::imul_i(Reg::RAX, 3),
          ib::sub_i(Reg::RAX, 6), ib::hlt()});
  EXPECT_EQ(m.run(), CpuStatus::kHalted);
  EXPECT_EQ(m.r(Reg::RAX), 30u);
}

TEST(Cpu, NegSetsCarryLikeX86) {
  // neg rax: CF = 0 iff rax was 0 -- the branch-encoding trick from the
  // paper's Figure 1 depends on this exact behaviour.
  Machine m;
  m.load({ib::mov_i32(Reg::RAX, 0), ib::neg(Reg::RAX), ib::hlt()});
  m.run();
  EXPECT_FALSE(m.cpu.flags() & isa::kCF);

  Machine m2;
  m2.load({ib::mov_i32(Reg::RAX, 123), ib::neg(Reg::RAX), ib::hlt()});
  m2.run();
  EXPECT_TRUE(m2.cpu.flags() & isa::kCF);
}

TEST(Cpu, AdcLeaksCarryIntoRegister) {
  // Figure 1: xor rcx,rcx; neg rax; adc rcx,rcx leaves (rax!=0) in rcx.
  for (std::uint64_t v : {0ull, 1ull, 0xffffffffffffffffull, 42ull}) {
    Machine m;
    m.load({ib::mov_i64(Reg::RAX, static_cast<std::int64_t>(v)),
            ib::mov_i32(Reg::RCX, 0), ib::neg(Reg::RAX),
            ib::adc(Reg::RCX, Reg::RCX), ib::hlt()});
    m.run();
    EXPECT_EQ(m.r(Reg::RCX), v != 0 ? 1u : 0u) << v;
  }
}

TEST(Cpu, IncPreservesCarry) {
  Machine m;
  m.load({ib::mov_i32(Reg::RAX, 5), ib::cmp_i(Reg::RAX, 9),  // CF=1
          ib::inc(Reg::RAX), ib::adc(Reg::RAX, Reg::RAX), ib::hlt()});
  m.run();
  // inc keeps CF=1; adc: 6+6+1 = 13.
  EXPECT_EQ(m.r(Reg::RAX), 13u);
}

TEST(Cpu, PushPopAndStackDirection) {
  Machine m;
  m.load({ib::mov_i32(Reg::RAX, 0x1234), ib::push(Reg::RAX),
          ib::pop(Reg::RBX), ib::hlt()});
  m.run();
  EXPECT_EQ(m.r(Reg::RBX), 0x1234u);
  EXPECT_EQ(m.r(Reg::RSP), kStack);
}

TEST(Cpu, PopRspLoadsValue) {
  Machine m;
  m.mem.write_u64(kStack - 8, 0x7777);
  m.load({ib::sub_i(Reg::RSP, 8), ib::pop(Reg::RSP), ib::hlt()});
  m.run();
  EXPECT_EQ(m.r(Reg::RSP), 0x7777u);
}

TEST(Cpu, CallRetRoundTrip) {
  Machine m;
  // call +X ; hlt ; target: mov rax, 9 ; ret
  std::vector<std::uint8_t> bytes;
  auto call = ib::call(0);
  std::size_t call_len = isa::encoded_length(call);
  std::size_t hlt_len = isa::encoded_length(ib::hlt());
  call.imm = static_cast<std::int64_t>(hlt_len);  // skip over hlt
  isa::encode(call, bytes);
  isa::encode(ib::hlt(), bytes);
  isa::encode(ib::mov_i32(Reg::RAX, 9), bytes);
  isa::encode(ib::ret(), bytes);
  m.mem.write_bytes(kCode, bytes);
  (void)call_len;
  EXPECT_EQ(m.run(), CpuStatus::kHalted);
  EXPECT_EQ(m.r(Reg::RAX), 9u);
  EXPECT_EQ(m.r(Reg::RSP), kStack);
}

TEST(Cpu, ConditionalBranchTakenAndNot) {
  for (int v : {3, 8}) {
    Machine m;
    std::vector<std::uint8_t> bytes;
    isa::encode(ib::mov_i32(Reg::RAX, v), bytes);
    isa::encode(ib::cmp_i(Reg::RAX, 5), bytes);
    auto jl = ib::jcc(Cond::L, 0);
    std::size_t mov_len = isa::encoded_length(ib::mov_i32(Reg::RBX, 1));
    jl.imm = static_cast<std::int64_t>(mov_len);
    isa::encode(jl, bytes);
    isa::encode(ib::mov_i32(Reg::RBX, 1), bytes);  // skipped when v<5
    isa::encode(ib::hlt(), bytes);
    m.mem.write_bytes(kCode, bytes);
    m.cpu.set_reg(Reg::RBX, 99);
    m.run();
    EXPECT_EQ(m.r(Reg::RBX), v < 5 ? 99u : 1u);
  }
}

TEST(Cpu, CmovAndSetcc) {
  Machine m;
  m.load({ib::mov_i32(Reg::RAX, 10), ib::cmp_i(Reg::RAX, 10),
          ib::setcc(Cond::E, Reg::RBX), ib::mov_i32(Reg::RCX, 111),
          ib::mov_i32(Reg::RDX, 222), ib::cmov(Cond::E, Reg::RCX, Reg::RDX),
          ib::hlt()});
  m.run();
  EXPECT_EQ(m.r(Reg::RBX), 1u);
  EXPECT_EQ(m.r(Reg::RCX), 222u);
}

TEST(Cpu, RdWrFlagsRoundtrip) {
  Machine m;
  m.load({ib::cmp_i(Reg::RAX, 1),  // 0-1: CF=1, SF=1
          ib::rdflags(Reg::RBX), ib::test(Reg::RAX, Reg::RAX),  // clobber
          ib::wrflags(Reg::RBX), ib::setcc(Cond::B, Reg::RCX), ib::hlt()});
  m.run();
  EXPECT_EQ(m.r(Reg::RCX), 1u);
}

TEST(Cpu, XchgMemSwapsStackPointers) {
  Machine m;
  m.mem.write_u64(0x3000, 0x9000);  // other_rsp slot
  m.load({ib::mov_i64(Reg::RAX, 0x3000),
          ib::xchg_m(Reg::RSP, MemRef::base_disp(Reg::RAX)), ib::hlt()});
  m.run();
  EXPECT_EQ(m.r(Reg::RSP), 0x9000u);
  EXPECT_EQ(m.mem.read_u64(0x3000), kStack);
}

TEST(Cpu, MemoryOperandAddressing) {
  Machine m;
  m.mem.write_u64(0x5000 + 3 * 8, 0xdeadbeef);
  m.load({ib::mov_i32(Reg::RBX, 3),
          ib::load(Reg::RAX, MemRef::index_disp(Reg::RBX, 3, 0x5000)),
          ib::hlt()});
  m.run();
  EXPECT_EQ(m.r(Reg::RAX), 0xdeadbeefu);
}

TEST(Cpu, RipRelativeLoad) {
  Machine m;
  std::vector<std::uint8_t> bytes;
  auto insn = ib::load(Reg::RAX, MemRef::rip(0));
  std::size_t len = isa::encoded_length(insn);
  // Place data right after the hlt.
  std::size_t hlt_len = isa::encoded_length(ib::hlt());
  insn.mem.disp = static_cast<std::int64_t>(hlt_len);
  isa::encode(insn, bytes);
  isa::encode(ib::hlt(), bytes);
  std::uint64_t data_addr = kCode + len + hlt_len;
  m.mem.write_bytes(kCode, bytes);
  m.mem.write_u64(data_addr, 0xabcdef);
  m.run();
  EXPECT_EQ(m.r(Reg::RAX), 0xabcdefu);
}

TEST(Cpu, DivByZeroFaults) {
  Machine m;
  m.load({ib::mov_i32(Reg::RAX, 5), ib::mov_i32(Reg::RBX, 0),
          ib::udiv(Reg::RAX, Reg::RBX), ib::hlt()});
  EXPECT_EQ(m.run(), CpuStatus::kFault);
  ASSERT_TRUE(m.cpu.fault().has_value());
  EXPECT_EQ(m.cpu.fault()->reason, "division by zero");
}

TEST(Cpu, UndecodableFaults) {
  Machine m;
  m.mem.write_u8(kCode, 0xfe);
  EXPECT_EQ(m.run(), CpuStatus::kFault);
}

TEST(Cpu, BudgetExceeded) {
  Machine m;
  // jmp self
  auto j = ib::jmp(-static_cast<std::int64_t>(isa::encoded_length(ib::jmp(0))));
  m.load({j});
  EXPECT_EQ(m.run(100), CpuStatus::kBudgetExceeded);
}

TEST(Cpu, NxEnforcement) {
  Memory mem;
  mem.map_region(0x1000, 0x1000, kPermRW, "data");  // not executable
  Cpu cpu(&mem);
  std::vector<std::uint8_t> bytes = isa::encode_one(ib::hlt());
  mem.write_bytes(0x1000, bytes);
  cpu.set_rip(0x1000);
  EXPECT_EQ(cpu.run(10), CpuStatus::kFault);
}

TEST(Cpu, TraceProbes) {
  Machine m;
  m.load({ib::trace(7), ib::trace(13), ib::hlt()});
  m.run();
  ASSERT_EQ(m.cpu.trace_probes().size(), 2u);
  EXPECT_EQ(m.cpu.trace_probes()[0], 7);
  EXPECT_EQ(m.cpu.trace_probes()[1], 13);
}

// A hand-built ROP chain reproducing the paper's Figure 1: assigns
// RDI = 1 if RAX == 0 else 2, with the branch realised as a variable RSP
// addend computed from the leaked carry flag.
TEST(Cpu, Figure1RopChain) {
  for (std::uint64_t rax : {0ull, 5ull}) {
    Memory mem;
    mem.map_region(0, 1 << 20, kPermRWX, "all");
    Cpu cpu(&mem);

    // Gadget area: each gadget is <insns>; ret.
    std::uint64_t g = 0x1000;
    auto emit_gadget = [&](std::vector<isa::Insn> insns) {
      std::uint64_t addr = g;
      std::vector<std::uint8_t> bytes;
      for (auto& i : insns) isa::encode(i, bytes);
      isa::encode(ib::ret(), bytes);
      mem.write_bytes(addr, bytes);
      g += bytes.size();
      return addr;
    };
    std::uint64_t g_pop_rcx = emit_gadget({ib::pop(Reg::RCX)});
    std::uint64_t g_neg_rax = emit_gadget({ib::neg(Reg::RAX)});
    std::uint64_t g_adc = emit_gadget({ib::adc(Reg::RCX, Reg::RCX)});
    std::uint64_t g_pop_rsi = emit_gadget({ib::pop(Reg::RSI)});
    std::uint64_t g_neg_rcx = emit_gadget({ib::neg(Reg::RCX)});
    std::uint64_t g_and = emit_gadget({ib::and_(Reg::RSI, Reg::RCX)});
    std::uint64_t g_add_rsp_rsi = emit_gadget({ib::add(Reg::RSP, Reg::RSI)});
    std::uint64_t g_pop_rdi = emit_gadget({ib::pop(Reg::RDI)});
    std::uint64_t g_pop2 =
        emit_gadget({ib::pop(Reg::RSI), ib::pop(Reg::RBP)});
    std::uint64_t g_hlt_addr = 0x8000;
    mem.write_bytes(g_hlt_addr, isa::encode_one(ib::hlt()));

    // Chain layout (qwords), mirroring Figure 1.
    std::uint64_t chain = 0x40000;
    std::vector<std::uint64_t> q;
    q.push_back(g_pop_rcx);
    q.push_back(0);                  // rcx = 0
    q.push_back(g_neg_rax);          // CF = (rax != 0)
    q.push_back(g_adc);              // rcx = CF
    q.push_back(g_pop_rsi);
    q.push_back(0x18);               // candidate skip amount
    q.push_back(g_neg_rcx);          // rcx = 0 or -1 (all ones)
    q.push_back(g_and);              // rsi = 0x18 if rax!=0 else 0
    q.push_back(g_add_rsp_rsi);      // branch
    // fallthrough path (rax == 0): rdi = 1, then jump over alt 0x10 bytes
    q.push_back(g_pop_rdi);
    q.push_back(1);
    q.push_back(g_pop2);             // pops the two junk qwords below
    // taken path lands here (+0x18 from the fallthrough start)
    q.push_back(g_pop_rdi);
    q.push_back(2);
    // join
    q.push_back(g_hlt_addr);
    for (std::size_t i = 0; i < q.size(); ++i)
      mem.write_u64(chain + 8 * i, q[i]);

    // Ignition: point RSP at the chain and "return" into it through a
    // bare ret gadget, like a pivoting sequence would.
    std::uint64_t g_ret = emit_gadget({});
    cpu.set_reg(Reg::RAX, rax);
    cpu.set_reg(Reg::RSP, chain);
    cpu.set_rip(g_ret);
    ASSERT_EQ(cpu.run(1000), CpuStatus::kHalted) << rax;
    EXPECT_EQ(cpu.reg(Reg::RDI), rax == 0 ? 1u : 2u) << rax;
  }
}

TEST(Cpu, DecodeCacheInvalidationOnCodeWrite) {
  Machine m;
  // Overwrite the instruction after next with hlt at runtime. The write
  // targets an executable region, so the decode cache must be flushed.
  std::vector<std::uint8_t> bytes;
  auto mov1 = ib::mov_i32(Reg::RAX, 1);
  std::size_t l1 = isa::encoded_length(mov1);
  auto store = ib::store(MemRef::abs(0), Reg::RBX, 1);
  std::size_t l2 = isa::encoded_length(store);
  std::uint64_t target = kCode + l1 + l2;
  store.mem = MemRef::abs(static_cast<std::int64_t>(target));
  isa::encode(mov1, bytes);
  isa::encode(store, bytes);
  isa::encode(ib::mov_i32(Reg::RAX, 2), bytes);  // will be smashed
  isa::encode(ib::hlt(), bytes);
  m.mem.write_bytes(kCode, bytes);
  m.cpu.set_reg(Reg::RBX, static_cast<std::uint64_t>(
                              static_cast<std::uint8_t>(isa::Op::HLT)));
  EXPECT_EQ(m.run(), CpuStatus::kHalted);
  EXPECT_EQ(m.r(Reg::RAX), 1u);  // second mov never executed
}

TEST(Cpu, SuperblockBudgetExactMidBlock) {
  // The budget must be enforced per instruction even though dispatch is
  // per block: exhausting it mid-block stops exactly there and resumes.
  Machine m;
  std::vector<isa::Insn> prog(40, ib::nop());
  prog.push_back(ib::hlt());
  m.load(prog);
  EXPECT_EQ(m.run(17), CpuStatus::kBudgetExceeded);
  EXPECT_EQ(m.cpu.insn_count(), 17u);
  EXPECT_EQ(m.run(1000), CpuStatus::kHalted);
  EXPECT_EQ(m.cpu.insn_count(), 41u);
}

// Architectural outcome of one call on a freshly loaded machine.
struct RunOutcome {
  CpuStatus status = CpuStatus::kHalted;
  std::uint64_t rax = 0;
  std::uint64_t insns = 0;
  std::vector<std::int64_t> probes;
  std::string fault_reason;

  bool operator==(const RunOutcome&) const = default;
};

RunOutcome run_loaded(const Image& img, std::uint64_t fn_addr,
                      std::uint64_t arg, const HookSet* hooks,
                      bool single_step) {
  Memory mem = img.load();
  Cpu cpu(&mem);
  if (hooks) cpu.set_hooks(*hooks);
  cpu.set_reg(Reg::RDI, arg);
  std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
  mem.write_u64(rsp, kHltPad);
  cpu.set_reg(Reg::RSP, rsp);
  cpu.set_rip(fn_addr);
  CpuStatus st;
  if (single_step) {
    do {
      st = cpu.step();
    } while (st == CpuStatus::kRunning && cpu.insn_count() < 1'000'000);
    if (st == CpuStatus::kRunning) st = CpuStatus::kBudgetExceeded;
  } else {
    st = cpu.run(1'000'000);
  }
  RunOutcome out;
  out.status = st;
  out.rax = cpu.reg(Reg::RAX);
  out.insns = cpu.insn_count();
  out.probes = cpu.trace_probes();
  if (cpu.fault()) out.fault_reason = cpu.fault()->reason;
  return out;
}

// Every hook stratum (and single-stepping) must observe / produce the
// exact same architectural trace as the zero-hook superblock fast path.
TEST(Cpu, HookStratificationEquivalence) {
  workload::RandomFunSpec spec;
  spec.control = 2;
  spec.seed = 7;
  auto rf = workload::make_random_fun(spec);
  Image img = minic::compile(rf.module);

  // A ROP-rewritten body exercises chain dispatch under every stratum.
  engine::ObfuscationEngine eng(&img, rop::rop_k(1.0, 3));
  ASSERT_TRUE(eng.rewrite_function(rf.name).ok);
  std::uint64_t fn = img.function(rf.name)->addr;

  for (std::uint64_t arg : {std::uint64_t(42),
                            std::uint64_t(rf.secret_input)}) {
    RunOutcome fast = run_loaded(img, fn, arg, nullptr, false);

    std::uint64_t hook_insns = 0;
    HookSet insn_hooks;
    insn_hooks.insn = [&](Cpu&, std::uint64_t, const isa::Insn&) {
      ++hook_insns;
      return true;
    };
    RunOutcome hooked = run_loaded(img, fn, arg, &insn_hooks, false);

    std::uint64_t blocks_seen = 0;
    HookSet block_hooks;
    block_hooks.block = [&](Cpu&, std::uint64_t) { ++blocks_seen; };
    RunOutcome blocked = run_loaded(img, fn, arg, &block_hooks, false);

    RunOutcome stepped = run_loaded(img, fn, arg, nullptr, true);

    // Both strata together: each must keep firing.
    std::uint64_t both_insns = 0, both_blocks = 0;
    HookSet both_hooks;
    both_hooks.insn = [&](Cpu&, std::uint64_t, const isa::Insn&) {
      ++both_insns;
      return true;
    };
    both_hooks.block = [&](Cpu&, std::uint64_t) { ++both_blocks; };
    RunOutcome combined = run_loaded(img, fn, arg, &both_hooks, false);

    EXPECT_EQ(fast, hooked) << arg;
    EXPECT_EQ(fast, blocked) << arg;
    EXPECT_EQ(fast, stepped) << arg;
    EXPECT_EQ(fast, combined) << arg;
    EXPECT_EQ(hook_insns, fast.insns) << arg;
    EXPECT_EQ(both_insns, fast.insns) << arg;
    EXPECT_GT(blocks_seen, 0u) << arg;
    EXPECT_LE(blocks_seen, fast.insns) << arg;
    EXPECT_GT(both_blocks, 0u) << arg;
  }
}

TEST(Cpu, PrewarmedExecutionIdentical) {
  workload::RandomFunSpec spec;
  spec.control = 2;
  spec.seed = 3;
  auto rf = workload::make_random_fun(spec);
  Image img = minic::compile(rf.module);
  std::uint64_t fn = img.function(rf.name)->addr;

  RunOutcome cold = run_loaded(img, fn, 42, nullptr, false);

  Memory mem = img.load();
  Cpu cpu(&mem);
  img.prewarm(&cpu);
  std::uint64_t built_by_prewarm = cpu.cache_stats().blocks_built;
  EXPECT_GT(built_by_prewarm, 0u);
  cpu.set_reg(Reg::RDI, 42);
  std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
  mem.write_u64(rsp, kHltPad);
  cpu.set_reg(Reg::RSP, rsp);
  cpu.set_rip(fn);
  EXPECT_EQ(cpu.run(1'000'000), cold.status);
  EXPECT_EQ(cpu.reg(Reg::RAX), cold.rax);
  EXPECT_EQ(cpu.insn_count(), cold.insns);
  EXPECT_EQ(cpu.trace_probes(), cold.probes);
  // Everything the run needed inside the function was pre-decoded; only
  // code outside .text symbols (the HLT sentinel pad) may decode late.
  EXPECT_LE(cpu.cache_stats().blocks_built - built_by_prewarm, 2u);
  EXPECT_GT(cpu.cache_stats().block_hits, 0u);
}

// The cache-coherence contract of the superblock engine: committing an
// obfuscated function into live memory (pivot stub + .ropdata chain + P1
// cells, as the engine's phase-2 does) invalidates only blocks decoded
// from the pages those writes touch. Warm code on untouched pages is
// re-dispatched without a single re-decode.
TEST(Cpu, PageGenerationInvalidationOnEngineCommit) {
  auto cp = workload::make_corpus(1, 40);
  ASSERT_GE(cp.runnable.size(), 2u);
  Image img = minic::compile(cp.module);
  const std::string fn_a = cp.runnable.front();
  const std::string fn_b = cp.runnable.back();
  const FunctionSym a = *img.function(fn_a);
  const FunctionSym b = *img.function(fn_b);

  Memory mem = img.load();
  Cpu cpu(&mem);
  // The patched image grows .text (artificial gadgets) and .ropdata past
  // the region extents mapped at load time; NX stays off so the chain's
  // appended gadgets remain executable in the live memory.
  cpu.set_enforce_nx(false);

  auto call = [&](std::uint64_t addr, std::uint64_t arg) {
    cpu.set_reg(Reg::RDI, arg);
    std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
    mem.write_u64(rsp, kHltPad);
    cpu.set_reg(Reg::RSP, rsp);
    cpu.set_rip(addr);
    EXPECT_EQ(cpu.run(10'000'000), CpuStatus::kHalted);
    return cpu.reg(Reg::RAX);
  };

  std::uint64_t a_ref = call(a.addr, 42);
  std::uint64_t b_ref = call(b.addr, 42);
  ASSERT_EQ(call(a.addr, 42), a_ref);  // warm + deterministic

  // Obfuscate B through the engine, then apply the image delta to the
  // live memory exactly like a runtime phase-2 commit: only bytes that
  // actually changed are written.
  engine::ObfuscationEngine eng(&img, rop::rop_k(1.0, 5));
  ASSERT_TRUE(eng.rewrite_function(fn_b).ok);
  std::set<std::uint64_t> touched_pages;
  for (const char* sec : {".text", ".rodata", ".data", ".ropdata"}) {
    std::vector<std::uint8_t> want = img.section_bytes(sec);
    std::uint64_t base = img.section_base(sec);
    std::vector<std::uint8_t> have = mem.read_bytes(base, want.size());
    for (std::size_t i = 0; i < want.size();) {
      if (want[i] == have[i]) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < want.size() && want[j] != have[j]) ++j;
      mem.write_bytes(base + i,
                      std::span<const std::uint8_t>(want.data() + i, j - i));
      for (std::uint64_t p = (base + i) >> Memory::kPageBits;
           p <= (base + j - 1) >> Memory::kPageBits; ++p)
        touched_pages.insert(p);
      i = j;
    }
  }
  ASSERT_FALSE(touched_pages.empty());
  // Premise: the commit did not touch A's code pages (A sits at the front
  // of .text, far from both B and the gadget area appended at the end).
  for (std::uint64_t p = a.addr >> Memory::kPageBits;
       p <= (a.addr + a.size - 1) >> Memory::kPageBits; ++p)
    ASSERT_FALSE(touched_pages.count(p)) << "layout premise violated";

  // A's warm blocks survive the commit: zero re-decodes.
  Cpu::CacheStats before = cpu.cache_stats();
  EXPECT_EQ(call(a.addr, 42), a_ref);
  Cpu::CacheStats after_a = cpu.cache_stats();
  EXPECT_EQ(after_a.blocks_built, before.blocks_built);
  EXPECT_EQ(after_a.stale_redecodes, before.stale_redecodes);

  // B's entry page was smashed (pivot stub): its stale blocks re-decode
  // lazily and the rewritten body computes the same result.
  EXPECT_EQ(call(b.addr, 42), b_ref);
  Cpu::CacheStats after_b = cpu.cache_stats();
  EXPECT_GT(after_b.stale_redecodes, after_a.stale_redecodes);
}

// -- Clone-aware cache import + threaded dispatch (DESIGN.md §10) -------

// One call against a clone of the frozen snapshot, optionally importing
// its CodeCache, under a hook bundle and either dispatch mode.
RunOutcome run_clone(const LoadedImage& li, std::uint64_t fn_addr,
                     std::uint64_t arg, bool import, bool threaded,
                     const HookSet* hooks = nullptr,
                     Cpu::CacheStats* stats = nullptr) {
  Memory mem = li.mem.clone();
  Cpu cpu(&mem);
  cpu.set_threaded_dispatch(threaded);
  if (import) EXPECT_TRUE(cpu.import_cache(li.cache));
  if (hooks) cpu.set_hooks(*hooks);
  cpu.set_reg(Reg::RDI, arg);
  std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
  mem.write_u64(rsp, kHltPad);
  cpu.set_reg(Reg::RSP, rsp);
  cpu.set_rip(fn_addr);
  CpuStatus st = cpu.run(1'000'000);
  RunOutcome out;
  out.status = st;
  out.rax = cpu.reg(Reg::RAX);
  out.insns = cpu.insn_count();
  out.probes = cpu.trace_probes();
  if (cpu.fault()) out.fault_reason = cpu.fault()->reason;
  if (stats) *stats = cpu.cache_stats();
  return out;
}

TEST(Cpu, ImportedCacheWarmStart) {
  workload::RandomFunSpec spec;
  spec.control = 2;
  spec.seed = 3;
  auto rf = workload::make_random_fun(spec);
  Image img = minic::compile(rf.module);
  std::uint64_t fn = img.function(rf.name)->addr;

  RunOutcome cold = run_loaded(img, fn, 42, nullptr, false);

  LoadedImage li = img.load_shared();
  ASSERT_TRUE(li.mem.frozen());
  ASSERT_NE(li.cache, nullptr);
  EXPECT_GT(li.cache->block_count(), 0u);

  // The imported run decodes nothing: every block the call needs (the
  // function body and the HLT sentinel pad) is copied from the cache.
  Cpu::CacheStats stats;
  RunOutcome warm = run_clone(li, fn, 42, /*import=*/true,
                              /*threaded=*/true, nullptr, &stats);
  EXPECT_EQ(warm, cold);
  EXPECT_GT(stats.import_hits, 0u);
  EXPECT_EQ(stats.blocks_built, 0u);

  // Same snapshot without the import: architecturally identical, but it
  // pays the full decode.
  Cpu::CacheStats cold_stats;
  RunOutcome unimported = run_clone(li, fn, 42, /*import=*/false,
                                    /*threaded=*/true, nullptr, &cold_stats);
  EXPECT_EQ(unimported, cold);
  EXPECT_GT(cold_stats.blocks_built, 0u);
  EXPECT_EQ(cold_stats.import_hits, 0u);
}

TEST(Cpu, SiblingImportRejectedDescendantAccepted) {
  workload::RandomFunSpec spec;
  spec.control = 1;
  spec.seed = 5;
  auto rf = workload::make_random_fun(spec);
  Image img = minic::compile(rf.module);
  const FunctionSym f = *img.function(rf.name);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> range{
      {f.addr, f.addr + f.size}};

  // No frozen anchor, no cache: a mutable Memory cannot back one.
  Memory plain = img.load();
  EXPECT_EQ(build_code_cache(plain, range), nullptr);

  LoadedImage li = img.load_shared();
  Memory a = li.mem.clone();
  Memory b = li.mem.clone();
  {
    Cpu ca(&a);
    EXPECT_TRUE(ca.import_cache(li.cache));  // descendant: sound
  }

  // Freeze sibling A and build a cache over it. B has the same page
  // generations as A (both cloned the same ancestor) but A's bytes may
  // have diverged -- importing A's cache into B must be refused.
  a.freeze();
  auto sibling_cache = build_code_cache(a, range);
  ASSERT_NE(sibling_cache, nullptr);
  Cpu cb(&b);
  EXPECT_FALSE(cb.import_cache(sibling_cache));
  EXPECT_TRUE(cb.import_cache(li.cache));  // the common ancestor is fine

  // A descendant of the newly frozen A accepts A's cache.
  Memory a2 = a.clone();
  Cpu ca2(&a2);
  EXPECT_TRUE(ca2.import_cache(sibling_cache));
}

// Re-importing into a warm Cpu: a clone runs partway on cache A, then
// adopts cache B (built separately over the same snapshot) and runs to
// halt. The blocks copied from A stay in the local cache alongside B's,
// and the run must match the central reference exactly.
TEST(Cpu, ReimportIntoWarmCpuMatchesReference) {
  workload::RandomFunSpec spec;
  spec.control = 1;
  spec.seed = 5;
  auto rf = workload::make_random_fun(spec);
  const std::string& name = rf.name;
  for (bool rop : {false, true}) {
    Image img = minic::compile(rf.module);
    if (rop) {
      engine::ObfuscationEngine eng(&img, rop::rop_k(1.0, 3));
      ASSERT_TRUE(eng.rewrite_function(name).ok);
    }
    std::uint64_t fn = img.function(name)->addr;
    LoadedImage li = img.load_shared();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (const FunctionSym& f : img.functions())
      if (f.size > 0) ranges.emplace_back(f.addr, f.addr + f.size);
    ranges.emplace_back(kHltPad, kHltPad + 1);
    auto cache_a = build_code_cache(li.mem, ranges);
    auto cache_b = build_code_cache(li.mem, ranges);
    ASSERT_NE(cache_a, nullptr);
    ASSERT_NE(cache_b, nullptr);

    // Runs one call on a fresh clone. `split` == 0 is the central
    // reference (no import, no threading); otherwise the clone imports
    // cache A, runs `split` instructions, imports cache B when `reimport`
    // is set, and finishes.
    struct State {
      CpuStatus status = CpuStatus::kRunning;
      std::array<std::uint64_t, isa::kNumRegs> regs{};
      std::uint64_t rip = 0, flags = 0, insns = 0;
      std::vector<std::int64_t> probes;
      Cpu::CacheStats stats;
      bool operator==(const State& o) const {
        return status == o.status && regs == o.regs && rip == o.rip &&
               flags == o.flags && insns == o.insns && probes == o.probes;
      }
    };
    auto call = [&](std::uint64_t arg, std::uint64_t split, bool reimport) {
      Memory mem = li.mem.clone();
      Cpu cpu(&mem);
      cpu.set_threaded_dispatch(split != 0);
      cpu.set_reg(Reg::RDI, arg);
      std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
      mem.write_u64(rsp, kHltPad);
      cpu.set_reg(Reg::RSP, rsp);
      cpu.set_rip(fn);
      State out;
      if (split != 0) {
        EXPECT_TRUE(cpu.import_cache(cache_a));
        EXPECT_EQ(cpu.run(split), CpuStatus::kBudgetExceeded);
        EXPECT_GT(cpu.cache_stats().import_hits, 0u);
        if (reimport) EXPECT_TRUE(cpu.import_cache(cache_b));
      }
      out.status = cpu.run(10'000'000);
      for (int r = 0; r < isa::kNumRegs; ++r)
        out.regs[r] = cpu.reg(static_cast<Reg>(r));
      out.rip = cpu.rip();
      out.flags = cpu.flags();
      out.insns = cpu.insn_count();
      out.probes = cpu.trace_probes();
      out.stats = cpu.cache_stats();
      return out;
    };
    for (std::uint64_t arg : {7, 42}) {
      State ref = call(arg, 0, false);
      ASSERT_EQ(ref.status, CpuStatus::kHalted) << arg;
      ASSERT_GT(ref.insns, 1u) << arg;
      State got = call(arg, ref.insns / 2, true);
      EXPECT_EQ(got, ref) << "rop=" << rop << " arg=" << arg;
      EXPECT_GT(got.stats.chain_hits, 0u) << arg;
      // The blocks already copied from A stay valid: B is consulted only
      // for addresses the local cache does not hold yet, so the split
      // run copies exactly as many blocks as one that never re-imports.
      State single = call(arg, ref.insns / 2, false);
      EXPECT_EQ(single, ref) << "rop=" << rop << " arg=" << arg;
      EXPECT_EQ(got.stats.import_hits, single.stats.import_hits) << arg;
      if (!rop) EXPECT_EQ(got.stats.blocks_built, 0u) << arg;
    }
  }
}

TEST(Cpu, CloneWriteInvalidatesOnlyTouchedImportedPages) {
  auto cp = workload::make_corpus(1, 40);
  ASSERT_GE(cp.runnable.size(), 2u);
  Image img = minic::compile(cp.module);
  const FunctionSym a = *img.function(cp.runnable.front());
  const FunctionSym b = *img.function(cp.runnable.back());
  // Premise: A and B sit on disjoint pages, so a write into B cannot
  // legitimately invalidate A's imported blocks.
  ASSERT_GT(b.addr >> Memory::kPageBits,
            (a.addr + a.size - 1) >> Memory::kPageBits);

  LoadedImage li = img.load_shared();
  Memory mem = li.mem.clone();
  Cpu cpu(&mem);
  ASSERT_TRUE(cpu.import_cache(li.cache));
  auto call = [&](std::uint64_t addr, std::uint64_t arg) {
    cpu.set_reg(Reg::RDI, arg);
    std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
    mem.write_u64(rsp, kHltPad);
    cpu.set_reg(Reg::RSP, rsp);
    cpu.set_rip(addr);
    EXPECT_EQ(cpu.run(10'000'000), CpuStatus::kHalted);
    return cpu.reg(Reg::RAX);
  };

  std::uint64_t a_ref = call(a.addr, 42);
  Cpu::CacheStats s1 = cpu.cache_stats();
  EXPECT_GT(s1.import_hits, 0u);
  EXPECT_EQ(s1.blocks_built, 0u);

  // Self-modify B's entry in the clone (smash it with HLT). Only blocks
  // whose page-generation snapshot spans that page may be refused.
  mem.write_bytes(b.addr, isa::encode_one(ib::hlt()));

  // A stays warm: not a single decode.
  EXPECT_EQ(call(a.addr, 42), a_ref);
  EXPECT_EQ(cpu.cache_stats().blocks_built, 0u);

  // B's touched page: the stale import is refused and the smashed entry
  // block is decoded locally (it halts immediately).
  call(b.addr, 42);
  Cpu::CacheStats s3 = cpu.cache_stats();
  EXPECT_GT(s3.blocks_built, 0u);

  // A is still warm after B's rebuild.
  std::uint64_t built_after_b = s3.blocks_built;
  EXPECT_EQ(call(a.addr, 42), a_ref);
  EXPECT_EQ(cpu.cache_stats().blocks_built, built_after_b);
}

// Chained (threaded) dispatch must be architecturally invisible: same
// trace, probes and instruction counts as the central fetch loop, with
// and without the imported cache, under every hook stratum. Chaining is
// live only in the zero-hook stratum with threading enabled.
TEST(Cpu, ChainedAndCentralDispatchIdentical) {
  workload::RandomFunSpec spec;
  spec.control = 2;
  spec.seed = 7;
  auto rf = workload::make_random_fun(spec);
  Image img = minic::compile(rf.module);
  // The ROP-rewritten body exercises RET-per-gadget dispatch (the
  // return-target cache) on top of the native fallthrough/branch links.
  engine::ObfuscationEngine eng(&img, rop::rop_k(1.0, 3));
  ASSERT_TRUE(eng.rewrite_function(rf.name).ok);
  std::uint64_t fn = img.function(rf.name)->addr;
  LoadedImage li = img.load_shared();

  HookSet block_hooks;
  std::uint64_t blocks_seen = 0;
  block_hooks.block = [&](Cpu&, std::uint64_t) { ++blocks_seen; };
  HookSet insn_hooks;
  std::uint64_t insns_seen = 0;
  insn_hooks.insn = [&](Cpu&, std::uint64_t, const isa::Insn&) {
    ++insns_seen;
    return true;
  };

  for (std::uint64_t arg :
       {std::uint64_t(42), std::uint64_t(rf.secret_input)}) {
    Cpu::CacheStats central_stats;
    RunOutcome central = run_clone(li, fn, arg, false, /*threaded=*/false,
                                   nullptr, &central_stats);
    EXPECT_EQ(central_stats.chain_hits, 0u) << arg;

    for (bool import : {false, true}) {
      Cpu::CacheStats chained_stats;
      RunOutcome chained = run_clone(li, fn, arg, import, /*threaded=*/true,
                                     nullptr, &chained_stats);
      EXPECT_EQ(chained, central) << arg << " import=" << import;
      EXPECT_GT(chained_stats.chain_hits, 0u) << arg << " import=" << import;

      blocks_seen = insns_seen = 0;
      RunOutcome blocked = run_clone(li, fn, arg, import, /*threaded=*/true,
                                     &block_hooks, &chained_stats);
      EXPECT_EQ(blocked, central) << arg << " import=" << import;
      EXPECT_EQ(chained_stats.chain_hits, 0u)
          << "a block hook must demote dispatch to the central loop";
      EXPECT_GT(blocks_seen, 0u);

      RunOutcome insned = run_clone(li, fn, arg, import, /*threaded=*/true,
                                    &insn_hooks, &chained_stats);
      EXPECT_EQ(insned, central) << arg << " import=" << import;
      EXPECT_EQ(chained_stats.chain_hits, 0u)
          << "a per-insn hook must demote dispatch to the central loop";
      EXPECT_EQ(insns_seen, central.insns) << arg;
    }
  }
}

// The return-target cache must hold a ROP chain's whole gadget working
// set (DESIGN.md §10). A chain cycles over 256 distinct ret-terminated
// gadgets plus a `pop rsp; ret` rewind gadget; once the first lap has
// filled the cache, every later RET must chain through it, so the
// central fetch count stays where the first lap left it. A 64-entry
// cache thrashes here: most RETs of every lap go back to the central
// fetch.
TEST(Cpu, ReturnTargetCacheHoldsRopWorkingSet) {
  constexpr int kGadgets = 256;
  constexpr std::uint64_t kChain = 0x80000;
  Machine m;
  std::vector<isa::Insn> code;
  std::vector<std::uint64_t> chain;
  std::uint64_t at = kCode;
  auto gadget = [&](std::vector<isa::Insn> body) {
    chain.push_back(at);
    body.push_back(ib::ret());
    for (const auto& i : body) {
      at += isa::encoded_length(i);
      code.push_back(i);
    }
  };
  for (int g = 0; g < kGadgets; ++g) gadget({ib::inc(Reg::RAX)});
  std::uint64_t rewind = at;
  gadget({ib::pop(Reg::RSP)});
  chain.push_back(kChain);  // popped by the rewind gadget
  m.load(code);
  for (std::size_t i = 0; i < chain.size(); ++i)
    m.mem.write_u64(kChain + 8 * i, chain[i]);

  // Enter through the rewind gadget: its pop lands rsp on the chain.
  m.mem.write_u64(kStack, kChain);
  m.cpu.set_rip(rewind);
  constexpr std::uint64_t kLapInsns = 2 * (kGadgets + 1);
  EXPECT_EQ(m.run(2 * kLapInsns), CpuStatus::kBudgetExceeded);
  EXPECT_EQ(m.r(Reg::RAX), 2u * kGadgets);
  std::uint64_t warm = m.cpu.cache_stats().central_dispatches;
  EXPECT_GE(warm, static_cast<std::uint64_t>(kGadgets));

  // One run() call re-enters through one central fetch; nothing else may
  // leave the chained path.
  EXPECT_EQ(m.run(8 * kLapInsns), CpuStatus::kBudgetExceeded);
  EXPECT_EQ(m.r(Reg::RAX), 10u * kGadgets);
  EXPECT_LE(m.cpu.cache_stats().central_dispatches, warm + 1);
}

// ---------------------------------------------------------------------------
// Differential fuzz for the pre-lowered µop executor (DESIGN.md §11):
// seeded random programs spanning every opcode and operand shape --
// including mid-block self-modifying stores, blocks that straddle a page
// boundary, wild indirect jumps and mid-run budget pauses -- must be
// architecturally indistinguishable between the lowered fast path and the
// reference central fetch loop (set_threaded_dispatch(false)), and
// between fresh, cache-importing and warm-clone runs of the lowered path.

struct FuzzOutcome {
  CpuStatus status = CpuStatus::kHalted;
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  std::uint64_t flags = 0;
  std::uint64_t rip = 0;
  std::uint64_t insns = 0;
  std::vector<std::int64_t> probes;
  std::string fault_reason;

  bool operator==(const FuzzOutcome&) const = default;
};

// The program starts 48 bytes shy of a page line so the entry superblock
// straddles pages (the two-generation revalidation path).
constexpr std::uint64_t kFuzzCode = 0x1FD0;
constexpr std::uint64_t kFuzzData = 0x40000;  // scratch window for operands
constexpr std::uint64_t kFuzzStack = 0x60000;
constexpr std::uint64_t kFuzzPad = 0x3000;  // HLT pad: wild RETs land here

std::vector<std::uint8_t> make_fuzz_program(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto reg = [&] { return static_cast<Reg>(rng() % isa::kNumRegs); };
  auto cond = [&] { return static_cast<Cond>(rng() % isa::kNumConds); };
  auto size4 = [&] { return static_cast<std::uint8_t>(1u << (rng() % 4)); };
  auto size3 = [&] { return static_cast<std::uint8_t>(1u << (rng() % 3)); };
  auto mem = [&]() -> MemRef {
    // Every lowered addressing recipe. Register-free shapes stay inside
    // the scratch window; register-relative ones roam wherever the run
    // has driven the registers (unmapped reads are architecturally 0).
    std::int64_t d = static_cast<std::int64_t>(kFuzzData + (rng() & 0xFF8));
    switch (rng() % 5) {
      case 0:
        return MemRef::abs(d);
      case 1:
        return MemRef::base_disp(reg(),
                                 static_cast<std::int64_t>(rng() & 0xFF) - 64);
      case 2:
        return MemRef::index_disp(reg(), static_cast<std::uint8_t>(rng() % 4),
                                  d);
      case 3:
        return MemRef::base_index(reg(), reg(),
                                  static_cast<std::uint8_t>(rng() % 4),
                                  static_cast<std::int64_t>(rng() & 0x7F));
      default:
        return MemRef::rip(static_cast<std::int64_t>(rng() & 0x3F) - 8);
    }
  };
  auto imm = [&]() -> std::int64_t {
    switch (rng() % 4) {
      case 0:
        return static_cast<std::int64_t>(rng() & 0xFF);
      case 1:
        return -static_cast<std::int64_t>(rng() & 0xFF);
      case 2:
        return static_cast<std::int32_t>(rng());
      default:
        return 0;
    }
  };
  static constexpr isa::Op kAluRR[] = {
      isa::Op::ADD_RR, isa::Op::SUB_RR,  isa::Op::AND_RR,  isa::Op::OR_RR,
      isa::Op::XOR_RR, isa::Op::ADC_RR,  isa::Op::SBB_RR,  isa::Op::CMP_RR,
      isa::Op::TEST_RR, isa::Op::IMUL_RR, isa::Op::UDIV_RR, isa::Op::UREM_RR,
      isa::Op::SHL_RR, isa::Op::SHR_RR,  isa::Op::SAR_RR,
  };
  static constexpr isa::Op kAluRI[] = {
      isa::Op::ADD_RI, isa::Op::SUB_RI,  isa::Op::AND_RI, isa::Op::OR_RI,
      isa::Op::XOR_RI, isa::Op::CMP_RI,  isa::Op::TEST_RI, isa::Op::IMUL_RI,
      isa::Op::SHL_RI, isa::Op::SHR_RI,  isa::Op::SAR_RI,
  };

  std::vector<std::uint8_t> bytes;
  auto emit = [&](const isa::Insn& i) { isa::encode(i, bytes); };
  std::int64_t trace_id = 0;
  std::size_t n_insns = 24 + rng() % 32;
  for (std::size_t k = 0; k < n_insns; ++k) {
    switch (rng() % 35) {
      case 0:
        emit(ib::mov(reg(), reg()));
        break;
      case 1:
        emit(ib::mov_i64(reg(), imm()));
        break;
      case 2:
        emit(ib::mov_i32(reg(), static_cast<std::int32_t>(rng())));
        break;
      case 3:
        emit(ib::lea(reg(), mem()));
        break;
      case 4:
      case 5:
        emit(ib::load(reg(), mem(), size4()));
        break;
      case 6:
        emit(ib::loads(reg(), mem(), size3()));
        break;
      case 7:
      case 8:
        emit(ib::store(mem(), reg(), size4()));
        break;
      case 9:
        emit(ib::xchg(reg(), reg()));
        break;
      case 10:
        emit(ib::xchg_m(reg(), mem()));
        break;
      case 11:
        emit(ib::push(reg()));
        break;
      case 12:
        emit(ib::pop(reg()));
        break;
      case 13:
        emit(ib::push_i32(imm()));
        break;
      case 14:
        emit(ib::pushf());
        break;
      case 15:
        emit(ib::popf());
        break;
      case 16:
      case 17:
      case 18:
        emit(ib::alu_rr(kAluRR[rng() % std::size(kAluRR)], reg(), reg()));
        break;
      case 19:
      case 20:
        emit(ib::alu_ri(kAluRI[rng() % std::size(kAluRI)], reg(), imm()));
        break;
      case 21:
        // Shift-by-immediate with an effective count of zero: must keep
        // flags untouched on every path (the kShiftRI0 µop).
        emit(ib::alu_ri(rng() % 2 ? isa::Op::SHL_RI : isa::Op::SAR_RI, reg(),
                        rng() % 2 ? 0 : 64));
        break;
      case 22:
        emit(ib::add_m(reg(), mem()));
        break;
      case 23:
        emit(rng() % 2 ? ib::add_mi(mem(), imm()) : ib::sub_mi(mem(), imm()));
        break;
      case 24: {
        Reg r = reg();
        switch (rng() % 4) {
          case 0: emit(ib::neg(r)); break;
          case 1: emit(ib::not_(r)); break;
          case 2: emit(ib::inc(r)); break;
          default: emit(ib::dec(r)); break;
        }
        break;
      }
      case 25:
        emit(rng() % 2 ? ib::movzx(reg(), reg(), size3())
                       : ib::movsx(reg(), reg(), size3()));
        break;
      case 26:
        emit(rng() % 2 ? ib::cmov(cond(), reg(), reg())
                       : ib::setcc(cond(), reg()));
        break;
      case 27:
        emit(rng() % 2 ? ib::rdflags(reg()) : ib::wrflags(reg()));
        break;
      case 28:
        emit(ib::trace(trace_id++));
        break;
      case 29: {
        // Branch over one instruction: exercises both the taken and the
        // fallthrough chain link depending on live flags.
        std::vector<std::uint8_t> over;
        isa::encode(ib::mov_i32(reg(), static_cast<std::int32_t>(rng())),
                    over);
        emit(rng() % 2 ? ib::jcc(cond(), static_cast<std::int64_t>(over.size()))
                       : ib::jmp(static_cast<std::int64_t>(over.size())));
        bytes.insert(bytes.end(), over.begin(), over.end());
        break;
      }
      case 30: {
        // Mid-block self-modifying store aimed into the program itself:
        // the lowered path must demote exactly where the reference does.
        emit(ib::store(
            MemRef::abs(static_cast<std::int64_t>(kFuzzCode + (rng() % 0xC0))),
            reg(), size4()));
        break;
      }
      case 31: {
        // Direct call to the HLT pad (tests kCall's push) or a call over
        // the next instruction.
        std::uint64_t after =
            kFuzzCode + bytes.size() + isa::encoded_length(ib::call(0));
        emit(ib::call(static_cast<std::int64_t>(kFuzzPad - after)));
        break;
      }
      case 32: {
        // Backward conditional loop: dec + jcc back over it. Terminates
        // either by the condition or by the run budget; a budget pause
        // inside the loop must match across executors.
        Reg r = reg();
        std::size_t dec_len = isa::encoded_length(ib::dec(r));
        std::size_t jcc_len = isa::encoded_length(ib::jcc(Cond::NE, 0));
        emit(ib::dec(r));
        emit(ib::jcc(cond(), -static_cast<std::int64_t>(dec_len + jcc_len)));
        break;
      }
      case 33: {
        // Adjacent flags-producer + jcc, the shape of every compiled
        // loop test. Backward pairs make hot loops whose taken link
        // chains back into the block; forward pairs branch over one
        // instruction; case 30's SMC stores can smash either half
        // mid-run.
        Reg r = reg();
        isa::Insn prod;
        switch (rng() % 4) {
          case 0:
            prod = ib::cmp_i(r, static_cast<std::int64_t>(rng() % 7));
            break;
          case 1:
            prod = ib::cmp(r, reg());
            break;
          case 2:
            prod = ib::test(r, reg());
            break;
          default:
            prod = ib::add_i(r, 1);
            break;
        }
        std::size_t prod_len = isa::encoded_length(prod);
        std::size_t jcc_len = isa::encoded_length(ib::jcc(Cond::NE, 0));
        if (rng() % 2) {
          emit(prod);
          emit(ib::jcc(cond(),
                       -static_cast<std::int64_t>(prod_len + jcc_len)));
        } else {
          std::vector<std::uint8_t> over;
          isa::encode(ib::mov_i32(reg(), static_cast<std::int32_t>(rng())),
                      over);
          emit(prod);
          emit(ib::jcc(cond(), static_cast<std::int64_t>(over.size())));
          bytes.insert(bytes.end(), over.begin(), over.end());
        }
        break;
      }
      default: {
        // Wild transfers and faults: indirect jumps through run-driven
        // registers/memory, bare RET into the seeded pad, UD. Whatever
        // happens -- garbage decode, NX fault, halt -- must be identical.
        switch (rng() % 5) {
          case 0: emit(ib::jmp_r(reg())); break;
          case 1: emit(ib::jmp_m(mem())); break;
          case 2: emit(ib::call_r(reg())); break;
          case 3: emit(ib::ret()); break;
          default: emit(ib::ud()); break;
        }
        break;
      }
    }
  }
  isa::encode(ib::hlt(), bytes);
  return bytes;
}

enum class FuzzMode { kLowered, kCentral, kImported };

// Reads one word of every page the fuzz setup seeded, filling the
// Memory's page TLB.
void warm_fuzz_pages(const Memory& m) {
  for (std::uint64_t a : {kFuzzCode, kFuzzCode + Memory::kPageSize, kFuzzPad,
                          kFuzzData, kFuzzStack})
    (void)m.read_u64(a);
}

// With `warm_clone`, the run executes on a clone of a TLB-warmed Memory
// that stays alive (frozen first for kImported), so every store goes
// through a cached TLB slot whose page is still shared copy-on-write
// with the source -- which must come out of the run untouched.
FuzzOutcome run_fuzz(const std::vector<std::uint8_t>& bytes,
                     std::uint64_t seed, FuzzMode mode,
                     std::uint64_t budget = 2000, bool warm_clone = false) {
  Memory proto;
  proto.map_region(0, 1 << 20, kPermRWX, "all");
  proto.write_bytes(kFuzzCode, bytes);
  std::vector<std::uint8_t> pad = isa::encode_one(ib::hlt());
  proto.write_bytes(kFuzzPad, pad);
  // Seed the return-address window and the data scratch deterministically
  // so RETs land on the pad and loads observe nonzero bytes of every
  // width.
  for (int i = 0; i < 8; ++i) proto.write_u64(kFuzzStack + 8 * i, kFuzzPad);
  std::mt19937_64 datarng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (int i = 0; i < 64; ++i) proto.write_u64(kFuzzData + 8 * i, datarng());

  std::shared_ptr<const CodeCache> cache;
  Memory mem;
  if (warm_clone) warm_fuzz_pages(proto);
  if (mode == FuzzMode::kImported) {
    proto.freeze();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges{
        {kFuzzCode, kFuzzCode + bytes.size()},
        {kFuzzPad, kFuzzPad + pad.size()}};
    cache = build_code_cache(proto, ranges);
    mem = proto.clone();
  } else if (warm_clone) {
    mem = proto.clone();
  } else {
    mem = std::move(proto);
  }
  std::vector<std::uint8_t> proto_data;
  if (warm_clone) {
    warm_fuzz_pages(mem);
    proto_data = proto.read_bytes(kFuzzData, 0x1000);
  }
  Cpu cpu(&mem);
  if (cache) EXPECT_TRUE(cpu.import_cache(cache));
  if (mode == FuzzMode::kCentral) cpu.set_threaded_dispatch(false);
  std::mt19937_64 regrng(seed ^ 0xda942042e4dd58b5ull);
  for (int r = 0; r < isa::kNumRegs; ++r)
    cpu.set_reg(static_cast<Reg>(r), kFuzzData + (regrng() & 0xFF8));
  cpu.set_reg(Reg::RSP, kFuzzStack);
  cpu.set_rip(kFuzzCode);

  FuzzOutcome out;
  out.status = cpu.run(budget);
  for (int r = 0; r < isa::kNumRegs; ++r)
    out.regs[r] = cpu.reg(static_cast<Reg>(r));
  out.flags = cpu.flags();
  out.rip = cpu.rip();
  out.insns = cpu.insn_count();
  out.probes = cpu.trace_probes();
  if (cpu.fault()) out.fault_reason = cpu.fault()->reason;
  if (warm_clone) {
    EXPECT_EQ(proto.read_bytes(kFuzzCode, bytes.size()), bytes);
    EXPECT_EQ(proto.read_bytes(kFuzzData, 0x1000), proto_data);
  }
  return out;
}

TEST(Cpu, LoweredDifferentialFuzz) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    auto bytes = make_fuzz_program(seed);
    FuzzOutcome lowered = run_fuzz(bytes, seed, FuzzMode::kLowered);
    FuzzOutcome central = run_fuzz(bytes, seed, FuzzMode::kCentral);
    EXPECT_EQ(lowered, central) << "seed " << seed;
    if (seed % 4 == 0) {
      // Imported shared-cache blocks carry pre-lowered µops too; a clone
      // must execute them identically (including SMC demotion, which
      // rebuilds locally).
      FuzzOutcome imported = run_fuzz(bytes, seed, FuzzMode::kImported);
      EXPECT_EQ(lowered, imported) << "seed " << seed;
    }
    if (seed % 4 == 1) {
      // The same program on a clone of a TLB-warmed Memory: cached page
      // translations must follow every copy-on-write swap.
      for (FuzzMode mode :
           {FuzzMode::kLowered, FuzzMode::kCentral, FuzzMode::kImported})
        EXPECT_EQ(lowered, run_fuzz(bytes, seed, mode, 2000, true))
            << "seed " << seed << " warm clone, mode "
            << static_cast<int>(mode);
    }
  }
}

TEST(Cpu, LoweredBudgetPauseFuzz) {
  // Tiny budgets force pauses at arbitrary µop positions -- mid-block,
  // on block entry, inside backward loops, and (budget 2 with the
  // adjacent-pair generator) exactly between a flags producer and the
  // jcc that consumes it, which must pause at the jcc's address.
  // The paused architectural state (rip, insn_count, regs) must match
  // the central reference exactly.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto bytes = make_fuzz_program(seed);
    for (std::uint64_t budget : {1ull, 2ull, 3ull, 17ull, 101ull}) {
      FuzzOutcome lowered =
          run_fuzz(bytes, seed, FuzzMode::kLowered, budget);
      FuzzOutcome central =
          run_fuzz(bytes, seed, FuzzMode::kCentral, budget);
      EXPECT_EQ(lowered, central) << "seed " << seed << " budget " << budget;
      if (seed % 4 == 0) {
        FuzzOutcome imported =
            run_fuzz(bytes, seed, FuzzMode::kImported, budget);
        EXPECT_EQ(lowered, imported)
            << "seed " << seed << " budget " << budget;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lowered-path regressions: budget pauses, steps, code smashes and hook
// changes landing mid-run inside chained loops, pinned deterministically
// against the central reference.

// Single-stepping inside a cmp+jcc loop. After any budget pause --
// including one that lands between the cmp and the jcc it feeds -- both
// Cpu::step() and run(1) must observe exactly the reference
// interpreter's per-instruction states.
TEST(Cpu, CmpJccLoopBudgetPauseAndStep) {
  std::size_t body_len = isa::encoded_length(ib::add_i(Reg::RAX, 3)) +
                         isa::encoded_length(ib::dec(Reg::RCX)) +
                         isa::encoded_length(ib::cmp_i(Reg::RCX, 0)) +
                         isa::encoded_length(ib::jcc(Cond::NE, 0));
  std::vector<isa::Insn> prog = {
      ib::mov_i32(Reg::RCX, 60), ib::mov_i32(Reg::RAX, 0),
      // L: add rax,3 ; dec rcx ; cmp rcx,0 ; jne L
      ib::add_i(Reg::RAX, 3), ib::dec(Reg::RCX), ib::cmp_i(Reg::RCX, 0),
      ib::jcc(Cond::NE, -static_cast<std::int64_t>(body_len)), ib::hlt()};

  Machine subject;  // lowered fast path (the default)
  subject.load(prog);
  Machine ref;  // central per-instruction reference
  ref.load(prog);
  ref.cpu.set_threaded_dispatch(false);

  // Warm phase: enough full loop turns that the lowered executor runs
  // the loop block and chains its back edge through the taken link.
  EXPECT_EQ(subject.cpu.run(100), CpuStatus::kBudgetExceeded);
  EXPECT_EQ(ref.cpu.run(100), CpuStatus::kBudgetExceeded);
  EXPECT_GT(subject.cpu.cache_stats().lowered_dispatches, 0u);
  EXPECT_GT(subject.cpu.cache_stats().chain_hits, 0u);

  // Step phase: alternate run(1) budget pauses and Cpu::step() so every
  // µop boundary of the loop -- block entry, between cmp and jne, the
  // jne itself -- is hit by both resume paths.
  for (int k = 0; k < 120; ++k) {
    CpuStatus ss, rs;
    if (k % 3 == 2) {
      ss = subject.cpu.step();
      rs = ref.cpu.step();
    } else {
      ss = subject.cpu.run(1);
      rs = ref.cpu.run(1);
    }
    ASSERT_EQ(ss, rs) << "advance " << k;
    ASSERT_EQ(subject.cpu.rip(), ref.cpu.rip()) << "advance " << k;
    ASSERT_EQ(subject.cpu.insn_count(), ref.cpu.insn_count())
        << "advance " << k;
    ASSERT_EQ(subject.cpu.flags(), ref.cpu.flags()) << "advance " << k;
    ASSERT_EQ(subject.r(Reg::RAX), ref.r(Reg::RAX)) << "advance " << k;
    ASSERT_EQ(subject.r(Reg::RCX), ref.r(Reg::RCX)) << "advance " << k;
    if (ss == CpuStatus::kHalted) break;
  }
  EXPECT_EQ(subject.cpu.run(100000), ref.cpu.run(100000));
  EXPECT_EQ(subject.r(Reg::RAX), ref.r(Reg::RAX));
}

// An external write smashing a hot loop's jcc while the run is paused:
// the next dispatch must revalidate, drop the stale block, and execute
// the new bytes -- identically to the central interpreter under the same
// pause/smash/resume script.
TEST(Cpu, SmcSmashesLoopJccMidRun) {
  std::size_t body_len = isa::encoded_length(ib::dec(Reg::RCX)) +
                         isa::encoded_length(ib::cmp_i(Reg::RCX, 0)) +
                         isa::encoded_length(ib::jcc(Cond::NE, 0));
  std::vector<isa::Insn> prog = {
      ib::mov_i64(Reg::RCX, 100000), ib::dec(Reg::RCX),
      ib::cmp_i(Reg::RCX, 0),
      ib::jcc(Cond::NE, -static_cast<std::int64_t>(body_len)), ib::hlt()};
  std::uint64_t jcc_addr = kCode +
                           isa::encoded_length(ib::mov_i64(Reg::RCX, 100000)) +
                           body_len - isa::encoded_length(ib::jcc(Cond::NE, 0));
  std::vector<std::uint8_t> hlt_fill;
  while (hlt_fill.size() < isa::encoded_length(ib::jcc(Cond::NE, 0)))
    isa::encode(ib::hlt(), hlt_fill);

  auto script = [&](bool threaded, Cpu::CacheStats* warm_stats) {
    Machine m;
    m.load(prog);
    m.cpu.set_threaded_dispatch(threaded);
    // Warm until the loop's back edge chains, then smash the jne with
    // HLT bytes while paused mid-run.
    CpuStatus warm = m.cpu.run(200);
    EXPECT_EQ(warm, CpuStatus::kBudgetExceeded);
    if (warm_stats) *warm_stats = m.cpu.cache_stats();
    m.mem.write_bytes(jcc_addr, hlt_fill);
    CpuStatus done = m.cpu.run(1000);
    return std::tuple{warm, done, m.cpu.rip(), m.cpu.insn_count(),
                      m.r(Reg::RCX), m.cpu.flags()};
  };
  Cpu::CacheStats warm_stats;
  auto lowered = script(true, &warm_stats);
  auto central = script(false, nullptr);
  EXPECT_EQ(lowered, central);
  EXPECT_EQ(std::get<1>(lowered), CpuStatus::kHalted);
  EXPECT_GT(warm_stats.lowered_dispatches, 0u);
  EXPECT_GT(warm_stats.chain_hits, 0u);
}

// A loop whose cmp and jcc sit in two blocks on either side of a page
// line: block A (capped at kMaxBlockInsns, ending with cmp) lives on one
// page, its lone-jcc fall successor B on the next. Smashing only B's
// page must fail A's fall-link revalidation so the new bytes execute,
// while A itself stays cached: only B is re-decoded.
TEST(Cpu, SmashFallSuccessorAcrossPageLine) {
  std::vector<isa::Insn> body;
  for (int i = 0; i < 62; ++i) body.push_back(ib::add_i(Reg::RAX, 1));
  body.push_back(ib::dec(Reg::RCX));
  body.push_back(ib::cmp_i(Reg::RCX, 0));  // 64th insn: cap split after it
  std::vector<std::uint8_t> a_bytes;
  for (const auto& i : body) isa::encode(i, a_bytes);
  ASSERT_LE(a_bytes.size(), 512u) << "block A must fit the byte cap";
  const std::uint64_t kPage = Memory::kPageSize;
  std::uint64_t b_addr = 3 * kPage;           // B: lone jne, page-aligned
  std::uint64_t a_addr = b_addr - a_bytes.size();  // A ends at the page line
  std::int64_t back =
      -static_cast<std::int64_t>(a_bytes.size() +
                                 isa::encoded_length(ib::jcc(Cond::NE, 0)));
  std::vector<std::uint8_t> b_bytes;
  isa::encode(ib::jcc(Cond::NE, back), b_bytes);
  isa::encode(ib::hlt(), b_bytes);

  auto script = [&](bool threaded, Cpu::CacheStats* stats_out) {
    Memory mem;
    mem.map_region(0, 1 << 20, kPermRWX, "all");
    mem.write_bytes(a_addr, a_bytes);
    mem.write_bytes(b_addr, b_bytes);
    Cpu cpu(&mem);
    cpu.set_threaded_dispatch(threaded);
    cpu.set_reg(Reg::RCX, 1000);
    cpu.set_reg(Reg::RAX, 0);
    cpu.set_rip(a_addr);
    // ~26 A+B turns: A's fall link to B and B's taken link back to A
    // both chain across the page line.
    CpuStatus warm = cpu.run(1700);
    EXPECT_EQ(warm, CpuStatus::kBudgetExceeded);
    // Smash only B's page: overwrite the jne with HLT bytes.
    std::vector<std::uint8_t> fill;
    while (fill.size() < b_bytes.size()) isa::encode(ib::hlt(), fill);
    mem.write_bytes(b_addr, fill);
    CpuStatus done = cpu.run(200000);
    if (stats_out) *stats_out = cpu.cache_stats();
    return std::tuple{warm, done, cpu.rip(), cpu.insn_count(),
                      cpu.reg(Reg::RAX), cpu.reg(Reg::RCX), cpu.flags()};
  };
  Cpu::CacheStats stats;
  auto lowered = script(true, &stats);
  auto central = script(false, nullptr);
  EXPECT_EQ(lowered, central);
  EXPECT_EQ(std::get<1>(lowered), CpuStatus::kHalted);
  EXPECT_GT(stats.lowered_dispatches, 0u);
  EXPECT_GT(stats.chain_hits, 0u);
  EXPECT_EQ(stats.stale_redecodes, 1u) << "only B's page was written";
}

// Hook attach/detach while paused mid-run: an installed hook demotes
// dispatch to the central loop (no lowered dispatches or chain hits,
// hook fires); detaching re-enters the lowered executor. Architectural
// state must track the always-central reference through both
// transitions.
TEST(Cpu, HookAttachDetachMidRun) {
  std::size_t body_len = isa::encoded_length(ib::add_i(Reg::RAX, 7)) +
                         isa::encoded_length(ib::dec(Reg::RCX)) +
                         isa::encoded_length(ib::jcc(Cond::NE, 0));
  std::vector<isa::Insn> prog = {
      ib::mov_i32(Reg::RCX, 500), ib::mov_i32(Reg::RAX, 0),
      ib::add_i(Reg::RAX, 7), ib::dec(Reg::RCX),
      ib::jcc(Cond::NE, -static_cast<std::int64_t>(body_len)), ib::hlt()};

  Machine subject;
  subject.load(prog);
  Machine ref;
  ref.load(prog);
  ref.cpu.set_threaded_dispatch(false);

  auto states_equal = [&](const char* where) {
    EXPECT_EQ(subject.cpu.rip(), ref.cpu.rip()) << where;
    EXPECT_EQ(subject.cpu.insn_count(), ref.cpu.insn_count()) << where;
    EXPECT_EQ(subject.r(Reg::RAX), ref.r(Reg::RAX)) << where;
    EXPECT_EQ(subject.r(Reg::RCX), ref.r(Reg::RCX)) << where;
  };

  // Phase 1: warm until the loop runs lowered and chains its back edge.
  EXPECT_EQ(subject.cpu.run(100), CpuStatus::kBudgetExceeded);
  EXPECT_EQ(ref.cpu.run(100), CpuStatus::kBudgetExceeded);
  Cpu::CacheStats warm_stats = subject.cpu.cache_stats();
  EXPECT_GT(warm_stats.lowered_dispatches, 0u);
  EXPECT_GT(warm_stats.chain_hits, 0u);
  states_equal("after warm");

  // Phase 2: attach a block hook mid-run; dispatch demotes to the
  // central loop and the hook observes every block.
  std::uint64_t blocks_seen = 0;
  HookSet hooks;
  hooks.block = [&](Cpu&, std::uint64_t) { ++blocks_seen; };
  subject.cpu.set_hooks(hooks);
  EXPECT_EQ(subject.cpu.run(300), CpuStatus::kBudgetExceeded);
  EXPECT_EQ(ref.cpu.run(300), CpuStatus::kBudgetExceeded);
  Cpu::CacheStats hooked_stats = subject.cpu.cache_stats();
  EXPECT_GT(blocks_seen, 0u);
  EXPECT_EQ(hooked_stats.lowered_dispatches, warm_stats.lowered_dispatches)
      << "a hook must demote dispatch out of the lowered executor";
  EXPECT_EQ(hooked_stats.chain_hits, warm_stats.chain_hits);
  EXPECT_GT(hooked_stats.central_dispatches, warm_stats.central_dispatches);
  states_equal("hooked");

  // Phase 3: detach mid-run; the lowered executor resumes.
  subject.cpu.set_hooks({});
  EXPECT_EQ(subject.cpu.run(1000000), CpuStatus::kHalted);
  EXPECT_EQ(ref.cpu.run(1000000), CpuStatus::kHalted);
  Cpu::CacheStats final_stats = subject.cpu.cache_stats();
  EXPECT_GT(final_stats.lowered_dispatches, hooked_stats.lowered_dispatches);
  EXPECT_GT(final_stats.chain_hits, hooked_stats.chain_hits);
  states_equal("final");
}

}  // namespace
}  // namespace raindrop
