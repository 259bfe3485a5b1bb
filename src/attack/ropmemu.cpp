#include "attack/ropmemu.hpp"

#include <vector>

#include "cpu/cpu.hpp"
#include "image/image.hpp"

namespace raindrop::attack {

using isa::Cond;
using isa::Insn;
using isa::Op;
using isa::Reg;

namespace {

// Flag bits a condition code depends on (what the tool must flip).
std::uint64_t cc_mask(Cond cc) {
  switch (cc) {
    case Cond::E: case Cond::NE: return isa::kZF;
    case Cond::B: case Cond::AE: return isa::kCF;
    case Cond::BE: case Cond::A: return isa::kCF | isa::kZF;
    case Cond::L: case Cond::GE: return isa::kSF;
    case Cond::LE: case Cond::G: return isa::kSF | isa::kZF;
    case Cond::S: case Cond::NS: return isa::kSF;
    case Cond::O: case Cond::NO: return isa::kOF;
  }
  return isa::kZF;
}

struct RunOutcome {
  std::set<std::uint64_t> offsets;
  std::vector<std::pair<std::uint64_t, Cond>> leak_sites;  // (#occurrence)
  bool derailed = false;
};

// Executes from the function stub; flips the flags right before the
// `flip_occurrence`-th flag-leaking instruction (cmov/setcc/adc) when
// flip_occurrence >= 0.
RunOutcome run_once(const LoadedImage& li, std::uint64_t fn_addr,
                    std::uint64_t chain_lo, std::uint64_t chain_hi,
                    std::uint64_t arg, long flip_occurrence) {
  Memory mem = li.mem.clone();
  Cpu cpu(&mem);
  cpu.import_cache(li.cache);
  cpu.set_reg(Reg::RDI, arg);
  std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
  mem.write_u64(rsp, kHltPad);
  cpu.set_reg(Reg::RSP, rsp);
  cpu.set_rip(fn_addr);

  RunOutcome out;
  long leak_count = 0;
  // Per-instruction stratum: the tool must observe every RET's stack
  // pointer and mutate flags mid-run, so the CPU's superblock fast path
  // is deliberately bypassed (HookSet::insn forces exact stepping).
  HookSet hooks;
  hooks.insn = [&](Cpu& c, std::uint64_t, const Insn& in) {
    std::uint64_t sp = c.reg(Reg::RSP);
    if (sp >= chain_lo && sp < chain_hi && in.op == Op::RET)
      out.offsets.insert(sp - chain_lo);
    bool leak = in.op == Op::CMOV || in.op == Op::SETCC ||
                in.op == Op::ADC_RR || in.op == Op::SBB_RR;
    if (leak) {
      Cond cc = in.op == Op::CMOV || in.op == Op::SETCC ? in.cc : Cond::B;
      out.leak_sites.push_back({static_cast<std::uint64_t>(leak_count), cc});
      if (leak_count == flip_occurrence)
        c.set_flags(c.flags() ^ cc_mask(cc));
      ++leak_count;
    }
    return true;
  };
  cpu.set_hooks(std::move(hooks));
  CpuStatus st = cpu.run(3'000'000);
  out.derailed = st == CpuStatus::kFault || st == CpuStatus::kBudgetExceeded;
  return out;
}

}  // namespace

RopMemuResult ropmemu_explore(const LoadedImage& li, std::uint64_t fn_addr,
                              std::uint64_t chain_addr,
                              std::uint64_t chain_size, std::uint64_t arg,
                              const Deadline& deadline) {
  RopMemuResult res;
  std::uint64_t hi = chain_addr + chain_size;
  RunOutcome base = run_once(li, fn_addr, chain_addr, hi, arg, -1);
  res.chain_offsets = base.offsets;
  res.baseline_offsets = base.offsets.size();

  // Flip each flag-leak occurrence observed on the baseline trace.
  for (std::size_t i = 0; i < base.leak_sites.size(); ++i) {
    if (deadline.expired()) break;
    ++res.flips_attempted;
    RunOutcome flipped = run_once(li, fn_addr, chain_addr, hi, arg,
                                  static_cast<long>(i));
    if (flipped.derailed) {
      ++res.flips_derailed;
      continue;
    }
    std::size_t before = res.chain_offsets.size();
    res.chain_offsets.insert(flipped.offsets.begin(), flipped.offsets.end());
    if (res.chain_offsets.size() > before) ++res.flips_revealing;
  }
  return res;
}

}  // namespace raindrop::attack
