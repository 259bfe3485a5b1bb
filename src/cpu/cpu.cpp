#include "cpu/cpu.hpp"

#include <cinttypes>
#include <span>

#include "cpu/code_cache.hpp"

namespace raindrop {

using isa::Cond;
using isa::Insn;
using isa::Op;
using isa::Reg;

namespace {
constexpr std::uint64_t kSignBit = 1ull << 63;

// Superblock extent caps. Instruction starts stay within kMaxBlockBytes
// of the block start, so a block (longest insn included) spans at most
// two 4 KiB pages and the generation snapshot is two counters.
constexpr std::size_t kMaxBlockBytes = 512;
constexpr std::size_t kMaxBlockInsns = 64;
static_assert(kMaxBlockBytes + 16 <= Memory::kPageSize);

std::uint64_t sext(std::uint64_t v, unsigned size) {
  if (size >= 8) return v;
  unsigned bits = size * 8;
  std::uint64_t m = 1ull << (bits - 1);
  v &= (1ull << bits) - 1;
  return (v ^ m) - m;
}
std::uint64_t zext(std::uint64_t v, unsigned size) {
  if (size >= 8) return v;
  return v & ((1ull << (size * 8)) - 1);
}

// Ends a superblock: control leaves the straight line (or, for TRACE,
// the block is cut so probe-heavy code keeps blocks short and cheap to
// invalidate).
bool ends_block(Op op) {
  return isa::is_branch(op) || op == Op::HLT || op == Op::UD ||
         op == Op::TRACE;
}

// Effective address of a lowered memory operand: the recipe was
// classified (and any rip constant folded) at lower time, so this is a
// 2-bit switch over pure adds -- no MemRef flag walking. Forced inline:
// run_lowered has 16 call sites, enough for GCC to outline one.
[[gnu::always_inline]] inline std::uint64_t uop_ea(const isa::MicroOp& u,
                                                   const std::uint64_t* regs) {
  std::uint64_t a = static_cast<std::uint64_t>(u.disp);
  switch (u.mode) {
    case isa::AddrMode::kAbs: return a;
    case isa::AddrMode::kBase: return a + regs[u.base];
    case isa::AddrMode::kIndex: return a + (regs[u.index] << u.scale);
    case isa::AddrMode::kBaseIndex:
      return a + regs[u.base] + (regs[u.index] << u.scale);
  }
  return a;
}
}  // namespace

bool Cpu::eval_cond(Cond cc) const {
  bool cf = flags_ & isa::kCF, zf = flags_ & isa::kZF, sf = flags_ & isa::kSF,
       of = flags_ & isa::kOF;
  switch (cc) {
    case Cond::E: return zf;
    case Cond::NE: return !zf;
    case Cond::B: return cf;
    case Cond::AE: return !cf;
    case Cond::BE: return cf || zf;
    case Cond::A: return !cf && !zf;
    case Cond::L: return sf != of;
    case Cond::GE: return sf == of;
    case Cond::LE: return zf || (sf != of);
    case Cond::G: return !zf && (sf == of);
    case Cond::S: return sf;
    case Cond::NS: return !sf;
    case Cond::O: return of;
    case Cond::NO: return !of;
  }
  return false;
}

CpuStatus Cpu::fault_out(const std::string& reason) {
  fault_ = CpuFault{rip_, reason};
  return CpuStatus::kFault;
}

void Cpu::effective_addr(const isa::MemRef& m, std::uint64_t insn_end,
                         std::uint64_t& out) const {
  std::uint64_t a = static_cast<std::uint64_t>(m.disp);
  if (m.rip_rel) a += insn_end;
  if (m.has_base) a += regs_[static_cast<int>(m.base)];
  if (m.has_index)
    a += regs_[static_cast<int>(m.index)] << m.scale_log2;
  out = a;
}

// Flag recomputation is on the per-µop hot path (every ALU op), so the
// helpers are branchless: each flag is materialized as a 0/1 product
// instead of a conditional store.
void Cpu::set_flags_logic(std::uint64_t r) {
  flags_ = std::uint64_t(r == 0) * isa::kZF + (r >> 63) * isa::kSF;
}

void Cpu::set_flags_add(std::uint64_t a, std::uint64_t b,
                        std::uint64_t carry_in, std::uint64_t r) {
  // Carry out of unsigned addition a + b + carry_in.
  std::uint64_t cf = std::uint64_t(r < a) | (carry_in & std::uint64_t(r == a));
  std::uint64_t of = (~(a ^ b) & (a ^ r)) >> 63;
  flags_ = cf * isa::kCF + std::uint64_t(r == 0) * isa::kZF +
           (r >> 63) * isa::kSF + of * isa::kOF;
}

void Cpu::set_flags_sub(std::uint64_t a, std::uint64_t b,
                        std::uint64_t borrow_in, std::uint64_t r) {
  std::uint64_t cf = std::uint64_t(a < b) | (borrow_in & std::uint64_t(a == b));
  std::uint64_t of = ((a ^ b) & (a ^ r)) >> 63;
  flags_ = cf * isa::kCF + std::uint64_t(r == 0) * isa::kZF +
           (r >> 63) * isa::kSF + of * isa::kOF;
}

// ---- Superblock cache --------------------------------------------------

DecodedBlock decode_superblock(const Memory& mem, std::uint64_t start) {
  DecodedBlock b;
  b.start = start;
  // One bulk read covers the whole block plus the 16-byte lookahead the
  // decoder sees for the final instruction (unmapped bytes read as 0,
  // exactly like per-instruction fetch did).
  std::vector<std::uint8_t> window =
      mem.read_bytes(start, kMaxBlockBytes + 16);
  // Blocks never cross the boundary of the region the block starts in
  // (nor enter one from unmapped space), so a single permission check at
  // dispatch is equivalent to the seed's per-instruction NX check.
  const Memory::Region* home = mem.region_at(start);
  std::size_t off = 0;
  while (b.insns.size() < kMaxBlockInsns && off < kMaxBlockBytes) {
    if (off != 0 && mem.region_at(start + off) != home) break;
    isa::Decoded d;
    if (!isa::decode_into(
            std::span<const std::uint8_t>(window.data() + off, 16), &d))
      break;
    BlockInsn bi;
    bi.insn = d.insn;
    bi.length = static_cast<std::uint8_t>(d.length);
    Op op = d.insn.op;
    bi.writes_mem = op == Op::STORE || op == Op::XCHG_RM ||
                    op == Op::ADD_MI || op == Op::SUB_MI ||
                    op == Op::PUSH_R || op == Op::PUSH_I32 || op == Op::PUSHF;
    b.insns.push_back(bi);
    b.uops.push_back(isa::lower(d.insn, start + off, bi.length));
    off += d.length;
    if (ends_block(op)) break;
  }
  b.byte_len = static_cast<std::uint32_t>(off);
  if (!b.insns.empty()) {
    switch (b.insns.back().insn.op) {
      case Op::JMP_REL:
      case Op::CALL_REL:
        b.term = DecodedBlock::kTermTaken;
        break;
      case Op::JCC_REL:
        b.term = DecodedBlock::kTermCond;
        break;
      case Op::RET:
      case Op::JMP_R:
      case Op::JMP_M:
      case Op::CALL_R:
        b.term = DecodedBlock::kTermIndirect;
        break;
      default:
        b.term = DecodedBlock::kTermFall;
        break;
    }
  }
  b.perm_x = home && (home->perm & kPermX);
  b.region_count = static_cast<std::uint32_t>(mem.regions().size());
  if (!b.insns.empty()) {
    b.gen0 = mem.page_gen(start);
    std::uint64_t last = start + b.byte_len - 1;
    if ((last >> Memory::kPageBits) != (start >> Memory::kPageBits)) {
      b.two_pages = true;
      b.gen1 = mem.page_gen(last);
    }
  }
  return b;
}

DecodedBlock Cpu::build_block(std::uint64_t start) const {
  return decode_superblock(*mem_, start);
}

bool Cpu::block_valid(const DecodedBlock& b) const {
  if (mem_->page_gen(b.start) != b.gen0) return false;
  return !b.two_pages ||
         mem_->page_gen(b.start + b.byte_len - 1) == b.gen1;
}

bool Cpu::block_exec_ok(DecodedBlock& b) const {
  if (b.region_count == mem_->regions().size()) return b.perm_x;
  // Regions were appended since decode: refresh the snapshot (an
  // existing region's permissions never change, but a previously
  // uncovered start may have gained one).
  const Memory::Region* home = mem_->region_at(b.start);
  b.perm_x = home && (home->perm & kPermX);
  b.region_count = static_cast<std::uint32_t>(mem_->regions().size());
  return b.perm_x;
}

DecodedBlock* Cpu::insert_block(DecodedBlock&& b) {
  std::uint64_t start = b.start;
  // A block keyed at `start` can only exist alongside an index entry for
  // `start`, and callers build only on index misses -- but drop any stale
  // twin defensively so its interior index entries can never outlive it.
  discard_block(start);
  // Every arena block passes here, so every block a successor link, an
  // RTC entry or the store tail can reach sits on marked pages, and an
  // unchanged write epoch proves its bytes unchanged (DESIGN.md §10).
  mem_->watch_code(start);
  if (b.two_pages) mem_->watch_code(start + b.byte_len - 1);
  arena_.push_back(std::move(b));
  DecodedBlock& blk = arena_.back();
  blocks_[start] = &blk;
  std::uint64_t addr = start;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(blk.insns.size());
       ++i) {
    // try_emplace: interior addresses already indexed by an overlapping
    // block keep their mapping (both decodes are identical by construction).
    addr_index_.try_emplace(addr, AddrEntry{&blk, i});
    addr += blk.insns[i].length;
  }
  return &blk;
}

void Cpu::discard_block(std::uint64_t block_start) {
  auto it = blocks_.find(block_start);
  if (it == blocks_.end()) return;
  DecodedBlock* blk = it->second;
  std::uint64_t addr = block_start;
  for (const BlockInsn& bi : blk->insns) {
    auto ai = addr_index_.find(addr);
    if (ai != addr_index_.end() && ai->second.block == blk)
      addr_index_.erase(ai);
    addr += bi.length;
  }
  // The arena node stays: successor links and return-target-cache
  // entries may still point at it, and it self-invalidates (its
  // generation snapshot can never match again once a spanned page
  // moved). Nodes are reclaimed by invalidate_decode_cache().
  blocks_.erase(it);
}

bool Cpu::import_cache(std::shared_ptr<const CodeCache> cache) {
  // Frozen-ancestor rule: admit only a cache anchored to the immutable
  // snapshot this Memory descends from. Sibling caches (or caches over
  // mutable memory, epoch 0) are unsound -- equal page generations do
  // not imply equal bytes without a common frozen ancestor.
  if (!cache || cache->epoch() == 0 || mem_->lineage() != cache->epoch())
    return false;
  imported_ = std::move(cache);
  return true;
}

CpuStatus Cpu::fetch_block(DecodedBlock** out, std::uint32_t* index) {
  auto it = addr_index_.find(rip_);
  if (it != addr_index_.end()) {
    AddrEntry entry = it->second;
    DecodedBlock& b = *entry.block;
    if (block_valid(b)) {
      if (enforce_nx_ && !block_exec_ok(b)) {
        return fault_out("execute permission violation");
      }
      ++stats_.block_hits;
      *out = &b;
      *index = entry.index;
      return CpuStatus::kRunning;
    }
    ++stats_.stale_redecodes;
    discard_block(b.start);
  }
  if (imported_) {
    // Copy-on-first-use import: the shared block's generation snapshot
    // was taken over the frozen ancestor, so validating it against this
    // clone's pages proves the bytes are unchanged here too. The local
    // copy gets fresh successor links (links are per-Cpu arena
    // pointers) and then flows through the normal NX path.
    if (const CodeCache::Entry* e = imported_->lookup(rip_)) {
      if (block_valid(*e->block)) {
        DecodedBlock copy = *e->block;
        copy.fall = {};
        copy.taken = {};
        std::uint32_t idx = e->index;
        DecodedBlock* nb = insert_block(std::move(copy));
        ++stats_.import_hits;
        if (enforce_nx_ && !block_exec_ok(*nb)) {
          return fault_out("execute permission violation");
        }
        *out = nb;
        *index = idx;
        return CpuStatus::kRunning;
      }
    }
  }
  if (enforce_nx_ && !(mem_->perm_at(rip_) & kPermX)) {
    return fault_out("execute permission violation");
  }
  DecodedBlock nb = build_block(rip_);
  ++stats_.blocks_built;
  if (nb.insns.empty()) return fault_out("undecodable instruction");
  *out = insert_block(std::move(nb));
  *index = 0;
  return CpuStatus::kRunning;
}

// ---- Dispatch ----------------------------------------------------------

CpuStatus Cpu::run(std::uint64_t max_insns) {
  return run_blocks(insn_count_ + max_insns);
}

CpuStatus Cpu::run_blocks(std::uint64_t end) {
  // One loop serves every stratum: with no insn hook the inner loop
  // carries zero per-instruction callback checks; with one, each
  // instruction gets the exact single-step treatment (pre-exec hook
  // that may mutate state, then rip-continuity and page-generation
  // revalidation, so hook-driven writes and control transfers behave
  // as if the block were re-fetched per instruction).
  while (insn_count_ < end) {
    if (threaded_dispatch_ && hooks_.empty()) {
      // Zero-hook stratum: hand the whole run to the lowered µop
      // executor. Nothing can install a hook mid-run when none is
      // installed, so this never needs to fall back (it returns only on
      // halt/fault/budget). Any installed hook demotes dispatch to this
      // central loop so per-dispatch/per-insn callbacks keep firing.
      return run_lowered(end);
    }
    DecodedBlock* b = nullptr;
    std::uint32_t idx = 0;
    CpuStatus st = fetch_block(&b, &idx);
    if (st != CpuStatus::kRunning) return st;
    ++stats_.dispatches;
    ++stats_.central_dispatches;
    if (hooks_.block) hooks_.block(*this, b->start);
    // The insn stratum is sampled after the block hook (which may have
    // just installed one) and its liveness re-read per hooked
    // instruction below, so hooks installing or removing hooks behave
    // like the seed's per-step re-check. With no hooks installed,
    // nothing can install one mid-run and the inner loop stays free of
    // per-instruction callback checks.
    const bool insn_hook = static_cast<bool>(hooks_.insn);
    const std::size_t n = b->insns.size();
    for (; idx < n; ++idx) {
      if (insn_count_ >= end) return CpuStatus::kBudgetExceeded;
      const BlockInsn& bi = b->insns[idx];
      if (insn_hook) {
        if (!hooks_.insn) break;  // hook removed itself: redispatch fast
        if (!hooks_.insn(*this, rip_, bi.insn)) {
          return fault_out("aborted by hook");
        }
      }
      ++insn_count_;
      std::uint64_t fallthrough = rip_ + bi.length;
      st = exec(bi.insn, fallthrough);
      if (st != CpuStatus::kRunning) return st;
      if (insn_hook) {
        // The hook may have written code or moved rip: re-dispatch
        // unless this block's pages and the straight line both held.
        if (rip_ != fallthrough || !block_valid(*b)) break;
      } else if (bi.writes_mem && !block_valid(*b)) {
        // Only a block's final instruction can branch, so rip_ needs no
        // per-instruction check here -- but a memory write may have
        // smashed this very block: revalidate so in-block code writes
        // take effect exactly as per-instruction interpretation would.
        break;
      }
    }
  }
  return CpuStatus::kBudgetExceeded;
}

CpuStatus Cpu::run_lowered(std::uint64_t end) {
  // The zero-hook stratum's whole execution loop: central fetch,
  // successor-link chaining (block_done below) and a dense dispatch
  // over each block's pre-lowered µop stream (DESIGN.md §11), all in
  // one frame so a chained block transition is a couple of loads and a
  // goto -- no call boundary, no re-derived operand kinds, no MemRef
  // flag walking.
  //
  // Unlike exec(), rip_ is NOT maintained per instruction -- each µop
  // carries its absolute fallthrough address, so rip_ is materialized
  // only where it is observable, with exactly the value the reference
  // path would hold there:
  //   * budget pause before µop i  -> address of µop i
  //   * UD fault                   -> address of the UD itself
  //   * div-by-zero / HLT         -> fallthrough (exec() sets rip_ to
  //     next_rip on entry and faults/halts from there)
  //   * branch                     -> the taken/fallthrough target
  //   * mid-block code smash       -> fallthrough of the smashing store
  //   * block end                  -> fallthrough of the last µop
  // insn_count_ is likewise kept in a local across block boundaries and
  // written back at run exits and before every central fetch. Within
  // the µop switch, store-class µops `break` into the revalidation tail
  // below; non-terminators `continue`; terminal branches set rip_ and
  // `goto block_done` (the chain logic).
  using isa::UOp;
  DecodedBlock* b = nullptr;
  std::uint32_t idx = 0;
  DecodedBlock::Link* memo = nullptr;  // link to backfill after a fetch
  RtcEntry* rtc_memo = nullptr;
  std::uint64_t* const regs = regs_.data();
  constexpr int kRsp = static_cast<int>(Reg::RSP);
  std::uint64_t count = insn_count_;
  // Hot-path counters are batched in locals and flushed with the
  // instruction count at every observable exit: per-dispatch memory
  // RMWs on stats_ would sit on the chained transition's critical path.
  // Every dispatch here is lowered, so one local feeds both counters.
  std::uint64_t dispatches = 0;
  std::uint64_t chained = 0;
  // Write epoch at which `b` was last known valid (set on every entry).
  std::uint64_t bep = 0;
  auto sync = [&] {
    insn_count_ = count;
    stats_.dispatches += dispatches;
    stats_.lowered_dispatches += dispatches;
    stats_.chain_hits += chained;
    dispatches = chained = 0;
  };
  for (;;) {
    if (b == nullptr) {
      // Budget check precedes the fetch, exactly like the central
      // loop's while condition: an exhausted run must pause, not fault
      // on whatever rip_ points at.
      if (count >= end) {
        sync();
        return CpuStatus::kBudgetExceeded;
      }
      sync();  // exact across the fetch, which may fault
      std::uint64_t at = rip_;
      CpuStatus st = fetch_block(&b, &idx);
      if (st != CpuStatus::kRunning) return st;
      ++stats_.central_dispatches;
      std::uint64_t ep = mem_->write_epoch();
      bep = ep;
      if (memo != nullptr) {
        *memo = DecodedBlock::Link{b, idx, ep};
      } else if (rtc_memo != nullptr) {
        *rtc_memo = RtcEntry{at, b, idx, ep};
      }
    }
    memo = nullptr;
    rtc_memo = nullptr;
    ++dispatches;
    {
    // The stream is walked by pointer, not index: µops are 40 bytes, so
    // an indexed loop pays an address multiply per step that the
    // compiler cannot strength-reduce.
    const isa::MicroOp* up = b->uops.data() + idx;
    const isa::MicroOp* const uend = b->uops.data() + b->uops.size();
    for (; up < uend; ++up) {
      const isa::MicroOp& u = *up;
      if (count >= end) [[unlikely]] {
        sync();
        rip_ = u.next_pc - u.len;
        return CpuStatus::kBudgetExceeded;
      }
      ++count;
      switch (u.op) {
      case UOp::kNop:
        continue;
      case UOp::kHlt:
        sync();
        rip_ = u.next_pc;
        return CpuStatus::kHalted;
      case UOp::kUd:
        sync();
        rip_ = u.next_pc - u.len;
        return fault_out("ud");
      case UOp::kBadOp:
      case UOp::kCount:
        sync();
        rip_ = u.next_pc;
        return fault_out("bad opcode");
      case UOp::kTrace:
        probes_.push_back(u.imm);
        continue;

      case UOp::kMovRR:
        regs[u.a] = regs[u.b];
        continue;
      case UOp::kMovRI:
        regs[u.a] = static_cast<std::uint64_t>(u.imm);
        continue;
      case UOp::kLea:
        regs[u.a] = uop_ea(u, regs);
        continue;

      case UOp::kLoad1:
        regs[u.a] = mem_->read_fixed<1>(uop_ea(u, regs));
        continue;
      case UOp::kLoad2:
        regs[u.a] = mem_->read_fixed<2>(uop_ea(u, regs));
        continue;
      case UOp::kLoad4:
        regs[u.a] = mem_->read_fixed<4>(uop_ea(u, regs));
        continue;
      case UOp::kLoad8:
        regs[u.a] = mem_->read_fixed<8>(uop_ea(u, regs));
        continue;
      case UOp::kLoads1:
        regs[u.a] = static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int8_t>(mem_->read_fixed<1>(uop_ea(u, regs)))));
        continue;
      case UOp::kLoads2:
        regs[u.a] = static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int16_t>(mem_->read_fixed<2>(uop_ea(u, regs)))));
        continue;
      case UOp::kLoads4:
        regs[u.a] = static_cast<std::uint64_t>(static_cast<std::int64_t>(
            static_cast<std::int32_t>(mem_->read_fixed<4>(uop_ea(u, regs)))));
        continue;
      case UOp::kStore1:
        mem_->write_fixed<1>(uop_ea(u, regs), regs[u.a]);
        break;
      case UOp::kStore2:
        mem_->write_fixed<2>(uop_ea(u, regs), regs[u.a]);
        break;
      case UOp::kStore4:
        mem_->write_fixed<4>(uop_ea(u, regs), regs[u.a]);
        break;
      case UOp::kStore8:
        mem_->write_fixed<8>(uop_ea(u, regs), regs[u.a]);
        break;
      case UOp::kXchgRR:
        std::swap(regs[u.a], regs[u.b]);
        continue;
      case UOp::kXchgM8: {
        std::uint64_t ea = uop_ea(u, regs);
        std::uint64_t tmp = mem_->read_fixed<8>(ea);
        mem_->write_fixed<8>(ea, regs[u.a]);
        regs[u.a] = tmp;
        break;
      }

      case UOp::kPushR: {
        std::uint64_t v = regs[u.a];  // read before the RSP move: push rsp
        regs[kRsp] -= 8;
        mem_->write_fixed<8>(regs[kRsp], v);
        break;
      }
      case UOp::kPopR: {
        std::uint64_t v = mem_->read_fixed<8>(regs[kRsp]);
        regs[kRsp] += 8;
        regs[u.a] = v;  // pop rsp loads the value, like x86
        continue;
      }
      case UOp::kPushI:
        regs[kRsp] -= 8;
        mem_->write_fixed<8>(regs[kRsp], static_cast<std::uint64_t>(u.imm));
        break;
      case UOp::kPushF:
        regs[kRsp] -= 8;
        mem_->write_fixed<8>(regs[kRsp], flags_);
        break;
      case UOp::kPopF:
        flags_ = mem_->read_fixed<8>(regs[kRsp]) & 0xf;
        regs[kRsp] += 8;
        continue;

      case UOp::kAddRR: {
        std::uint64_t a = regs[u.a], v = regs[u.b];
        std::uint64_t r = a + v;
        set_flags_add(a, v, 0, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kAddRI: {
        std::uint64_t a = regs[u.a], v = static_cast<std::uint64_t>(u.imm);
        std::uint64_t r = a + v;
        set_flags_add(a, v, 0, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kAddRM8: {
        std::uint64_t a = regs[u.a];
        std::uint64_t v = mem_->read_fixed<8>(uop_ea(u, regs));
        std::uint64_t r = a + v;
        set_flags_add(a, v, 0, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kAdcRR: {
        std::uint64_t a = regs[u.a], v = regs[u.b];
        std::uint64_t cin = (flags_ & isa::kCF) ? 1 : 0;
        std::uint64_t r = a + v + cin;
        set_flags_add(a, v, cin, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kSubRR: {
        std::uint64_t a = regs[u.a], v = regs[u.b];
        std::uint64_t r = a - v;
        set_flags_sub(a, v, 0, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kSubRI: {
        std::uint64_t a = regs[u.a], v = static_cast<std::uint64_t>(u.imm);
        std::uint64_t r = a - v;
        set_flags_sub(a, v, 0, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kSbbRR: {
        std::uint64_t a = regs[u.a], v = regs[u.b];
        std::uint64_t bin = (flags_ & isa::kCF) ? 1 : 0;
        std::uint64_t r = a - v - bin;
        set_flags_sub(a, v, bin, r);
        regs[u.a] = r;
        continue;
      }
      case UOp::kCmpRR: {
        std::uint64_t a = regs[u.a], v = regs[u.b];
        set_flags_sub(a, v, 0, a - v);
        continue;
      }
      case UOp::kCmpRI: {
        std::uint64_t a = regs[u.a], v = static_cast<std::uint64_t>(u.imm);
        set_flags_sub(a, v, 0, a - v);
        continue;
      }
      case UOp::kAndRR:
        regs[u.a] &= regs[u.b];
        set_flags_logic(regs[u.a]);
        continue;
      case UOp::kAndRI:
        regs[u.a] &= static_cast<std::uint64_t>(u.imm);
        set_flags_logic(regs[u.a]);
        continue;
      case UOp::kOrRR:
        regs[u.a] |= regs[u.b];
        set_flags_logic(regs[u.a]);
        continue;
      case UOp::kOrRI:
        regs[u.a] |= static_cast<std::uint64_t>(u.imm);
        set_flags_logic(regs[u.a]);
        continue;
      case UOp::kXorRR:
        regs[u.a] ^= regs[u.b];
        set_flags_logic(regs[u.a]);
        continue;
      case UOp::kXorRI:
        regs[u.a] ^= static_cast<std::uint64_t>(u.imm);
        set_flags_logic(regs[u.a]);
        continue;
      case UOp::kTestRR:
        set_flags_logic(regs[u.a] & regs[u.b]);
        continue;
      case UOp::kTestRI:
        set_flags_logic(regs[u.a] & static_cast<std::uint64_t>(u.imm));
        continue;
      case UOp::kImulRR:
      case UOp::kImulRI: {
        std::int64_t a = static_cast<std::int64_t>(regs[u.a]);
        std::int64_t v = u.op == UOp::kImulRR
                             ? static_cast<std::int64_t>(regs[u.b])
                             : u.imm;
        __int128 wide = static_cast<__int128>(a) * v;
        std::int64_t r = static_cast<std::int64_t>(wide);
        flags_ = 0;
        if (wide != static_cast<__int128>(r)) flags_ |= isa::kCF | isa::kOF;
        if (r == 0) flags_ |= isa::kZF;
        if (r < 0) flags_ |= isa::kSF;
        regs[u.a] = static_cast<std::uint64_t>(r);
        continue;
      }
      case UOp::kUdivRR: {
        std::uint64_t v = regs[u.b];
        if (v == 0) {
          sync();
          rip_ = u.next_pc;
          return fault_out("division by zero");
        }
        std::uint64_t r = regs[u.a] / v;
        regs[u.a] = r;
        set_flags_logic(r);
        continue;
      }
      case UOp::kUremRR: {
        std::uint64_t v = regs[u.b];
        if (v == 0) {
          sync();
          rip_ = u.next_pc;
          return fault_out("division by zero");
        }
        std::uint64_t r = regs[u.a] % v;
        regs[u.a] = r;
        set_flags_logic(r);
        continue;
      }
      case UOp::kShlRR: {
        unsigned c = regs[u.b] & 63;
        std::uint64_t a = regs[u.a];
        std::uint64_t r = c ? (a << c) : a;
        flags_ = 0;
        if (c && ((a >> (64 - c)) & 1)) flags_ |= isa::kCF;
        if (r == 0) flags_ |= isa::kZF;
        if (r & kSignBit) flags_ |= isa::kSF;
        regs[u.a] = r;
        continue;
      }
      case UOp::kShrRR: {
        unsigned c = regs[u.b] & 63;
        std::uint64_t a = regs[u.a];
        std::uint64_t r = c ? (a >> c) : a;
        flags_ = 0;
        if (c && ((a >> (c - 1)) & 1)) flags_ |= isa::kCF;
        if (r == 0) flags_ |= isa::kZF;
        if (r & kSignBit) flags_ |= isa::kSF;
        regs[u.a] = r;
        continue;
      }
      case UOp::kSarRR: {
        unsigned c = regs[u.b] & 63;
        std::int64_t a = static_cast<std::int64_t>(regs[u.a]);
        std::int64_t r = c ? (a >> c) : a;
        flags_ = 0;
        if (c && ((static_cast<std::uint64_t>(a) >> (c - 1)) & 1))
          flags_ |= isa::kCF;
        if (r == 0) flags_ |= isa::kZF;
        if (r < 0) flags_ |= isa::kSF;
        regs[u.a] = static_cast<std::uint64_t>(r);
        continue;
      }
      // Immediate shifts: the count was masked and proven nonzero at
      // lower time (count 0 lowered to kShiftRI0), so the c==0 guards
      // vanish.
      case UOp::kShlRI: {
        unsigned c = static_cast<unsigned>(u.imm);
        std::uint64_t a = regs[u.a];
        std::uint64_t r = a << c;
        flags_ = 0;
        if ((a >> (64 - c)) & 1) flags_ |= isa::kCF;
        if (r == 0) flags_ |= isa::kZF;
        if (r & kSignBit) flags_ |= isa::kSF;
        regs[u.a] = r;
        continue;
      }
      case UOp::kShrRI: {
        unsigned c = static_cast<unsigned>(u.imm);
        std::uint64_t a = regs[u.a];
        std::uint64_t r = a >> c;
        flags_ = 0;
        if ((a >> (c - 1)) & 1) flags_ |= isa::kCF;
        if (r == 0) flags_ |= isa::kZF;
        if (r & kSignBit) flags_ |= isa::kSF;
        regs[u.a] = r;
        continue;
      }
      case UOp::kSarRI: {
        unsigned c = static_cast<unsigned>(u.imm);
        std::int64_t a = static_cast<std::int64_t>(regs[u.a]);
        std::int64_t r = a >> c;
        flags_ = 0;
        if ((static_cast<std::uint64_t>(a) >> (c - 1)) & 1)
          flags_ |= isa::kCF;
        if (r == 0) flags_ |= isa::kZF;
        if (r < 0) flags_ |= isa::kSF;
        regs[u.a] = static_cast<std::uint64_t>(r);
        continue;
      }
      case UOp::kShiftRI0: {
        // Shift by 0: value unchanged, CF/OF cleared, ZF/SF from the
        // operand -- identical across SHL/SHR/SAR.
        std::uint64_t a = regs[u.a];
        flags_ = 0;
        if (a == 0) flags_ |= isa::kZF;
        if (a & kSignBit) flags_ |= isa::kSF;
        continue;
      }
      case UOp::kAddM8I: {
        std::uint64_t ea = uop_ea(u, regs);
        std::uint64_t a = mem_->read_fixed<8>(ea);
        std::uint64_t v = static_cast<std::uint64_t>(u.imm);
        std::uint64_t r = a + v;
        set_flags_add(a, v, 0, r);
        mem_->write_fixed<8>(ea, r);
        break;
      }
      case UOp::kSubM8I: {
        std::uint64_t ea = uop_ea(u, regs);
        std::uint64_t a = mem_->read_fixed<8>(ea);
        std::uint64_t v = static_cast<std::uint64_t>(u.imm);
        std::uint64_t r = a - v;
        set_flags_sub(a, v, 0, r);
        mem_->write_fixed<8>(ea, r);
        break;
      }

      case UOp::kNegR: {
        std::uint64_t a = regs[u.a];
        std::uint64_t r = 0 - a;
        set_flags_sub(0, a, 0, r);  // CF = (a != 0), like x86
        regs[u.a] = r;
        continue;
      }
      case UOp::kNotR:
        regs[u.a] = ~regs[u.a];  // no flags, like x86
        continue;
      case UOp::kIncR: {
        std::uint64_t cf = flags_ & isa::kCF;  // INC preserves CF
        std::uint64_t a = regs[u.a], r = a + 1;
        set_flags_add(a, 1, 0, r);
        flags_ = (flags_ & ~std::uint64_t(isa::kCF)) | cf;
        regs[u.a] = r;
        continue;
      }
      case UOp::kDecR: {
        std::uint64_t cf = flags_ & isa::kCF;
        std::uint64_t a = regs[u.a], r = a - 1;
        set_flags_sub(a, 1, 0, r);
        flags_ = (flags_ & ~std::uint64_t(isa::kCF)) | cf;
        regs[u.a] = r;
        continue;
      }

      case UOp::kMovzx:
        regs[u.a] = zext(regs[u.b], u.size);
        continue;
      case UOp::kMovsx:
        regs[u.a] = sext(regs[u.b], u.size);
        continue;
      case UOp::kCmov:
        if (eval_cond(static_cast<Cond>(u.cc))) regs[u.a] = regs[u.b];
        continue;
      case UOp::kSetcc:
        regs[u.a] = eval_cond(static_cast<Cond>(u.cc)) ? 1 : 0;
        continue;
      case UOp::kRdFlags:
        regs[u.a] = flags_;
        continue;
      case UOp::kWrFlags:
        flags_ = regs[u.a] & 0xf;
        continue;

      // Branches always terminate the block (decode guarantees it), so
      // they set rip_ to the transfer target and jump straight into the
      // chain logic without leaving this frame.
      case UOp::kJmp:
        rip_ = static_cast<std::uint64_t>(u.imm);
        goto block_done;
      case UOp::kJcc:
        rip_ = eval_cond(static_cast<Cond>(u.cc))
                   ? static_cast<std::uint64_t>(u.imm)
                   : u.next_pc;
        goto block_done;
      case UOp::kJmpR:
        rip_ = regs[u.a];
        goto block_done;
      case UOp::kJmpM8:
        rip_ = mem_->read_fixed<8>(uop_ea(u, regs));
        goto block_done;
      case UOp::kCall:
        regs[kRsp] -= 8;
        mem_->write_fixed<8>(regs[kRsp], u.next_pc);
        rip_ = static_cast<std::uint64_t>(u.imm);
        goto block_done;
      case UOp::kCallR: {
        std::uint64_t target = regs[u.a];  // read before the push: call rsp
        regs[kRsp] -= 8;
        mem_->write_fixed<8>(regs[kRsp], u.next_pc);
        rip_ = target;
        goto block_done;
      }
      case UOp::kRet:
        rip_ = mem_->read_fixed<8>(regs[kRsp]);
        regs[kRsp] += 8;
        goto block_done;
    }
    // Store-class µops land here: a memory write may have smashed this
    // very block. Revalidate so in-block code writes take effect exactly
    // as per-instruction interpretation would. A smashed block demotes
    // to a fresh central fetch at the store's fallthrough. `b`'s pages
    // are marked, so an unchanged epoch proves it intact: stack and
    // data stores skip the page-generation check.
    if (std::uint64_t now = mem_->write_epoch(); now != bep) [[unlikely]] {
      if (!block_valid(*b)) {
        rip_ = u.next_pc;
        b = nullptr;
        idx = 0;
        goto next_block;
      }
      bep = now;
    }
  }
  // Natural (non-branch) block end: TRACE cut or size-cap split. The
  // last µop's fallthrough is b->start + b->byte_len, exactly where the
  // reference path leaves rip_.
  rip_ = uend[-1].next_pc;
  }

  block_done: {
    // Threaded dispatch (DESIGN.md §10): follow the block's cached
    // successor link -- dedicated fall/taken links for direct
    // terminators, the return-target cache for indirect ones -- instead
    // of returning to the central hash-lookup fetch. A link is trusted
    // outright when the Memory write epoch is unchanged since it was
    // last validated (link targets are arena blocks, whose pages
    // insert_block marked, so no marked-page write implies the target's
    // page generations did not move) and revalidated against the
    // target's page generations otherwise. Link targets live in the never-freed arena, so a stale
    // pointer is safe to dereference and self-invalidating, and every
    // link was established by a central fetch that performed the NX
    // check (X coverage is monotonic: regions are append-only and their
    // permissions never change).
    DecodedBlock::Link* slot = nullptr;
    switch (b->term) {
      case DecodedBlock::kTermTaken:
        slot = &b->taken;
        break;
      case DecodedBlock::kTermCond:
        slot = rip_ == b->start + b->byte_len ? &b->fall : &b->taken;
        break;
      case DecodedBlock::kTermFall:
        slot = &b->fall;
        break;
      default:  // kTermIndirect: RET/JMP_R/JMP_M/CALL_R use the RTC
        break;
    }
    std::uint64_t ep = mem_->write_epoch();
    if (slot != nullptr) {
      DecodedBlock* t = slot->target;
      if (t != nullptr && (slot->epoch == ep || block_valid(*t))) {
        slot->epoch = ep;
        bep = ep;
        ++chained;
        b = t;
        idx = slot->index;
        goto next_block;
      }
      slot->target = nullptr;
      memo = slot;  // backfill after the central fetch decodes rip_
      b = nullptr;
      idx = 0;
      goto next_block;
    }
    RtcEntry& e = rtc_[rtc_slot(rip_)];
    if (e.block != nullptr && e.addr == rip_ &&
        (e.epoch == ep || block_valid(*e.block))) {
      e.epoch = ep;
      bep = ep;
      ++chained;
      b = e.block;
      idx = e.index;
      goto next_block;
    }
    rtc_memo = &e;
    b = nullptr;
    idx = 0;
  }
  next_block:;
  }
}

CpuStatus Cpu::step() {
  DecodedBlock* b = nullptr;
  std::uint32_t idx = 0;
  CpuStatus st = fetch_block(&b, &idx);
  if (st != CpuStatus::kRunning) return st;
  const BlockInsn& bi = b->insns[idx];
  if (hooks_.insn && !hooks_.insn(*this, rip_, bi.insn)) {
    return fault_out("aborted by hook");
  }
  ++insn_count_;
  return exec(bi.insn, rip_ + bi.length);
}

CpuStatus Cpu::exec(const Insn& i, std::uint64_t next_rip) {
  auto R = [&](Reg r) -> std::uint64_t& { return regs_[static_cast<int>(r)]; };
  std::uint64_t ea = 0;
  rip_ = next_rip;  // default fallthrough; branches overwrite

  switch (i.op) {
    case Op::NOP:
      break;
    case Op::HLT:
      return CpuStatus::kHalted;
    case Op::UD:
      rip_ = next_rip - isa::encoded_length(i);
      return fault_out("ud");
    case Op::TRACE:
      probes_.push_back(i.imm);
      break;

    case Op::MOV_RR:
      R(i.r1) = R(i.r2);
      break;
    case Op::MOV_RI64:
    case Op::MOV_RI32:
      R(i.r1) = static_cast<std::uint64_t>(i.imm);
      break;
    case Op::LEA:
      effective_addr(i.mem, next_rip, ea);
      R(i.r1) = ea;
      break;
    case Op::LOAD:
      effective_addr(i.mem, next_rip, ea);
      R(i.r1) = zext(mem_->read(ea, i.size), i.size);
      break;
    case Op::LOADS:
      effective_addr(i.mem, next_rip, ea);
      R(i.r1) = sext(mem_->read(ea, i.size), i.size);
      break;
    case Op::STORE: {
      // Code-write coherence is page-generation based: the write bumps
      // the page's generation and stale blocks re-decode lazily, so no
      // cache flush (nor permission probe) is needed here.
      effective_addr(i.mem, next_rip, ea);
      mem_->write(ea, R(i.r1), i.size);
      break;
    }
    case Op::XCHG_RR:
      std::swap(R(i.r1), R(i.r2));
      break;
    case Op::XCHG_RM: {
      effective_addr(i.mem, next_rip, ea);
      std::uint64_t tmp = mem_->read_u64(ea);
      mem_->write_u64(ea, R(i.r1));
      R(i.r1) = tmp;
      break;
    }

    case Op::PUSH_R: {
      std::uint64_t v = R(i.r1);
      R(Reg::RSP) -= 8;
      mem_->write_u64(R(Reg::RSP), v);
      break;
    }
    case Op::POP_R: {
      std::uint64_t v = mem_->read_u64(R(Reg::RSP));
      R(Reg::RSP) += 8;
      R(i.r1) = v;  // pop rsp loads the value, like x86
      break;
    }
    case Op::PUSH_I32:
      R(Reg::RSP) -= 8;
      mem_->write_u64(R(Reg::RSP), static_cast<std::uint64_t>(i.imm));
      break;
    case Op::PUSHF:
      R(Reg::RSP) -= 8;
      mem_->write_u64(R(Reg::RSP), flags_);
      break;
    case Op::POPF:
      flags_ = mem_->read_u64(R(Reg::RSP)) & 0xf;
      R(Reg::RSP) += 8;
      break;

    case Op::ADD_RR: case Op::ADD_RI: case Op::ADD_RM: {
      std::uint64_t a = R(i.r1);
      std::uint64_t b;
      if (i.op == Op::ADD_RR) {
        b = R(i.r2);
      } else if (i.op == Op::ADD_RI) {
        b = static_cast<std::uint64_t>(i.imm);
      } else {
        effective_addr(i.mem, next_rip, ea);
        b = mem_->read_u64(ea);
      }
      std::uint64_t r = a + b;
      set_flags_add(a, b, 0, r);
      R(i.r1) = r;
      break;
    }
    case Op::ADC_RR: {
      std::uint64_t a = R(i.r1), b = R(i.r2);
      std::uint64_t cin = (flags_ & isa::kCF) ? 1 : 0;
      std::uint64_t r = a + b + cin;
      set_flags_add(a, b, cin, r);
      R(i.r1) = r;
      break;
    }
    case Op::SUB_RR: case Op::SUB_RI: {
      std::uint64_t a = R(i.r1);
      std::uint64_t b = i.op == Op::SUB_RR ? R(i.r2)
                                           : static_cast<std::uint64_t>(i.imm);
      std::uint64_t r = a - b;
      set_flags_sub(a, b, 0, r);
      R(i.r1) = r;
      break;
    }
    case Op::SBB_RR: {
      std::uint64_t a = R(i.r1), b = R(i.r2);
      std::uint64_t bin = (flags_ & isa::kCF) ? 1 : 0;
      std::uint64_t r = a - b - bin;
      set_flags_sub(a, b, bin, r);
      R(i.r1) = r;
      break;
    }
    case Op::CMP_RR: case Op::CMP_RI: {
      std::uint64_t a = R(i.r1);
      std::uint64_t b = i.op == Op::CMP_RR ? R(i.r2)
                                           : static_cast<std::uint64_t>(i.imm);
      set_flags_sub(a, b, 0, a - b);
      break;
    }
    case Op::AND_RR: case Op::AND_RI: {
      std::uint64_t b = i.op == Op::AND_RR ? R(i.r2)
                                           : static_cast<std::uint64_t>(i.imm);
      R(i.r1) &= b;
      set_flags_logic(R(i.r1));
      break;
    }
    case Op::OR_RR: case Op::OR_RI: {
      std::uint64_t b = i.op == Op::OR_RR ? R(i.r2)
                                          : static_cast<std::uint64_t>(i.imm);
      R(i.r1) |= b;
      set_flags_logic(R(i.r1));
      break;
    }
    case Op::XOR_RR: case Op::XOR_RI: {
      std::uint64_t b = i.op == Op::XOR_RR ? R(i.r2)
                                           : static_cast<std::uint64_t>(i.imm);
      R(i.r1) ^= b;
      set_flags_logic(R(i.r1));
      break;
    }
    case Op::TEST_RR: case Op::TEST_RI: {
      std::uint64_t b = i.op == Op::TEST_RR ? R(i.r2)
                                            : static_cast<std::uint64_t>(i.imm);
      set_flags_logic(R(i.r1) & b);
      break;
    }
    case Op::IMUL_RR: case Op::IMUL_RI: {
      std::int64_t a = static_cast<std::int64_t>(R(i.r1));
      std::int64_t b = i.op == Op::IMUL_RR
                           ? static_cast<std::int64_t>(R(i.r2))
                           : i.imm;
      // Detect signed overflow via __int128 (flags CF=OF=overflow).
      __int128 wide = static_cast<__int128>(a) * b;
      std::int64_t r = static_cast<std::int64_t>(wide);
      flags_ = 0;
      if (wide != static_cast<__int128>(r)) flags_ |= isa::kCF | isa::kOF;
      if (r == 0) flags_ |= isa::kZF;
      if (r < 0) flags_ |= isa::kSF;
      R(i.r1) = static_cast<std::uint64_t>(r);
      break;
    }
    case Op::UDIV_RR: case Op::UREM_RR: {
      std::uint64_t b = R(i.r2);
      if (b == 0) return fault_out("division by zero");
      std::uint64_t r = i.op == Op::UDIV_RR ? R(i.r1) / b : R(i.r1) % b;
      R(i.r1) = r;
      set_flags_logic(r);
      break;
    }
    case Op::SHL_RR: case Op::SHL_RI: {
      unsigned c = (i.op == Op::SHL_RR ? R(i.r2) : i.imm) & 63;
      std::uint64_t a = R(i.r1);
      std::uint64_t r = c ? (a << c) : a;
      flags_ = 0;
      if (c && ((a >> (64 - c)) & 1)) flags_ |= isa::kCF;
      if (r == 0) flags_ |= isa::kZF;
      if (r & kSignBit) flags_ |= isa::kSF;
      R(i.r1) = r;
      break;
    }
    case Op::SHR_RR: case Op::SHR_RI: {
      unsigned c = (i.op == Op::SHR_RR ? R(i.r2) : i.imm) & 63;
      std::uint64_t a = R(i.r1);
      std::uint64_t r = c ? (a >> c) : a;
      flags_ = 0;
      if (c && ((a >> (c - 1)) & 1)) flags_ |= isa::kCF;
      if (r == 0) flags_ |= isa::kZF;
      if (r & kSignBit) flags_ |= isa::kSF;
      R(i.r1) = r;
      break;
    }
    case Op::SAR_RR: case Op::SAR_RI: {
      unsigned c = (i.op == Op::SAR_RR ? R(i.r2) : i.imm) & 63;
      std::int64_t a = static_cast<std::int64_t>(R(i.r1));
      std::int64_t r = c ? (a >> c) : a;
      flags_ = 0;
      if (c && ((static_cast<std::uint64_t>(a) >> (c - 1)) & 1))
        flags_ |= isa::kCF;
      if (r == 0) flags_ |= isa::kZF;
      if (r < 0) flags_ |= isa::kSF;
      R(i.r1) = static_cast<std::uint64_t>(r);
      break;
    }
    case Op::ADD_MI: case Op::SUB_MI: {
      effective_addr(i.mem, next_rip, ea);
      std::uint64_t a = mem_->read_u64(ea);
      std::uint64_t b = static_cast<std::uint64_t>(i.imm);
      std::uint64_t r = i.op == Op::ADD_MI ? a + b : a - b;
      if (i.op == Op::ADD_MI)
        set_flags_add(a, b, 0, r);
      else
        set_flags_sub(a, b, 0, r);
      mem_->write_u64(ea, r);
      break;
    }

    case Op::NEG_R: {
      std::uint64_t a = R(i.r1);
      std::uint64_t r = 0 - a;
      set_flags_sub(0, a, 0, r);  // CF = (a != 0), like x86
      R(i.r1) = r;
      break;
    }
    case Op::NOT_R:
      R(i.r1) = ~R(i.r1);  // no flags, like x86
      break;
    case Op::INC_R: {
      std::uint64_t cf = flags_ & isa::kCF;  // INC preserves CF
      std::uint64_t a = R(i.r1), r = a + 1;
      set_flags_add(a, 1, 0, r);
      flags_ = (flags_ & ~std::uint64_t(isa::kCF)) | cf;
      R(i.r1) = r;
      break;
    }
    case Op::DEC_R: {
      std::uint64_t cf = flags_ & isa::kCF;
      std::uint64_t a = R(i.r1), r = a - 1;
      set_flags_sub(a, 1, 0, r);
      flags_ = (flags_ & ~std::uint64_t(isa::kCF)) | cf;
      R(i.r1) = r;
      break;
    }

    case Op::MOVZX:
      R(i.r1) = zext(R(i.r2), i.size);
      break;
    case Op::MOVSX:
      R(i.r1) = sext(R(i.r2), i.size);
      break;
    case Op::CMOV:
      if (eval_cond(i.cc)) R(i.r1) = R(i.r2);
      break;
    case Op::SETCC:
      R(i.r1) = eval_cond(i.cc) ? 1 : 0;
      break;
    case Op::RDFLAGS:
      R(i.r1) = flags_;
      break;
    case Op::WRFLAGS:
      flags_ = R(i.r1) & 0xf;
      break;

    case Op::JMP_REL:
      rip_ = next_rip + static_cast<std::uint64_t>(i.imm);
      break;
    case Op::JCC_REL:
      if (eval_cond(i.cc)) rip_ = next_rip + static_cast<std::uint64_t>(i.imm);
      break;
    case Op::JMP_R:
      rip_ = R(i.r1);
      break;
    case Op::JMP_M:
      effective_addr(i.mem, next_rip, ea);
      rip_ = mem_->read_u64(ea);
      break;
    case Op::CALL_REL:
      R(Reg::RSP) -= 8;
      mem_->write_u64(R(Reg::RSP), next_rip);
      rip_ = next_rip + static_cast<std::uint64_t>(i.imm);
      break;
    case Op::CALL_R: {
      std::uint64_t target = R(i.r1);
      R(Reg::RSP) -= 8;
      mem_->write_u64(R(Reg::RSP), next_rip);
      rip_ = target;
      break;
    }
    case Op::RET:
      rip_ = mem_->read_u64(R(Reg::RSP));
      R(Reg::RSP) += 8;
      break;

    case Op::kCount:
      return fault_out("bad opcode");
  }
  return CpuStatus::kRunning;
}

}  // namespace raindrop
