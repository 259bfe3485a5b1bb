// Chain crafting (§IV-B2): lowers roplets to gadget sequences, allocates
// scratch registers against liveness, preserves CPU flags where the
// original code could read them later, and instantiates the P1/P2/P3
// predicates and gadget confusion while emitting control transfers.
#include "rop/craft.hpp"

#include <algorithm>
#include <cassert>
#include <set>

#include "isa/encode.hpp"

namespace raindrop::rop {

using analysis::RegSet;
using isa::Cond;
using isa::Insn;
using isa::MemRef;
using isa::Op;
using isa::Reg;
namespace ib = isa::ib;

namespace {

struct CraftError {
  RewriteFailure failure;
  std::string detail;
};

class Crafter {
 public:
  Crafter(const CraftEnv& env, const TranslateResult& tr)
      : env_(env), tr_(tr) {}

  CraftOutput run();

 private:
  // ---- scratch register management -----------------------------------
  // Scratches must avoid: values the current roplet reads (live-in),
  // values needed later (live-out), pinned operands (P2 compare regs),
  // already-acquired scratches, and RSP.
  RegSet avoid_set() const {
    RegSet s = live_in_ | live_out_ | pinned_ | busy_;
    s.add(Reg::RSP);
    return s;
  }
  RegSet junk_allowed() const {
    RegSet allowed;
    RegSet avoid = avoid_set();
    for (int r = 0; r < isa::kNumRegs; ++r) {
      Reg reg = static_cast<Reg>(r);
      if (!avoid.has(reg)) allowed.add(reg);
    }
    return allowed;
  }
  std::optional<Reg> try_scratch() {
    static const Reg order[] = {Reg::R11, Reg::R10, Reg::RCX, Reg::RDX,
                                Reg::RSI, Reg::RDI, Reg::R8,  Reg::R9,
                                Reg::RAX, Reg::RBX, Reg::R12, Reg::R13,
                                Reg::R14, Reg::R15, Reg::RBP};
    RegSet avoid = avoid_set();
    for (Reg r : order) {
      if (!avoid.has(r)) {
        busy_.add(r);
        return r;
      }
    }
    return std::nullopt;
  }
  // Acquire a scratch, spilling a live caller-saved register to the
  // function's spill slot as a fallback (§IV-B2 register allocation).
  Reg scratch(bool allow_spill = true) {
    if (auto r = try_scratch()) return *r;
    if (allow_spill && spill_ok_ &&
        spills_.size() < env_.spill_slots.size()) {
      static const Reg victims[] = {Reg::RCX, Reg::RDX, Reg::RSI, Reg::RDI,
                                    Reg::R8, Reg::R9, Reg::R10, Reg::R11,
                                    Reg::RAX};
      RegSet untouchable = pinned_ | busy_;
      untouchable.add(Reg::RSP);
      for (Reg v : victims) {
        if (untouchable.has(v)) continue;
        std::uint64_t slot = env_.spill_slots[spills_.size()];
        G({ib::store(MemRef::abs(static_cast<std::int64_t>(slot)), v)});
        spills_.push_back({v, slot});
        busy_.add(v);
        return v;
      }
    }
    throw CraftError{RewriteFailure::RegisterPressure,
                     "no scratch register available"};
  }
  void release(Reg r) { busy_.remove(r); }
  int free_count() const {
    RegSet avoid = avoid_set();
    int n = 0;
    for (int r = 0; r < isa::kNumRegs; ++r)
      if (!avoid.has(static_cast<Reg>(r))) ++n;
    return n;
  }
  void reload_spills() {
    for (auto it = spills_.rbegin(); it != spills_.rend(); ++it) {
      G({ib::load(it->first,
                  MemRef::abs(static_cast<std::int64_t>(it->second)))});
      busy_.remove(it->first);
    }
    spills_.clear();
  }

  // ---- emission helpers ----------------------------------------------
  // Gadget demand against the frozen pool: reuse an existing variant when
  // the pool offers one (stream-rng pick among fits, with the same 1-in-3
  // growth policy plan_batch applies), otherwise record a request that the
  // engine resolves -- in deterministic function order -- at commit.
  void emit_gadget(std::vector<Insn> core, bool jop, Reg jop_target,
                   RegSet allowed) {
    std::string key = gadgets::GadgetPool::key_of(core, jop, jop_target);
    if (auto addr = env_.pool->find_variant(key, jop, allowed, *env_.rng)) {
      ch_.g(*addr);
      return;
    }
    requests_.push_back(gadgets::GadgetRequest{std::move(core), jop,
                                               jop_target, allowed,
                                               std::move(key)});
    ch_.gref(static_cast<int>(requests_.size() - 1));
  }
  void G(std::initializer_list<Insn> core) {
    emit_gadget(std::vector<Insn>(core), false, Reg::RAX, junk_allowed());
  }
  void G1(const Insn& i) { G({i}); }
  void pop_into(Reg dst) { G({ib::pop(dst)}); }

  // pop dst + immediate, optionally disguised as a pair of gadget
  // addresses recombined at run time (§V-D).
  void load_const(Reg dst, std::int64_t v, bool flags_free) {
    if (env_.cfg->gadget_confusion && flags_free &&
        env_.rng->chance(1, 2)) {
      if (auto t = try_scratch()) {
        std::uint64_t base = env_.pool->random_gadget_addr(*env_.rng);
        if (base != 0) {
          std::uint64_t g1 = base + static_cast<std::uint64_t>(v);
          pop_into(dst);
          ch_.imm(static_cast<std::int64_t>(g1));
          pop_into(*t);
          ch_.imm(static_cast<std::int64_t>(base));
          G({ib::sub(dst, *t)});
          release(*t);
          return;
        }
        release(*t);
      }
    }
    pop_into(dst);
    ch_.imm(v);
  }

  // Unaligned RSP bump + address-looking filler (§V-D).
  void maybe_confusion_bump(bool flags_free) {
    if (!env_.cfg->gadget_confusion) return;
    if (!flags_free) return;
    if (!env_.rng->chance(
            static_cast<std::uint64_t>(env_.cfg->confusion_bump_prob * 1000),
            1000))
      return;
    auto s = try_scratch();
    if (!s) return;
    std::size_t pad = 1 + env_.rng->below(7);
    pop_into(*s);
    ch_.imm(static_cast<std::int64_t>(pad));
    G({ib::add(Reg::RSP, *s)});
    // Filler that byte-wise resembles gadget addresses.
    std::uint64_t fake = env_.pool->random_gadget_addr(*env_.rng);
    std::vector<std::uint8_t> bytes(pad);
    for (std::size_t i = 0; i < pad; ++i)
      bytes[i] = static_cast<std::uint8_t>(fake >> (8 * (i % 8)));
    ch_.raw(std::move(bytes));
    release(*s);
  }

  void emit_micro(std::span<const MicroOp> ops, bool flags_free) {
    for (const MicroOp& m : ops) {
      if (m.k == MicroOp::K::Const)
        load_const(m.dst, m.value, flags_free);
      else
        G1(m.insn);
    }
  }

  // A = ss + *ss = address of the top other_rsp entry (§IV-A3).
  void emit_or_addr(Reg a) {
    pop_into(a);
    ch_.imm(static_cast<std::int64_t>(env_.ss_addr));
    G({ib::add_m(a, MemRef::base_disp(a))});
  }

  int block_label(std::uint64_t addr) {
    auto it = blk_label_.find(addr);
    if (it != blk_label_.end()) return it->second;
    int l = ch_.new_label();
    blk_label_[addr] = l;
    return l;
  }

  // ---- control transfer encodings -------------------------------------
  // Plain unconditional chain branch: rsp += delta.
  void emit_jump(int target_label) {
    Reg s = scratch();
    int anchor = ch_.new_label();
    pop_into(s);
    ch_.delta(target_label, anchor);
    G({ib::add(Reg::RSP, s)});
    ch_.bind(anchor);
    release(s);
  }

  // Flag-preserving unconditional jump: `pop rsp` consumes the absolute
  // chain position of the target without touching any flag or register.
  // Used when the target block has live flags on entry (a cmp and its
  // consumer can sit in different blocks).
  void emit_jump_flag_safe(int target_label) {
    G({ib::pop(Reg::RSP)});
    ch_.abs_pos(target_label);
  }

  // Plain conditional: pop delta; zero it via cmov on !cc; rsp += it
  // (the exact shape of §IV-B2).
  void emit_cond_jump(Cond cc, int target_label) {
    Reg s = scratch();
    Reg z = scratch();
    int anchor = ch_.new_label();
    pop_into(s);
    ch_.delta(target_label, anchor);
    G({ib::mov_i32(z, 0)});
    G({ib::cmov(isa::negate(cc), s, z)});
    G({ib::add(Reg::RSP, s)});
    ch_.bind(anchor);
    release(s);
    release(z);
  }

  // P1 branch encoding (§V-A): the fixed part `a` of the displacement is
  // recovered from the opaque periodic array through an input-dependent
  // index; only delta-a lives in the chain.
  void emit_p1_jump(std::optional<Cond> cc, int target_label,
                    const Roplet& r) {
    const P1Array& A = *env_.p1;
    int b = branch_ordinal_++ % A.n;
    std::uint64_t a_b = A.residues[b];

    Reg c = Reg::RAX;
    if (cc) {
      c = scratch();
      G({ib::setcc(*cc, c)});  // capture the flag before f(x) pollutes
    }
    Reg s = scratch();
    Reg t = scratch();

    // f(x): opaquely combine up to 3 input-derived live registers
    // (§V-A); any value works thanks to periodicity.
    std::vector<Reg> inputs;
    for (int i = 0; i < isa::kNumRegs; ++i) {
      Reg reg = static_cast<Reg>(i);
      if (reg == Reg::RSP || reg == Reg::RBP) continue;
      if (r.tainted.has(reg) && live_in_.has(reg)) inputs.push_back(reg);
    }
    if (inputs.empty()) {
      for (int i = 0; i < isa::kNumRegs; ++i) {
        Reg reg = static_cast<Reg>(i);
        if (reg == Reg::RSP || reg == Reg::RBP) continue;
        if (live_in_.has(reg) && !busy_.has(reg)) inputs.push_back(reg);
      }
    }
    if (inputs.empty()) {
      load_const(s, static_cast<std::int64_t>(env_.rng->next() & 0xffff),
                 /*flags_free=*/true);
    } else {
      G({ib::mov(s, inputs[0])});
      for (std::size_t i = 1; i < inputs.size() && i < 3; ++i)
        G({i % 2 ? ib::add(s, inputs[i]) : ib::xor_(s, inputs[i])});
    }
    // The condition is already captured in `c`; flags are free game from
    // here on, so disguised constants are allowed throughout.
    load_const(t, A.p - 1, true);
    G({ib::and_(s, t)});                       // f in [0, p)
    load_const(t, A.s * 8, true);
    G({ib::imul(s, t)});                       // f * s * 8
    load_const(t,
               static_cast<std::int64_t>(A.addr + 8 * static_cast<unsigned>(b)),
               true);
    G({ib::add(s, t)});
    G({ib::load(s, MemRef::base_disp(s))});    // A[f*s + b]
    load_const(t, static_cast<std::int64_t>(A.m), true);
    G({ib::urem(s, t)});                       // a
    int anchor = ch_.new_label();
    pop_into(t);
    ch_.delta(target_label, anchor, -static_cast<std::int64_t>(a_b));
    G({ib::add(s, t)});                        // delta
    if (cc) {
      Reg z = scratch();
      G({ib::mov_i32(z, 0)});
      G({ib::test(c, c)});
      G({ib::cmov(Cond::E, s, z)});            // cond false -> stay
      release(z);
    }
    G({ib::add(Reg::RSP, s)});
    ch_.bind(anchor);
    release(s);
    release(t);
    if (cc) release(c);
  }

  void emit_branch(std::optional<Cond> cc, int target_label,
                   const Roplet& r) {
    // P1 needs 4 scratch registers for a conditional (flag capture,
    // index, temp, zero) -- degrade to the plain encoding under register
    // pressure rather than failing the whole function.
    if (env_.cfg->p1 && env_.p1 && free_count() >= (cc ? 5 : 3))
      emit_p1_jump(cc, target_label, r);
    else if (cc)
      emit_cond_jump(*cc, target_label);
    else
      emit_jump(target_label);
  }

  // P2 derail check (§V-B): rsp += x*8*bit, bit==0 on the legitimate
  // path, recomputed from data so flag flips cannot zero it.
  // Returns false if the condition cannot be covered.
  bool emit_p2_check(Cond cc_for_bit, const CmpOperands& cmp) {
    Reg dst = scratch(), t1 = scratch(), t2 = scratch(), t3 = scratch();
    auto ops = cond_bit_microops(cc_for_bit, cmp.a, cmp.b_is_imm, cmp.b_reg,
                                 cmp.b_imm, dst, t1, t2, t3);
    if (!ops) {
      release(dst); release(t1); release(t2); release(t3);
      return false;
    }
    emit_micro(*ops, /*flags_free=*/true);
    std::int64_t x = 8 * (1 + static_cast<std::int64_t>(
                                  env_.rng->below(env_.cfg->p2_x_max)));
    load_const(t1, x, true);
    G({ib::imul(dst, t1)});
    G({ib::add(Reg::RSP, dst)});
    release(dst); release(t1); release(t2); release(t3);
    return true;
  }

  // ---- roplet lowerings ------------------------------------------------
  void lower(const Roplet& r);
  void lower_stack_access(const Roplet& r);
  void lower_stack_ptr(const Roplet& r);
  void lower_intra(const Roplet& r);
  void lower_inter(const Roplet& r);
  void lower_epilogue(const Roplet& r);
  void lower_default(const Roplet& r);
  void maybe_p3(const Roplet& r);
  void emit_p3_for(const Roplet& r, Reg sym);
  void emit_p3_array(const Roplet& r, Reg sym);

  // Stack-access helpers operating on other_rsp.
  void emit_push_value(Reg v, bool flags_live);
  void emit_pop_into(Reg v, bool flags_live);

  void begin_roplet(const Roplet& r) {
    live_out_ = r.live_out;
    live_in_ = r.live_out.minus(analysis::insn_defs(r.orig)) |
               analysis::insn_uses(r.orig);
    busy_ = RegSet();
    spills_.clear();
    // Spill reloads are emitted linearly after the lowering; across a
    // control transfer the reload would land on the wrong path (or hold a
    // slot across a call where a recursive activation reuses it), so
    // spilling is restricted to straight-line roplets.
    spill_ok_ = r.kind == RopletKind::DirectStackAccess ||
                r.kind == RopletKind::StackPtrRef ||
                r.kind == RopletKind::DataMove ||
                r.kind == RopletKind::InsnPtrRef ||
                r.kind == RopletKind::Alu;
  }
  void end_roplet() { reload_spills(); }

  bool flags_dead_in(const Roplet& r) const {
    if (isa::reads_flags(r.orig.op)) return false;
    if (live_out_.has_flags() && !isa::writes_flags(r.orig.op)) return false;
    return true;
  }

  const CraftEnv& env_;
  const TranslateResult& tr_;
  Chain ch_;
  std::vector<gadgets::GadgetRequest> requests_;
  std::map<std::uint64_t, int> blk_label_;
  int branch_ordinal_ = 0;
  int p3_site_ordinal_ = 0;

  RegSet live_in_, live_out_, pinned_, busy_;
  std::vector<std::pair<Reg, std::uint64_t>> spills_;
  bool spill_ok_ = true;

  struct Tramp {
    int label = -1;
    Cond cc_for_bit = Cond::E;  // condition whose bit must be 0 here
    CmpOperands cmp;
    int target_label = -1;
    RegSet live_at_target;
  };
  std::vector<Tramp> tramps_;
};

void Crafter::emit_push_value(Reg v, bool flags_live) {
  Reg f = Reg::RAX;
  if (flags_live) {
    f = scratch();
    G({ib::rdflags(f)});
  }
  Reg a = scratch();
  Reg b = scratch();
  emit_or_addr(a);
  G({ib::load(b, MemRef::base_disp(a))});
  G({ib::sub_i(b, 8)});
  G({ib::store(MemRef::base_disp(a), b)});
  G({ib::store(MemRef::base_disp(b), v)});
  release(a);
  release(b);
  if (flags_live) {
    G({ib::wrflags(f)});
    release(f);
  }
}

void Crafter::emit_pop_into(Reg v, bool flags_live) {
  Reg f = Reg::RAX;
  if (flags_live) {
    f = scratch();
    G({ib::rdflags(f)});
  }
  Reg a = scratch();
  Reg b = scratch();
  emit_or_addr(a);
  G({ib::load(b, MemRef::base_disp(a))});
  G({ib::load(v, MemRef::base_disp(b))});
  G({ib::add_i(b, 8)});
  G({ib::store(MemRef::base_disp(a), b)});
  release(a);
  release(b);
  if (flags_live) {
    G({ib::wrflags(f)});
    release(f);
  }
}

void Crafter::lower_stack_access(const Roplet& r) {
  const Insn& in = r.orig;
  bool flags_live = live_out_.has_flags();
  switch (in.op) {
    case Op::PUSH_R:
      emit_push_value(in.r1, flags_live);
      break;
    case Op::POP_R:
      emit_pop_into(in.r1, flags_live);
      break;
    case Op::PUSH_I32: {
      Reg c = scratch();
      load_const(c, in.imm, !flags_live);
      emit_push_value(c, flags_live);
      release(c);
      break;
    }
    case Op::PUSHF: {
      Reg c = scratch();
      G({ib::rdflags(c)});
      emit_push_value(c, /*flags_live=*/false);
      if (flags_live) G({ib::wrflags(c)});  // pushf preserves flags
      release(c);
      break;
    }
    case Op::POPF: {
      Reg c = scratch();
      emit_pop_into(c, /*flags_live=*/false);
      G({ib::wrflags(c)});  // popf defines flags; no preservation needed
      release(c);
      break;
    }
    default:
      throw CraftError{RewriteFailure::UnsupportedInsn,
                       "stack access " + std::string(isa::op_name(in.op))};
  }
}

void Crafter::lower_stack_ptr(const Roplet& r) {
  const Insn& in = r.orig;
  if (in.op == Op::MOV_RR && in.r1 == Reg::RSP) {
    // mov rsp, src  ->  other_rsp = src
    Reg a = scratch();
    bool flags_live = live_out_.has_flags();
    Reg f = Reg::RAX;
    if (flags_live) {
      f = scratch();
      G({ib::rdflags(f)});
    }
    emit_or_addr(a);
    G({ib::store(MemRef::base_disp(a), in.r2)});
    if (flags_live) {
      G({ib::wrflags(f)});
      release(f);
    }
    release(a);
    return;
  }
  if (in.op == Op::MOV_RR && in.r2 == Reg::RSP) {
    // mov dst, rsp  ->  dst = other_rsp
    Reg a = scratch();
    bool flags_live = live_out_.has_flags();
    Reg f = Reg::RAX;
    if (flags_live) {
      f = scratch();
      G({ib::rdflags(f)});
    }
    emit_or_addr(a);
    G({ib::load(in.r1, MemRef::base_disp(a))});
    if (flags_live) {
      G({ib::wrflags(f)});
      release(f);
    }
    release(a);
    return;
  }
  if ((in.op == Op::ADD_RI || in.op == Op::SUB_RI) && in.r1 == Reg::RSP) {
    // add/sub rsp, imm. The final ALU gadget reproduces the original flag
    // effect exactly (same operand values), so no preservation needed.
    Reg a = scratch();
    Reg b = scratch();
    emit_or_addr(a);
    G({ib::load(b, MemRef::base_disp(a))});
    G1(in.op == Op::ADD_RI ? ib::add_i(b, in.imm) : ib::sub_i(b, in.imm));
    G({ib::store(MemRef::base_disp(a), b)});
    release(a);
    release(b);
    return;
  }
  throw CraftError{RewriteFailure::UnsupportedInsn, "rsp reference"};
}

void Crafter::lower_intra(const Roplet& r) {
  if (r.jump_table) {
    // Switch dispatch (Appendix A): the table still holds original case
    // addresses; we read the chain displacement the materializer stores
    // *at* each case address inside the dead original body.
    Reg a = scratch();
    Reg b = scratch();
    G({ib::load(a, r.orig.mem)});        // a = original case target
    G({ib::loads(b, MemRef::base_disp(a), 4)});  // b = int32 displacement
    int anchor = ch_.new_label();
    G({ib::add(Reg::RSP, b)});
    ch_.bind(anchor);
    release(a);
    release(b);
    std::set<std::uint64_t> uniq(r.jump_table->targets.begin(),
                                 r.jump_table->targets.end());
    for (std::uint64_t t : uniq) {
      if (t < env_.fn_stub_end)
        throw CraftError{RewriteFailure::UnsupportedInsn,
                         "switch case inside pivot stub"};
      ch_.add_patch(t, block_label(t), anchor);
    }
    return;
  }

  if (!r.is_conditional) {
    emit_branch(std::nullopt, block_label(r.branch_target), r);
    return;
  }

  Cond cc = r.orig.cc;
  // Arming P2 needs the compare operands plus enough free registers for
  // the flag-independent recomputation (4 scratches + branch scratches).
  bool p2 = env_.cfg->p2 && r.cmp.has_value() && free_count() >= 7;
  if (p2) {
    // Pin the compare operands: they must reach the successor checks
    // intact (both the branch scratches and junk must avoid them).
    pinned_.add(r.cmp->a);
    if (!r.cmp->b_is_imm) pinned_.add(r.cmp->b_reg);
  }

  int taken_label = block_label(r.branch_target);
  if (p2) {
    // Taken edge goes through a trampoline emitted at the end.
    Tramp tr;
    tr.label = ch_.new_label();
    tr.cc_for_bit = isa::negate(cc);  // bit==0 exactly when cc holds
    tr.cmp = *r.cmp;
    tr.target_label = taken_label;
    tr.live_at_target = live_out_;
    tramps_.push_back(tr);
    taken_label = tramps_.back().label;
  }

  emit_branch(cc, taken_label, r);

  if (p2) {
    // Fallthrough-side check, inline: derails when cc actually held.
    if (!emit_p2_check(cc, *r.cmp)) {
      // Condition not covered: drop the trampoline indirection.
      tramps_.pop_back();
      // The branch already targets the trampoline label; bind it to the
      // real target via an immediate jump at the end (handled uniformly
      // by keeping the tramp with a no-op check).
      Tramp tr;
      tr.label = taken_label;
      tr.cc_for_bit = Cond::O;  // sentinel: emit plain jump only
      tr.target_label = block_label(r.branch_target);
      tr.live_at_target = live_out_;
      tramps_.push_back(tr);
    }
    pinned_ = RegSet();
  }
}

void Crafter::lower_inter(const Roplet& r) {
  // Native/ROP call via stack switching (§IV-B2 steps A, B, C and Fig 4).
  Reg a = scratch(/*allow_spill=*/false);
  Reg b = scratch(false);
  emit_or_addr(a);                                   // A: a = &or
  G({ib::sub_mi(MemRef::base_disp(a), 8)});          // reserve retaddr slot
  load_const(b, static_cast<std::int64_t>(env_.funcret_gadget), true);
  // Write the function-return gadget address at the new native stack top.
  // `a` doubles as the internal temporary and is re-derived afterwards.
  G({ib::load(a, MemRef::base_disp(a)),
     ib::store(MemRef::base_disp(a), b)});           // B ends
  emit_or_addr(a);
  std::vector<Insn> jop_core = {ib::xchg_m(Reg::RSP, MemRef::base_disp(a))};
  if (r.call_is_indirect) {
    // The callee address already sits in the original target register;
    // the xchg+jmp pair lives in one JOP gadget so nothing runs between
    // the stack switch and the transfer (§IV-B2 step C).
    emit_gadget(jop_core, true, r.orig.r1, junk_allowed());
  } else {
    pop_into(b);
    ch_.imm(static_cast<std::int64_t>(r.call_target));
    emit_gadget(jop_core, true, b, junk_allowed());  // step C
  }
  release(a);
  release(b);
}

void Crafter::lower_epilogue(const Roplet&) {
  // Unpivot (Appendix A): remove our ss entry and return on the caller's
  // native stack; the final gadget's own ret performs the actual return.
  Reg a = scratch();
  pop_into(a);
  ch_.imm(static_cast<std::int64_t>(env_.ss_addr));
  G({ib::sub_mi(MemRef::base_disp(a), 8)});
  G({ib::add_m(a, MemRef::base_disp(a))});
  G({ib::add_i(a, 8)});
  G({ib::load(Reg::RSP, MemRef::base_disp(a))});
  release(a);
}

void Crafter::lower_default(const Roplet& r) {
  const Insn& in = r.orig;
  switch (in.op) {
    case Op::MOV_RI64:
    case Op::MOV_RI32:
      // The classic pop-gadget form: the constant lives in the chain.
      // Disguise (which subtracts, polluting flags) only when flags are
      // dead here -- mov itself must not alter a live flag state.
      load_const(in.r1, in.imm, !live_out_.has_flags());
      return;
    case Op::ADD_RI: case Op::SUB_RI: case Op::AND_RI: case Op::OR_RI:
    case Op::XOR_RI: case Op::CMP_RI: case Op::TEST_RI: case Op::IMUL_RI: {
      // Prefer pop+reg-reg (operand in chain); fall back to a literal
      // immediate gadget under register pressure.
      auto t = try_scratch();
      if (t) {
        // The reg-reg ALU sets the same flags as the immediate form.
        load_const(*t, in.imm, /*flags_free=*/true);
        Op rr;
        switch (in.op) {
          case Op::ADD_RI: rr = Op::ADD_RR; break;
          case Op::SUB_RI: rr = Op::SUB_RR; break;
          case Op::AND_RI: rr = Op::AND_RR; break;
          case Op::OR_RI: rr = Op::OR_RR; break;
          case Op::XOR_RI: rr = Op::XOR_RR; break;
          case Op::CMP_RI: rr = Op::CMP_RR; break;
          case Op::TEST_RI: rr = Op::TEST_RR; break;
          default: rr = Op::IMUL_RR; break;
        }
        G1(ib::alu_rr(rr, in.r1, *t));
        release(*t);
      } else {
        G1(in);
      }
      return;
    }
    default:
      // Everything else lowers to a single gadget embedding the original
      // instruction (shl/shr/sar immediates included: shift-by-imm has no
      // flag-equivalent pop form since the count is an immediate field).
      G1(in);
      return;
  }
}

void Crafter::emit_p3_for(const Roplet& r, Reg sym) {
  // P3 variant 1 (§V-C): FOR state-forking predicate. Recompute the low
  // byte of `sym` into a dead register via a chain-internal loop indexed
  // by the input-derived value, then fold it back (value-preserving).
  std::uint64_t mask = env_.cfg->p3_iter_mask;
  Reg d = scratch();
  Reg i = scratch();
  Reg t = scratch();
  load_const(t, static_cast<std::int64_t>(~mask), true);
  G({ib::and_(d, t)});
  G({ib::mov_i32(i, 0)});
  int head = ch_.new_label();
  int exit = ch_.new_label();
  ch_.bind(head);
  if (mask == 0xff) {
    G({ib::movzx(t, sym, 1)});
  } else {
    G({ib::mov(t, sym)});
    Reg u = scratch();
    load_const(u, static_cast<std::int64_t>(mask), true);
    G({ib::and_(t, u)});
    release(u);
  }
  G({ib::cmp(i, t)});
  emit_cond_jump(Cond::AE, exit);  // while (i < (sym & mask))
  G({ib::inc(d)});
  G({ib::inc(i)});
  emit_jump(head);
  ch_.bind(exit);
  load_const(t, static_cast<std::int64_t>(mask), true);
  G({ib::and_(d, t)});
  load_const(t, static_cast<std::int64_t>(~mask), true);
  G({ib::and_(sym, t)});
  G({ib::or_(sym, d)});
  release(d);
  release(i);
  release(t);
  (void)r;
}

void Crafter::emit_p3_array(const Roplet& r, Reg sym) {
  // P3 variant 2 (§V-C): opaque updates to P1's array that preserve the
  // periodic invariant -- here, swapping two same-slot cells from
  // input-selected periods (implicit flow into later branch decisions).
  const P1Array& A = *env_.p1;
  int b = p3_site_ordinal_ % A.n;
  Reg s = scratch();
  Reg u = scratch();
  Reg t = scratch();
  Reg v1 = scratch();
  Reg v2 = scratch();
  auto index_of = [&](Reg out, int shift) {
    G({ib::mov(out, sym)});
    if (shift) G({ib::shr_i(out, shift)});
    load_const(t, A.p - 1, true);
    G({ib::and_(out, t)});
    load_const(t, A.s * 8, true);
    G({ib::imul(out, t)});
    load_const(
        t, static_cast<std::int64_t>(A.addr + 8 * static_cast<unsigned>(b)),
        true);
    G({ib::add(out, t)});
  };
  index_of(s, 0);
  index_of(u, 3);
  G({ib::load(v1, MemRef::base_disp(s))});
  G({ib::load(v2, MemRef::base_disp(u))});
  G({ib::store(MemRef::base_disp(s), v2)});
  G({ib::store(MemRef::base_disp(u), v1)});
  release(s); release(u); release(t); release(v1); release(v2);
  (void)r;
}

void Crafter::maybe_p3(const Roplet& r) {
  if (env_.cfg->p3_fraction <= 0.0) return;
  if (r.kind == RopletKind::InterTransfer ||
      r.kind == RopletKind::Epilogue)
    return;
  if (!flags_dead_in(r)) return;
  if (!env_.rng->chance(
          static_cast<std::uint64_t>(env_.cfg->p3_fraction * 1000), 1000))
    return;
  // Pick an input-derived live register (§V-C eligibility).
  std::optional<Reg> sym;
  for (int i = 0; i < isa::kNumRegs; ++i) {
    Reg reg = static_cast<Reg>(i);
    if (reg == Reg::RSP || reg == Reg::RBP) continue;
    if (r.tainted.has(reg) && live_in_.has(reg)) {
      sym = reg;
      break;
    }
  }
  if (!sym) return;
  pinned_.add(*sym);
  int variant = env_.cfg->p3_variant;
  if (variant == 3) variant = 1 + static_cast<int>(env_.rng->below(2));
  // Transactional: predicates run with spilling disabled (a spill inside
  // the P3 loop would re-store scratch garbage every iteration); on
  // register pressure the partial sequence is rolled back and the site
  // skipped -- the paper notes small-input code may not offer enough
  // registers for optimal P3 composition (§VII-A1).
  bool saved_spill_ok = spill_ok_;
  spill_ok_ = false;
  std::size_t snapshot = ch_.size();
  std::size_t req_snapshot = requests_.size();
  RegSet saved_busy = busy_;
  try {
    if (variant == 2 && env_.p1)
      emit_p3_array(r, *sym);
    else
      emit_p3_for(r, *sym);
    ++p3_site_ordinal_;
  } catch (const CraftError&) {
    ch_.truncate(snapshot);
    requests_.resize(req_snapshot);
    busy_ = saved_busy;
  }
  spill_ok_ = saved_spill_ok;
  pinned_ = RegSet();
}

void Crafter::lower(const Roplet& r) {
  switch (r.kind) {
    case RopletKind::IntraTransfer:
      lower_intra(r);
      return;
    case RopletKind::InterTransfer:
      lower_inter(r);
      return;
    case RopletKind::Epilogue:
      lower_epilogue(r);
      return;
    case RopletKind::DirectStackAccess:
      lower_stack_access(r);
      return;
    case RopletKind::StackPtrRef:
      lower_stack_ptr(r);
      return;
    case RopletKind::InsnPtrRef:
    case RopletKind::DataMove:
    case RopletKind::Alu:
      lower_default(r);
      return;
  }
}

CraftOutput Crafter::run() {
  CraftOutput out;
  try {
    // Layout order: entry block first; optionally shuffle the rest
    // (§IV-B3 "we may optionally rearrange basic blocks").
    std::vector<const TranslatedBlock*> order;
    for (const auto& b : tr_.blocks) order.push_back(&b);
    if (env_.cfg->shuffle_blocks && order.size() > 2) {
      std::vector<const TranslatedBlock*> rest(order.begin() + 1,
                                               order.end());
      env_.rng->shuffle(rest);
      for (std::size_t i = 0; i < rest.size(); ++i) order[i + 1] = rest[i];
    }

    for (std::size_t bi = 0; bi < order.size(); ++bi) {
      const TranslatedBlock& b = *order[bi];
      ch_.bind(block_label(b.start));
      bool ended_with_transfer = false;
      for (std::size_t ri = 0; ri < b.roplets.size(); ++ri) {
        const Roplet& r = b.roplets[ri];
        out.program_points++;
        begin_roplet(r);
        maybe_confusion_bump(flags_dead_in(r));
        maybe_p3(r);
        lower(r);
        end_roplet();
        ended_with_transfer = r.kind == RopletKind::IntraTransfer ||
                              r.kind == RopletKind::Epilogue;
        bool is_uncond_transfer =
            (r.kind == RopletKind::IntraTransfer && !r.is_conditional) ||
            r.kind == RopletKind::Epilogue;
        (void)is_uncond_transfer;
      }
      // Fallthrough handling: blocks that do not end in an unconditional
      // transfer continue into a specific successor; emit an explicit
      // chain jump unless that successor is laid out right after us.
      std::uint64_t fall = 0;
      if (!b.roplets.empty()) {
        const Roplet& last = b.roplets.back();
        if (last.kind == RopletKind::IntraTransfer && last.is_conditional)
          fall = b.succs.size() > 1 ? b.succs[1] : 0;
        else if (last.kind == RopletKind::IntraTransfer && !last.jump_table &&
                 !last.is_conditional)
          fall = 0;  // unconditional jump: no fallthrough
        else if (last.kind == RopletKind::Epilogue)
          fall = 0;
        else if (last.jump_table)
          fall = 0;
        else
          fall = b.succs.empty() ? 0 : b.succs[0];
      } else {
        fall = b.succs.empty() ? 0 : b.succs[0];
      }
      (void)ended_with_transfer;
      if (fall != 0) {
        bool next_is_fall =
            bi + 1 < order.size() && order[bi + 1]->start == fall;
        // P2-protected conditional fallthrough already emitted its check
        // inline; the check must flow directly into the fallthrough
        // block, so an explicit jump is required when layout diverges.
        if (!next_is_fall) {
          busy_ = RegSet();
          pinned_ = RegSet();
          spills_.clear();
          spill_ok_ = false;
          live_in_ = env_.liveness->block_in.count(fall)
                         ? env_.liveness->block_in.at(fall)
                         : analysis::RegSet::all_regs();
          live_out_ = live_in_;
          if (live_in_.has_flags())
            emit_jump_flag_safe(block_label(fall));
          else
            emit_jump(block_label(fall));
        }
      }
    }

    // P2 trampolines for taken edges (§V-B), appended after the blocks.
    for (const Tramp& tr : tramps_) {
      ch_.bind(tr.label);
      live_in_ = tr.live_at_target;
      live_out_ = tr.live_at_target;
      busy_ = RegSet();
      pinned_ = RegSet();
      pinned_.add(tr.cmp.a);
      if (!tr.cmp.b_is_imm) pinned_.add(tr.cmp.b_reg);
      spills_.clear();
      spill_ok_ = false;
      if (tr.cc_for_bit != Cond::O) emit_p2_check(tr.cc_for_bit, tr.cmp);
      pinned_ = RegSet();
      emit_jump(tr.target_label);
    }
    out.chain = std::move(ch_);
    out.requests = std::move(requests_);
    out.ok = true;
  } catch (const CraftError& e) {
    out.ok = false;
    out.failure = e.failure;
    out.detail = e.detail;
  }
  return out;
}

}  // namespace

CraftOutput craft_chain(const CraftEnv& env, const TranslateResult& tr) {
  Crafter c(env, tr);
  return c.run();
}

}  // namespace raindrop::rop
