#include "attack/shadow.hpp"

#include "analysis/liveness.hpp"
#include "image/image.hpp"
#include "isa/encode.hpp"

namespace raindrop::attack {

using isa::Cond;
using isa::Insn;
using isa::Op;
using isa::Reg;
using solver::Ex;
using solver::ExprPool;
using solver::ExprRef;
using solver::kNoExpr;

namespace {

class Shadow {
 public:
  Shadow(ExprPool* pool, const LoadedImage& li, const ShadowConfig& cfg)
      : pool_(pool), mem_(li.mem.clone()), cpu_(&mem_), cfg_(cfg) {
    cpu_.import_cache(li.cache);
  }

  ShadowResult run(std::uint64_t fn_addr, std::uint64_t arg,
                   int input_bytes);

 private:
  // ---- symbolic state -------------------------------------------------
  ExprRef sreg_[isa::kNumRegs] = {};  // kNoExpr via init below
  // Flags as 0/1 terms; kNoExpr = concrete (read from cpu_).
  ExprRef scf_ = kNoExpr, szf_ = kNoExpr, ssf_ = kNoExpr, sof_ = kNoExpr;
  std::unordered_map<std::uint64_t, ExprRef> smem_;  // per byte

  bool reg_sym(Reg r) const { return sreg_[static_cast<int>(r)] != kNoExpr; }
  ExprRef reg_expr(Reg r) {
    ExprRef e = sreg_[static_cast<int>(r)];
    return e != kNoExpr ? e : pool_->constant(cpu_.reg(r));
  }
  void set_reg(Reg r, ExprRef e) {
    std::uint64_t v;
    if (e != kNoExpr && pool_->is_const(e, &v)) e = kNoExpr;
    sreg_[static_cast<int>(r)] = e;
  }
  void concretize_reg(Reg r) { sreg_[static_cast<int>(r)] = kNoExpr; }
  void clear_flags() { scf_ = szf_ = ssf_ = sof_ = kNoExpr; }
  bool flags_sym() const {
    return scf_ != kNoExpr || szf_ != kNoExpr || ssf_ != kNoExpr ||
           sof_ != kNoExpr;
  }
  ExprRef flag_expr(ExprRef sym, std::uint64_t mask) {
    if (sym != kNoExpr) return sym;
    return pool_->constant((cpu_.flags() & mask) ? 1 : 0);
  }

  bool mem_sym(std::uint64_t addr, unsigned size) const {
    for (unsigned i = 0; i < size; ++i)
      if (smem_.count(addr + i)) return true;
    return false;
  }
  ExprRef mem_expr(std::uint64_t addr, unsigned size) {
    ExprRef v = pool_->constant(0);
    for (unsigned i = 0; i < size; ++i) {
      auto it = smem_.find(addr + i);
      ExprRef byte = it != smem_.end()
                         ? it->second
                         : pool_->constant(mem_.read_u8(addr + i));
      v = pool_->bin(Ex::Or, v,
                     pool_->bin(Ex::Shl, byte, pool_->constant(8 * i)));
    }
    return v;
  }
  void store_sym(std::uint64_t addr, ExprRef e, unsigned size) {
    std::uint64_t cv;
    if (e == kNoExpr || pool_->is_const(e, &cv)) {
      for (unsigned i = 0; i < size; ++i) smem_.erase(addr + i);
      return;
    }
    for (unsigned i = 0; i < size; ++i) {
      smem_[addr + i] = pool_->ext(
          Ex::ZExt, pool_->bin(Ex::LShr, e, pool_->constant(8 * i)), 1);
    }
  }

  // ---- helpers ----------------------------------------------------------
  std::uint64_t effective_addr(const isa::MemRef& m, std::uint64_t next_rip) {
    std::uint64_t a = static_cast<std::uint64_t>(m.disp);
    if (m.rip_rel) a += next_rip;
    if (m.has_base) a += cpu_.reg(m.base);
    if (m.has_index) a += cpu_.reg(m.index) << m.scale_log2;
    return a;
  }
  ExprRef addr_expr(const isa::MemRef& m, std::uint64_t next_rip) {
    // Symbolic only if base/index symbolic.
    bool sym = (m.has_base && reg_sym(m.base)) ||
               (m.has_index && reg_sym(m.index));
    if (!sym) return kNoExpr;
    ExprRef a = pool_->constant(static_cast<std::uint64_t>(m.disp) +
                                (m.rip_rel ? next_rip : 0));
    if (m.has_base) a = pool_->add(a, reg_expr(m.base));
    if (m.has_index)
      a = pool_->add(a, pool_->bin(Ex::Shl, reg_expr(m.index),
                                   pool_->constant(m.scale_log2)));
    return a;
  }
  void pin_address(std::uint64_t pc, ExprRef a, std::uint64_t concrete) {
    BranchEvent ev;
    ev.pc = pc;
    ev.cond = pool_->eq(a, pool_->constant(concrete));
    ev.taken = true;
    ev.address_pin = true;
    result_.branches.push_back(ev);
  }
  // Windowed theory-of-arrays select for a symbolic-address load.
  ExprRef toa_load(ExprRef a, std::uint64_t concrete, unsigned size);

  ExprRef cond_expr(Cond cc);
  void set_flags_sub(ExprRef a, ExprRef b, ExprRef r);
  void set_flags_add(ExprRef a, ExprRef b, ExprRef r);
  void set_flags_logic(ExprRef r);

  void step_symbolic(const Insn& i, std::uint64_t pc, std::uint64_t next_rip);

  ExprPool* pool_;
  Memory mem_;
  Cpu cpu_;
  ShadowConfig cfg_;
  ShadowResult result_;
};

ExprRef Shadow::cond_expr(Cond cc) {
  ExprRef cf = flag_expr(scf_, isa::kCF), zf = flag_expr(szf_, isa::kZF),
          sf = flag_expr(ssf_, isa::kSF), of = flag_expr(sof_, isa::kOF);
  ExprRef one = pool_->constant(1);
  auto not1 = [&](ExprRef e) { return pool_->bin(Ex::Xor, e, one); };
  auto or1 = [&](ExprRef a, ExprRef b) { return pool_->bin(Ex::Or, a, b); };
  auto and1 = [&](ExprRef a, ExprRef b) { return pool_->bin(Ex::And, a, b); };
  switch (cc) {
    case Cond::E: return zf;
    case Cond::NE: return not1(zf);
    case Cond::B: return cf;
    case Cond::AE: return not1(cf);
    case Cond::BE: return or1(cf, zf);
    case Cond::A: return and1(not1(cf), not1(zf));
    case Cond::L: return pool_->bin(Ex::Ne, sf, of);
    case Cond::GE: return pool_->eq(sf, of);
    case Cond::LE: return or1(zf, pool_->bin(Ex::Ne, sf, of));
    case Cond::G: return and1(not1(zf), pool_->eq(sf, of));
    case Cond::S: return sf;
    case Cond::NS: return not1(sf);
    case Cond::O: return of;
    case Cond::NO: return not1(of);
  }
  return zf;
}

void Shadow::set_flags_sub(ExprRef a, ExprRef b, ExprRef r) {
  scf_ = pool_->bin(Ex::Ult, a, b);
  szf_ = pool_->eq(r, pool_->constant(0));
  ssf_ = pool_->bin(Ex::Slt, r, pool_->constant(0));
  ExprRef sign = pool_->constant(63);
  sof_ = pool_->bin(
      Ex::LShr,
      pool_->bin(Ex::And, pool_->bin(Ex::Xor, a, b),
                 pool_->bin(Ex::Xor, a, r)),
      sign);
}

void Shadow::set_flags_add(ExprRef a, ExprRef b, ExprRef r) {
  scf_ = pool_->bin(Ex::Ult, r, a);
  szf_ = pool_->eq(r, pool_->constant(0));
  ssf_ = pool_->bin(Ex::Slt, r, pool_->constant(0));
  sof_ = pool_->bin(
      Ex::LShr,
      pool_->bin(Ex::And, pool_->un(Ex::Not, pool_->bin(Ex::Xor, a, b)),
                 pool_->bin(Ex::Xor, a, r)),
      pool_->constant(63));
}

void Shadow::set_flags_logic(ExprRef r) {
  scf_ = pool_->constant(0);
  szf_ = pool_->eq(r, pool_->constant(0));
  ssf_ = pool_->bin(Ex::Slt, r, pool_->constant(0));
  sof_ = pool_->constant(0);
}

ExprRef Shadow::toa_load(ExprRef a, std::uint64_t concrete, unsigned size) {
  std::uint64_t w0 = concrete & ~static_cast<std::uint64_t>(
                                    cfg_.toa_window - 1);
  ExprRef val = mem_expr(concrete, size);
  for (std::uint64_t c = w0; c < w0 + static_cast<std::uint64_t>(
                                          cfg_.toa_window);
       c += size) {
    if (c == concrete) continue;
    val = pool_->ite(pool_->eq(a, pool_->constant(c)), mem_expr(c, size),
                     val);
  }
  return val;
}

void Shadow::step_symbolic(const Insn& i, std::uint64_t pc,
                           std::uint64_t next_rip) {
  auto R = [&](Reg r) { return reg_expr(r); };
  auto rsym = [&](Reg r) { return reg_sym(r); };
  auto bin_rr = [&](Ex ex, bool flags, bool is_sub, bool is_add) {
    bool sym = rsym(i.r1) || rsym(i.r2) || flags_sym() == false;
    (void)sym;
    if (!rsym(i.r1) && !rsym(i.r2)) {
      concretize_reg(i.r1);
      if (flags) clear_flags();
      return;
    }
    ExprRef a = R(i.r1), b = R(i.r2);
    ExprRef r = pool_->bin(ex, a, b);
    if (flags) {
      if (is_sub)
        set_flags_sub(a, b, r);
      else if (is_add)
        set_flags_add(a, b, r);
      else
        set_flags_logic(r);
    }
    set_reg(i.r1, r);
  };
  auto bin_ri = [&](Ex ex, bool flags, bool is_sub, bool is_add) {
    if (!rsym(i.r1)) {
      concretize_reg(i.r1);
      if (flags) clear_flags();
      return;
    }
    ExprRef a = R(i.r1), b = pool_->constant(
                             static_cast<std::uint64_t>(i.imm));
    ExprRef r = pool_->bin(ex, a, b);
    if (flags) {
      if (is_sub)
        set_flags_sub(a, b, r);
      else if (is_add)
        set_flags_add(a, b, r);
      else
        set_flags_logic(r);
    }
    set_reg(i.r1, r);
  };

  switch (i.op) {
    case Op::NOP: case Op::HLT: case Op::UD:
      return;
    case Op::TRACE:
      return;
    case Op::MOV_RR:
      sreg_[static_cast<int>(i.r1)] = sreg_[static_cast<int>(i.r2)];
      return;
    case Op::MOV_RI64: case Op::MOV_RI32:
      concretize_reg(i.r1);
      return;
    case Op::LEA: {
      ExprRef a = addr_expr(i.mem, next_rip);
      set_reg(i.r1, a);
      return;
    }
    case Op::LOAD: case Op::LOADS: {
      std::uint64_t ea = effective_addr(i.mem, next_rip);
      ExprRef a = addr_expr(i.mem, next_rip);
      ExprRef val = kNoExpr;
      if (a != kNoExpr) {
        if (cfg_.toa_memory) {
          val = toa_load(a, ea, i.size);
        } else {
          pin_address(pc, a, ea);
          if (mem_sym(ea, i.size)) val = mem_expr(ea, i.size);
        }
      } else if (mem_sym(ea, i.size)) {
        val = mem_expr(ea, i.size);
      }
      if (val == kNoExpr) {
        concretize_reg(i.r1);
        return;
      }
      val = pool_->ext(i.op == Op::LOADS ? Ex::SExt : Ex::ZExt, val, i.size);
      set_reg(i.r1, val);
      return;
    }
    case Op::STORE: {
      std::uint64_t ea = effective_addr(i.mem, next_rip);
      ExprRef a = addr_expr(i.mem, next_rip);
      if (a != kNoExpr) pin_address(pc, a, ea);
      if (rsym(i.r1))
        store_sym(ea, R(i.r1), i.size);
      else
        store_sym(ea, kNoExpr, i.size);
      return;
    }
    case Op::XCHG_RR: {
      std::swap(sreg_[static_cast<int>(i.r1)],
                sreg_[static_cast<int>(i.r2)]);
      return;
    }
    case Op::XCHG_RM: {
      std::uint64_t ea = effective_addr(i.mem, next_rip);
      ExprRef a = addr_expr(i.mem, next_rip);
      if (a != kNoExpr) pin_address(pc, a, ea);
      ExprRef mem_e = mem_sym(ea, 8) ? mem_expr(ea, 8) : kNoExpr;
      ExprRef reg_e = rsym(i.r1) ? R(i.r1) : kNoExpr;
      store_sym(ea, reg_e, 8);
      set_reg(i.r1, mem_e);
      return;
    }
    case Op::PUSH_R: {
      std::uint64_t sp = cpu_.reg(Reg::RSP) - 8;
      store_sym(sp, rsym(i.r1) ? R(i.r1) : kNoExpr, 8);
      return;  // rsp update is concrete unless rsp symbolic (kept below)
    }
    case Op::POP_R: {
      std::uint64_t sp = cpu_.reg(Reg::RSP);
      set_reg(i.r1, mem_sym(sp, 8) ? mem_expr(sp, 8) : kNoExpr);
      return;
    }
    case Op::PUSH_I32: {
      store_sym(cpu_.reg(Reg::RSP) - 8, kNoExpr, 8);
      return;
    }
    case Op::PUSHF:
      store_sym(cpu_.reg(Reg::RSP) - 8, kNoExpr, 8);
      return;
    case Op::POPF:
      clear_flags();
      return;

    case Op::ADD_RR: bin_rr(Ex::Add, true, false, true); return;
    case Op::ADD_RI: bin_ri(Ex::Add, true, false, true); return;
    case Op::SUB_RR: bin_rr(Ex::Sub, true, true, false); return;
    case Op::SUB_RI: bin_ri(Ex::Sub, true, true, false); return;
    case Op::AND_RR: bin_rr(Ex::And, true, false, false); return;
    case Op::AND_RI: bin_ri(Ex::And, true, false, false); return;
    case Op::OR_RR: bin_rr(Ex::Or, true, false, false); return;
    case Op::OR_RI: bin_ri(Ex::Or, true, false, false); return;
    case Op::XOR_RR: bin_rr(Ex::Xor, true, false, false); return;
    case Op::XOR_RI: bin_ri(Ex::Xor, true, false, false); return;
    case Op::SHL_RR: bin_rr(Ex::Shl, true, false, false); return;
    case Op::SHL_RI: bin_ri(Ex::Shl, true, false, false); return;
    case Op::SHR_RR: bin_rr(Ex::LShr, true, false, false); return;
    case Op::SHR_RI: bin_ri(Ex::LShr, true, false, false); return;
    case Op::SAR_RR: bin_rr(Ex::AShr, true, false, false); return;
    case Op::SAR_RI: bin_ri(Ex::AShr, true, false, false); return;
    case Op::IMUL_RR: bin_rr(Ex::Mul, true, false, false); return;
    case Op::IMUL_RI: bin_ri(Ex::Mul, true, false, false); return;
    case Op::UDIV_RR: bin_rr(Ex::UDiv, true, false, false); return;
    case Op::UREM_RR: bin_rr(Ex::URem, true, false, false); return;

    case Op::ADC_RR: case Op::SBB_RR: {
      if (!rsym(i.r1) && !rsym(i.r2) && !flags_sym()) {
        concretize_reg(i.r1);
        clear_flags();
        return;
      }
      ExprRef a = R(i.r1), b = R(i.r2);
      ExprRef cin = flag_expr(scf_, isa::kCF);
      ExprRef r = i.op == Op::ADC_RR
                      ? pool_->add(pool_->add(a, b), cin)
                      : pool_->sub(pool_->sub(a, b), cin);
      if (i.op == Op::ADC_RR)
        set_flags_add(a, b, r);  // approximation: carry-in edge dropped
      else
        set_flags_sub(a, b, r);
      set_reg(i.r1, r);
      return;
    }

    case Op::CMP_RR: case Op::CMP_RI: {
      bool b_imm = i.op == Op::CMP_RI;
      if (!rsym(i.r1) && (b_imm || !rsym(i.r2))) {
        clear_flags();
        return;
      }
      ExprRef a = R(i.r1);
      ExprRef b = b_imm ? pool_->constant(static_cast<std::uint64_t>(i.imm))
                        : R(i.r2);
      set_flags_sub(a, b, pool_->sub(a, b));
      return;
    }
    case Op::TEST_RR: case Op::TEST_RI: {
      bool b_imm = i.op == Op::TEST_RI;
      if (!rsym(i.r1) && (b_imm || !rsym(i.r2))) {
        clear_flags();
        return;
      }
      ExprRef a = R(i.r1);
      ExprRef b = b_imm ? pool_->constant(static_cast<std::uint64_t>(i.imm))
                        : R(i.r2);
      set_flags_logic(pool_->bin(Ex::And, a, b));
      return;
    }

    case Op::NEG_R: {
      if (!rsym(i.r1)) {
        concretize_reg(i.r1);
        clear_flags();
        return;
      }
      ExprRef a = R(i.r1);
      ExprRef r = pool_->un(Ex::Neg, a);
      set_flags_sub(pool_->constant(0), a, r);
      set_reg(i.r1, r);
      return;
    }
    case Op::NOT_R:
      if (rsym(i.r1)) set_reg(i.r1, pool_->un(Ex::Not, R(i.r1)));
      return;
    case Op::INC_R: case Op::DEC_R: {
      if (!rsym(i.r1)) {
        concretize_reg(i.r1);
        ExprRef keep_cf = scf_;
        clear_flags();
        scf_ = keep_cf;  // INC/DEC preserve CF
        return;
      }
      ExprRef a = R(i.r1), one = pool_->constant(1);
      ExprRef r = i.op == Op::INC_R ? pool_->add(a, one) : pool_->sub(a, one);
      ExprRef keep_cf = scf_;
      if (i.op == Op::INC_R)
        set_flags_add(a, one, r);
      else
        set_flags_sub(a, one, r);
      scf_ = keep_cf;
      set_reg(i.r1, r);
      return;
    }

    case Op::MOVZX: case Op::MOVSX:
      if (rsym(i.r2))
        set_reg(i.r1, pool_->ext(i.op == Op::MOVZX ? Ex::ZExt : Ex::SExt,
                                 R(i.r2), i.size));
      else
        concretize_reg(i.r1);
      return;

    case Op::CMOV: {
      if (!flags_sym()) {
        if (cpu_.eval_cond(i.cc))
          sreg_[static_cast<int>(i.r1)] = sreg_[static_cast<int>(i.r2)];
        return;
      }
      ExprRef c = cond_expr(i.cc);
      BranchEvent ev;
      ev.pc = pc;
      ev.cond = c;
      ev.taken = cpu_.eval_cond(i.cc);
      result_.branches.push_back(ev);
      set_reg(i.r1, pool_->ite(c, R(i.r2), R(i.r1)));
      return;
    }
    case Op::SETCC:
      if (flags_sym())
        set_reg(i.r1, cond_expr(i.cc));
      else
        concretize_reg(i.r1);
      return;
    case Op::RDFLAGS: {
      if (!flags_sym()) {
        concretize_reg(i.r1);
        return;
      }
      ExprRef packed = pool_->bin(
          Ex::Or,
          pool_->bin(Ex::Or, flag_expr(scf_, isa::kCF),
                     pool_->bin(Ex::Shl, flag_expr(szf_, isa::kZF),
                                pool_->constant(1))),
          pool_->bin(Ex::Or,
                     pool_->bin(Ex::Shl, flag_expr(ssf_, isa::kSF),
                                pool_->constant(2)),
                     pool_->bin(Ex::Shl, flag_expr(sof_, isa::kOF),
                                pool_->constant(3))));
      set_reg(i.r1, packed);
      return;
    }
    case Op::WRFLAGS: {
      if (!rsym(i.r1)) {
        clear_flags();
        return;
      }
      ExprRef v = R(i.r1), one = pool_->constant(1);
      scf_ = pool_->bin(Ex::And, v, one);
      szf_ = pool_->bin(Ex::And, pool_->bin(Ex::LShr, v, one), one);
      ssf_ = pool_->bin(Ex::And, pool_->bin(Ex::LShr, v, pool_->constant(2)),
                        one);
      sof_ = pool_->bin(Ex::And, pool_->bin(Ex::LShr, v, pool_->constant(3)),
                        one);
      return;
    }

    case Op::JMP_REL:
      return;
    case Op::JCC_REL: {
      if (!flags_sym()) return;
      BranchEvent ev;
      ev.pc = pc;
      ev.cond = cond_expr(i.cc);
      ev.taken = cpu_.eval_cond(i.cc);
      result_.branches.push_back(ev);
      return;
    }
    case Op::JMP_R: case Op::CALL_R:
      if (rsym(i.r1)) {
        pin_address(pc, R(i.r1), cpu_.reg(i.r1));
        concretize_reg(i.r1);
      }
      if (i.op == Op::CALL_R) store_sym(cpu_.reg(Reg::RSP) - 8, kNoExpr, 8);
      return;
    case Op::JMP_M: {
      std::uint64_t ea = effective_addr(i.mem, next_rip);
      ExprRef a = addr_expr(i.mem, next_rip);
      if (a != kNoExpr) pin_address(pc, a, ea);
      if (mem_sym(ea, 8)) {
        pin_address(pc, mem_expr(ea, 8), mem_.read_u64(ea));
      }
      return;
    }
    case Op::CALL_REL:
      store_sym(cpu_.reg(Reg::RSP) - 8, kNoExpr, 8);
      return;
    case Op::RET: {
      // The ROP dispatcher: if RSP is symbolic (P1's variable addends),
      // S2E-style concretization pins it, yielding a flippable address
      // constraint.
      if (rsym(Reg::RSP)) {
        pin_address(pc, R(Reg::RSP), cpu_.reg(Reg::RSP));
        concretize_reg(Reg::RSP);
      }
      std::uint64_t sp = cpu_.reg(Reg::RSP);
      if (mem_sym(sp, 8))
        pin_address(pc, mem_expr(sp, 8), mem_.read_u64(sp));
      return;
    }

    case Op::ADD_RM: {
      std::uint64_t ea = effective_addr(i.mem, next_rip);
      ExprRef a = addr_expr(i.mem, next_rip);
      if (a != kNoExpr) pin_address(pc, a, ea);
      bool msym = mem_sym(ea, 8);
      if (!rsym(i.r1) && !msym) {
        concretize_reg(i.r1);
        clear_flags();
        return;
      }
      ExprRef lhs = R(i.r1), rhs = mem_expr(ea, 8);
      ExprRef r = pool_->add(lhs, rhs);
      set_flags_add(lhs, rhs, r);
      set_reg(i.r1, r);
      return;
    }
    case Op::ADD_MI: case Op::SUB_MI: {
      std::uint64_t ea = effective_addr(i.mem, next_rip);
      ExprRef a = addr_expr(i.mem, next_rip);
      if (a != kNoExpr) pin_address(pc, a, ea);
      if (!mem_sym(ea, 8)) {
        clear_flags();
        return;
      }
      ExprRef lhs = mem_expr(ea, 8);
      ExprRef rhs = pool_->constant(static_cast<std::uint64_t>(i.imm));
      ExprRef r = i.op == Op::ADD_MI ? pool_->add(lhs, rhs)
                                     : pool_->sub(lhs, rhs);
      if (i.op == Op::ADD_MI)
        set_flags_add(lhs, rhs, r);
      else
        set_flags_sub(lhs, rhs, r);
      store_sym(ea, r, 8);
      return;
    }
    case Op::kCount:
      return;
  }
}

ShadowResult Shadow::run(std::uint64_t fn_addr, std::uint64_t arg,
                         int input_bytes) {
  for (auto& s : sreg_) s = kNoExpr;
  // Build the symbolic argument: input bytes 0..n-1, concrete beyond.
  ExprRef argexpr = pool_->constant(0);
  for (int b = 0; b < input_bytes; ++b)
    argexpr = pool_->bin(Ex::Or, argexpr,
                         pool_->bin(Ex::Shl, pool_->var(b),
                                    pool_->constant(8 * b)));
  cpu_.set_reg(Reg::RDI, arg);
  set_reg(Reg::RDI, argexpr);

  std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
  mem_.write_u64(rsp, kHltPad);
  cpu_.set_reg(Reg::RSP, rsp);
  cpu_.set_rip(fn_addr);

  while (cpu_.insn_count() < cfg_.max_insns) {
    std::uint64_t pc = cpu_.rip();
    std::uint8_t buf[16];
    for (int k = 0; k < 16; ++k) buf[k] = mem_.read_u8(pc + k);
    auto dec = isa::decode(buf);
    if (!dec) break;
    step_symbolic(dec->insn, pc, pc + dec->length);
    if (cfg_.collect_trace) {
      TraceEntry te;
      te.addr = pc;
      te.insn = dec->insn;
      analysis::RegSet uses = analysis::insn_uses(dec->insn);
      bool t = false;
      for (int r = 0; r < isa::kNumRegs; ++r)
        if (uses.has(static_cast<Reg>(r)) && reg_sym(static_cast<Reg>(r)))
          t = true;
      te.tainted = t;
      result_.trace.push_back(te);
    }
    CpuStatus st = cpu_.step();
    if (st != CpuStatus::kRunning) {
      result_.status = st;
      break;
    }
    result_.status = CpuStatus::kBudgetExceeded;
  }
  result_.rax = cpu_.reg(Reg::RAX);
  result_.rax_expr = sreg_[static_cast<int>(Reg::RAX)];
  result_.insns = cpu_.insn_count();
  result_.probes = cpu_.trace_probes();
  return result_;
}

}  // namespace

ShadowResult shadow_run(ExprPool* pool, const LoadedImage& li,
                        std::uint64_t fn_addr, std::uint64_t arg,
                        int input_bytes, const ShadowConfig& cfg) {
  Shadow sh(pool, li, cfg);
  return sh.run(fn_addr, arg, input_bytes);
}

}  // namespace raindrop::attack
