#include "attack/tds.hpp"

#include <map>

namespace raindrop::attack {

TdsResult tds_simplify(const LoadedImage& li, std::uint64_t fn_addr,
                       std::uint64_t input, int input_bytes,
                       std::uint64_t max_insns) {
  TdsResult out;
  solver::ExprPool pool;
  ShadowConfig cfg;
  cfg.collect_trace = true;
  cfg.max_insns = max_insns;
  ShadowResult tr = shadow_run(&pool, li, fn_addr, input, input_bytes, cfg);
  out.trace_len = tr.trace.size();

  // Branch classification from the shadow's symbolic view: a conditional
  // decision is input-dependent iff its condition expression involved
  // symbols (explicit flows; TDS has no provisions for P3-v2's implicit
  // flows without obfuscation-time knowledge, §V-C).
  std::set<std::uint64_t> sym_branch_pcs;
  for (const BranchEvent& ev : tr.branches)
    if (!ev.address_pin) sym_branch_pcs.insert(ev.pc);

  std::map<std::uint64_t, bool> cond_sites;  // pc -> tainted?
  for (const TraceEntry& te : tr.trace) {
    if (te.insn.op == isa::Op::JCC_REL || te.insn.op == isa::Op::CMOV ||
        te.insn.op == isa::Op::SETCC) {
      bool tainted = sym_branch_pcs.count(te.addr) != 0;
      auto [it, fresh] = cond_sites.emplace(te.addr, tainted);
      if (!fresh) it->second |= tainted;
    }
  }
  for (auto& [pc, tainted] : cond_sites) {
    if (tainted)
      ++out.tainted_branches;
    else {
      ++out.untainted_branches;
      out.skip_pcs.insert(pc);
    }
  }

  // Simplification: dead-code eliminate untainted straight-line compute
  // (constant-foldable under the restricted propagation rule) and the
  // ret-dispatch plumbing; keep tainted ops, memory effects and control
  // decisions. This mirrors TDS's semantics-preserving passes at trace
  // granularity.
  std::set<std::uint64_t> kept_addrs;
  for (const TraceEntry& te : tr.trace) {
    bool keep = te.tainted;
    switch (te.insn.op) {
      case isa::Op::STORE: case isa::Op::XCHG_RM: case isa::Op::ADD_MI:
      case isa::Op::SUB_MI: case isa::Op::CALL_REL: case isa::Op::CALL_R:
      case isa::Op::TRACE:
        keep = true;  // observable effects survive
        break;
      case isa::Op::JCC_REL: case isa::Op::CMOV: case isa::Op::SETCC:
        keep = cond_sites[te.addr];  // untainted decisions fold away
        break;
      case isa::Op::RET: case isa::Op::JMP_REL: case isa::Op::JMP_R:
      case isa::Op::JMP_M:
        keep = false;  // dispatch plumbing collapses in the rebuilt CFG
        break;
      default:
        break;
    }
    if (keep) {
      ++out.kept;
      kept_addrs.insert(te.addr);
    }
  }
  out.distinct_addrs = kept_addrs.size();
  out.reduction = out.trace_len == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(out.kept) /
                                  static_cast<double>(out.trace_len);
  return out;
}

}  // namespace raindrop::attack
