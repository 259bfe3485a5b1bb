#include "attack/se.hpp"

#include <deque>
#include <unordered_set>

#include "solver/solver.hpp"

namespace raindrop::attack {

using solver::Assignment;
using solver::ExprPool;
using solver::ExprRef;

namespace {
std::uint64_t pack(const Assignment& a, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) v |= std::uint64_t(a[i]) << (8 * i);
  return v;
}
}  // namespace

SeOutcome se_attack(const LoadedImage& li, std::uint64_t fn_addr,
                    const SeConfig& cfg, const Deadline& deadline) {
  SeOutcome out;
  Stopwatch watch;
  ExprPool pool;
  solver::Solver solver(&pool);

  std::deque<std::uint64_t> queue{0};  // breadth-first state frontier
  std::unordered_set<std::uint64_t> seen{0};

  ShadowConfig scfg;
  scfg.max_insns = cfg.max_trace_insns;

  while (!queue.empty() && !deadline.expired() &&
         out.states_forked < cfg.max_states) {
    std::uint64_t input = queue.front();
    queue.pop_front();
    ++out.traces;

    ShadowResult tr = shadow_run(&pool, li, fn_addr, input,
                                 cfg.input_bytes, scfg);
    for (auto p : tr.probes) out.covered.insert(p);

    if (cfg.goal == Goal::kSecretFinding &&
        tr.status == CpuStatus::kHalted && tr.rax == cfg.success_rax) {
      out.success = true;
      out.secret = input;
      break;
    }
    if (cfg.goal == Goal::kCodeCoverage && !cfg.target_probes.empty()) {
      bool all = true;
      for (auto p : cfg.target_probes) all &= out.covered.count(p) != 0;
      if (all) {
        out.success = true;
        break;
      }
    }

    // Eager expansion over *every* symbolic decision in the path.
    std::vector<ExprRef> prefix;
    for (const BranchEvent& ev : tr.branches) {
      if (deadline.expired() || out.states_forked >= cfg.max_states) break;
      if (!ev.address_pin) {
        // Fork the other direction.
        std::vector<ExprRef> cs = prefix;
        cs.push_back(ev.taken ? pool.logical_not(ev.cond) : ev.cond);
        auto sol = solver.solve(cs, cfg.input_bytes, deadline);
        ++out.states_forked;
        if (sol) {
          std::uint64_t ni = pack(*sol, cfg.input_bytes);
          if (seen.insert(ni).second) queue.push_back(ni);
        }
      } else {
        // Address pin (symbolic pointer / symbolic RSP): enumerate
        // alternative targets -- each alias is a separate SE state. P1's
        // periodic array makes up to p of these satisfiable per branch.
        std::vector<ExprRef> cs = prefix;
        cs.push_back(pool.logical_not(ev.cond));  // a different address
        for (int k = 0; k < cfg.max_enum_per_pin; ++k) {
          if (deadline.expired() || out.states_forked >= cfg.max_states)
            break;
          auto sol = solver.solve(cs, cfg.input_bytes, deadline);
          ++out.states_forked;
          if (!sol) break;
          std::uint64_t ni = pack(*sol, cfg.input_bytes);
          if (seen.insert(ni).second) queue.push_back(ni);
          // Exclude this alias and enumerate the next one. The address
          // expression is the Eq's left operand; excluding the whole
          // input is a sound under-approximation of value exclusion.
          std::uint64_t cur = ni;
          ExprRef in_expr = pool.constant(0);
          for (int b = 0; b < cfg.input_bytes; ++b)
            in_expr = pool.bin(solver::Ex::Or, in_expr,
                               pool.bin(solver::Ex::Shl, pool.var(b),
                                        pool.constant(8 * b)));
          cs.push_back(pool.bin(solver::Ex::Ne, in_expr,
                                pool.constant(cur)));
        }
      }
      prefix.push_back(ev.taken ? ev.cond : pool.logical_not(ev.cond));
    }
  }
  out.seconds = watch.seconds();
  out.solver_queries = solver.stats().queries;
  return out;
}

}  // namespace raindrop::attack
