#include "attack/dse.hpp"

#include <deque>
#include <map>
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
Assignment unpack(std::uint64_t v) {
  Assignment a{};
  for (int i = 0; i < 8; ++i) a[i] = (v >> (8 * i)) & 0xff;
  return a;
}

}  // namespace

AttackOutcome dse_attack(const LoadedImage& li, std::uint64_t fn_addr,
                         const DseConfig& cfg, const Deadline& deadline) {
  AttackOutcome out;
  Stopwatch watch;
  ExprPool pool;
  solver::Solver solver(&pool);

  std::deque<std::uint64_t> queue{0};
  std::unordered_set<std::uint64_t> seen{0};
  // CUPA-like grouping: negation pressure balanced per branch pc.
  std::map<std::uint64_t, int> negations_at_pc;

  ShadowConfig scfg;
  scfg.toa_memory = cfg.toa_memory;
  scfg.max_insns = cfg.max_trace_insns;

  while (!queue.empty() && !deadline.expired()) {
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

    // Branch negation, class-uniform: prefer branches whose pc has seen
    // the fewest negations so far (CUPA's grouping reduces bias towards
    // path-explosion hot spots, §VII-B).
    std::vector<std::size_t> order(tr.branches.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return negations_at_pc[tr.branches[a].pc] <
                              negations_at_pc[tr.branches[b].pc];
                     });
    int flips = 0;
    Assignment hint = unpack(input);
    for (std::size_t oi : order) {
      if (flips >= cfg.max_negations_per_trace || deadline.expired()) break;
      const BranchEvent& ev = tr.branches[oi];
      if (cfg.skip_pcs.count(ev.pc)) continue;
      ++flips;
      negations_at_pc[ev.pc]++;
      ExprRef negated = ev.taken ? pool.logical_not(ev.cond) : ev.cond;
      Assignment hints[1] = {hint};
      // Unrelated-constraint elimination (SAGE-style): first try the
      // negated condition alone -- divergent replays are re-verified by
      // the next concrete run, so dropping the prefix is sound and far
      // cheaper on deep paths.
      std::vector<ExprRef> lite{negated};
      double slice = std::min(cfg.solver_slice_s, deadline.remaining());
      auto sol = solver.solve(lite, cfg.input_bytes, Deadline(slice), hints);
      bool enqueued = false;
      if (sol) {
        std::uint64_t ni = pack(*sol, cfg.input_bytes);
        enqueued = seen.insert(ni).second;
        if (enqueued) queue.push_back(ni);
      }
      if (!enqueued) {
        // Full path-prefix query.
        std::vector<ExprRef> cs;
        cs.reserve(oi + 1);
        for (std::size_t k = 0; k < oi; ++k) {
          const BranchEvent& e = tr.branches[k];
          cs.push_back(e.taken ? e.cond : pool.logical_not(e.cond));
        }
        cs.push_back(negated);
        slice = std::min(cfg.solver_slice_s, deadline.remaining());
        auto sol2 = solver.solve(cs, cfg.input_bytes, Deadline(slice), hints);
        if (sol2) {
          std::uint64_t ni = pack(*sol2, cfg.input_bytes);
          if (seen.insert(ni).second) queue.push_back(ni);
        }
      }
    }
    // Keep exploration alive on shallow queues: a couple of random probes
    // (S2E's exploration never starves while states exist).
    if (queue.empty() && out.traces < 4) {
      std::uint64_t r = 0x9e3779b97f4a7c15ull * (out.traces + 1);
      r &= cfg.input_bytes >= 8
               ? ~0ull
               : ((1ull << (8 * cfg.input_bytes)) - 1);
      if (seen.insert(r).second) queue.push_back(r);
    }
  }
  out.seconds = watch.seconds();
  out.solver_queries = solver.stats().queries;
  return out;
}

}  // namespace raindrop::attack
