// Search-based constraint solver over the expression DAG. Plays SMT's
// role in the attack pipeline: given a conjunction of 0/1-valued terms,
// find an assignment of the (<=8) input bytes satisfying all of them.
//
// Strategy (documented in DESIGN.md): exhaustive enumeration when the
// joint support is at most two bytes, otherwise seeded local search with
// restarts. Honest about failure: a timeout returns nullopt, which the
// attack engines treat as "solver gave up" -- exactly the resource-
// exhaustion channel the paper's predicates aim at.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "solver/expr.hpp"
#include "support/stopwatch.hpp"

namespace raindrop::solver {

using Assignment = std::array<std::uint8_t, 8>;

struct SolverStats {
  std::uint64_t queries = 0;
  std::uint64_t evals = 0;
  std::uint64_t sat = 0;
  std::uint64_t gave_up = 0;
  double total_seconds = 0;
};

class Solver {
 public:
  explicit Solver(ExprPool* pool) : pool_(pool) {}

  // All constraints must evaluate to nonzero. `hints` seed the search
  // (DSE passes the path's concrete input). `n_bytes` bounds the search
  // space (input width).
  std::optional<Assignment> solve(std::span<const ExprRef> constraints,
                                  int n_bytes, const Deadline& deadline,
                                  std::span<const Assignment> hints = {});

  const SolverStats& stats() const { return stats_; }

 private:
  bool satisfied(std::span<const ExprRef> constraints, const Assignment& a);

  ExprPool* pool_;
  SolverStats stats_;
  std::uint64_t rng_state_ = 0x243f6a8885a308d3ull;
};

}  // namespace raindrop::solver
