#include "solver/solver.hpp"

#include <algorithm>

namespace raindrop::solver {

namespace {
std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
}  // namespace

bool Solver::satisfied(std::span<const ExprRef> constraints,
                       const Assignment& a) {
  for (ExprRef c : constraints) {
    ++stats_.evals;
    if (pool_->eval(c, a) == 0) return false;
  }
  return true;
}

namespace {
// Graded fitness for the local search over a pre-flattened batch: 0 when
// all constraints hold; violated equalities score the Hamming distance
// between their sides (guides hash-chain inversion); other violations
// score a flat penalty.
double batch_score(ExprPool& pool, ExprPool::Batch& batch,
                   std::span<const ExprRef> cs, const Assignment& a) {
  bool all = batch.all_true(a);
  if (all) return 0.0;
  double total = 0;
  for (ExprRef c : cs) {
    if (batch.value_of(c) != 0) continue;
    double penalty = 64.0;
    ExprRef lhs, rhs;
    if (pool.eq_operands(c, &lhs, &rhs)) {
      std::uint64_t va = batch.value_of(lhs);
      std::uint64_t vb = batch.value_of(rhs);
      penalty = 4.0 + static_cast<double>(__builtin_popcountll(va ^ vb));
    }
    total += penalty;
  }
  return total == 0 ? 0.5 : total;  // non-eq violations still nonzero
}
}  // namespace

std::optional<Assignment> Solver::solve(std::span<const ExprRef> constraints,
                                        int n_bytes,
                                        const Deadline& deadline,
                                        std::span<const Assignment> hints) {
  Stopwatch watch;
  ++stats_.queries;
  auto done = [&](std::optional<Assignment> r) {
    stats_.total_seconds += watch.seconds();
    if (r)
      ++stats_.sat;
    else
      ++stats_.gave_up;
    return r;
  };

  // Constant-filter: an always-false constraint is UNSAT for sure.
  std::vector<ExprRef> live;
  std::uint32_t joint_support = 0;
  for (ExprRef c : constraints) {
    std::uint64_t v;
    if (pool_->is_const(c, &v)) {
      if (v == 0) return done(std::nullopt);
      continue;
    }
    live.push_back(c);
    joint_support |= pool_->support(c);
  }
  if (live.empty()) return done(Assignment{});

  Assignment base{};
  if (!hints.empty()) base = hints[0];

  // Hints first (the DSE concrete input often satisfies the prefix).
  for (const auto& h : hints) {
    if (deadline.expired()) return done(std::nullopt);
    if (satisfied(live, h)) return done(h);
  }

  // Exhaustive when the joint support is small (<= 2 bytes).
  std::vector<int> bytes;
  for (int i = 0; i < n_bytes && i < 8; ++i)
    if (joint_support & (1u << i)) bytes.push_back(i);
  if (bytes.empty()) {
    // Depends on no input byte yet not constant-foldable: sample once.
    return done(satisfied(live, base) ? std::optional<Assignment>(base)
                                      : std::nullopt);
  }
  ExprPool::Batch batch(*pool_, live);
  if (bytes.size() <= 2) {
    // Values of v in increasing order, lanes() per batch call; the first
    // satisfying lane is the first satisfying v, as one at a time.
    const std::uint32_t limit = bytes.size() == 1 ? 256 : 65536;
    const std::uint32_t lanes = static_cast<std::uint32_t>(batch.lanes());
    std::vector<Assignment> chunk(lanes, base);
    std::uint32_t next_poll = 0;
    for (std::uint32_t v = 0; v < limit; v += lanes) {
      if (v >= next_poll) {
        if (deadline.expired()) return done(std::nullopt);
        next_poll += 256;
      }
      const std::uint32_t n = std::min(lanes, limit - v);
      for (std::uint32_t l = 0; l < n; ++l) {
        chunk[l][bytes[0]] = (v + l) & 0xff;
        if (bytes.size() == 2) chunk[l][bytes[1]] = ((v + l) >> 8) & 0xff;
      }
      int hit = batch.first_true(chunk.data(), static_cast<int>(n));
      stats_.evals += hit < 0 ? n : static_cast<std::uint32_t>(hit) + 1;
      if (hit >= 0) return done(chunk[hit]);
    }
    return done(std::nullopt);
  }

  // Local search with restarts over the supported bytes, guided by the
  // Hamming-distance fitness (hash-chain equalities get gradients).
  Assignment current = base;
  auto fitness = [&](const Assignment& a) {
    ++stats_.evals;
    return batch_score(*pool_, batch, live, a);
  };
  double best = fitness(current);
  if (best == 0) return done(current);
  const int kRestarts = 40;
  for (int restart = 0; restart < kRestarts; ++restart) {
    if (deadline.expired()) return done(std::nullopt);
    if (restart > 0) {
      current = base;
      for (int b : bytes)
        current[b] = static_cast<std::uint8_t>(xorshift(rng_state_));
      best = fitness(current);
      if (best == 0) return done(current);
    }
    int stall = 0;
    while (stall < 300) {
      if (deadline.expired()) return done(std::nullopt);
      Assignment next = current;
      if ((xorshift(rng_state_) & 7) == 0) {
        // Occasionally: steepest single-bit descent over all bits.
        Assignment bit_best = current;
        double bit_score = best;
        for (int b : bytes) {
          for (int k = 0; k < 8; ++k) {
            Assignment t = current;
            t[b] ^= static_cast<std::uint8_t>(1u << k);
            double v = fitness(t);
            if (v < bit_score) {
              bit_score = v;
              bit_best = t;
            }
          }
        }
        next = bit_best;
      } else {
        int muts = 1 + (xorshift(rng_state_) & 1);
        for (int m = 0; m < muts; ++m) {
          int b = bytes[xorshift(rng_state_) % bytes.size()];
          switch (xorshift(rng_state_) % 4) {
            case 0:
              next[b] = static_cast<std::uint8_t>(xorshift(rng_state_));
              break;
            case 1: next[b] = static_cast<std::uint8_t>(next[b] + 1); break;
            case 2: next[b] = static_cast<std::uint8_t>(next[b] - 1); break;
            default:
              next[b] ^= static_cast<std::uint8_t>(
                  1u << (xorshift(rng_state_) & 7));
              break;
          }
        }
      }
      double v = fitness(next);
      if (v == 0) return done(next);
      if (v < best || (v == best && (xorshift(rng_state_) & 7) == 0)) {
        best = v;
        current = next;
        stall = 0;
      } else {
        ++stall;
      }
    }
  }
  return done(std::nullopt);
}

}  // namespace raindrop::solver
