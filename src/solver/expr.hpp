// Bitvector expression DAG for the attack engines (SE/DSE shadow state).
// Stands in for the SMT expression layer of angr/S2E: hash-consed 64-bit
// terms over up to 8 symbolic input bytes, with constant folding and
// cheap identities. Comparisons yield 0/1-valued terms; Ite selects on a
// 0/1 condition.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace raindrop::solver {

enum class Ex : std::uint8_t {
  Const, Var,            // Var = symbolic input byte (zero-extended)
  Add, Sub, Mul, UDiv, URem,
  And, Or, Xor, Shl, LShr, AShr,
  Not, Neg,
  Eq, Ne, Ult, Slt,      // 0/1 valued
  Ite,                   // kids: cond(0/1), then, else
  SExt,                  // sign-extend low `aux` bytes
  ZExt,                  // zero-extend low `aux` bytes (masking)
};

using ExprRef = std::uint32_t;
inline constexpr ExprRef kNoExpr = 0xffffffff;

class ExprPool {
 public:
  ExprPool();

  ExprRef constant(std::uint64_t v);
  ExprRef var(int byte_index);  // 0..7
  ExprRef bin(Ex op, ExprRef a, ExprRef b);
  ExprRef un(Ex op, ExprRef a);
  ExprRef ite(ExprRef c, ExprRef a, ExprRef b);
  ExprRef ext(Ex op, ExprRef a, int bytes);  // SExt/ZExt

  // Convenience.
  ExprRef add(ExprRef a, ExprRef b) { return bin(Ex::Add, a, b); }
  ExprRef sub(ExprRef a, ExprRef b) { return bin(Ex::Sub, a, b); }
  ExprRef eq(ExprRef a, ExprRef b) { return bin(Ex::Eq, a, b); }
  ExprRef logical_not(ExprRef a) { return bin(Ex::Eq, a, constant(0)); }

  bool is_const(ExprRef r, std::uint64_t* value = nullptr) const;

  // True when `r` is an equality; returns its operands (used by the
  // solver's Hamming-distance fitness).
  bool eq_operands(ExprRef r, ExprRef* lhs, ExprRef* rhs) const;

  // Evaluate under an assignment of the 8 input bytes. Memoised per
  // call; amortised O(new nodes).
  std::uint64_t eval(ExprRef r, std::span<const std::uint8_t> input);

  // Bitmask of input bytes the term depends on.
  std::uint32_t support(ExprRef r) const;

  std::size_t size() const { return nodes_.size(); }

  // Batch evaluator (DESIGN.md §15): pre-flattens the union DAG of a
  // constraint set into topological order once, then evaluates up to
  // lanes() assignments per call in one node-major pass (shared
  // subterms costed once, one dispatch per node for all lanes). This is
  // what makes exhaustive 2-byte enumeration tractable on hash-chain
  // constraints.
  class Batch {
   public:
    using Input = std::array<std::uint8_t, 8>;
    // Lane values are capped at kLaneBytes in total (and at kMaxLanes
    // lanes), so a huge flattened DAG falls back to one lane.
    static constexpr std::size_t kLaneBytes = 256 * 1024;
    static constexpr int kMaxLanes = 32;

    Batch(const ExprPool& pool, std::span<const ExprRef> roots);
    int lanes() const { return lanes_; }
    // Evaluates inputs[0..n) (1 <= n <= lanes()); returns the first index
    // whose roots are all nonzero, or -1.
    int first_true(const Input* inputs, int n);
    // first_true on one input; returns true iff every root is nonzero.
    bool all_true(std::span<const std::uint8_t> input);
    std::uint64_t value_of(ExprRef r) const;  // lane 0 of the last run

   private:
    struct Flat {
      Ex op;
      std::uint8_t aux;
      std::uint32_t ia, ib, ic;  // slot indices (self for unused)
    };
    std::vector<std::uint32_t> pos_;           // ExprRef -> slot (+1)
    std::vector<Flat> flat_;                   // topological program
    // Slot-major, lanes_ per slot; Const slots are filled once.
    std::vector<std::uint64_t> values_;
    std::vector<std::uint32_t> root_slots_;
    int lanes_ = 1;
  };

 private:
  struct Node {
    Ex op = Ex::Const;
    std::uint8_t aux = 0;       // Var byte index / ext byte count
    ExprRef a = kNoExpr, b = kNoExpr, c = kNoExpr;
    std::uint64_t cval = 0;
    std::uint32_t support = 0;
  };
  ExprRef intern(Node n);
  void rehash(std::size_t slots);

  friend class Batch;

  std::vector<Node> nodes_;  // ExprRef = index, dense in creation order
  // Open-addressing hash-cons table over nodes_: power-of-two size,
  // linear probing, at most half full; kNoExpr marks an empty slot.
  std::vector<ExprRef> table_;
  // eval memo
  std::vector<std::uint64_t> memo_val_;
  std::vector<std::uint64_t> memo_stamp_;
  std::uint64_t stamp_ = 0;
};

}  // namespace raindrop::solver
