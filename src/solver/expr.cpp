#include "solver/expr.hpp"

#include <algorithm>

namespace raindrop::solver {

namespace {
std::uint64_t sext_bytes(std::uint64_t v, int bytes) {
  if (bytes >= 8) return v;
  int bits = bytes * 8;
  std::uint64_t m = 1ull << (bits - 1);
  v &= (1ull << bits) - 1;
  return (v ^ m) - m;
}
std::uint64_t zext_bytes(std::uint64_t v, int bytes) {
  if (bytes >= 8) return v;
  return v & ((1ull << (bytes * 8)) - 1);
}

std::uint64_t fold(Ex op, std::uint64_t a, std::uint64_t b) {
  switch (op) {
    case Ex::Add: return a + b;
    case Ex::Sub: return a - b;
    case Ex::Mul: return a * b;
    case Ex::UDiv: return b ? a / b : 0;
    case Ex::URem: return b ? a % b : a;
    case Ex::And: return a & b;
    case Ex::Or: return a | b;
    case Ex::Xor: return a ^ b;
    case Ex::Shl: return a << (b & 63);
    case Ex::LShr: return a >> (b & 63);
    case Ex::AShr:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                        (b & 63));
    case Ex::Eq: return a == b ? 1 : 0;
    case Ex::Ne: return a != b ? 1 : 0;
    case Ex::Ult: return a < b ? 1 : 0;
    case Ex::Slt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? 1
                                                                         : 0;
    default: return 0;
  }
}

std::uint64_t hash_node(Ex op, std::uint8_t aux, ExprRef a, ExprRef b,
                        ExprRef c, std::uint64_t cval) {
  std::uint64_t h = static_cast<std::uint64_t>(op) * 0x9e3779b97f4a7c15ull;
  h ^= cval + 0x517cc1b727220a95ull * (a + 1);
  h ^= (std::uint64_t(b + 1) << 21) ^ (std::uint64_t(c + 1) << 42);
  h ^= aux * 0xff51afd7ed558ccdull;
  // Finalizer (murmur3 fmix64): linear probing wants every bit mixed.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}
}  // namespace

ExprPool::ExprPool() {
  // Node 0: the constant 0 (handy canonical element).
  rehash(64);
  intern(Node{});
}

void ExprPool::rehash(std::size_t slots) {
  table_.assign(slots, kNoExpr);
  const std::size_t mask = slots - 1;
  for (std::size_t r = 0; r < nodes_.size(); ++r) {
    const Node& n = nodes_[r];
    std::size_t i = hash_node(n.op, n.aux, n.a, n.b, n.c, n.cval) & mask;
    while (table_[i] != kNoExpr) i = (i + 1) & mask;
    table_[i] = static_cast<ExprRef>(r);
  }
}

ExprRef ExprPool::intern(Node n) {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = hash_node(n.op, n.aux, n.a, n.b, n.c, n.cval) & mask;
  for (; table_[i] != kNoExpr; i = (i + 1) & mask) {
    const Node& m = nodes_[table_[i]];
    if (m.op == n.op && m.aux == n.aux && m.a == n.a && m.b == n.b &&
        m.c == n.c && m.cval == n.cval)
      return table_[i];
  }
  ExprRef r = static_cast<ExprRef>(nodes_.size());
  // Support computation.
  if (n.op == Ex::Var) {
    n.support = 1u << n.aux;
  } else {
    n.support = 0;
    if (n.a != kNoExpr) n.support |= nodes_[n.a].support;
    if (n.b != kNoExpr) n.support |= nodes_[n.b].support;
    if (n.c != kNoExpr) n.support |= nodes_[n.c].support;
  }
  nodes_.push_back(n);
  if (2 * nodes_.size() > table_.size())
    rehash(2 * table_.size());
  else
    table_[i] = r;
  return r;
}

ExprRef ExprPool::constant(std::uint64_t v) {
  if (v == 0) return 0;
  Node n;
  n.op = Ex::Const;
  n.cval = v;
  return intern(n);
}

ExprRef ExprPool::var(int byte_index) {
  Node n;
  n.op = Ex::Var;
  n.aux = static_cast<std::uint8_t>(byte_index);
  return intern(n);
}

bool ExprPool::is_const(ExprRef r, std::uint64_t* value) const {
  const Node& n = nodes_[r];
  if (n.op != Ex::Const) return false;
  if (value) *value = n.cval;
  return true;
}

bool ExprPool::eq_operands(ExprRef r, ExprRef* lhs, ExprRef* rhs) const {
  const Node& n = nodes_[r];
  if (n.op != Ex::Eq) return false;
  *lhs = n.a;
  *rhs = n.b;
  return true;
}

ExprRef ExprPool::bin(Ex op, ExprRef a, ExprRef b) {
  std::uint64_t ca, cb;
  bool a_const = is_const(a, &ca), b_const = is_const(b, &cb);
  if (a_const && b_const) return constant(fold(op, ca, cb));
  // Identities that keep DSE traces lean.
  if (b_const) {
    if (cb == 0 && (op == Ex::Add || op == Ex::Sub || op == Ex::Or ||
                    op == Ex::Xor || op == Ex::Shl || op == Ex::LShr ||
                    op == Ex::AShr))
      return a;
    if (cb == 0 && op == Ex::And) return constant(0);
    if (cb == 1 && op == Ex::Mul) return a;
    if (cb == 0 && op == Ex::Mul) return constant(0);
  }
  if (a_const && ca == 0) {
    if (op == Ex::Add || op == Ex::Or || op == Ex::Xor) return b;
    if (op == Ex::And || op == Ex::Mul) return constant(0);
  }
  if (a == b) {
    if (op == Ex::Sub || op == Ex::Xor) return constant(0);
    if (op == Ex::And || op == Ex::Or) return a;
    if (op == Ex::Eq) return constant(1);
    if (op == Ex::Ne || op == Ex::Ult || op == Ex::Slt) return constant(0);
  }
  Node n;
  n.op = op;
  n.a = a;
  n.b = b;
  return intern(n);
}

ExprRef ExprPool::un(Ex op, ExprRef a) {
  std::uint64_t ca;
  if (is_const(a, &ca))
    return constant(op == Ex::Not ? ~ca : 0 - ca);
  Node n;
  n.op = op;
  n.a = a;
  return intern(n);
}

ExprRef ExprPool::ite(ExprRef c, ExprRef a, ExprRef b) {
  std::uint64_t cc;
  if (is_const(c, &cc)) return cc ? a : b;
  if (a == b) return a;
  Node n;
  n.op = Ex::Ite;
  n.a = c;
  n.b = a;
  n.c = b;
  return intern(n);
}

ExprRef ExprPool::ext(Ex op, ExprRef a, int bytes) {
  if (bytes >= 8) return a;
  std::uint64_t ca;
  if (is_const(a, &ca))
    return constant(op == Ex::SExt ? sext_bytes(ca, bytes)
                                   : zext_bytes(ca, bytes));
  Node n;
  n.op = op;
  n.a = a;
  n.aux = static_cast<std::uint8_t>(bytes);
  return intern(n);
}

std::uint64_t ExprPool::eval(ExprRef root,
                             std::span<const std::uint8_t> input) {
  ++stamp_;
  memo_val_.resize(nodes_.size());
  memo_stamp_.resize(nodes_.size(), 0);
  // Iterative post-order to survive deep DAGs.
  std::vector<ExprRef> stack{root};
  while (!stack.empty()) {
    ExprRef r = stack.back();
    if (memo_stamp_[r] == stamp_) {
      stack.pop_back();
      continue;
    }
    const Node& n = nodes_[r];
    if (n.op == Ex::Const) {
      memo_val_[r] = n.cval;
      memo_stamp_[r] = stamp_;
      stack.pop_back();
      continue;
    }
    if (n.op == Ex::Var) {
      memo_val_[r] = n.aux < input.size() ? input[n.aux] : 0;
      memo_stamp_[r] = stamp_;
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (ExprRef k : {n.a, n.b, n.c}) {
      if (k != kNoExpr && memo_stamp_[k] != stamp_) {
        stack.push_back(k);
        ready = false;
      }
    }
    if (!ready) continue;
    std::uint64_t va = n.a != kNoExpr ? memo_val_[n.a] : 0;
    std::uint64_t vb = n.b != kNoExpr ? memo_val_[n.b] : 0;
    std::uint64_t vc = n.c != kNoExpr ? memo_val_[n.c] : 0;
    std::uint64_t v = 0;
    switch (n.op) {
      case Ex::Not: v = ~va; break;
      case Ex::Neg: v = 0 - va; break;
      case Ex::Ite: v = va ? vb : vc; break;
      case Ex::SExt: v = sext_bytes(va, n.aux); break;
      case Ex::ZExt: v = zext_bytes(va, n.aux); break;
      default: v = fold(n.op, va, vb); break;
    }
    memo_val_[r] = v;
    memo_stamp_[r] = stamp_;
    stack.pop_back();
  }
  return memo_val_[root];
}

std::uint32_t ExprPool::support(ExprRef r) const { return nodes_[r].support; }

ExprPool::Batch::Batch(const ExprPool& pool, std::span<const ExprRef> roots) {
  pos_.assign(pool.nodes_.size(), 0);
  // Iterative DFS producing topological (post) order over the union DAG.
  std::vector<ExprRef> order;
  std::vector<std::pair<ExprRef, bool>> stack;
  for (ExprRef r : roots) stack.push_back({r, false});
  while (!stack.empty()) {
    auto [r, expanded] = stack.back();
    stack.pop_back();
    if (pos_[r]) continue;
    const Node& n = pool.nodes_[r];
    if (expanded) {
      pos_[r] = static_cast<std::uint32_t>(order.size()) + 1;
      order.push_back(r);
      continue;
    }
    stack.push_back({r, true});
    for (ExprRef k : {n.a, n.b, n.c})
      if (k != kNoExpr && !pos_[k]) stack.push_back({k, false});
  }
  flat_.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node& n = pool.nodes_[order[i]];
    Flat f;
    f.op = n.op;
    f.aux = n.aux;
    f.ia = n.a != kNoExpr ? pos_[n.a] - 1 : static_cast<std::uint32_t>(i);
    f.ib = n.b != kNoExpr ? pos_[n.b] - 1 : static_cast<std::uint32_t>(i);
    f.ic = n.c != kNoExpr ? pos_[n.c] - 1 : static_cast<std::uint32_t>(i);
    flat_[i] = f;
  }
  for (ExprRef r : roots) root_slots_.push_back(pos_[r] - 1);
  std::size_t fit = kLaneBytes / (sizeof(std::uint64_t) *
                                 std::max<std::size_t>(flat_.size(), 1));
  lanes_ = static_cast<int>(
      std::clamp<std::size_t>(fit, 1, static_cast<std::size_t>(kMaxLanes)));
  values_.resize(flat_.size() * static_cast<std::size_t>(lanes_));
  for (std::size_t i = 0; i < order.size(); ++i)
    if (flat_[i].op == Ex::Const)
      std::fill_n(values_.begin() + static_cast<std::ptrdiff_t>(i * lanes_),
                  lanes_, pool.nodes_[order[i]].cval);
}

namespace {
using U = std::uint64_t;
using S = std::int64_t;

// One pass of `f` over the lanes of a node. Operand rows are lane arrays
// of the same width, so the loops vectorise.
template <class F>
void lanewise(U* out, const U* a, const U* b, int n, F f) {
  for (int l = 0; l < n; ++l) out[l] = f(a[l], b[l]);
}
template <class F>
void lanewise(U* out, const U* a, int n, F f) {
  for (int l = 0; l < n; ++l) out[l] = f(a[l]);
}
}  // namespace

int ExprPool::Batch::first_true(const Input* inputs, int n) {
  const std::size_t w = static_cast<std::size_t>(lanes_);
  U* vals = values_.data();
  for (std::size_t i = 0; i < flat_.size(); ++i) {
    const Flat& f = flat_[i];
    U* out = vals + i * w;
    const U* a = vals + f.ia * w;
    const U* b = vals + f.ib * w;
    const int aux = f.aux;
    switch (f.op) {
      case Ex::Const: break;  // filled at construction
      case Ex::Var:
        for (int l = 0; l < n; ++l) out[l] = aux < 8 ? inputs[l][aux] : 0;
        break;
      case Ex::Add:
        lanewise(out, a, b, n, [](U x, U y) { return x + y; });
        break;
      case Ex::Sub:
        lanewise(out, a, b, n, [](U x, U y) { return x - y; });
        break;
      case Ex::Mul:
        lanewise(out, a, b, n, [](U x, U y) { return x * y; });
        break;
      case Ex::UDiv:
        lanewise(out, a, b, n, [](U x, U y) { return y ? x / y : 0; });
        break;
      case Ex::URem:
        lanewise(out, a, b, n, [](U x, U y) { return y ? x % y : x; });
        break;
      case Ex::And:
        lanewise(out, a, b, n, [](U x, U y) { return x & y; });
        break;
      case Ex::Or:
        lanewise(out, a, b, n, [](U x, U y) { return x | y; });
        break;
      case Ex::Xor:
        lanewise(out, a, b, n, [](U x, U y) { return x ^ y; });
        break;
      case Ex::Shl:
        lanewise(out, a, b, n, [](U x, U y) { return x << (y & 63); });
        break;
      case Ex::LShr:
        lanewise(out, a, b, n, [](U x, U y) { return x >> (y & 63); });
        break;
      case Ex::AShr:
        lanewise(out, a, b, n,
                 [](U x, U y) { return U(S(x) >> (y & 63)); });
        break;
      case Ex::Not: lanewise(out, a, n, [](U x) { return ~x; }); break;
      case Ex::Neg: lanewise(out, a, n, [](U x) { return 0 - x; }); break;
      case Ex::Eq:
        lanewise(out, a, b, n, [](U x, U y) { return U(x == y); });
        break;
      case Ex::Ne:
        lanewise(out, a, b, n, [](U x, U y) { return U(x != y); });
        break;
      case Ex::Ult:
        lanewise(out, a, b, n, [](U x, U y) { return U(x < y); });
        break;
      case Ex::Slt:
        lanewise(out, a, b, n, [](U x, U y) { return U(S(x) < S(y)); });
        break;
      case Ex::Ite: {
        const U* c = vals + f.ic * w;
        for (int l = 0; l < n; ++l) out[l] = a[l] ? b[l] : c[l];
        break;
      }
      case Ex::SExt:
        lanewise(out, a, n, [aux](U x) { return sext_bytes(x, aux); });
        break;
      case Ex::ZExt:
        lanewise(out, a, n, [aux](U x) { return zext_bytes(x, aux); });
        break;
    }
  }
  for (int l = 0; l < n; ++l) {
    bool ok = true;
    for (std::uint32_t s : root_slots_)
      if (vals[s * w + static_cast<std::size_t>(l)] == 0) {
        ok = false;
        break;
      }
    if (ok) return l;
  }
  return -1;
}

bool ExprPool::Batch::all_true(std::span<const std::uint8_t> input) {
  // Var nodes read input bytes beyond input.size() as 0.
  Input in{};
  for (std::size_t k = 0; k < input.size() && k < in.size(); ++k)
    in[k] = input[k];
  return first_true(&in, 1) == 0;
}

std::uint64_t ExprPool::Batch::value_of(ExprRef r) const {
  return pos_[r] ? values_[(pos_[r] - 1) * static_cast<std::size_t>(lanes_)]
                 : 0;
}

}  // namespace raindrop::solver
