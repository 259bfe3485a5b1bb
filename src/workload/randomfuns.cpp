#include "workload/randomfuns.hpp"

#include "minic/interp.hpp"
#include "support/rng.hpp"

namespace raindrop::workload {

using namespace minic;

namespace {

const char* kControls[6] = {
    "(if (bb 4) (bb 4))",
    "(for (if (bb 4) (bb 4)))",
    "(for (for (bb 4)))",
    "(for (for (if (bb 4) (bb 4))))",
    "(for (if (if (bb 4) (bb 4)) (if (bb 4) (bb 4))))",
    "(if (if (if (bb 4) (bb 4)) (if (bb 4) (bb 4))) (if (bb 4) (bb 4)))",
};

// Builder for the hash bodies: mutation statements over `state` mixing
// the input, modelled on Tigress's RandomFuns arithmetic (BoolSize=3,
// LoopSize=25 analogues).
class Gen {
 public:
  Gen(Rng& rng, Type t, bool probes)
      : rng_(rng), type_(t), probes_(probes) {}

  std::vector<StmtPtr> bb(int n_stmts) {
    std::vector<StmtPtr> out;
    for (int i = 0; i < n_stmts; ++i) out.push_back(mutation());
    return out;
  }

  // One `state = state op f(input, const)` mutation; wraps to the
  // declared state type on assignment like Tigress's typed state.
  StmtPtr mutation() {
    BinOp ops[] = {BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Mul,
                   BinOp::Or, BinOp::And};
    BinOp op = ops[rng_.below(5)];  // And last: rarely (info loss)
    if (rng_.chance(1, 8)) op = BinOp::And;
    ExprPtr rhs;
    std::int64_t c =
        static_cast<std::int64_t>(rng_.next() & 0xffff) | 1;  // odd-ish
    switch (rng_.below(4)) {
      case 0:
        rhs = e_bin(BinOp::Add, e_var("input", type_), e_int(c));
        break;
      case 1:
        rhs = e_bin(BinOp::Xor, e_var("input", type_), e_int(c));
        break;
      case 2:
        rhs = e_bin(BinOp::Mul, e_var("state", type_),
                    e_int((c & 0xff) | 1));
        break;
      default:
        rhs = e_bin(BinOp::Add,
                    e_bin(BinOp::Shl, e_var("state", type_),
                          e_int(1 + static_cast<std::int64_t>(rng_.below(5)))),
                    e_var("input", type_));
        break;
    }
    return s_assign("state", e_bin(op, e_var("state", type_), rhs));
  }

  ExprPtr cond() {
    // Conditions over state/input like RandomFuns BoolSize picks.
    std::int64_t mask = (1ll << (1 + rng_.below(7))) - 1;
    ExprPtr lhs = e_bin(BinOp::And,
                        rng_.chance(1, 2) ? e_var("state", type_)
                                          : e_var("input", type_),
                        e_int(mask));
    std::int64_t rhs = static_cast<std::int64_t>(rng_.below(mask + 1));
    BinOp cmp[] = {BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Gt, BinOp::Le};
    return e_bin(cmp[rng_.below(5)], lhs, e_int(rhs));
  }

  StmtPtr probe() { return s_trace(next_probe_++); }
  int probe_count() const { return next_probe_; }

  // if (cond) { A } else { B } with split/join probes.
  std::vector<StmtPtr> iff(std::vector<StmtPtr> a, std::vector<StmtPtr> b) {
    std::vector<StmtPtr> ta, tb, out;
    if (probes_) ta.push_back(probe());
    for (auto& s : a) ta.push_back(s);
    if (probes_) tb.push_back(probe());
    for (auto& s : b) tb.push_back(s);
    out.push_back(s_if(cond(), ta, tb));
    if (probes_) out.push_back(probe());  // join
    return out;
  }

  // for (i = 0; i < 25; ++i) { body } with a distinct counter per loop.
  std::vector<StmtPtr> forr(std::vector<StmtPtr> body) {
    std::string ctr = "i" + std::to_string(loop_idx_++);
    std::vector<StmtPtr> b;
    if (probes_) b.push_back(probe());
    for (auto& s : body) b.push_back(s);
    b.push_back(s_assign(ctr, e_bin(BinOp::Add, e_var(ctr), e_int(1))));
    std::vector<StmtPtr> out;
    out.push_back(s_decl(Type::I64, ctr, e_int(0)));
    out.push_back(s_while(e_bin(BinOp::Lt, e_var(ctr), e_int(25)), b));
    if (probes_) out.push_back(probe());  // loop exit join
    return out;
  }

 private:
  Rng& rng_;
  Type type_;
  bool probes_;
  int next_probe_ = 0;
  int loop_idx_ = 0;
};

std::vector<StmtPtr> control_body(Gen& g, int control) {
  switch (control) {
    case 0:
      return g.iff(g.bb(4), g.bb(4));
    case 1:
      return g.forr(g.iff(g.bb(4), g.bb(4)));
    case 2:
      return g.forr(g.forr(g.bb(4)));
    case 3:
      return g.forr(g.forr(g.iff(g.bb(4), g.bb(4))));
    case 4: {
      auto inner1 = g.iff(g.bb(4), g.bb(4));
      auto inner2 = g.iff(g.bb(4), g.bb(4));
      return g.forr(g.iff(std::move(inner1), std::move(inner2)));
    }
    default: {
      auto i1 = g.iff(g.bb(4), g.bb(4));
      auto i2 = g.iff(g.bb(4), g.bb(4));
      auto top = g.iff(std::move(i1), std::move(i2));
      auto els = g.iff(g.bb(4), g.bb(4));
      return g.iff(std::move(top), std::move(els));
    }
  }
}

std::int64_t mask_for(Type t) {
  int bits = type_size(t) * 8;
  return bits >= 64 ? -1 : (1ll << bits) - 1;
}

}  // namespace

const char* control_structure_name(int control) {
  return kControls[control % 6];
}

RandomFun make_random_fun(const RandomFunSpec& spec) {
  RandomFun rf;
  rf.spec = spec;
  Rng rng(spec.seed * 1000003ull + spec.control * 131ull +
          static_cast<std::uint64_t>(spec.type) * 17ull);
  Gen g(rng, spec.type, spec.probes);

  Function fn;
  fn.name = "target";
  fn.ret = Type::I64;
  fn.params.push_back(Param{"input", spec.type});
  fn.body.push_back(s_decl(spec.type, "state",
                           e_int(static_cast<std::int64_t>(
                               rng.next() & 0x7fffffff))));
  for (auto& s : control_body(g, spec.control)) fn.body.push_back(s);
  rf.probe_count = g.probe_count();

  // Derive the secret: run the hash on a randomly chosen winning input
  // and read off the final state (what Tigress bakes into the point
  // test). A copy of the module without the test computes it.
  Module hash_only;
  {
    Function h = fn;
    h.body.push_back(s_return(e_var("state", spec.type)));
    hash_only.functions.push_back(std::move(h));
  }
  rf.secret_input =
      static_cast<std::int64_t>(rng.next()) & mask_for(spec.type);
  Interp hi(hash_only);
  auto hr = hi.call("target", {{rf.secret_input}});
  rf.secret_const = hr.value;

  if (spec.point_test) {
    fn.body.push_back(s_if(
        e_bin(BinOp::Eq, e_var("state", spec.type),
              e_int(rf.secret_const)),
        {s_return(e_int(1))}, {s_return(e_int(0))}));
  } else {
    fn.body.push_back(s_return(e_var("state", spec.type)));
  }
  rf.module.functions.push_back(std::move(fn));
  return rf;
}

std::set<std::int64_t> reachable_probes(const RandomFun& rf) {
  std::set<std::int64_t> out;
  if (!rf.spec.probes) return out;
  Interp in(rf.module);
  auto run = [&](std::int64_t x) {
    auto r = in.call(rf.name, {{x}});
    out.insert(r.probes.begin(), r.probes.end());
  };
  Type t = rf.spec.type;
  if (type_size(t) == 1) {
    for (int v = 0; v < 256; ++v)
      run(static_cast<std::int64_t>(static_cast<std::int8_t>(v)));
  } else {
    Rng srng(rf.spec.seed ^ 0xc0ffee);
    for (int k = 0; k < 2048; ++k)
      run(static_cast<std::int64_t>(srng.next()) & mask_for(t));
    run(rf.secret_input);
    run(0);
    run(-1 & mask_for(t));
  }
  return out;
}

std::vector<RandomFunSpec> paper_suite(bool point_test, bool probes) {
  std::vector<RandomFunSpec> out;
  const Type types[] = {Type::I8, Type::I16, Type::I32, Type::I64};
  for (int control = 0; control < 6; ++control)
    for (Type t : types)
      for (std::uint64_t seed = 1; seed <= 3; ++seed)
        out.push_back(RandomFunSpec{control, t, seed, point_test, probes});
  return out;
}

}  // namespace raindrop::workload
