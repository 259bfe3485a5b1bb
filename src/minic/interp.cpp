#include "minic/interp.hpp"

namespace raindrop::minic {

namespace {
// Wraps to `t` and extends by its signedness (modular conversions).
std::int64_t truncate_to(Type t, std::int64_t v) {
  switch (t) {
    case Type::I8: return static_cast<std::int8_t>(v);
    case Type::U8: return static_cast<std::uint8_t>(v);
    case Type::I16: return static_cast<std::int16_t>(v);
    case Type::U16: return static_cast<std::uint16_t>(v);
    case Type::I32: return static_cast<std::int32_t>(v);
    case Type::U32: return static_cast<std::uint32_t>(v);
    case Type::I64: case Type::U64: return v;
  }
  return v;
}
}  // namespace

struct Interp::RExpr {
  Expr::Kind kind = Expr::Kind::Int;
  Type type = Type::I64;      // Cast target
  UnOp uop = UnOp::Neg;
  BinOp bop = BinOp::Add;
  bool sgn = false;           // Binary: the left operand's type is signed
  std::int64_t ival = 0;
  std::int32_t slot = -1;     // Var: frame slot, if the function declares it
  std::int32_t global = -1;   // Var/Index: the global of that name
  const std::string* name = nullptr;  // for trap messages
  std::unique_ptr<RExpr> a, b;
  std::vector<RExpr> args;             // Call
  const Function* callee = nullptr;    // Call; null: no such function
  mutable const Code* code = nullptr;  // callee, resolved on its first call
};

struct Interp::RStmt {
  Stmt::Kind kind = Stmt::Kind::ExprSt;
  Type type = Type::I64;      // Decl
  std::int64_t ival = 0;      // Trace
  std::int32_t slot = -1;     // Decl/Assign target's frame slot
  std::int32_t global = -1;   // Assign target's global
  const std::string* name = nullptr;
  std::unique_ptr<RExpr> index, value, cond;
  std::vector<RStmt> then_body, else_body, default_body;
  std::vector<std::pair<std::int64_t, std::vector<RStmt>>> cases;
};

struct Interp::Code {
  const Function* fn = nullptr;
  std::vector<std::int32_t> params;  // frame slot of each param
  std::size_t n_slots = 0;
  std::vector<RStmt> body;
};

// Builds a function's Code: one slot per distinct param or Decl name
// anywhere in the body, assigned before any use is resolved, so a use
// that runs before its Decl (say, in a loop's next iteration) still finds
// the slot and its declared bit decides at run time.
class Interp::Resolver {
 public:
  Resolver(const Module& m, const std::map<std::string, std::size_t>& globals)
      : mod_(m), globals_(globals) {}

  std::unique_ptr<Code> function(const Function& f) {
    auto c = std::make_unique<Code>();
    c->fn = &f;
    for (const Param& p : f.params) c->params.push_back(declare(p.name));
    declare_all(f.body);
    c->n_slots = slots_.size();
    c->body = block(f.body);
    return c;
  }

 private:
  std::int32_t declare(const std::string& name) {
    auto next = static_cast<std::int32_t>(slots_.size());
    return slots_.try_emplace(name, next).first->second;
  }

  void declare_all(const std::vector<StmtPtr>& body) {
    for (const StmtPtr& s : body) {
      if (s->kind == Stmt::Kind::Decl) declare(s->name);
      declare_all(s->then_body);
      declare_all(s->else_body);
      for (const SwitchCase& c : s->cases) declare_all(c.body);
      declare_all(s->default_body);
    }
  }

  std::int32_t slot(const std::string& name) const {
    auto it = slots_.find(name);
    return it == slots_.end() ? -1 : it->second;
  }

  std::int32_t global(const std::string& name) const {
    auto it = globals_.find(name);
    return it == globals_.end() ? -1 : static_cast<std::int32_t>(it->second);
  }

  std::unique_ptr<RExpr> expr_ptr(const ExprPtr& e) {
    return e ? std::make_unique<RExpr>(expr(*e)) : nullptr;
  }

  RExpr expr(const Expr& e) {
    RExpr r;
    r.kind = e.kind;
    r.type = e.type;
    r.uop = e.uop;
    r.bop = e.bop;
    r.ival = e.ival;
    r.name = &e.name;
    switch (e.kind) {
      case Expr::Kind::Var:
        r.slot = slot(e.name);
        r.global = global(e.name);
        break;
      case Expr::Kind::Index:
        r.global = global(e.name);
        break;
      case Expr::Kind::Binary:
        r.sgn = type_signed(e.a->type);
        break;
      case Expr::Kind::Call:
        r.callee = mod_.function(e.name);
        for (const ExprPtr& a : e.args) r.args.push_back(expr(*a));
        break;
      default:
        break;
    }
    r.a = expr_ptr(e.a);
    r.b = expr_ptr(e.b);
    return r;
  }

  std::vector<RStmt> block(const std::vector<StmtPtr>& body) {
    std::vector<RStmt> out;
    out.reserve(body.size());
    for (const StmtPtr& s : body) out.push_back(stmt(*s));
    return out;
  }

  RStmt stmt(const Stmt& s) {
    RStmt r;
    r.kind = s.kind;
    r.type = s.type;
    r.ival = s.ival;
    r.name = &s.name;
    if (s.kind == Stmt::Kind::Decl || s.kind == Stmt::Kind::Assign) {
      r.slot = slot(s.name);
      r.global = global(s.name);
    }
    r.index = expr_ptr(s.index);
    r.value = expr_ptr(s.value);
    r.cond = expr_ptr(s.cond);
    r.then_body = block(s.then_body);
    r.else_body = block(s.else_body);
    for (const SwitchCase& c : s.cases)
      r.cases.emplace_back(c.value, block(c.body));
    r.default_body = block(s.default_body);
    return r;
  }

  const Module& mod_;
  const std::map<std::string, std::size_t>& globals_;
  std::map<std::string, std::int32_t> slots_;
};

Interp::Interp(const Module& m, std::uint64_t step_budget)
    : mod_(m), budget_(step_budget) {}

Interp::~Interp() = default;

void Interp::trap(const std::string& msg) {
  if (!trapped_) {
    trapped_ = true;
    result_->ok = false;
    result_->error = msg;
  }
}

const Interp::Code& Interp::code_for(const Function& f) {
  std::unique_ptr<Code>& c = code_[&f];
  if (!c) c = Resolver(mod_, global_index_).function(f);
  return *c;
}

InterpResult Interp::call(const std::string& fn,
                          std::span<const std::int64_t> args) {
  InterpResult res;
  if (!globals_init_) {
    globals_init_ = true;
    globals_.resize(mod_.globals.size());
    for (std::size_t i = 0; i < mod_.globals.size(); ++i) {
      const Global& g = mod_.globals[i];
      auto& store = globals_[global_index_.emplace(g.name, i).first->second];
      store.assign(g.count, 0);
      for (std::size_t k = 0; k < g.init.size() && k < g.count; ++k)
        store[k] = truncate_to(g.elem, g.init[k]);
    }
  }
  const Function* f = mod_.function(fn);
  if (!f) {
    res.error = "no such function: " + fn;
    return res;
  }
  result_ = &res;
  trapped_ = false;
  res.ok = true;
  res.value = enter(code_for(*f), args.data(), args.size());
  result_ = nullptr;
  return res;
}

// Runs one call of `c` in a fresh frame one level deeper. Calls share the
// globals and the result accumulator.
std::int64_t Interp::enter(const Code& c, const std::int64_t* args,
                           std::size_t n_args) {
  std::int64_t saved_ret = retval_;
  retval_ = 0;
  if (++depth_ > kMaxDepth) {
    trap("interp recursion limit");
  } else {
    std::vector<Slot>& frame = frames_[depth_];
    frame.assign(c.n_slots, Slot{});
    for (std::size_t i = 0; i < c.params.size(); ++i) {
      Type t = c.fn->params[i].type;
      frame[c.params[i]] =
          Slot{truncate_to(t, i < n_args ? args[i] : 0), t, true};
    }
    exec_block(c.body, frame.data());
  }
  --depth_;
  std::int64_t out = truncate_to(c.fn->ret, retval_);
  retval_ = saved_ret;
  return out;
}

std::int64_t Interp::eval(const RExpr& e, Slot* f) {
  if (trapped_) return 0;
  if (++result_->steps > budget_) {
    trap("interp budget exceeded");
    return 0;
  }
  switch (e.kind) {
    case Expr::Kind::Int:
      return e.ival;
    case Expr::Kind::Var: {
      if (e.slot >= 0 && f[e.slot].declared) return f[e.slot].value;
      if (e.global >= 0 && !globals_[e.global].empty())
        return globals_[e.global][0];
      trap("unbound variable " + *e.name);
      return 0;
    }
    case Expr::Kind::Index: {
      if (e.global < 0) {
        trap("no such array " + *e.name);
        return 0;
      }
      const std::vector<std::int64_t>& g = globals_[e.global];
      std::uint64_t idx = static_cast<std::uint64_t>(eval(*e.a, f));
      if (idx >= g.size()) {
        trap("array index out of bounds");
        return 0;
      }
      return g[idx];
    }
    case Expr::Kind::Unary: {
      std::int64_t a = eval(*e.a, f);
      switch (e.uop) {
        case UnOp::Neg:
          return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(a));
        case UnOp::Not:
          return ~a;
        case UnOp::LNot:
          return a == 0 ? 1 : 0;
      }
      return 0;
    }
    case Expr::Kind::Binary: {
      // Short-circuit forms first.
      if (e.bop == BinOp::LAnd) {
        return eval(*e.a, f) != 0 && eval(*e.b, f) != 0 ? 1 : 0;
      }
      if (e.bop == BinOp::LOr) {
        return eval(*e.a, f) != 0 || eval(*e.b, f) != 0 ? 1 : 0;
      }
      std::int64_t a = eval(*e.a, f);
      std::int64_t b = eval(*e.b, f);
      std::uint64_t ua = static_cast<std::uint64_t>(a);
      std::uint64_t ub = static_cast<std::uint64_t>(b);
      bool sgn = e.sgn;
      switch (e.bop) {
        case BinOp::Add: return static_cast<std::int64_t>(ua + ub);
        case BinOp::Sub: return static_cast<std::int64_t>(ua - ub);
        case BinOp::Mul: return static_cast<std::int64_t>(ua * ub);
        case BinOp::Div:
          if (ub == 0) { trap("division by zero"); return 0; }
          return static_cast<std::int64_t>(ua / ub);
        case BinOp::Rem:
          if (ub == 0) { trap("division by zero"); return 0; }
          return static_cast<std::int64_t>(ua % ub);
        case BinOp::And: return a & b;
        case BinOp::Or: return a | b;
        case BinOp::Xor: return a ^ b;
        case BinOp::Shl: return static_cast<std::int64_t>(ua << (ub & 63));
        case BinOp::Shr:
          if (sgn) return a >> (ub & 63);
          return static_cast<std::int64_t>(ua >> (ub & 63));
        case BinOp::Eq: return a == b ? 1 : 0;
        case BinOp::Ne: return a != b ? 1 : 0;
        case BinOp::Lt: return (sgn ? a < b : ua < ub) ? 1 : 0;
        case BinOp::Le: return (sgn ? a <= b : ua <= ub) ? 1 : 0;
        case BinOp::Gt: return (sgn ? a > b : ua > ub) ? 1 : 0;
        case BinOp::Ge: return (sgn ? a >= b : ua >= ub) ? 1 : 0;
        case BinOp::LAnd: case BinOp::LOr: break;  // handled above
      }
      return 0;
    }
    case Expr::Kind::Call: {
      if (!e.callee) {
        trap("no such function " + *e.name);
        return 0;
      }
      // Arguments stack up in args_: evaluating one may itself call.
      std::size_t base = args_.size();
      for (const RExpr& a : e.args) args_.push_back(eval(a, f));
      std::int64_t out = 0;
      if (!trapped_) {
        if (!e.code) e.code = &code_for(*e.callee);
        out = enter(*e.code, args_.data() + base, e.args.size());
      }
      args_.resize(base);
      return out;
    }
    case Expr::Kind::Cast:
      return truncate_to(e.type, eval(*e.a, f));
  }
  return 0;
}

Interp::Flow Interp::exec_block(const std::vector<RStmt>& body, Slot* f) {
  for (const RStmt& s : body) {
    Flow fl = exec(s, f);
    if (trapped_) return Flow::Return;
    if (fl != Flow::Normal) return fl;
  }
  return Flow::Normal;
}

Interp::Flow Interp::exec(const RStmt& s, Slot* f) {
  if (trapped_) return Flow::Return;
  if (++result_->steps > budget_) {
    trap("interp budget exceeded");
    return Flow::Return;
  }
  switch (s.kind) {
    case Stmt::Kind::Decl: {
      std::int64_t v = s.value ? eval(*s.value, f) : 0;
      f[s.slot] = Slot{truncate_to(s.type, v), s.type, true};
      return Flow::Normal;
    }
    case Stmt::Kind::Assign: {
      std::int64_t v = eval(*s.value, f);
      if (s.index) {
        if (s.global < 0) {
          trap("no such array " + *s.name);
          return Flow::Return;
        }
        std::vector<std::int64_t>& g = globals_[s.global];
        std::uint64_t idx = static_cast<std::uint64_t>(eval(*s.index, f));
        if (idx >= g.size()) {
          trap("array index out of bounds");
          return Flow::Return;
        }
        g[idx] = truncate_to(mod_.globals[s.global].elem, v);
        return Flow::Normal;
      }
      if (s.slot >= 0 && f[s.slot].declared) {
        // Assignments truncate to the declared type, like C. Codegen
        // mirrors this with a movsx/movzx before the frame-slot store.
        f[s.slot].value = truncate_to(f[s.slot].type, v);
        return Flow::Normal;
      }
      if (s.global >= 0 && !globals_[s.global].empty()) {
        globals_[s.global][0] = truncate_to(mod_.globals[s.global].elem, v);
        return Flow::Normal;
      }
      trap("assign to unbound " + *s.name);
      return Flow::Return;
    }
    case Stmt::Kind::ExprSt:
      if (s.value) eval(*s.value, f);
      return Flow::Normal;
    case Stmt::Kind::If:
      if (eval(*s.cond, f) != 0) return exec_block(s.then_body, f);
      return exec_block(s.else_body, f);
    case Stmt::Kind::While:
      while (!trapped_ && eval(*s.cond, f) != 0) {
        Flow fl = exec_block(s.then_body, f);
        if (fl == Flow::Break) break;
        if (fl == Flow::Return) return fl;
        if (++result_->steps > budget_) {
          trap("interp budget exceeded");
          return Flow::Return;
        }
      }
      return Flow::Normal;
    case Stmt::Kind::DoWhile:
      do {
        Flow fl = exec_block(s.then_body, f);
        if (fl == Flow::Break) break;
        if (fl == Flow::Return) return fl;
        if (++result_->steps > budget_) {
          trap("interp budget exceeded");
          return Flow::Return;
        }
      } while (!trapped_ && eval(*s.cond, f) != 0);
      return Flow::Normal;
    case Stmt::Kind::Switch: {
      // Lowering places the default block after the last case, so falling
      // through the final case enters `default` -- C semantics when the
      // default label is written last, which is what codegen implements.
      std::int64_t v = eval(*s.cond, f);
      bool matched = false;
      for (const auto& [value, body] : s.cases) {
        if (!matched && value != v) continue;
        matched = true;  // fallthrough into following cases
        Flow fl = exec_block(body, f);
        if (fl == Flow::Break) return Flow::Normal;
        if (fl == Flow::Return || fl == Flow::Continue) return fl;
      }
      Flow fl = exec_block(s.default_body, f);
      if (fl == Flow::Break) return Flow::Normal;
      if (fl == Flow::Return || fl == Flow::Continue) return fl;
      return Flow::Normal;
    }
    case Stmt::Kind::Return:
      retval_ = s.value ? eval(*s.value, f) : 0;
      return Flow::Return;
    case Stmt::Kind::Break:
      return Flow::Break;
    case Stmt::Kind::Continue:
      return Flow::Continue;
    case Stmt::Kind::Trace:
      result_->probes.push_back(s.ival);
      return Flow::Normal;
    case Stmt::Kind::RawAsm:
      // Raw machine fragments have no source-level semantics; the corpus
      // only uses side-effect-free patterns, so the interpreter skips them.
      return Flow::Normal;
  }
  return Flow::Normal;
}

}  // namespace raindrop::minic
