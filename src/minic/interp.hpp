// Reference interpreter for MiniC. Serves three roles:
//  1. semantic oracle for differential tests against compiled/rewritten
//     code (native vs ROP chain vs VM-obfuscated must all agree with it);
//  2. secret derivation for RandomFuns point tests (run the hash on a
//     chosen winning input, capture the state constant);
//  3. ground-truth coverage: workload::reachable_probes runs it over a
//     RandomFun's input space to find which probes are reachable.
//
// It is a tree walker over frame slots. The first call of a function
// resolves that function once, into a mirror of its AST: each param and
// declared local becomes a frame slot index, each global reference the
// index of that global, each call its callee. Calls then run over a
// vector of slots with no name lookups. Every slot carries its own
// "declared" bit and current type, which keeps MiniC's dynamic name
// rules: a Decl (re-)types its name from that point on, and a read of or
// an assignment to a name the frame has not declared yet reaches the
// global of that name.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "minic/ast.hpp"

namespace raindrop::minic {

struct InterpResult {
  bool ok = false;           // false: trap (div by zero, missing fn, ...)
  std::string error;
  std::int64_t value = 0;    // function return value
  std::vector<std::int64_t> probes;  // TRACE hits in execution order
  std::uint64_t steps = 0;   // statements executed (budget accounting)
};

class Interp {
 public:
  explicit Interp(const Module& m, std::uint64_t step_budget = 50'000'000);
  // The interpreter only borrows the module: binding a temporary would
  // dangle after the constructor returns.
  explicit Interp(Module&&, std::uint64_t = 0) = delete;
  ~Interp();

  // Calls `fn` with the given argument values. Globals persist across
  // calls on the same Interp instance (like a loaded process image).
  InterpResult call(const std::string& fn,
                    std::span<const std::int64_t> args);

 private:
  struct Slot {
    std::int64_t value = 0;
    Type type = Type::I64;
    bool declared = false;
  };
  struct RExpr;     // an Expr with its names resolved (interp.cpp)
  struct RStmt;     // a Stmt with its names resolved
  struct Code;      // one function resolved to frame slots
  class Resolver;
  enum class Flow { Normal, Break, Continue, Return };
  static constexpr int kMaxDepth = 64;

  const Code& code_for(const Function& f);
  std::int64_t enter(const Code& c, const std::int64_t* args,
                     std::size_t n_args);
  std::int64_t eval(const RExpr& e, Slot* f);
  Flow exec_block(const std::vector<RStmt>& body, Slot* f);
  Flow exec(const RStmt& s, Slot* f);
  void trap(const std::string& msg);

  const Module& mod_;
  std::uint64_t budget_;
  std::unordered_map<const Function*, std::unique_ptr<Code>> code_;
  // Name -> index of the first global of that name; globals_ holds each
  // named global's values at that index.
  std::map<std::string, std::size_t> global_index_;
  std::vector<std::vector<std::int64_t>> globals_;
  bool globals_init_ = false;
  // One frame per call depth, reused across calls.
  std::array<std::vector<Slot>, kMaxDepth + 1> frames_;
  std::vector<std::int64_t> args_;  // evaluated call arguments, stacked
  InterpResult* result_ = nullptr;
  std::int64_t retval_ = 0;
  bool trapped_ = false;
  int depth_ = 0;
};

}  // namespace raindrop::minic
