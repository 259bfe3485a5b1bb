// Quickstart: compile a tiny function, ROP-rewrite it with the full
// predicate stack, and show that native and chain executions agree --
// then dump the first chain entries, Figure-1 style.
//
// This drives the one-shot engine facade; for the streaming,
// multi-client front door (sessions, JobHandles, the craft/commit
// pipeline) see examples/service_demo.cpp.
#include <cstdio>

#include "engine/engine.hpp"
#include "gadgets/catalog.hpp"
#include "image/image.hpp"
#include "isa/print.hpp"
#include "minic/codegen.hpp"

using namespace raindrop;
using namespace raindrop::minic;

int main() {
  // int checked(long x) { return x == 0 ? 1 : 2; }  (the paper's Fig. 1)
  Module mod;
  mod.functions.push_back(Function{
      "checked",
      Type::I64,
      {{"x", Type::I64}},
      {s_if(e_bin(BinOp::Eq, e_var("x"), e_int(0)),
            {s_return(e_int(1))}, {s_return(e_int(2))})}});

  Image img = compile(mod);
  std::printf("compiled 'checked' at 0x%llx (%llu bytes)\n",
              (unsigned long long)img.function("checked")->addr,
              (unsigned long long)img.function("checked")->size);

  rop::ObfConfig cfg = rop::rop_k(/*k=*/0.5, /*seed=*/42);
  engine::ObfuscationEngine rewriter(&img, cfg);
  auto res = rewriter.obfuscate_module({"checked"}, /*threads=*/1)
                 .results.front();
  if (!res.ok) {
    std::printf("rewrite failed: %s\n", res.detail.c_str());
    return 1;
  }
  std::printf("rewritten: chain at 0x%llx, %llu bytes, %zu gadgets "
              "(%zu unique), %.1f gadgets/instruction\n",
              (unsigned long long)res.chain_addr,
              (unsigned long long)res.chain_size, res.stats.gadget_slots,
              res.stats.unique_gadgets, res.stats.gadgets_per_point);

  LoadedImage li = img.load_shared();
  for (std::int64_t x : {0ll, 7ll, -7ll}) {
    auto r = call_function(li, img.function("checked")->addr,
                           {{static_cast<std::uint64_t>(x)}});
    std::printf("checked(%3lld) = %lld  [%llu instructions through the "
                "chain]\n",
                (long long)x, (long long)r.rax,
                (unsigned long long)r.insns);
  }

  std::printf("\nfirst chain entries (gadget addresses + data operands):\n");
  for (std::uint64_t off = 0; off < 96 && off < res.chain_size; off += 8) {
    std::uint64_t q = li.mem.read_u64(res.chain_addr + off);
    const gadgets::Gadget* g = rewriter.pool().at(q);
    std::printf("  +0x%02llx: %016llx", (unsigned long long)off,
                (unsigned long long)q);
    if (g) {
      std::printf("   ; ");
      for (auto& i : g->body) std::printf("%s; ", isa::to_string(i).c_str());
      std::printf("%s", g->jop ? "jmp" : "ret");
    }
    std::printf("\n");
  }
  return 0;
}
