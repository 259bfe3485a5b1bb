// License-check scenario (the paper's G1 motivation): a key-validation
// routine is protected with ROPk, and we measure how a DSE attacker
// fares against the native build vs the protected build.
#include <cstdio>

#include "attack/dse.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "workload/randomfuns.hpp"

using namespace raindrop;

int main() {
  // A RandomFuns-style validator: returns 1 only for the right key.
  workload::RandomFunSpec spec;
  spec.control = 1;  // (for (if (bb 4) (bb 4)))
  spec.type = minic::Type::I16;
  spec.seed = 77;
  auto rf = workload::make_random_fun(spec);
  std::printf("license validator generated; a valid key is 0x%llx\n",
              (unsigned long long)rf.secret_input);

  auto attempt = [&](const char* label, Image& img, double budget) {
    LoadedImage li = img.load_shared();
    attack::DseConfig cfg;
    cfg.input_bytes = 2;
    auto out = attack::dse_attack(li, img.function(rf.name)->addr, cfg,
                                  Deadline(budget));
    if (out.success) {
      auto check = call_function(li, img.function(rf.name)->addr,
                                 {{out.secret}});
      std::printf("%-10s attacker FOUND key 0x%llx in %.1fs "
                  "(%llu traces, verification -> %lld)\n",
                  label, (unsigned long long)out.secret, out.seconds,
                  (unsigned long long)out.traces, (long long)check.rax);
    } else {
      std::printf("%-10s attacker gave up after %.1fs (%llu traces, "
                  "%llu solver queries)\n",
                  label, out.seconds, (unsigned long long)out.traces,
                  (unsigned long long)out.solver_queries);
    }
  };

  Image native = minic::compile(rf.module);
  attempt("native:", native, 20.0);

  Image prot = minic::compile(rf.module);
  engine::ObfuscationEngine rw(&prot, rop::rop_k(1.0, 99));
  auto res = rw.obfuscate_module({rf.name}, 1).results.front();
  if (!res.ok) {
    std::printf("rewrite failed: %s\n", res.detail.c_str());
    return 1;
  }
  std::printf("protected with ROP k=1.00 (P1+P2+P3+confusion), chain "
              "%llu bytes\n",
              (unsigned long long)res.chain_size);
  // Sanity: the protected binary still validates the real key.
  LoadedImage prot_li = prot.load_shared();
  auto ok = call_function(prot_li, prot.function(rf.name)->addr,
                          {{static_cast<std::uint64_t>(rf.secret_input)}});
  std::printf("protected validator accepts the real key: %s\n",
              ok.rax == 1 ? "yes" : "NO (bug!)");
  attempt("ROP1.00:", prot, 20.0);
  return 0;
}
