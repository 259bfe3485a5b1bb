// §VII-A reproduction: per-technique efficacy of the strengthening
// transformations against each attack class.
//   A1/A3 (SE):   native vs ROP-P1 vs ROP-P3 state-space cost
//   A2 (ROPMEMU): flag-flip exploration with and without P2
//   A2 (ROPDissector): stride scan + gadget guessing vs confusion
//   A3 (TDS):     trace simplification and the taint that survives
#include <cstdio>

#include "attack/ropdissector.hpp"
#include "attack/ropmemu.hpp"
#include "attack/se.hpp"
#include "attack/tds.hpp"
#include "bench_common.hpp"

using namespace raindrop;
using namespace raindrop::bench;

namespace {

workload::RandomFun make_target() {
  // §VII-A1 uses `for (if (bb 4) (bb 4))`-style functions; control 1
  // with a 1-byte input keeps the scaled experiment crisp.
  workload::RandomFunSpec spec;
  spec.control = 1;
  spec.type = minic::Type::I8;
  spec.seed = 1;
  return workload::make_random_fun(spec);
}

Image build_rop(const workload::RandomFun& rf, bool p1, bool p2, double k,
                bool confusion, std::uint64_t seed,
                rop::RewriteResult* res_out) {
  Image img = minic::compile(rf.module);
  rop::ObfConfig c;
  c.seed = seed;
  c.p1 = p1;
  c.p2 = p2;
  c.p3_fraction = k;
  c.gadget_confusion = confusion;
  c.confusion_bump_prob = 0.3;
  engine::ObfuscationEngine eng(&img, c);
  auto r = eng.obfuscate_module({rf.name}, 1).results.front();
  if (res_out) *res_out = r;
  return img;
}

}  // namespace

int main() {
  bool full = full_mode();
  double budget = full ? 30.0 : 6.0;
  auto rf = make_target();
  BenchJson json("efficacy");
  json.metric("budget_s", budget);

  std::printf("=== §VII-A efficacy: per-technique attack results ===\n\n");

  // ---- SE (A1/A3): symbolic execution with eager alias enumeration ----
  std::printf("[SE, G1 secret finding, budget %.0fs]\n", budget);
  struct SeRow {
    const char* name;
    bool p1;
    double k;
  } se_rows[] = {{"native", false, 0}, {"ROP-P1", true, 0},
                 {"ROP-P3(k=1)", false, 1.0}};
  for (auto& row : se_rows) {
    Image img = row.p1 || row.k > 0
                    ? build_rop(rf, row.p1, false, row.k, false, 21, nullptr)
                    : minic::compile(rf.module);
    LoadedImage li = img.load_shared();
    attack::SeConfig cfg;
    cfg.input_bytes = 1;
    auto out = attack::se_attack(li, img.function(rf.name)->addr, cfg,
                                 Deadline(budget));
    std::printf("  %-12s secret=%-3s  time=%6.2fs  states=%llu "
                "solver=%llu\n",
                row.name, out.success ? "YES" : "no", out.seconds,
                static_cast<unsigned long long>(out.states_forked),
                static_cast<unsigned long long>(out.solver_queries));
    std::fflush(stdout);
    json.metric(std::string("se_") + row.name + "_found",
                out.success ? 1 : 0);
    json.metric(std::string("se_") + row.name + "_seconds", out.seconds);
  }
  std::printf("  (paper: seconds native, >4500s / >24h once P1/P3 are "
              "on)\n\n");

  // ---- ROPMEMU (A2): dynamic flips vs P2 -------------------------------
  std::printf("[ROPMEMU-style multi-path exploration]\n");
  for (bool p2 : {false, true}) {
    rop::RewriteResult rr;
    Image img = build_rop(rf, false, p2, 0, false, 22, &rr);
    LoadedImage li = img.load_shared();
    auto out = attack::ropmemu_explore(li, img.function(rf.name)->addr,
                                       rr.chain_addr, rr.chain_size, 0x41,
                                       Deadline(budget));
    std::printf("  P2=%-3s  baseline-blocks=%llu  flips=%llu  "
                "revealing=%llu  derailed=%llu\n",
                p2 ? "on" : "off",
                static_cast<unsigned long long>(out.baseline_offsets),
                static_cast<unsigned long long>(out.flips_attempted),
                static_cast<unsigned long long>(out.flips_revealing),
                static_cast<unsigned long long>(out.flips_derailed));
    json.metric(p2 ? "ropmemu_p2_revealing" : "ropmemu_plain_revealing",
                static_cast<double>(out.flips_revealing));
    json.metric(p2 ? "ropmemu_p2_derailed" : "ropmemu_plain_derailed",
                static_cast<double>(out.flips_derailed));
  }
  std::printf("  (paper: with P2 ROPDissector/ROPMEMU reveal no blocks "
              "beyond the input-exercised ones)\n\n");

  // ---- ROPDissector (A2): static scan vs gadget confusion --------------
  std::printf("[ROPDissector-style static scan + gadget guessing]\n");
  for (bool confusion : {false, true}) {
    rop::RewriteResult rr;
    Image img = build_rop(rf, false, true, 0, confusion, 23, &rr);
    LoadedImage li = img.load_shared();
    auto out = attack::ropdissector_scan(li.mem, rr.chain_addr, rr.chain_size,
                                         kTextBase,
                                         img.section_end(".text"), true);
    std::printf("  confusion=%-3s  aligned-slots=%llu  branch-sites=%llu  "
                "guess-candidates=%llu\n",
                confusion ? "on" : "off",
                static_cast<unsigned long long>(out.aligned_slots),
                static_cast<unsigned long long>(out.branch_sites),
                static_cast<unsigned long long>(out.guess_starts));
    json.metric(confusion ? "dissector_confusion_guesses"
                          : "dissector_plain_guesses",
                static_cast<double>(out.guess_starts));
  }
  std::printf("  (paper: guessing explodes with many short unaligned "
              "candidates, hard to tell from P2-protected true "
              "positives)\n\n");

  // ---- TDS (A3): simplification and surviving taint --------------------
  std::printf("[TDS trace simplification]\n");
  {
    Image plain = build_rop(rf, true, false, 0, false, 24, nullptr);
    LoadedImage pm = plain.load_shared();
    auto t0 = attack::tds_simplify(pm, plain.function(rf.name)->addr, 0x41,
                                   1);
    Image p3 = build_rop(rf, true, false, 1.0, false, 25, nullptr);
    LoadedImage qm = p3.load_shared();
    auto t1 = attack::tds_simplify(qm, p3.function(rf.name)->addr, 0x41, 1);
    std::printf("  ROP-P1:      trace=%-8llu reduction=%4.1f%%  "
                "tainted-branches=%llu\n",
                static_cast<unsigned long long>(t0.trace_len),
                100 * t0.reduction,
                static_cast<unsigned long long>(t0.tainted_branches));
    std::printf("  ROP-P1+P3:   trace=%-8llu reduction=%4.1f%%  "
                "tainted-branches=%llu\n",
                static_cast<unsigned long long>(t1.trace_len),
                100 * t1.reduction,
                static_cast<unsigned long long>(t1.tainted_branches));
    json.metric("tds_p1_tainted_branches",
                static_cast<double>(t0.tainted_branches));
    json.metric("tds_p1p3_tainted_branches",
                static_cast<double>(t1.tainted_branches));
  }
  std::printf("  (paper: P3's input-tainted control dependencies are "
              "non-simplifiable, so TDS+DSE symbiosis does not ease the "
              "attack)\n");
  emit_cpu_throughput(json);
  emit_analysis_cache(json);
  json.write();
  return 0;
}
