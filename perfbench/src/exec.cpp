// exec_fig5: the Figure 5 executions. Every clbg kernel is built native,
// 2VM-IMPlast and ROP0.05/0.50/1.00 during set-up; the timed phase calls
// each build's entry point through call_function on a load_shared()
// image, in the plan's order, and checks every return value against the
// MiniC reference interpreter.
//
// Plan records:
//   kernel <name> <arg> <rop_seed> <vm_seed>
//   call <kernel index> <build index>      (one pass, in order)
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "minic/interp.hpp"
#include "vmobf/vmobf.hpp"
#include "workload/clbg.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace raindrop;

namespace {

constexpr std::uint64_t kBudget = 60'000'000'000ull;

enum Kind { kNative = 0, kVm = 1, kRop = 2 };
const char* const kKindName[] = {"native", "vm", "rop"};

struct BuildSpec {
  const char* label;
  Kind kind;
  double rop_k;
};
const BuildSpec kBuilds[] = {{"native", kNative, 0.0},
                             {"2VM-IMPlast", kVm, 0.0},
                             {"ROP0.05", kRop, 0.05},
                             {"ROP0.50", kRop, 0.50},
                             {"ROP1.00", kRop, 1.00}};
constexpr int kNumBuilds = 5;

struct Build {
  LoadedImage li;
  std::uint64_t entry = 0;
};

struct Kernel {
  std::string name;
  std::int64_t arg = 0;
  std::int64_t expected = 0;  // minic::Interp's return value
  std::vector<Build> builds;  // indexed like kBuilds
};

struct Setup {
  std::vector<Kernel> kernels;
  bool ok = true;
  std::string why;
};

Image traced_compile(const minic::Module& m) {
  Scope s("minic.compile");
  return minic::compile(m);
}

Setup build_all(const Plan& plan) {
  Setup out;
  const std::vector<workload::ClbgBench> suite = workload::clbg_suite();
  for (const auto& item : plan.items) {
    if (item[0] != "kernel") continue;
    const workload::ClbgBench* b = nullptr;
    for (const auto& cand : suite)
      if (cand.name == item.at(1)) b = &cand;
    if (!b) {
      out.ok = false;
      out.why = "unknown kernel " + item.at(1);
      return out;
    }
    Kernel k;
    k.name = b->name;
    k.arg = to_int(item.at(2));
    const std::uint64_t rop_seed = to_int(item.at(3));
    const std::uint64_t vm_seed = to_int(item.at(4));
    {
      Scope s("minic.interp");
      minic::Interp interp(b->module);
      std::int64_t args[1] = {k.arg};
      minic::InterpResult r = interp.call(b->entry, args);
      if (!r.ok) {
        out.ok = false;
        out.why = k.name + ": reference interpreter trapped: " + r.error;
        return out;
      }
      k.expected = r.value;
    }
    for (const BuildSpec& spec : kBuilds) {
      Image img;
      if (spec.kind == kVm) {
        minic::Module mod = b->module;
        bool ok = true;
        {
          Scope s("vmobf.virtualize");
          for (const auto& f : b->obfuscate)
            ok &= vmobf::virtualize_layers(mod, f, 2, vmobf::ImpWhere::Last,
                                           vm_seed);
        }
        if (!ok) {
          out.ok = false;
          out.why = k.name + ": virtualize_layers failed";
          return out;
        }
        img = traced_compile(mod);
      } else {
        img = traced_compile(b->module);
      }
      if (spec.kind == kRop) {
        Scope s("engine.obfuscate");
        engine::ObfuscationEngine eng(
            &img, rop::rop_k(spec.rop_k, rop_seed),
            std::make_shared<analysis::AnalysisCache>());
        engine::ModuleResult mr = eng.obfuscate_module(b->obfuscate,
                                                       plan.threads);
        if (mr.ok_count != b->obfuscate.size()) {
          out.ok = false;
          out.why = k.name + " " + spec.label + ": rewrite failed";
          return out;
        }
      }
      Build bd;
      {
        Scope s("image.load_shared");
        bd.li = img.load_shared();
      }
      bd.entry = img.function(b->entry)->addr;
      k.builds.push_back(std::move(bd));
    }
    out.kernels.push_back(std::move(k));
  }
  return out;
}

// call_function(LoadedImage) spelled out through the public Cpu API, so
// the traced run can span the clone + cache import apart from the run
// and read the Cpu's dispatch counters.
CallResult traced_call(const Build& b, std::uint64_t arg, Kind kind,
                       long job, Cpu::CacheStats* stats) {
  Memory mem;
  std::unique_ptr<Cpu> cpu;
  {
    Scope s("image.clone_import", job);
    mem = b.li.mem.clone();
    cpu = std::make_unique<Cpu>(&mem);
    cpu->import_cache(b.li.cache);
  }
  cpu->set_reg(isa::Reg::RDI, arg);
  std::uint64_t rsp = kStackBase + kStackSize - 64 - 8;
  mem.write_u64(rsp, kHltPad);
  cpu->set_reg(isa::Reg::RSP, rsp);
  cpu->set_rip(b.entry);
  CallResult r;
  {
    static const char* const kRunSpan[] = {"cpu.native.run", "cpu.vm.run",
                                           "cpu.rop.run"};
    Scope s(kRunSpan[kind], job);
    r.status = cpu->run(kBudget);
  }
  r.rax = cpu->reg(isa::Reg::RAX);
  r.insns = cpu->insn_count();
  const Cpu::CacheStats& cs = cpu->cache_stats();
  stats->blocks_built += cs.blocks_built;
  stats->stale_redecodes += cs.stale_redecodes;
  stats->dispatches += cs.dispatches;
  stats->chain_hits += cs.chain_hits;
  stats->central_dispatches += cs.central_dispatches;
  stats->lowered_dispatches += cs.lowered_dispatches;
  stats->arena_dispatches += cs.arena_dispatches;
  stats->fused_execs += cs.fused_execs;
  return r;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int run_exec(const Plan& plan, Raw& raw) {
  Setup setup = repeated_setup(raw, [&] { return build_all(plan); });
  if (!setup.ok) {
    raw.fail(setup.why);
    return 1;
  }
  std::vector<std::pair<int, int>> order;
  for (const auto& item : plan.items)
    if (item[0] == "call")
      order.emplace_back(static_cast<int>(to_int(item.at(1))),
                         static_cast<int>(to_int(item.at(2))));

  // Call times per (kernel, build) slot, per half of the timed phase.
  SlotTimes times;
  Cpu::CacheStats kind_stats[3] = {};
  // Instructions per (kernel, build) on the first pass: exact counts.
  std::vector<std::vector<std::uint64_t>> first_insns(
      setup.kernels.size(), std::vector<std::uint64_t>(kNumBuilds, 0));
  int passes = 0, traced_passes = 0;
  long call_id = 0;

  run_timed(plan, raw, [&](std::vector<double>* samples) {
    const bool traced = tracer().on();
    PassResult pr;
    for (auto [ki, bi] : order) {
      const Kernel& k = setup.kernels.at(static_cast<std::size_t>(ki));
      const Build& b = k.builds.at(static_cast<std::size_t>(bi));
      const Kind kind = kBuilds[bi].kind;
      const std::uint64_t arg = static_cast<std::uint64_t>(k.arg);
      ++raw.attempted;
      double t0 = now_s();
      CallResult r = traced
                         ? traced_call(b, arg, kind, call_id, &kind_stats[kind])
                         : call_function(b.li, b.entry, {&arg, 1}, kBudget);
      double dt = now_s() - t0;
      ++call_id;
      samples->push_back(dt * 1e3);
      pr.seconds += dt;
      pr.work += static_cast<double>(r.insns);
      if (r.status != CpuStatus::kHalted) {
        raw.fail(k.name + " " + kBuilds[bi].label + ": did not halt");
      } else if (static_cast<std::int64_t>(r.rax) != k.expected) {
        raw.fail(k.name + " " + kBuilds[bi].label + ": returned " +
                 std::to_string(static_cast<std::int64_t>(r.rax)) +
                 ", reference " + std::to_string(k.expected));
      }
      if (passes == 0) first_insns[ki][bi] = r.insns;
      times.add(traced, ki * kNumBuilds + bi, dt);
    }
    ++passes;
    if (traced) ++traced_passes;
    return pr;
  });

  // Figure 5's y-axis: geomean over kernels x k of ROPk / 2VM-IMPlast
  // executed instructions.
  double log_sum = 0.0;
  int n = 0;
  for (const auto& row : first_insns)
    for (int bi = 0; bi < kNumBuilds; ++bi)
      if (kBuilds[bi].kind == kRop && row[kVm] > 0 && row[bi] > 0) {
        log_sum += std::log(static_cast<double>(row[bi]) /
                            static_cast<double>(row[kVm]));
        ++n;
      }
  auto& c = raw.counters;
  c["exec.rop_vs_2vm_insns"] = n ? std::exp(log_sum / n) : 0.0;
  c["exec.calls_per_pass"] = static_cast<double>(order.size());

  // Throughput of a typical pass: its instructions over the sum of each
  // call's median time across the passes, overall and per build kind.
  double insns[3] = {}, median_s[3][2] = {};
  for (auto [ki, bi] : order) {
    const Kind kind = kBuilds[bi].kind;
    insns[kind] += static_cast<double>(first_insns[ki][bi]);
    for (int half = 0; half < 2; ++half)
      median_s[kind][half] += times.median(half, ki * kNumBuilds + bi);
  }
  const int measured = plan.trace ? 1 : 0;
  auto rate = [&](int half) {
    return ratio(insns[0] + insns[1] + insns[2],
                 median_s[0][half] + median_s[1][half] + median_s[2][half]);
  };
  raw.rate = rate(measured);
  raw.untraced_rate = rate(0);
  for (int kind = 0; kind < 3; ++kind) {
    std::string p = std::string("cpu.") + kKindName[kind] + ".";
    c[p + "insns"] = insns[kind];
    c[p + "minsns_per_s"] = ratio(insns[kind], median_s[kind][measured]) / 1e6;
    if (kind == kNative) continue;
    const Cpu::CacheStats& s = kind_stats[kind];
    const double tp = traced_passes ? traced_passes : 1;
    c[p + "chain_hit_rate"] =
        ratio(s.chain_hits, s.chain_hits + s.central_dispatches);
    c[p + "lowered_share"] = ratio(s.lowered_dispatches, s.dispatches);
    c[p + "fused_share"] = ratio(2.0 * s.fused_execs, insns[kind] * tp);
    c[p + "arena_share"] = ratio(s.arena_dispatches, s.lowered_dispatches);
    c[p + "blocks_built"] = s.blocks_built / tp;
    c[p + "stale_redecodes"] = s.stale_redecodes / tp;
    c[p + "central_dispatches"] = s.central_dispatches / tp;
  }
  return 0;
}

}  // namespace perfbench
