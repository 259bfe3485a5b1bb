// attack_dse: DSE G1 secret finding (dse_attack on load_shared() images)
// over the pinned RandomFuns targets, NATIVE and ROP0.05. Every attack
// must find a secret that makes the target return 1 when re-run, and
// must spend exactly the pinned number of traces and solver queries.
//
// Plan records:
//   target <control> <input bytes> <seed> <NATIVE|ROP0.05> <obf seed>
//          <traces> <solver queries>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/dse.hpp"
#include "attack/shadow.hpp"
#include "common.hpp"
#include "engine/engine.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "solver/expr.hpp"
#include "workload/randomfuns.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace raindrop;

namespace {

constexpr double kDeadlineS = 10.0;

struct Target {
  std::string label;
  LoadedImage li;
  std::uint64_t entry = 0;
  int input_bytes = 1;
  std::uint64_t traces = 0, queries = 0;  // pinned
};

minic::Type type_of(int bytes) {
  switch (bytes) {
    case 1: return minic::Type::I8;
    case 2: return minic::Type::I16;
    case 4: return minic::Type::I32;
    default: return minic::Type::I64;
  }
}

attack::DseConfig dse_config(const Target& t) {
  attack::DseConfig g;
  g.input_bytes = t.input_bytes;
  g.goal = attack::Goal::kSecretFinding;
  g.max_trace_insns = 20'000'000;
  return g;
}

std::vector<Target> build_targets(const Plan& plan) {
  std::vector<Target> out;
  for (const auto& item : plan.items) {
    if (item[0] != "target") continue;
    workload::RandomFunSpec spec;
    spec.control = static_cast<int>(to_int(item.at(1)));
    spec.type = type_of(static_cast<int>(to_int(item.at(2))));
    spec.seed = to_int(item.at(3));
    const std::string& config = item.at(4);
    Target t;
    t.label = "c" + item[1] + "/i" + item[2] + "/s" + item[3] + "/" + config;
    t.input_bytes = minic::type_size(spec.type);
    t.traces = to_int(item.at(6));
    t.queries = to_int(item.at(7));
    workload::RandomFun rf;
    {
      Scope s("workload.generate");
      rf = workload::make_random_fun(spec);
    }
    Image img;
    {
      Scope s("minic.compile");
      img = minic::compile(rf.module);
    }
    if (config != "NATIVE") {
      // Table II setup (§VII-B): P1 + P3 variant 1 at k = 0.05; P2 and
      // gadget confusion off.
      rop::ObfConfig c;
      c.seed = to_int(item.at(5));
      c.p1 = true;
      c.p2 = false;
      c.p3_fraction = 0.05;
      c.p3_variant = 1;
      c.gadget_confusion = false;
      Scope s("engine.obfuscate");
      engine::ObfuscationEngine eng(
          &img, c, std::make_shared<analysis::AnalysisCache>());
      if (eng.obfuscate_module({rf.name}, 1).ok_count != 1)
        throw std::runtime_error(t.label + ": rewrite failed");
    }
    {
      Scope s("image.load_shared");
      t.li = img.load_shared();
    }
    t.entry = img.function(rf.name)->addr;
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

int run_attack(const Plan& plan, Raw& raw) {
  std::vector<Target> targets =
      repeated_setup(raw, [&] { return build_targets(plan); });
  if (targets.empty()) {
    raw.fail("plan has no targets");
    return 1;
  }
  std::vector<std::uint64_t> secrets(targets.size(), 0);
  double dse_s = 0.0, traces_sum = 0.0, queries_sum = 0.0;
  std::size_t attacks = 0;
  long attack_id = 0;
  SlotTimes times;  // per target

  run_timed(plan, raw, [&](std::vector<double>* samples) {
    const bool counts = !plan.trace || tracer().on();
    PassResult pr;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Target& t = targets[i];
      ++raw.attempted;
      attack::AttackOutcome o;
      double t0 = now_s();
      {
        Scope s("attack.dse", attack_id);
        o = attack::dse_attack(t.li, t.entry, dse_config(t),
                               Deadline(kDeadlineS));
      }
      double dt = now_s() - t0;
      samples->push_back(dt * 1e3);
      pr.seconds += dt;
      times.add(tracer().on(), static_cast<int>(i), dt);
      if (counts) {
        dse_s += dt;
        traces_sum += o.traces;
        queries_sum += o.solver_queries;
        ++attacks;
      }
      Scope s("bench.verify", attack_id++);
      if (!o.success) {
        raw.fail(t.label + ": secret not found");
        continue;
      }
      if (o.traces != t.traces || o.solver_queries != t.queries) {
        raw.fail(t.label + ": " + std::to_string(o.traces) + " traces, " +
                 std::to_string(o.solver_queries) +
                 " queries; calibration pinned " + std::to_string(t.traces) +
                 ", " + std::to_string(t.queries));
        continue;
      }
      std::uint64_t arg = o.secret;
      CallResult r = call_function(t.li, t.entry, {&arg, 1});
      if (r.status != CpuStatus::kHalted || r.rax != 1) {
        raw.fail(t.label + ": found secret does not return 1");
        continue;
      }
      secrets[i] = o.secret;
      pr.work += 1.0;
    }
    return pr;
  });

  // Attacks per second over a typical pass: the list's length over the
  // sum of each target's median attack time.
  auto rate = [&](int half) {
    double cycle_s = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i)
      cycle_s += times.median(half, static_cast<int>(i));
    return cycle_s > 0 ? targets.size() / cycle_s : 0.0;
  };
  raw.rate = rate(plan.trace ? 1 : 0);
  raw.untraced_rate = rate(0);

  auto& c = raw.counters;
  double pinned_traces = 0, pinned_queries = 0;
  for (const Target& t : targets) {
    pinned_traces += t.traces;
    pinned_queries += t.queries;
  }
  const double n = attacks ? static_cast<double>(attacks) : 1.0;
  const double cycles = attacks ? n / targets.size() : 1.0;
  c["attack.targets"] = static_cast<double>(targets.size());
  c["attack.dse_mean_s"] = dse_s / n;
  c["attack.traces"] = traces_sum / cycles;
  c["solver.queries"] = queries_sum / cycles;
  c["attack.pinned_traces"] = pinned_traces;
  c["attack.pinned_queries"] = pinned_queries;

  if (tracer().on()) {
    // shadow_run on each target's first (0) and winning inputs: one
    // concolic trace's cost, from which the solver's share is estimated.
    double shadow_s = 0.0, shadow_per_cycle = 0.0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Target& t = targets[i];
      attack::ShadowConfig scfg;
      scfg.max_insns = dse_config(t).max_trace_insns;
      double per_trace = 0.0;
      for (std::uint64_t input : {std::uint64_t{0}, secrets[i]}) {
        solver::ExprPool pool;
        double t0 = now_s();
        {
          Scope s("attack.shadow_run", static_cast<long>(i));
          attack::shadow_run(&pool, t.li, t.entry, input, t.input_bytes,
                             scfg);
        }
        per_trace += (now_s() - t0) / 2;
      }
      shadow_s += per_trace;
      shadow_per_cycle += per_trace * static_cast<double>(t.traces);
    }
    c["attack.shadow_run_mean_s"] = shadow_s / targets.size();
    // Per attack: DSE time minus its traces' estimated shadow time.
    c["solver.est_s"] = dse_s / n - shadow_per_cycle / targets.size();
  }
  return 0;
}

int run_calibrate(const Plan& plan) {
  // Each candidate attacked twice: a target is pinnable only if both
  // attacks succeed with identical trace and query counts.
  std::vector<std::vector<std::string>> items;
  for (const auto& item : plan.items)
    if (item[0] == "candidate") {
      std::vector<std::string> t = item;
      t[0] = "target";
      t.resize(8, "0");
      items.push_back(std::move(t));
    }
  for (const auto& item : items) {
    Plan one = plan;
    one.items = {item};
    std::vector<Target> ts;
    try {
      ts = build_targets(one);
    } catch (const std::exception& e) {
      std::printf("%s %s %s %s %s skip %s\n", item[1].c_str(),
                  item[2].c_str(), item[3].c_str(), item[4].c_str(),
                  item[5].c_str(), e.what());
      continue;
    }
    attack::AttackOutcome o[2];
    for (auto& oi : o)
      oi = attack::dse_attack(ts[0].li, ts[0].entry, dse_config(ts[0]),
                              Deadline(kDeadlineS));
    const bool stable = o[0].success && o[1].success &&
                        o[0].traces == o[1].traces &&
                        o[0].solver_queries == o[1].solver_queries;
    std::printf("%s %s %s %s %s %s %llu %llu %.4f %.4f\n", item[1].c_str(),
                item[2].c_str(), item[3].c_str(), item[4].c_str(),
                item[5].c_str(), stable ? "stable" : "unstable",
                static_cast<unsigned long long>(o[0].traces),
                static_cast<unsigned long long>(o[0].solver_queries),
                o[0].seconds, o[1].seconds);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
