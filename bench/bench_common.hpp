// Shared helpers for the benchmark harnesses. Each bench binary
// regenerates one table/figure of the paper (see DESIGN.md §4) at scaled
// budgets; RAINDROP_FULL=1 switches to the full-size experiment.
//
// Every bench also emits a machine-readable BENCH_<name>.json next to its
// table output (BenchJson below), so the perf trajectory can be tracked
// across PRs without scraping stdout.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "image/image.hpp"
#include "store/store.hpp"
#include "minic/codegen.hpp"
#include "support/faultpoint.hpp"
#include "support/stopwatch.hpp"
#include "vmobf/vmobf.hpp"
#include "workload/randomfuns.hpp"

namespace raindrop::bench {

inline bool full_mode() {
  const char* e = std::getenv("RAINDROP_FULL");
  return e && *e == '1';
}

// CI smoke mode: shrink the experiment below even the scaled default.
inline bool smoke_mode() {
  const char* e = std::getenv("RAINDROP_SMOKE");
  return e && *e == '1';
}

// Craft threads for engine batches (RAINDROP_THREADS, default 4). Batch
// output is bit-identical at any thread count, so this only moves
// wall-clock.
inline int bench_threads() {
  const char* e = std::getenv("RAINDROP_THREADS");
  if (e && *e) {
    int n = std::atoi(e);
    if (n > 0) return n;
  }
  return 4;
}

// Commit shards for engine batches (RAINDROP_SHARDS, default 0 = one
// shard per craft thread). Output is bit-identical at any shard count.
inline int bench_shards() {
  const char* e = std::getenv("RAINDROP_SHARDS");
  if (e && *e) {
    int n = std::atoi(e);
    if (n > 0) return n;
  }
  return 0;
}

// Machine-readable results: collects scalar metrics and string notes,
// then writes BENCH_<name>.json (flat schema: name, mode, wall-clock,
// metrics object). Values are recorded in insertion order.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void metric(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_.push_back({key, buf, /*quoted=*/false});
  }
  void note(const std::string& key, const std::string& value) {
    entries_.push_back({key, value, /*quoted=*/true});
  }

  // Writes BENCH_<name>.json in the working directory. Returns false
  // (and warns) when the file cannot be created.
  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << escape(name_) << "\",\n"
        << "  \"mode\": \"" << (full_mode() ? "full" : smoke_mode() ? "smoke"
                                                                    : "scaled")
        << "\",\n  \"wall_clock_s\": " << watch_.seconds()
        << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i ? ",\n    " : "\n    ") << "\"" << escape(e.key) << "\": ";
      if (e.quoted)
        out << "\"" << escape(e.value) << "\"";
      else
        out << e.value;
    }
    out << "\n  }\n}\n";
    std::printf("[bench] wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Entry {
    std::string key, value;
    bool quoted;
  };
  static std::string escape(const std::string& s) {
    std::string r;
    for (char c : s) {
      if (c == '"' || c == '\\') r.push_back('\\');
      if (c == '\n') {
        r += "\\n";
        continue;
      }
      r.push_back(c);
    }
    return r;
  }
  std::string name_;
  std::vector<Entry> entries_;
  Stopwatch watch_;  // started at construction: whole-bench wall-clock
};

// The standard counted ALU probe loop shared by every CPU throughput
// measurement (cpu_insns_per_sec, bench_micro's dispatch-strata and
// hook-cost probes): mov rcx, iters; L: mov/add/xor/dec; jne L; hlt.
// No memory traffic, 5 executed instructions per iteration.
struct CountedLoop {
  std::vector<std::uint8_t> bytes;
  std::uint64_t insn_count = 0;  // executed instructions, mov + hlt incl.
};

inline CountedLoop make_counted_loop(std::uint64_t iters) {
  using isa::Reg;
  namespace ib = isa::ib;
  CountedLoop cl;
  isa::encode(ib::mov_i64(Reg::RCX, static_cast<std::int64_t>(iters)),
              cl.bytes);
  std::size_t head = cl.bytes.size();
  isa::encode(ib::mov(Reg::RAX, Reg::RCX), cl.bytes);
  isa::encode(ib::add(Reg::RAX, Reg::RAX), cl.bytes);
  isa::encode(ib::xor_i(Reg::RAX, 0x5a), cl.bytes);
  isa::encode(ib::dec(Reg::RCX), cl.bytes);
  auto jne = ib::jcc(isa::Cond::NE, 0);
  jne.imm = -static_cast<std::int64_t>(cl.bytes.size() - head +
                                       isa::encoded_length(jne));
  isa::encode(jne, cl.bytes);
  isa::encode(ib::hlt(), cl.bytes);
  cl.insn_count = 5 * iters + 2;
  return cl;
}

// Maps the probe loop at 0x1000 in a fresh executable region.
inline Memory load_counted_loop(const CountedLoop& cl) {
  Memory mem;
  mem.map_region(0x1000, 1 << 16, kPermRX, ".bench");
  mem.write_bytes(0x1000, cl.bytes);
  return mem;
}

// CPU throughput probe: the counted loop (~1M executed instructions)
// on a fresh machine, timed end to end, under the given hook bundle
// (default: none, the zero-hook fast path). `insns_per_s` is 0 on any
// anomaly; `chain_hit_rate` is the fraction of block dispatches that
// chained through successor links instead of the central fetch loop
// (DESIGN.md §10) -- 0 whenever a hook demotes dispatch;
// `lowered_share` is the fraction of block dispatches executed as
// pre-lowered µop streams (DESIGN.md §11) -- ~1.0 in the zero-hook
// stratum, 0 when lowering is off or a hook demotes.
struct CpuProbe {
  double insns_per_s = 0.0;
  double chain_hit_rate = 0.0;
  double lowered_share = 0.0;
};

// Which executor the probe pins (bench_micro's comparison): the lowered
// µop fast path (the default) or the reference central fetch loop.
enum class Dispatch { kLowered, kCentral };

inline CpuProbe cpu_probe(std::uint64_t loop_iters = 200'000,
                          HookSet hooks = {},
                          Dispatch dispatch = Dispatch::kLowered) {
  CountedLoop cl = make_counted_loop(loop_iters);
  Memory mem = load_counted_loop(cl);
  Cpu cpu(&mem);
  cpu.set_hooks(std::move(hooks));
  if (dispatch == Dispatch::kCentral) cpu.set_threaded_dispatch(false);
  cpu.set_rip(0x1000);
  Stopwatch watch;
  CpuStatus st = cpu.run(cl.insn_count + 16);
  double s = watch.seconds();
  CpuProbe p;
  const Cpu::CacheStats& cs = cpu.cache_stats();
  double total = static_cast<double>(cs.chain_hits + cs.central_dispatches);
  if (total > 0) p.chain_hit_rate = static_cast<double>(cs.chain_hits) / total;
  if (cs.dispatches > 0)
    p.lowered_share = static_cast<double>(cs.lowered_dispatches) /
                      static_cast<double>(cs.dispatches);
  if (st != CpuStatus::kHalted || s <= 0.0) return p;
  p.insns_per_s = static_cast<double>(cpu.insn_count()) / s;
  return p;
}

inline double cpu_insns_per_sec(std::uint64_t loop_iters = 200'000,
                                HookSet hooks = {}) {
  return cpu_probe(loop_iters, std::move(hooks)).insns_per_s;
}

// Standard per-bench engine-speed metrics: every bench JSON carries
// `cpu_minsns_per_s` (executed Minsns/s of the simulated CPU),
// `cpu_chain_hit_rate` (threaded-dispatch link hit rate),
// `cpu_lowered_minsns_per_s` (same probe, stated explicitly as the
// lowered fast path) and `cpu_lowered_dispatch_share` (fraction of
// block dispatches that ran as µop streams) so the perf trajectory of
// the execution engine is recorded alongside each experiment
// (DESIGN.md §4/§6/§10/§11).
inline void emit_cpu_throughput(BenchJson& json) {
  CpuProbe p = cpu_probe();
  json.metric("cpu_minsns_per_s", p.insns_per_s / 1e6);
  json.metric("cpu_chain_hit_rate", p.chain_hit_rate);
  json.metric("cpu_lowered_minsns_per_s", p.insns_per_s / 1e6);
  json.metric("cpu_lowered_dispatch_share", p.lowered_share);
}

// AnalysisCache telemetry (DESIGN.md §7): every bench JSON records the
// process-wide cache counters so repeated-sweep amortization shows up in
// whichever bench CI runs. The harvest (gadget-finder) memo shares the
// cache's aux_stats() with the craft memo and is reported alongside.
inline void emit_analysis_cache(BenchJson& json) {
  auto s = analysis::AnalysisCache::process_cache()->stats();
  json.metric("analysis_cache_hits", static_cast<double>(s.hits));
  json.metric("analysis_cache_misses", static_cast<double>(s.misses));
  json.metric("analysis_cache_evictions", static_cast<double>(s.evictions));
  json.metric("analysis_cache_hit_rate", s.hit_rate());
  auto a = analysis::AnalysisCache::process_cache()->aux_stats();
  json.metric("harvest_cache_hit_rate", a.hit_rate());
  // Persistent-store tier (DESIGN.md §13): zeros when the process cache
  // has no store attached (benches that drive their own store report its
  // counters themselves).
  store::ArtifactStore* st = analysis::AnalysisCache::process_cache()
                                 ->store()
                                 .get();
  store::ArtifactStore::Stats ss =
      st ? st->stats() : store::ArtifactStore::Stats{};
  json.metric("store_hit_rate", ss.hit_rate());
  json.metric("store_spills", static_cast<double>(ss.spills));
  json.metric("store_corrupt_evictions",
              static_cast<double>(ss.corrupt_evictions));
}

// Per-stage pipeline telemetry (DESIGN.md §9): the craft / resolve /
// materialize split of one engine batch, under a common key prefix, so
// every bench that runs a batch records where its wall-clock went.
inline void emit_stage_seconds(BenchJson& json,
                               const engine::ModuleResult& mr,
                               const std::string& prefix = "") {
  json.metric(prefix + "craft_s", mr.craft_seconds);
  json.metric(prefix + "resolve_s", mr.resolve_seconds);
  json.metric(prefix + "materialize_s", mr.materialize_seconds);
  json.metric(prefix + "commit_s", mr.commit_seconds);
}

// Service pipeline telemetry (DESIGN.md §9): per-stage busy seconds,
// queue occupancy peaks and admission outcomes of an ObfuscationService
// run, under a common key prefix.
inline void emit_service_stats(BenchJson& json,
                               const engine::ObfuscationService::Stats& st,
                               const std::string& prefix = "") {
  json.metric(prefix + "craft_busy_s", st.craft_busy_seconds);
  json.metric(prefix + "resolve_busy_s", st.resolve_busy_seconds);
  json.metric(prefix + "materialize_busy_s", st.materialize_busy_seconds);
  json.metric(prefix + "commit_busy_s", st.commit_busy_seconds);
  json.metric(prefix + "overlap_s", st.overlap_seconds);
  json.metric(prefix + "pipeline_overlap_ratio", st.overlap_ratio());
  json.metric(prefix + "craft_queue_peak",
              static_cast<double>(st.craft_queue_peak));
  json.metric(prefix + "resolve_queue_peak",
              static_cast<double>(st.resolve_queue_peak));
  json.metric(prefix + "materialize_queue_peak",
              static_cast<double>(st.materialize_queue_peak));
  json.metric(prefix + "jobs_cancelled",
              static_cast<double>(st.jobs_cancelled));
  json.metric(prefix + "jobs_rejected",
              static_cast<double>(st.jobs_rejected));
  // Robustness telemetry (DESIGN.md §12): every BENCH_*.json records
  // whether the run needed self-healing. All zero on a healthy run.
  json.metric(prefix + "faults_injected",
              static_cast<double>(fault::injected_total()));
  json.metric(prefix + "jobs_retried",
              static_cast<double>(st.jobs_retried));
  json.metric(prefix + "stage_retries",
              static_cast<double>(st.stage_retries));
  json.metric(prefix + "jobs_quarantined",
              static_cast<double>(st.jobs_quarantined));
  json.metric(prefix + "jobs_degraded_serial",
              static_cast<double>(st.jobs_degraded_serial));
  json.metric(prefix + "watchdog_flags",
              static_cast<double>(st.watchdog_flags));
  json.metric(prefix + "corruptions_recovered",
              static_cast<double>(st.corruptions_recovered));
  // Persistent-store tier (DESIGN.md §13): all zero without a store_dir.
  json.metric(prefix + "store_hits", static_cast<double>(st.store_hits));
  json.metric(prefix + "store_misses", static_cast<double>(st.store_misses));
  json.metric(prefix + "store_spills", static_cast<double>(st.store_spills));
  json.metric(prefix + "store_corrupt_evictions",
              static_cast<double>(st.store_corrupt_evictions));
  json.metric(prefix + "store_hit_rate", st.store_hit_rate());
}

// Obfuscation configurations of Table I.
struct NamedConfig {
  std::string name;
  bool is_rop = false;
  double rop_k = 0.0;       // ROPk fraction
  int vm_layers = 0;        // nVM
  vmobf::ImpWhere imp = vmobf::ImpWhere::None;
};

inline std::vector<NamedConfig> table1_configs(bool full) {
  std::vector<NamedConfig> cs;
  cs.push_back({"NATIVE", false, 0, 0, vmobf::ImpWhere::None});
  std::vector<double> ks =
      full ? std::vector<double>{0.05, 0.25, 0.50, 0.75, 1.00}
           : std::vector<double>{0.05, 0.50, 1.00};
  for (double k : ks) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ROP%.2f", k);
    cs.push_back({buf, true, k, 0, vmobf::ImpWhere::None});
  }
  if (full) {
    cs.push_back({"1VM-IMPall", false, 0, 1, vmobf::ImpWhere::All});
    cs.push_back({"2VM", false, 0, 2, vmobf::ImpWhere::None});
    cs.push_back({"2VM-IMPfirst", false, 0, 2, vmobf::ImpWhere::First});
    cs.push_back({"2VM-IMPlast", false, 0, 2, vmobf::ImpWhere::Last});
    cs.push_back({"2VM-IMPall", false, 0, 2, vmobf::ImpWhere::All});
    cs.push_back({"3VM", false, 0, 3, vmobf::ImpWhere::None});
    cs.push_back({"3VM-IMPfirst", false, 0, 3, vmobf::ImpWhere::First});
    cs.push_back({"3VM-IMPlast", false, 0, 3, vmobf::ImpWhere::Last});
    cs.push_back({"3VM-IMPall", false, 0, 3, vmobf::ImpWhere::All});
  } else {
    cs.push_back({"2VM", false, 0, 2, vmobf::ImpWhere::None});
    cs.push_back({"2VM-IMPall", false, 0, 2, vmobf::ImpWhere::All});
    cs.push_back({"3VM-IMPall", false, 0, 3, vmobf::ImpWhere::All});
  }
  return cs;
}

// Builds the obfuscated image for a single-function module through the
// batch engine. Returns false when the configuration does not apply
// (e.g. VM on asm bodies) or the rewrite fails. `cache` selects the
// analysis cache the engine consults (nullptr: the process-wide one);
// `result` receives the engine batch stats when given.
inline bool build_config(const workload::RandomFun& rf,
                         const NamedConfig& nc, std::uint64_t seed,
                         Image* out,
                         std::shared_ptr<analysis::AnalysisCache> cache =
                             nullptr,
                         engine::ModuleResult* result = nullptr) {
  minic::Module mod = rf.module;
  if (nc.vm_layers > 0) {
    if (!vmobf::virtualize_layers(mod, rf.name, nc.vm_layers, nc.imp, seed))
      return false;
  }
  Image img = minic::compile(mod);
  if (nc.is_rop) {
    // Table II setup (§VII-B): P1 {n=4,s=n,p=32} + P3 variant 1 at
    // fraction k; P2 and gadget confusion disabled as they do not affect
    // DSE (the paper states this explicitly).
    rop::ObfConfig c;
    c.seed = seed;
    c.p1 = true;
    c.p2 = false;
    c.p3_fraction = nc.rop_k;
    c.p3_variant = 1;
    c.gadget_confusion = false;
    engine::ObfuscationEngine eng(&img, c, std::move(cache));
    auto mr = eng.obfuscate_module({rf.name}, 1);
    if (result) *result = mr;
    if (mr.ok_count != 1) return false;
  }
  *out = std::move(img);
  return true;
}

}  // namespace raindrop::bench
