// Table II reproduction: successful DSE attacks for secret finding (G1)
// and code coverage (G2) across the obfuscation configurations of
// Table I, over the RandomFuns suite. Budgets are scaled from the
// paper's 1 hour per experiment to seconds per function (see
// EXPERIMENTS.md); RAINDROP_FULL=1 runs all 72 functions and 15 configs.
//
// `--warm` (or RAINDROP_WARM=1) switches to the warm-sweep pipeline
// benchmark instead: the Table II-style obfuscation sweep (same corpus,
// 10 ROPk configurations) is built three times -- once with isolated
// per-engine caches (the pre-cache pipeline, "cold"), then twice against
// one shared AnalysisCache -- and the cold/warm ratio plus the warm-pass
// cache hit rate land in BENCH_table2.json as tracked metrics
// (`warm_speedup`, `analysis_cache_hit_rate`). The Release CI job gates
// on `warm_speedup` (tools/bench_report.py --check-min).
//
// `--warm-restart` (or RAINDROP_WARM_RESTART=1) runs the warm-sweep
// benchmark PLUS the persistent-store restart experiment (DESIGN.md
// §13): one populate pass spills every artifact into a fresh on-disk
// ArtifactStore, then the cache and store objects are destroyed (the
// "process exit") and a restart pass over a brand-new cache + store on
// the same directory rebuilds the corpus from disk. Emits
// `warm_restart_speedup` (cold / restart wall-clock),
// `warm_restart_deterministic` (1 iff every pass produced byte-identical
// images) and the restart store hit rate; Release CI gates on the first
// two (tools/bench_report.py --check-min).
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "attack/dse.hpp"
#include "bench_common.hpp"
#include "store/store.hpp"
#include "support/stopwatch.hpp"
#include "workload/corpus.hpp"

using namespace raindrop;
using namespace raindrop::bench;

namespace {

std::vector<workload::RandomFun> sweep_funs(bool full) {
  auto specs = workload::paper_suite();
  std::vector<workload::RandomFun> funs;
  for (auto& s : specs) {
    if (!full) {
      // Scaled-down default: seed 1, byte/short inputs (within the
      // search solver's reliable range; see EXPERIMENTS.md).
      if (s.seed != 1) continue;
      if (s.type != minic::Type::I8 && s.type != minic::Type::I16) continue;
    }
    funs.push_back(workload::make_random_fun(s));
  }
  return funs;
}

// One Table II-style obfuscation sweep: the whole corpus module rebuilt
// and obfuscated once per ROPk configuration, through the batch engine
// (one engine per configuration, like a production service rebuilding a
// client's module under many hardening levels). `shared` is the analysis
// cache every engine consults; nullptr gives each engine a private fresh
// cache (no reuse anywhere -- the pre-cache pipeline).
struct SweepStats {
  double seconds = 0.0;
  std::size_t built = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t store_hits = 0;
  std::size_t store_misses = 0;
  // Fold of every configuration's serialized obfuscated image: two
  // passes produced byte-identical modules iff their digests match.
  std::uint64_t image_digest = 0;
};

SweepStats run_sweep(const workload::Corpus& cp,
                     const std::vector<double>& ks,
                     std::shared_ptr<analysis::AnalysisCache> shared) {
  SweepStats st;
  Stopwatch watch;
  for (std::size_t ci = 0; ci < ks.size(); ++ci) {
    Image img = minic::compile(cp.module);
    // The Table II ROP row setup (§VII-B): P1 + P3 variant 1 at
    // fraction k; P2 and gadget confusion off.
    rop::ObfConfig c;
    c.seed = 1000 + ci;
    c.p1 = true;
    c.p2 = false;
    c.p3_fraction = ks[ci];
    c.p3_variant = 1;
    c.gadget_confusion = false;
    auto cache =
        shared ? shared : std::make_shared<analysis::AnalysisCache>();
    engine::ObfuscationEngine eng(&img, c, cache);
    auto mr = eng.obfuscate_module(cp.functions, 1);
    st.built += mr.ok_count;
    st.hits += mr.analysis_cache_hits;
    st.misses += mr.analysis_cache_misses;
    st.store_hits += mr.store_hits;
    st.store_misses += mr.store_misses;
    auto blob = img.serialize();
    st.image_digest = analysis::AnalysisCache::fold(
        st.image_digest,
        analysis::AnalysisCache::hash_bytes(blob.data(), blob.size()));
  }
  st.seconds = watch.seconds();
  return st;
}

int warm_mode_main(bool restart) {
  bool full = full_mode();
  bool smoke = smoke_mode();
  int corpus_size = full ? 1354 : smoke ? 60 : 200;
  auto cp = workload::make_corpus(1, corpus_size);

  // 10 ROPk configurations: the Table II sweep shape, ROP rows only
  // (VM rows recompile the module, so their bytes never repeat within
  // one pass; the cache win is about the rebuilt-identical corpus).
  std::vector<double> ks;
  for (int i = 1; i <= 10; ++i) ks.push_back(0.1 * i);

  BenchJson json("table2");
  json.note("variant", "warm-sweep");
  json.metric("functions", static_cast<double>(cp.functions.size()));
  json.metric("configs", static_cast<double>(ks.size()));
  std::printf("=== Warm-sweep pipeline: %zu-function corpus x %zu configs "
              "===\n",
              cp.functions.size(), ks.size());

  // Pass 1 (cold): isolated per-engine caches -- every engine redoes
  // CFG/liveness/taint and the harvest scan, like the pre-cache engine.
  SweepStats cold = run_sweep(cp, ks, nullptr);
  std::printf("cold  (isolated caches): %6.3fs  (%zu rewrites)\n",
              cold.seconds, cold.built);

  // Pass 2 (warm-up) + pass 3 (warm): the same sweep twice against one
  // shared cache. Pass 3 runs fully hot: every analysis and harvest scan
  // is served from the cache.
  auto shared = std::make_shared<analysis::AnalysisCache>();
  SweepStats warmup = run_sweep(cp, ks, shared);
  SweepStats warm = run_sweep(cp, ks, shared);
  double hit_rate =
      warm.hits + warm.misses
          ? static_cast<double>(warm.hits) /
                static_cast<double>(warm.hits + warm.misses)
          : 0.0;
  double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0.0;
  std::printf("warm-up (shared cache) : %6.3fs\n", warmup.seconds);
  std::printf("warm  (shared cache)   : %6.3fs   cold/warm: %.2fx   "
              "analysis hit rate: %.3f\n",
              warm.seconds, speedup, hit_rate);

  json.metric("cold_sweep_s", cold.seconds);
  json.metric("warmup_sweep_s", warmup.seconds);
  json.metric("warm_sweep_s", warm.seconds);
  json.metric("warm_speedup", speedup);
  json.metric("rewrites", static_cast<double>(cold.built));
  json.metric("analysis_cache_warm_hits", static_cast<double>(warm.hits));
  json.metric("analysis_cache_warm_misses",
              static_cast<double>(warm.misses));
  // The acceptance metric: hit rate of the warm pass (not the process-
  // wide counters emit_analysis_cache reports below).
  json.metric("analysis_cache_hit_rate", hit_rate);
  auto cs = shared->stats();
  json.metric("shared_cache_entries_hits", static_cast<double>(cs.hits));
  json.metric("shared_cache_entries_misses",
              static_cast<double>(cs.misses));
  json.metric("shared_cache_evictions", static_cast<double>(cs.evictions));
  json.metric("harvest_cache_hit_rate", shared->aux_stats().hit_rate());

  if (restart) {
    // The warm-restart experiment (DESIGN.md §13): a populate pass spills
    // every artifact into a fresh on-disk store, then cache AND store are
    // destroyed -- the "process exit" -- and a restart pass over a new
    // cache + store on the same directory rebuilds the corpus from disk.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "raindrop_bench_store";
    std::error_code ec;
    fs::remove_all(dir, ec);

    SweepStats populate;
    std::size_t spills = 0;
    {
      auto cache = std::make_shared<analysis::AnalysisCache>();
      auto disk = std::make_shared<store::ArtifactStore>(dir.string());
      cache->attach_store(disk);
      populate = run_sweep(cp, ks, cache);
      disk->flush();
      spills = disk->stats().spills;
    }  // "process exit": cache and store torn down, only the files remain

    SweepStats rst;
    double restart_hit_rate = 0.0;
    std::size_t corrupt_evictions = 0;
    {
      auto cache = std::make_shared<analysis::AnalysisCache>();
      auto disk = std::make_shared<store::ArtifactStore>(dir.string());
      cache->attach_store(disk);
      rst = run_sweep(cp, ks, cache);
      auto ds = disk->stats();
      restart_hit_rate = ds.hit_rate();
      corrupt_evictions = ds.corrupt_evictions;
    }
    fs::remove_all(dir, ec);

    double restart_speedup =
        rst.seconds > 0 ? cold.seconds / rst.seconds : 0.0;
    bool deterministic = cold.image_digest == warmup.image_digest &&
                         cold.image_digest == warm.image_digest &&
                         cold.image_digest == populate.image_digest &&
                         cold.image_digest == rst.image_digest;
    std::printf("populate (fresh store) : %6.3fs  (%zu spills)\n",
                populate.seconds, spills);
    std::printf("restart (store-backed) : %6.3fs   cold/restart: %.2fx   "
                "store hit rate: %.3f   deterministic: %s\n",
                rst.seconds, restart_speedup, restart_hit_rate,
                deterministic ? "yes" : "NO");

    json.metric("warm_restart_populate_s", populate.seconds);
    json.metric("warm_restart_sweep_s", rst.seconds);
    json.metric("warm_restart_speedup", restart_speedup);
    json.metric("warm_restart_deterministic", deterministic ? 1.0 : 0.0);
    json.metric("store_hit_rate", restart_hit_rate);
    json.metric("store_hits", static_cast<double>(rst.store_hits));
    json.metric("store_misses", static_cast<double>(rst.store_misses));
    json.metric("store_spills", static_cast<double>(spills));
    json.metric("store_corrupt_evictions",
                static_cast<double>(corrupt_evictions));
  }

  emit_cpu_throughput(json);
  json.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool warm = false, restart = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warm") == 0) warm = true;
    if (std::strcmp(argv[i], "--warm-restart") == 0) restart = true;
  }
  if (const char* e = std::getenv("RAINDROP_WARM"); e && *e == '1')
    warm = true;
  if (const char* e = std::getenv("RAINDROP_WARM_RESTART"); e && *e == '1')
    restart = true;
  if (warm || restart) return warm_mode_main(restart);

  bool full = full_mode();
  double budget_s = full ? 20.0 : 4.0;
  auto funs = sweep_funs(full);

  BenchJson json("table2");
  json.metric("budget_s", budget_s);
  json.metric("functions", static_cast<double>(funs.size()));
  std::printf("=== Table II: successful attacks, %.0fs budget/function "
              "(%zu functions%s) ===\n",
              budget_s, funs.size(), full ? ", FULL" : "");
  std::printf("%-14s | %-18s | %-18s\n", "CONFIGURATION",
              "SECRET FINDING", "CODE COVERAGE");
  std::printf("%-14s | %-10s %-7s | %-10s\n", "", "FOUND", "AVG(s)",
              "100% POINTS");

  for (const NamedConfig& nc : table1_configs(full)) {
    int found = 0, covered = 0;
    double total_time = 0;
    int applicable = 0;
    for (const auto& rf : funs) {
      Image img;
      if (!build_config(rf, nc, 1000 + applicable, &img)) continue;
      ++applicable;
      // One frozen snapshot + CodeCache per built config; both attacks
      // (and every shadow re-execution inside them) clone it and start
      // with the whole function pre-decoded (DESIGN.md §10).
      LoadedImage li = img.load_shared();
      std::uint64_t fn = img.function(rf.name)->addr;
      int nbytes = minic::type_size(rf.spec.type);

      attack::DseConfig g1;
      g1.input_bytes = nbytes;
      g1.goal = attack::Goal::kSecretFinding;
      g1.max_trace_insns = 20'000'000;
      auto o1 = attack::dse_attack(li, fn, g1, Deadline(budget_s));
      if (o1.success) {
        ++found;
        total_time += o1.seconds;
      }

      attack::DseConfig g2 = g1;
      g2.goal = attack::Goal::kCodeCoverage;
      g2.target_probes = workload::reachable_probes(rf);
      auto o2 = attack::dse_attack(li, fn, g2, Deadline(budget_s));
      if (o2.success) ++covered;
    }
    std::printf("%-14s | %4d/%-5d %-7.1f | %4d/%d\n", nc.name.c_str(),
                found, static_cast<int>(funs.size()),
                found ? total_time / found : 0.0, covered,
                static_cast<int>(funs.size()));
    std::fflush(stdout);
    json.metric(nc.name + "_secret_found", found);
    json.metric(nc.name + "_coverage_100", covered);
  }
  std::printf("\nPaper shape check: NATIVE near-total; ROPk decreasing in "
              "k and below VM configs; 3VM-IMPall zero.\n");
  emit_cpu_throughput(json);
  emit_analysis_cache(json);
  json.write();
  return 0;
}
