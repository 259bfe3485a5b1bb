// bench_service: multi-client streaming throughput of the
// ObfuscationService front door (DESIGN.md §8/§9) vs the one-shot batch
// workflow it replaces.
//
// Traffic model: D distinct client modules, each submitted R times
// (production services re-obfuscate the same client modules over and
// over -- the premise of the warm-sweep pipeline, DESIGN.md §7).
//
//   * sequential baseline: the pre-service workflow -- one fresh engine
//     per job with an isolated AnalysisCache (one process per run:
//     nothing survives teardown), jobs back to back.
//   * streamed: one long-lived service, one Session per job, all jobs
//     submitted up front. The service keeps one shared cache hot across
//     clients (repeats are served from the analysis/harvest/craft
//     memos) and pipelines craft / resolve / materialize across jobs on
//     its stage workers.
//
// Every pass produces byte-identical images per job (checked, reported
// as `deterministic`); the deltas are wall-clock only. Emits
// `stream_modules_per_s`, `stream_vs_seq_cold`, per-stage busy seconds
// and queue occupancy peaks; the Release CI job gates the throughput
// against the committed baseline and `deterministic` against an
// absolute floor (tools/bench_report.py --check-min).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "engine/service.hpp"
#include "support/stopwatch.hpp"
#include "workload/corpus.hpp"

using namespace raindrop;
using namespace raindrop::bench;

namespace {

struct JobSpec {
  const workload::Corpus* corpus;
  rop::ObfConfig cfg;
};

rop::ObfConfig job_config(std::size_t distinct_idx) {
  // The Table II ROP row setup (§VII-B) at a fixed mid k; one seed per
  // distinct module, so a repeat is the same (module, config, seed) job
  // a returning client would submit.
  rop::ObfConfig c;
  c.seed = 7000 + distinct_idx;
  c.p1 = true;
  c.p2 = false;
  c.p3_fraction = 0.5;
  c.p3_variant = 1;
  c.gadget_confusion = false;
  return c;
}

struct StreamedRun {
  std::vector<Image> imgs;
  std::size_t ok = 0;
  double wall_s = 0.0;
  double queue_total = 0.0;
  double overlap_total = 0.0;
  engine::ObfuscationService::Stats stats;
};

// Streams the whole traffic mix through one service against the given
// (shared) cache; all jobs submitted up front, one session each. The
// client thread compiles each module inside the timed loop, like the
// sequential baseline does -- real front-door clients do work between
// submits, and overlapping it is part of what the pipeline buys.
StreamedRun run_streamed(const std::vector<JobSpec>& jobs, int threads,
                         int shards,
                         std::shared_ptr<analysis::AnalysisCache> cache) {
  StreamedRun out;
  out.imgs.resize(jobs.size());
  Stopwatch watch;
  {
    engine::ServiceConfig sc;
    sc.craft_threads = threads;
    sc.commit_shards = shards;
    sc.cache = std::move(cache);
    engine::ObfuscationService service(sc);
    std::vector<engine::JobHandle> handles;
    handles.reserve(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      out.imgs[j] = minic::compile(jobs[j].corpus->module);
      handles.push_back(
          service.open_session(&out.imgs[j], jobs[j].cfg)
              ->submit(jobs[j].corpus->functions));
    }
    for (auto& h : handles) {
      const engine::ModuleResult& r = h.wait();
      out.ok += r.ok_count;
      out.queue_total += r.queue_seconds;
      out.overlap_total += r.overlap_seconds;
    }
    out.stats = service.stats();
  }
  out.wall_s = watch.seconds();
  return out;
}

// Every streamed image must equal its sequential twin.
bool images_match(const std::vector<Image>& ref,
                  const std::vector<Image>& got) {
  for (std::size_t j = 0; j < got.size(); ++j)
    for (const char* sec : {".ropdata", ".text", ".data"})
      if (ref[j].section_bytes(sec) != got[j].section_bytes(sec))
        return false;
  return true;
}

}  // namespace

int main() {
  const bool full = full_mode();
  const bool smoke = smoke_mode();
  const int distinct = full ? 6 : smoke ? 3 : 4;
  const int repeats = full ? 4 : smoke ? 2 : 3;
  const int corpus_size = full ? 200 : smoke ? 40 : 100;
  const int threads = bench_threads();
  const int shards = bench_shards();

  std::vector<workload::Corpus> corpora;
  corpora.reserve(static_cast<std::size_t>(distinct));
  for (int d = 0; d < distinct; ++d)
    corpora.push_back(workload::make_corpus(100 + d, corpus_size));

  // Jobs interleave the distinct modules (d0 d1 d2 d0 d1 d2 ...): every
  // repeat arrives after another client's traffic, like a real mix.
  std::vector<JobSpec> jobs;
  for (int r = 0; r < repeats; ++r)
    for (int d = 0; d < distinct; ++d)
      jobs.push_back({&corpora[static_cast<std::size_t>(d)],
                      job_config(static_cast<std::size_t>(d))});

  BenchJson json("service");
  json.metric("distinct_modules", distinct);
  json.metric("repeats", repeats);
  json.metric("jobs", static_cast<double>(jobs.size()));
  json.metric("functions_per_module", corpus_size);
  json.metric("threads", threads);
  std::printf("=== ObfuscationService streaming: %d modules x %d repeats "
              "(%d functions each, %d craft threads) ===\n",
              distinct, repeats, corpus_size, threads);

  // -- Sequential baseline: engine-per-job, isolated caches ------------
  std::vector<Image> seq_imgs(jobs.size());
  std::size_t seq_ok = 0;
  Stopwatch watch;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    seq_imgs[j] = minic::compile(jobs[j].corpus->module);
    engine::ObfuscationEngine eng(&seq_imgs[j], jobs[j].cfg,
                                  std::make_shared<analysis::AnalysisCache>());
    seq_ok += eng.obfuscate_module(jobs[j].corpus->functions, threads, shards)
                  .ok_count;
  }
  const double seq_s = watch.seconds();
  std::printf("sequential (cold engine per job): %6.3fs  (%zu rewrites)\n",
              seq_s, seq_ok);

  // -- Streamed: one service, one session per job ----------------------
  // The service's shared cache outlives the service so its counters --
  // the cross-client reuse that drives the streaming win -- can be
  // reported below (the process-wide cache is untouched by this bench).
  auto svc_cache = std::make_shared<analysis::AnalysisCache>();
  StreamedRun stream = run_streamed(jobs, threads, shards, svc_cache);

  // Byte identity: a streamed job must equal its standalone twin.
  const bool identical =
      stream.ok == seq_ok && images_match(seq_imgs, stream.imgs);

  const double seq_rate = seq_s > 0 ? jobs.size() / seq_s : 0.0;
  const double stream_rate =
      stream.wall_s > 0 ? jobs.size() / stream.wall_s : 0.0;
  const double speedup = stream.wall_s > 0 ? seq_s / stream.wall_s : 0.0;
  std::printf("streamed   (3-stage pipeline)   : %6.3fs  (%zu rewrites)\n",
              stream.wall_s, stream.ok);
  std::printf("modules/s: %.2f -> %.2f   stream/seq: %.2fx   overlap ratio: "
              "%.3f   byte-identical: %s\n",
              seq_rate, stream_rate, speedup, stream.stats.overlap_ratio(),
              identical ? "yes" : "NO");

  json.metric("seq_cold_s", seq_s);
  json.metric("stream_s", stream.wall_s);
  json.metric("seq_modules_per_s", seq_rate);
  json.metric("stream_modules_per_s", stream_rate);
  json.metric("stream_vs_seq_cold", speedup);
  // Per-stage busy seconds, queue occupancy peaks and admission
  // outcomes of the main streamed pass (DESIGN.md §9).
  emit_service_stats(json, stream.stats);
  json.metric("queue_s_avg",
              jobs.empty() ? 0.0 : stream.queue_total / jobs.size());
  // Per-job overlap re-aggregated from the handles: must agree with the
  // service's own overlap_s above (both views are reported).
  json.metric("job_overlap_s_sum", stream.overlap_total);
  json.metric("peak_sessions_in_flight",
              static_cast<double>(stream.stats.peak_sessions_in_flight));
  json.metric("rewrites", static_cast<double>(stream.ok));
  json.metric("deterministic", identical ? 1.0 : 0.0);
  // CI gate (DESIGN.md §12): a production bench run must never have
  // exercised the robustness machinery -- no injected faults, no
  // quarantines, no watchdog demotions. 1 = clean.
  const bool fault_free = fault::injected_total() == 0 &&
                          stream.stats.jobs_quarantined == 0 &&
                          stream.stats.jobs_degraded_serial == 0;
  json.metric("fault_free", fault_free ? 1.0 : 0.0);
  // Cache telemetry of the service's shared cache (NOT the process-wide
  // one emit_analysis_cache reads -- this bench never touches that):
  // the repeats' warm hits are the cross-client reuse story.
  auto cs = svc_cache->stats();
  json.metric("analysis_cache_hits", static_cast<double>(cs.hits));
  json.metric("analysis_cache_misses", static_cast<double>(cs.misses));
  json.metric("analysis_cache_hit_rate", cs.hit_rate());
  json.metric("harvest_cache_hit_rate", svc_cache->aux_stats().hit_rate());
  emit_cpu_throughput(json);
  json.write();
  return identical ? 0 : 1;
}
