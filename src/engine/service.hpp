// ObfuscationService: the long-lived, streaming front door to the
// rewriting pipeline.
//
// The batch ObfuscationEngine is one-shot: one engine per image, one
// obfuscate_module() call, teardown. The service keeps the expensive
// state alive across many client modules instead:
//
//   * one shared AnalysisCache (analyses, harvest layers, craft memos
//     stay hot across sessions -- DESIGN.md §7),
//   * one shared ThreadPool (craft fan-out and sharded resolve of all
//     sessions run on the same workers; resolve shards one per worker),
//   * a three-stage pipeline mirroring the engine's public stages
//     (DESIGN.md §9): craft, resolve and materialize are three records
//     of one Stage type, each with its own queue and worker, all run by
//     one stage runner -- only the stage body and its next step differ.
//     Module N+2's craft overlaps module N+1's parallel resolve and
//     module N's serial-per-image materialize.
//
// Admission control: the craft queue is bounded (craft_queue_depth) and
// every session has an in-flight quota (session_quota). A full queue or
// quota makes submit() block until space (SubmitPolicy::kBlock) or
// return an immediately-ready handle whose result is flagged `rejected`
// (kFailFast) -- the service exerts real backpressure instead of
// buffering unboundedly. Dropping every client copy of a JobHandle
// cancels the job if it has not yet entered resolve (result flagged
// `cancelled`; nothing lands in the image).
//
// Clients open a Session per module and submit() jobs; per-session
// ordering is strict FIFO (a session's next job enters craft only after
// its previous job materialized), so a streamed module is
// byte-identical to standalone obfuscate_module() runs with the same
// batches and seed -- the pipeline moves wall-clock, never bytes, at
// every (pool width, sessions, craft bound) combination
// (tests/test_service.cpp).
//
// Telemetry: every result that completed the pipeline carries
// queue_seconds / overlap_seconds / sessions_in_flight plus per-stage
// craft/resolve/materialize seconds, and Stats aggregates per-stage
// busy times and queue occupancy peaks, so both the double-buffering
// win and the admission behaviour are measured quantities
// (bench_service).
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "analysis/cache.hpp"
#include "engine/session.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace raindrop::engine {

struct ServiceConfig {
  // Workers in the shared pool that phase 1 (craft) and phase 2a
  // (resolve) of every session fan out on; phase 2a plans one shard per
  // worker. <= 1 runs stage work inline on the stage threads -- the
  // inter-stage overlap remains.
  int craft_threads = 1;
  // Bound on jobs admitted but not yet crafting (craft queue plus
  // session backlogs). 0 = unbounded. When full, submit() follows
  // `submit_policy`.
  std::size_t craft_queue_depth = 16;
  // Max jobs of one session submitted but not yet finished (completed,
  // cancelled or rejected). 0 = unbounded.
  std::size_t session_quota = 0;
  enum class SubmitPolicy {
    kBlock,     // submit() waits for queue/quota space
    kFailFast,  // submit() returns a ready handle with result.rejected
  };
  SubmitPolicy submit_policy = SubmitPolicy::kBlock;
  // -- Self-healing pipeline knobs (DESIGN.md §12) --------------------
  // Retries for a retryable stage failure (a fault fired at the stage
  // entry, before the engine touched any state). 1 means a job failing
  // twice at one stage is quarantined. Engine-internal failures are
  // never retried at this level: the stage may have consumed its input
  // or advanced allocation cursors, so a re-run would not be
  // byte-identical to a never-failed run.
  int max_stage_retries = 1;
  // Base delay of the capped exponential backoff between stage retries
  // (doubling per attempt, capped at 8x) plus a deterministic jitter in
  // [0, base) drawn from Rng::stream(seed ^ hash(stage), attempt).
  // <= 0 disables the sleep.
  double retry_backoff_ms = 1.0;
  // Per-job stage deadline for the watchdog thread; 0 disables it. An
  // overdue craft is cooperatively cancelled (the engine's cancel poll)
  // and the job demoted to the serial reference path
  // (obfuscate_module); overdue resolve/materialize stages have no
  // cancellation point and are flagged in Stats::watchdog_flags only.
  double watchdog_deadline_s = 0.0;
  // Analysis cache shared by every session; null selects the
  // process-wide singleton. Benchmarks isolating a cold service pass a
  // private instance.
  std::shared_ptr<analysis::AnalysisCache> cache;
  // Persistent artifact-store directory (DESIGN.md §13). Non-empty: the
  // service's cache gets a disk tier over this directory (created on
  // demand) -- analyses, craft memos and harvest layers survive process
  // restarts. When `cache` is null a non-empty store_dir selects a
  // private cache instead of the process singleton, so the disk tier
  // never silently attaches to unrelated engines.
  std::string store_dir;
  // Test/observability probe: called unlocked on a stage worker just
  // before it runs a job's stage work ("craft", "resolve" or
  // "materialize"). A blocking probe stalls that stage -- the
  // backpressure and cancellation tests hold the pipeline in a known
  // state this way; a throwing probe fails the job like its stage body.
  std::function<void(const char* stage)> stage_probe;
};

class ObfuscationService {
 public:
  explicit ObfuscationService(ServiceConfig cfg = {});
  // Drains in-flight jobs (every issued JobHandle becomes ready), then
  // stops the pipeline. Open sessions degrade to standalone synchronous
  // sessions. As with any object, destruction must not race calls into
  // the service -- quiesce client threads (or call shutdown() and wait
  // for their last submits to return) before destroying; only AFTER the
  // destructor returns are surviving sessions safely standalone.
  ~ObfuscationService();

  ObfuscationService(const ObfuscationService&) = delete;
  ObfuscationService& operator=(const ObfuscationService&) = delete;

  // Opens a streaming session for one module. The session shares the
  // service's analysis cache and submits into the pipeline; it may
  // outlive the service (it then runs synchronously).
  std::shared_ptr<Session> open_session(Image* img,
                                        const rop::ObfConfig& cfg);

  // Stops accepting pipeline work, waits for every submitted job to
  // finish, joins the stage workers. Idempotent; also run by the
  // destructor. A submit() racing shutdown -- including one already
  // parked on admission backpressure -- wakes with a ready handle whose
  // result is `rejected` (error kind kShutdown); submits AFTER shutdown
  // returns go through the then-detached session's synchronous path.
  void shutdown();

  struct Stats {
    std::size_t jobs_submitted = 0;  // admitted into the pipeline
    std::size_t jobs_completed = 0;
    std::size_t jobs_cancelled = 0;  // every handle dropped before resolve
    std::size_t jobs_rejected = 0;   // kFailFast refusals + shutdown wakes
    // -- Robustness telemetry (DESIGN.md §12) -------------------------
    std::size_t jobs_retried = 0;      // jobs needing >= 1 retry anywhere
    std::size_t stage_retries = 0;     // service-level retry attempts
    std::size_t jobs_quarantined = 0;  // failed past retries; typed error
    std::size_t jobs_degraded_serial = 0;  // watchdog-demoted to serial
    std::size_t watchdog_flags = 0;        // overdue-stage detections
    // Memory-tier integrity evict+recompute events (analyses + craft memo).
    std::size_t corruptions_recovered = 0;
    // -- Persistent-store telemetry (DESIGN.md §13); all zero without a
    // store_dir. Misses imply spills of the freshly built artifacts.
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    std::size_t store_spills = 0;
    std::size_t store_corrupt_evictions = 0;
    double store_hit_rate() const {
      std::size_t total = store_hits + store_misses;
      return total ? static_cast<double>(store_hits) /
                         static_cast<double>(total)
                   : 0.0;
    }
    // Diagnostics of quarantined jobs, in quarantine order (capped so a
    // fault storm cannot grow Stats unboundedly).
    std::vector<ObfError> quarantined;
    // Functions shed by the mid-craft cancel poll (handles dropped
    // while their batch was crafting).
    std::size_t craft_shed_functions = 0;
    std::size_t peak_sessions_in_flight = 0;
    // Per-stage busy times. commit_busy_seconds is the UNION busy time
    // of the resolve and materialize stages (the "downstream" of
    // craft), which is what overlap_seconds is measured against.
    double craft_busy_seconds = 0.0;
    double resolve_busy_seconds = 0.0;
    double materialize_busy_seconds = 0.0;
    double commit_busy_seconds = 0.0;
    double overlap_seconds = 0.0;  // craft time that ran while the
                                   // downstream stages were busy
    double wall_seconds = 0.0;     // service lifetime so far
    // Queue occupancy peaks: jobs buffered ahead of each stage (for
    // craft: admitted-not-yet-crafting, i.e. craft queue + backlogs).
    std::size_t craft_queue_peak = 0;
    std::size_t resolve_queue_peak = 0;
    std::size_t materialize_queue_peak = 0;
    // Fraction of downstream (resolve+materialize) busy time hidden
    // behind crafting -- the pipelining win. Guarded: before any
    // commit-side work has run, commit_busy_seconds is 0 and the ratio
    // is 0.0 by definition, never a divide-by-zero artifact. stats()
    // snapshots include in-progress stage intervals, so overlap can
    // never outrun the busy time it is measured against.
    double overlap_ratio() const {
      if (!(commit_busy_seconds > 0.0)) return 0.0;
      return overlap_seconds / commit_busy_seconds;
    }
  };
  Stats stats() const;

  const std::shared_ptr<analysis::AnalysisCache>& analysis_cache() const {
    return cache_;
  }
  int craft_threads() const { return cfg_.craft_threads; }

 private:
  friend class Session;

  using Lock = std::unique_lock<std::mutex>;
  // The pipeline stages, in job order; indexes into stages_.
  enum StageId { kCraft, kResolve, kMaterialize };
  // One pipeline stage: a job queue drained by one worker thread.
  struct Stage {
    const char* name;        // ObfError::stage and the stage_probe argument
    const char* fault_site;  // retryable entry site, service.<name>.pre
    double Stats::*busy;     // the stage's busy-time field
    // Jobs buffered ahead of the stage: kept by handoff, and for craft
    // by enqueue (admitted-not-yet-crafting).
    std::size_t Stats::*queue_peak;
    std::deque<std::shared_ptr<ServiceJob>> q{};
    std::condition_variable ready{};  // q gained a job, or stopping_
    std::condition_variable space{};  // q lost a job (bounded handoff)
    // In-progress interval start (< 0: idle) for stats() and the
    // watchdog, which flags one overrun once via flagged_at.
    double active_since = -1.0;
    double flagged_at = -1.0;
    std::thread worker{};
  };
  struct StageRun {
    double start = 0.0;
    // Downstream union busy time accrued during the run: for craft,
    // the pipelining overlap it enjoyed.
    double downstream_busy = 0.0;
  };

  // Session::submit() on a service-owned session lands here.
  JobHandle enqueue(std::shared_ptr<Session> session,
                    std::vector<std::string> names);
  // A stage's worker: pop, cancel a job whose handles are all gone (if
  // it has not entered resolve), then the stage's step -- its body
  // through run_stage and its next step (handoff, demotion or finish).
  void stage_loop(StageId id);
  void craft(std::shared_ptr<ServiceJob> job, Lock& lk);
  void resolve(std::shared_ptr<ServiceJob> job, Lock& lk);
  void materialize(std::shared_ptr<ServiceJob> job, Lock& lk);
  // The one stage runner (lk held on entry and exit): opens the busy
  // interval(s), unlocks, runs stage_gate, the probe and `body` inside
  // the one catch ladder that types every exception as an ObfError,
  // relocks, closes the interval(s) and accounts busy time and retries.
  // nullopt: the job failed and was quarantined.
  std::optional<StageRun> run_stage(Stage& s, ServiceJob& job, Lock& lk,
                                    const std::function<void()>& body);
  // Bounded push into `next` (waits for space; lk held).
  void handoff(Stage& next, std::shared_ptr<ServiceJob> job, Lock& lk);
  void watchdog_loop();
  enum class Outcome { kCompleted, kCancelled, kQuarantined };
  // End-of-pipeline bookkeeping for one job (caller holds mu_): fulfill
  // surviving handles, advance the session's FIFO backlog, release the
  // admission quota, update drain/cancel counters.
  void finish_locked(ServiceJob& job, ModuleResult result, Outcome outcome);
  // Quarantine: record diagnostics in Stats and fulfill the handle with
  // a typed error instead of results (caller holds mu_). The session
  // FIFO keeps draining -- only this job is lost.
  void quarantine_locked(ServiceJob& job, ObfError err);
  // Evaluates the retryable stage-entry fault site, sleeping the capped
  // seed-jittered backoff between attempts (runs unlocked). Returns the
  // error to quarantine with once retries are exhausted, or nullopt to
  // proceed; *attempts reports retries consumed either way.
  std::optional<ObfError> stage_gate(const Stage& s, std::uint64_t seed,
                                     int* attempts) const;
  void backoff(const char* stage, std::uint64_t seed, int attempt) const;
  // Downstream (resolve/materialize) union busy time up to `now`.
  double commit_busy_at(double now) const;
  static void fulfill(const std::shared_ptr<JobHandle::State>& st,
                      ModuleResult result);

  ServiceConfig cfg_;
  std::shared_ptr<analysis::AnalysisCache> cache_;
  ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable admit_ready_, drained_;
  std::vector<std::weak_ptr<Session>> sessions_;
  bool accepting_ = true;
  bool stopping_ = false;
  bool stage_threads_joined_ = false;
  std::size_t jobs_in_flight_ = 0;
  std::size_t pending_craft_ = 0;  // admitted, craft not yet started
  std::size_t busy_sessions_ = 0;
  int downstream_active_ = 0;  // resolve/materialize stages running now
  double downstream_since_ = -1.0;
  // The job crafting right now: the watchdog's cooperative-cancel
  // target (craft is the only stage with a cancel point).
  std::shared_ptr<ServiceJob> craft_active_job_;
  std::condition_variable watchdog_cv_;
  Stats stats_;
  Stopwatch wall_;

  // Declared after everything their workers use.
  std::array<Stage, 3> stages_;
  std::thread watchdog_;
};

}  // namespace raindrop::engine
