#include "engine/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "store/store.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace raindrop::engine {

namespace {

std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 1469598103934665603ull;
  for (; *s; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

ObfError stage_error(ObfError::Kind kind, const char* stage, bool retryable,
                     int attempts, std::string detail) {
  ObfError e;
  e.kind = kind;
  e.stage = stage;
  e.retryable = retryable;
  e.attempts = attempts;
  e.detail = std::move(detail);
  return e;
}

// Bound on each inter-stage handoff queue (craft->resolve,
// resolve->materialize); an upstream stage finishing a job waits for
// space, which propagates backpressure toward the craft queue. 2 keeps
// the handoff bounded while sparing the upstream worker a park/wake
// cycle on every job.
constexpr std::size_t kStageQueueDepth = 2;

}  // namespace

// One submission moving through the pipeline. Owns a strong reference
// to its session so a client may drop the session handle with jobs in
// flight; the job (and its engine/image access) stays alive until the
// materialize lands. Holds only a WEAK reference to the handle state:
// when every client copy of the JobHandle is gone, the state expires
// and the job is cancelled at its next stage boundary -- unless it
// already entered resolve, after which it always runs to completion.
struct ServiceJob {
  std::shared_ptr<Session> session;
  std::vector<std::string> names;
  std::weak_ptr<JobHandle::State> state;
  CraftedModule cm;    // filled by the craft stage
  ResolvedModule rm;   // filled by the resolve stage
  double submit_t = 0.0;
  // Scheduler telemetry, stamped by the craft step and copied onto the
  // ModuleResult when the job completes the pipeline.
  double queue_seconds = 0.0;    // submit -> craft start
  double overlap_seconds = 0.0;  // downstream busy time during craft
  int sessions_in_flight = 0;    // busy sessions at craft start
  // Set by the watchdog when the craft stage blows its deadline; the
  // engine's cancel poll observes it and sheds the rest of the batch,
  // after which the craft worker demotes the job to the serial path.
  std::atomic<bool> watchdog_expired{false};
  int retries = 0;  // service-level stage retries consumed so far
};

ObfuscationService::ObfuscationService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.cache
                 ? cfg_.cache
                 : (cfg_.store_dir.empty()
                        ? analysis::AnalysisCache::process_cache()
                        : std::make_shared<analysis::AnalysisCache>())),
      pool_(std::max(1, cfg_.craft_threads)),
      stages_{{{"craft", "service.craft.pre", &Stats::craft_busy_seconds,
                &Stats::craft_queue_peak},
               {"resolve", "service.resolve.pre",
                &Stats::resolve_busy_seconds, &Stats::resolve_queue_peak},
               {"materialize", "service.materialize.pre",
                &Stats::materialize_busy_seconds,
                &Stats::materialize_queue_peak}}} {
  // Disk tier (DESIGN.md §13): attach once; an explicit cache that
  // already carries a store keeps it (the caller wired its own tier).
  if (!cfg_.store_dir.empty() && !cache_->store())
    cache_->attach_store(
        std::make_shared<store::ArtifactStore>(cfg_.store_dir));
  for (StageId id : {kCraft, kResolve, kMaterialize})
    stages_[id].worker = std::thread([this, id] { stage_loop(id); });
  if (cfg_.watchdog_deadline_s > 0.0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

ObfuscationService::~ObfuscationService() { shutdown(); }

std::shared_ptr<Session> ObfuscationService::open_session(
    Image* img, const rop::ObfConfig& cfg) {
  auto session = std::make_shared<Session>(img, cfg, cache_);
  std::lock_guard<std::mutex> g(mu_);
  if (accepting_) {
    session->service_.store(this, std::memory_order_release);
    std::erase_if(sessions_, [](const std::weak_ptr<Session>& w) {
      return w.expired();
    });
    sessions_.push_back(session);
  }
  // After shutdown the session stays standalone: submit() runs
  // synchronously, results are still correct.
  return session;
}

void ObfuscationService::fulfill(const std::shared_ptr<JobHandle::State>& st,
                                 ModuleResult result) {
  std::lock_guard<std::mutex> g(st->mu);
  st->result = std::move(result);
  st->done = true;
  st->cv.notify_all();
}

JobHandle ObfuscationService::enqueue(std::shared_ptr<Session> session,
                                      std::vector<std::string> names) {
  auto job = std::make_shared<ServiceJob>();
  job->session = std::move(session);
  job->names = std::move(names);
  auto st = std::make_shared<JobHandle::State>();
  job->state = st;
  JobHandle handle;
  handle.st_ = st;
  {
    std::unique_lock<std::mutex> lk(mu_);
    while (accepting_) {
      Session& sess = *job->session;
      const bool queue_full = cfg_.craft_queue_depth != 0 &&
                              pending_craft_ >= cfg_.craft_queue_depth;
      const bool quota_full = cfg_.session_quota != 0 &&
                              sess.in_flight_ >= cfg_.session_quota;
      if (!queue_full && !quota_full) {
        // Admission: the job enters the (bounded) craft queue, or the
        // session's backlog when the session already has a job in the
        // pipe -- both count against craft_queue_depth, which bounds
        // admitted-but-not-yet-crafting work however it is parked.
        job->submit_t = wall_.seconds();
        ++stats_.jobs_submitted;
        ++jobs_in_flight_;
        ++sess.in_flight_;
        ++pending_craft_;
        stats_.craft_queue_peak =
            std::max(stats_.craft_queue_peak, pending_craft_);
        if (sess.job_in_pipeline_) {
          // Strict per-session FIFO: the pipe holds at most one job per
          // session, so job K+1 crafts against the image job K left.
          sess.backlog_.push_back(job);
        } else {
          sess.job_in_pipeline_ = true;
          ++busy_sessions_;
          stats_.peak_sessions_in_flight =
              std::max(stats_.peak_sessions_in_flight, busy_sessions_);
          stages_[kCraft].q.push_back(job);
          stages_[kCraft].ready.notify_one();
        }
        return handle;
      }
      if (cfg_.submit_policy == ServiceConfig::SubmitPolicy::kFailFast) {
        // Backpressure, fail-fast flavour: refuse instead of buffering.
        // The handle is ready on return with result.rejected set; the
        // image is untouched and the caller may retry later.
        ++stats_.jobs_rejected;
        lk.unlock();
        ModuleResult r;
        r.rejected = true;
        fulfill(st, std::move(r));
        return handle;
      }
      // Backpressure, blocking flavour: wait for queue/quota space (a
      // craft start or a finished job of this session) or shutdown.
      admit_ready_.wait(lk);
    }
    // Shut down (or shutting down): the job was never admitted, so
    // nothing touched the image. Wake the caller with a typed
    // rejection instead of parking forever -- a kBlock submitter must
    // not deadlock on a service that will never free queue space.
    // (Post-shutdown submits on detached sessions never reach here;
    // Session::submit serves them synchronously.)
    ++stats_.jobs_rejected;
  }
  ModuleResult r;
  r.rejected = true;
  r.error = stage_error(ObfError::Kind::kShutdown, "submit",
                        /*retryable=*/false, 0, "service shutting down");
  fulfill(st, std::move(r));
  return handle;
}

double ObfuscationService::commit_busy_at(double now) const {
  return stats_.commit_busy_seconds +
         (downstream_active_ > 0 ? now - downstream_since_ : 0.0);
}

void ObfuscationService::finish_locked(ServiceJob& job, ModuleResult result,
                                       Outcome outcome) {
  switch (outcome) {
    case Outcome::kCompleted:
      ++stats_.jobs_completed;
      stats_.corruptions_recovered += result.corruptions_recovered;
      stats_.store_hits += result.store_hits;
      stats_.store_misses += result.store_misses;
      stats_.store_spills += result.store_spills;
      stats_.store_corrupt_evictions += result.store_corrupt_evictions;
      break;
    case Outcome::kCancelled:
      ++stats_.jobs_cancelled;
      break;
    case Outcome::kQuarantined:
      // jobs_quarantined is counted by quarantine_locked, which also
      // records the diagnostic ObfError before delegating here.
      break;
  }
  if (job.retries > 0 || result.craft_retries > 0) ++stats_.jobs_retried;
  result.retries = job.retries;
  if (auto st = job.state.lock()) fulfill(st, std::move(result));
  // Release the session's next queued job into the craft stage. A
  // backlog promotion bypasses the craft_queue_depth bound on purpose:
  // the job was admitted (and counted) at submit, and the materialize
  // worker must never block on an upstream queue (that cycle could
  // deadlock the pipeline).
  Session& sess = *job.session;
  --sess.in_flight_;
  if (!sess.backlog_.empty()) {
    stages_[kCraft].q.push_back(std::move(sess.backlog_.front()));
    sess.backlog_.pop_front();
    stages_[kCraft].ready.notify_one();
  } else {
    sess.job_in_pipeline_ = false;
    --busy_sessions_;
  }
  admit_ready_.notify_all();  // quota space for blocked submitters
  if (--jobs_in_flight_ == 0) drained_.notify_all();
}

void ObfuscationService::quarantine_locked(ServiceJob& job, ObfError err) {
  ++stats_.jobs_quarantined;
  // Keep the per-job diagnostics bounded: a pathological run (every job
  // faulted) must not grow Stats without limit.
  if (stats_.quarantined.size() < 64) stats_.quarantined.push_back(err);
  ModuleResult r;
  r.error = std::move(err);
  finish_locked(job, std::move(r), Outcome::kQuarantined);
}

// Runs the named fault site for a stage entry, retrying injected faults
// up to max_stage_retries with capped exponential backoff. Returns the
// terminal error when retries are exhausted, nullopt on (eventual)
// success. Called UNLOCKED: it sleeps.
std::optional<ObfError> ObfuscationService::stage_gate(const Stage& s,
                                                       std::uint64_t seed,
                                                       int* attempts) const {
  for (int attempt = 0;; ++attempt) {
    try {
      fault::maybe_throw(s.fault_site);
      return std::nullopt;
    } catch (const fault::FaultInjected& e) {
      if (attempt >= cfg_.max_stage_retries)
        return stage_error(ObfError::Kind::kFaultInjected, s.name,
                           /*retryable=*/true, attempt + 1, e.what());
      ++*attempts;
      backoff(s.name, seed, attempt);
    }
  }
}

void ObfuscationService::backoff(const char* stage, std::uint64_t seed,
                                 int attempt) const {
  if (cfg_.retry_backoff_ms <= 0.0) return;
  const std::uint64_t base_us =
      static_cast<std::uint64_t>(cfg_.retry_backoff_ms * 1000.0);
  // Doubling, capped at 8x base; the jitter draw is seed-derived so a
  // rerun with the same config sleeps identically (determinism extends
  // to the retry schedule, which keeps chaos runs reproducible).
  std::uint64_t us = base_us << std::min(attempt, 3);
  us += Rng::stream(seed ^ fnv1a(stage), static_cast<std::uint64_t>(attempt))
            .below(base_us + 1);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void ObfuscationService::stage_loop(StageId id) {
  Stage& s = stages_[id];
  Lock lk(mu_);
  for (;;) {
    s.ready.wait(lk, [&] { return stopping_ || !s.q.empty(); });
    if (s.q.empty()) return;  // stopping_, and nothing left to drain
    std::shared_ptr<ServiceJob> job = std::move(s.q.front());
    s.q.pop_front();
    if (id == kCraft) {
      --pending_craft_;
      admit_ready_.notify_all();  // craft-queue space for blocked submitters
    } else {
      s.space.notify_one();  // handoff space for the upstream worker
    }
    if (id != kMaterialize && job->state.expired()) {
      // Every client handle is gone. Before craft nothing touched the
      // image (not even prealloc), so the module's bytes are as if the
      // job was never submitted; between craft and resolve the prealloc
      // reservations stand (later jobs of this session keep their exact
      // layout) but no chains or gadgets land. A job that entered
      // resolve always materializes: its gadgets were planned against
      // engine state and the plan must land to keep the session's FIFO
      // image evolution deterministic.
      ModuleResult r;
      r.cancelled = true;
      finish_locked(*job, std::move(r), Outcome::kCancelled);
      continue;
    }
    switch (id) {
      case kCraft: craft(std::move(job), lk); break;
      case kResolve: resolve(std::move(job), lk); break;
      case kMaterialize: materialize(std::move(job), lk); break;
    }
  }
}

std::optional<ObfuscationService::StageRun> ObfuscationService::run_stage(
    Stage& s, ServiceJob& job, Lock& lk, const std::function<void()>& body) {
  // Resolve and materialize are the "downstream" of craft: their union
  // busy time (commit_busy_seconds) is what craft overlap is measured by.
  const bool downstream = &s != &stages_[kCraft];
  StageRun run;
  run.start = wall_.seconds();
  const double commit_busy0 = commit_busy_at(run.start);
  s.active_since = run.start;
  if (downstream && downstream_active_++ == 0) downstream_since_ = run.start;
  lk.unlock();
  int attempts = 0;
  std::optional<ObfError> err =
      stage_gate(s, job.session->config().seed, &attempts);
  // Past the gate an exception is NOT retryable at this level: a craft
  // re-run would repeat prealloc, resolve_module consumes its input and
  // a half-done materialize leaves commits applied. Quarantine.
  auto fail = [&](ObfError::Kind kind, std::string detail) {
    err = stage_error(kind, s.name, /*retryable=*/false, attempts + 1,
                      std::move(detail));
  };
  if (!err) {
    try {
      if (cfg_.stage_probe) cfg_.stage_probe(s.name);
      body();
    } catch (const fault::FaultInjected& e) {
      fail(ObfError::Kind::kFaultInjected, e.what());
    } catch (const std::exception& e) {
      fail(ObfError::Kind::kStageFailure, e.what());
    } catch (...) {
      fail(ObfError::Kind::kInternal,
           std::string("unknown exception in ") + s.name);
    }
  }
  lk.lock();
  const double end = wall_.seconds();
  s.active_since = -1.0;
  stats_.*s.busy += end - run.start;
  if (downstream && --downstream_active_ == 0)
    stats_.commit_busy_seconds += end - downstream_since_;
  run.downstream_busy = commit_busy_at(end) - commit_busy0;
  job.retries += attempts;
  stats_.stage_retries += static_cast<std::size_t>(attempts);
  if (err) {
    quarantine_locked(job, std::move(*err));
    return std::nullopt;
  }
  return run;
}

void ObfuscationService::handoff(Stage& next, std::shared_ptr<ServiceJob> job,
                                 Lock& lk) {
  // A full queue parks the upstream worker, which in turn fills the
  // queues before it -- backpressure propagates to submit().
  next.space.wait(lk, [&] { return next.q.size() < kStageQueueDepth; });
  next.q.push_back(std::move(job));
  stats_.*next.queue_peak = std::max(stats_.*next.queue_peak, next.q.size());
  next.ready.notify_one();
}

void ObfuscationService::craft(std::shared_ptr<ServiceJob> job, Lock& lk) {
  const int in_flight = static_cast<int>(busy_sessions_);
  craft_active_job_ = job;  // the watchdog's deadline target
  std::optional<StageRun> run = run_stage(stages_[kCraft], *job, lk, [&] {
    // The cancel poll between functions: if every client handle is
    // dropped mid-craft, the rest of the batch is shed (expiry is
    // permanent, so the job is then cancelled at the next stage
    // boundary before resolve touches the image). The watchdog uses
    // the same poll to abandon an over-deadline craft. If the deadline
    // already passed before craft entry, skip craft_module entirely:
    // its prealloc prepass would consume image reservations the serial
    // demotion path re-allocates itself (the demoted rerun then lands
    // the exact standalone-reference bytes).
    if (job->watchdog_expired.load(std::memory_order_relaxed)) return;
    job->cm = job->session->engine_.craft_module(
        job->names, cfg_.craft_threads, &pool_, [&job] {
          return job->state.expired() ||
                 job->watchdog_expired.load(std::memory_order_relaxed);
        });
  });
  craft_active_job_.reset();
  if (!run) return;  // quarantined: nothing downstream may run
  if (job->watchdog_expired.load(std::memory_order_relaxed) &&
      !job->state.expired()) {
    // Deadline blown: the cancel poll shed the rest of the batch, so
    // the pipelined artifacts are incomplete. Graceful degradation:
    // rerun the whole job on the serial path, on this worker thread
    // (per-session FIFO guarantees no other stage touches this
    // session's engine while the job is still in flight).
    ++stats_.jobs_degraded_serial;
    lk.unlock();
    ModuleResult r = job->session->run(job->names, cfg_.craft_threads,
                                       cfg_.commit_shards);
    r.degraded_serial = true;
    lk.lock();
    finish_locked(*job, std::move(r), Outcome::kCompleted);
    return;
  }
  stats_.craft_shed_functions += job->cm.craft_shed;
  job->queue_seconds = run->start - job->submit_t;
  job->overlap_seconds = run->downstream_busy;
  job->sessions_in_flight = in_flight;
  stats_.overlap_seconds += job->overlap_seconds;
  handoff(stages_[kResolve], std::move(job), lk);
}

void ObfuscationService::resolve(std::shared_ptr<ServiceJob> job, Lock& lk) {
  if (!run_stage(stages_[kResolve], *job, lk, [&] {
        job->rm = job->session->engine_.resolve_module(
            std::move(job->cm), cfg_.craft_threads, cfg_.commit_shards,
            &pool_);
      }))
    return;
  handoff(stages_[kMaterialize], std::move(job), lk);
}

void ObfuscationService::materialize(std::shared_ptr<ServiceJob> job,
                                     Lock& lk) {
  ModuleResult result;
  if (!run_stage(stages_[kMaterialize], *job, lk, [&] {
        result = job->session->engine_.materialize_module(std::move(job->rm));
      }))
    return;
  result.queue_seconds = job->queue_seconds;
  result.overlap_seconds = job->overlap_seconds;
  result.sessions_in_flight = job->sessions_in_flight;
  finish_locked(*job, std::move(result), Outcome::kCompleted);
}

// Deadline sentry: wakes 4x per deadline, flags any stage whose current
// job has been in flight longer than watchdog_deadline_s. Only the
// craft stage has a cooperative cancel point, so only craft jobs are
// actively demoted; resolve/materialize overruns are flagged in Stats
// for the operator (cancelling mid-commit would corrupt the image).
void ObfuscationService::watchdog_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  const auto tick = std::chrono::duration<double>(
      std::max(0.005, cfg_.watchdog_deadline_s / 4.0));
  while (!stopping_) {
    watchdog_cv_.wait_for(lk, tick);
    if (stopping_) return;
    const double now = wall_.seconds();
    auto over = [&](double since) {
      return since >= 0.0 && now - since > cfg_.watchdog_deadline_s;
    };
    for (Stage& s : stages_) {
      if (!over(s.active_since) || s.flagged_at == s.active_since) continue;
      s.flagged_at = s.active_since;  // one flag per overrun
      ++stats_.watchdog_flags;
      if (&s == &stages_[kCraft])
        craft_active_job_->watchdog_expired.store(true,
                                                  std::memory_order_relaxed);
    }
  }
}

void ObfuscationService::shutdown() {
  std::vector<std::weak_ptr<Session>> sessions;
  {
    std::unique_lock<std::mutex> lk(mu_);
    accepting_ = false;
    admit_ready_.notify_all();  // blocked submitters fall to the sync path
    // Drain: every job already submitted finishes and its handle fires.
    drained_.wait(lk, [this] { return jobs_in_flight_ == 0; });
    if (stage_threads_joined_) return;  // an earlier shutdown() finished
    stopping_ = true;
    stage_threads_joined_ = true;
    sessions.swap(sessions_);
    for (Stage& s : stages_) s.ready.notify_all();
    watchdog_cv_.notify_all();
  }
  for (Stage& s : stages_) s.worker.join();
  if (watchdog_.joinable()) watchdog_.join();
  // Detach surviving sessions: their next submit() runs synchronously.
  for (auto& w : sessions)
    if (auto s = w.lock()) s->service_.store(nullptr, std::memory_order_release);
  std::lock_guard<std::mutex> g(mu_);
  stats_.wall_seconds = wall_.seconds();
}

ObfuscationService::Stats ObfuscationService::stats() const {
  std::lock_guard<std::mutex> g(mu_);
  Stats s = stats_;
  const double now = wall_.seconds();
  if (!stage_threads_joined_) s.wall_seconds = now;
  // Fold the in-progress stage intervals into the snapshot: a caller
  // sampling mid-run sees busy times consistent with the overlap
  // already accrued (overlap_ratio() would otherwise divide overlap by
  // a commit_busy_seconds that lags it -- the "no commit work yet"
  // artifact).
  for (const Stage& st : stages_)
    if (st.active_since >= 0.0) s.*st.busy += now - st.active_since;
  s.commit_busy_seconds = commit_busy_at(now);
  return s;
}

}  // namespace raindrop::engine
