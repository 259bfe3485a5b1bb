// Session: the per-module unit of the streaming front door. A client
// opens one Session per module (image + ObfConfig + seed) and submit()s
// batches of function names; each submission returns a future-like
// JobHandle that becomes ready when the module's chains have landed in
// the image.
//
// A Session owned by an ObfuscationService streams its jobs through the
// service's three-stage craft/resolve/materialize pipeline: one job's
// craft can overlap another session's resolve and materialize, while a
// single session's jobs always run strictly FIFO -- job K+1's prealloc
// must observe the image exactly as job K's materialize left it, which
// is also what makes a streamed module byte-identical to standalone
// obfuscate_module() calls with the same batches and seed.
//
// A standalone Session (constructed directly, no service) is the
// synchronous facade: submit() runs the same pipeline stages back to
// back on the calling thread and returns an already-ready handle.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace raindrop::engine {

class ObfuscationService;
struct ServiceJob;  // service.cpp: one submission moving through the pipe

// Future-like result handle for one submitted job. Copyable; all copies
// share one result slot. A default-constructed handle is empty
// (valid() == false); handles returned by submit() are always valid and
// become ready exactly once.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return st_ != nullptr; }
  // True once the job's commit finished and the result is readable.
  bool ready() const;
  // Blocks until the job completes; returns the result (owned by the
  // handle's shared state, so the reference stays valid for the
  // handle's lifetime). Must not be called on an empty handle.
  const ModuleResult& wait() const&;
  // On a temporary handle (submit(...).wait()) the shared state dies
  // with the temporary, so the result is returned by value instead of
  // as a reference that would dangle.
  ModuleResult wait() &&;

 private:
  friend class ObfuscationService;
  friend class Session;
  friend struct ServiceJob;  // holds a weak ref: expiry = cancellation
  struct State {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    bool done = false;
    ModuleResult result;
  };
  std::shared_ptr<State> st_;
};

class Session : public std::enable_shared_from_this<Session> {
 public:
  // `cache` as in ObfuscationEngine: nullptr shares the process-wide
  // content-addressed analysis cache. Sessions opened through
  // ObfuscationService::open_session share the service's cache instead,
  // which is what keeps analyses and craft memos hot across clients.
  Session(Image* img, const rop::ObfConfig& cfg,
          std::shared_ptr<analysis::AnalysisCache> cache = nullptr);

  // Submits one job (a batch of function names of this session's
  // module). Service-owned sessions enqueue into the streaming
  // pipeline; standalone sessions run synchronously and return a ready
  // handle. Results are delivered per session in submission order.
  JobHandle submit(std::vector<std::string> names);

  // The synchronous path: every pipeline stage back to back -- exactly
  // ObfuscationEngine::obfuscate_module. Mutually serialized (concurrent
  // callers queue on an internal mutex), but must not be mixed with
  // in-flight pipeline jobs of the same session -- use submit() there.
  ModuleResult run(const std::vector<std::string>& names, int threads = 1,
                   int shards = 0);

  ObfuscationEngine& engine() { return engine_; }
  const ObfuscationEngine& engine() const { return engine_; }
  const rop::ObfConfig& config() const { return engine_.config(); }

 private:
  friend class ObfuscationService;

  ObfuscationEngine engine_;
  // Owning service, or null for standalone sessions. Cleared (atomically)
  // when the service shuts down, so late submits degrade to the
  // synchronous path instead of dangling.
  std::atomic<ObfuscationService*> service_{nullptr};
  // Guards the synchronous run() path (standalone submits and the
  // post-shutdown fallback), so detaching from a service never turns
  // concurrent submits into an engine data race.
  std::mutex sync_mu_;
  // Pipeline bookkeeping, guarded by the service's mutex: jobs past the
  // head one wait here so a session is never in the pipe twice.
  std::deque<std::shared_ptr<ServiceJob>> backlog_;
  bool job_in_pipeline_ = false;
  // Jobs admitted for this session and not yet finished (completed or
  // cancelled) -- the quantity ServiceConfig::session_quota bounds.
  std::size_t in_flight_ = 0;
};

}  // namespace raindrop::engine
