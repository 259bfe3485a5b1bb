#include "engine/session.hpp"

#include "engine/service.hpp"

namespace raindrop::engine {

bool JobHandle::ready() const {
  if (!st_) return false;
  std::lock_guard<std::mutex> g(st_->mu);
  return st_->done;
}

const ModuleResult& JobHandle::wait() const& {
  std::unique_lock<std::mutex> lk(st_->mu);
  st_->cv.wait(lk, [this] { return st_->done; });
  return st_->result;
}

ModuleResult JobHandle::wait() && {
  const JobHandle& self = *this;
  return self.wait();
}

Session::Session(Image* img, const rop::ObfConfig& cfg,
                 std::shared_ptr<analysis::AnalysisCache> cache)
    : engine_(img, cfg, std::move(cache)) {}

JobHandle Session::submit(std::vector<std::string> names) {
  if (ObfuscationService* svc = service_.load(std::memory_order_acquire))
    return svc->enqueue(shared_from_this(), std::move(names));
  // Standalone session: the synchronous facade path. Same stages, same
  // bytes; the handle is ready on return.
  JobHandle h;
  h.st_ = std::make_shared<JobHandle::State>();
  h.st_->result = run(names);
  h.st_->done = true;
  return h;
}

ModuleResult Session::run(const std::vector<std::string>& names, int threads) {
  // Serialize synchronous runs: the engine is not concurrent-safe, and
  // a session's thread-safety must not silently degrade when it detaches
  // from its service (clients may keep submitting from several threads).
  std::lock_guard<std::mutex> g(sync_mu_);
  return engine_.obfuscate_module(names, threads);
}

}  // namespace raindrop::engine
