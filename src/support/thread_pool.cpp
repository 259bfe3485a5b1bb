#include "support/thread_pool.hpp"

#include <exception>

#include "support/faultpoint.hpp"

namespace raindrop {

ThreadPool::ThreadPool(int threads) {
  // The caller blocks in wait_idle()/parallel_for() while work runs, so
  // `threads` workers give `threads` concurrent crafters.
  if (threads > 1)
    for (int i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      task_ready_.wait(lk, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // submit()'s contract says tasks must not throw, but a worker dying
    // would wedge every later parallel_for latch -- swallow defensively.
    // parallel_for's own wrapper captures the exception for the caller
    // before it can reach this backstop.
    try {
      task();
    } catch (...) {
    }
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (--in_flight_ == 0 && tasks_.empty()) idle_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Inline mode: run now. in_flight_ bookkeeping is unnecessary since
    // nothing executes concurrently.
    task();
    return;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lk(mu_);
  idle_.wait(lk, [this] { return in_flight_ == 0 && tasks_.empty(); });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || n == 1) {
    // Inline mode, and the single-item fast path: a 1-element batch
    // (rewrite_function, a 1-shard resolve) runs on the calling thread --
    // a queue round-trip buys no parallelism. Callers sharing one pool
    // across pipeline stages (the ObfuscationService) keep their worker
    // slots for batches that can actually fan out. Exceptions propagate
    // directly; later indices are not attempted.
    for (std::size_t i = 0; i < n; ++i) {
      fault::maybe_throw("threadpool.task");
      fn(i);
    }
    return;
  }
  // One task per index: craft items vary wildly in cost (a 6-line leaf vs
  // a 300-point switch machine), so per-index queueing is the balancer.
  // A throwing fn(i) must not strand the latch or kill the worker: the
  // first exception is captured and rethrown on the calling thread once
  // every index has finished (remaining indices still run -- craft items
  // are independent, and a partial batch would be harder to reason about
  // than a complete one with one recorded failure).
  struct Shared {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr first_error;
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining = n;
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    submit([i, &fn, shared] {
      try {
        fault::maybe_throw("threadpool.task");
        fn(i);
      } catch (...) {
        std::unique_lock<std::mutex> lk(shared->mu);
        if (!shared->first_error) shared->first_error = std::current_exception();
      }
      std::unique_lock<std::mutex> lk(shared->mu);
      if (--shared->remaining == 0) shared->done.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(shared->mu);
  shared->done.wait(lk, [&] { return shared->remaining == 0; });
  if (shared->first_error) std::rethrow_exception(shared->first_error);
}

}  // namespace raindrop
