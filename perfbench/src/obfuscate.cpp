// obfuscate_cold and obfuscate_restart: a closed loop of seeded corpus
// modules through ObfuscationService. One generator (the main thread)
// compiles each module and submits it on its own session, keeping
// `threads` jobs outstanding; a collector thread waits on the handles in
// submission order and stamps each job's completion.
//
//   cold     every pass starts a fresh service with a fresh private
//            cache and no store: craft, analysis, harvest, resolve and
//            materialize do the work. (With a store attached, its
//            one-file-per-record writes cut throughput about 4x and made
//            it vary by a third between runs; see README.md.)
//   restart  set-up populates one store directory (the store's write
//            path); every pass starts a fresh service over it, so store
//            reads do the work.
//
// Set-up computes each job's reference image with a standalone
// ObfuscationEngine::obfuscate_module; every streamed image must be
// byte-identical to it.
//
// Plan records:
//   job <corpus seed> <functions> <obfuscation seed> <p3 fraction>
#include <unistd.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "store/store.hpp"
#include "workload/corpus.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace raindrop;

namespace {

struct Job {
  std::shared_ptr<const workload::Corpus> corpus;
  rop::ObfConfig cfg;
  std::uint64_t ref_digest = 0;  // of the serialized reference image
  std::size_t ref_ok = 0;
  std::size_t ropdata_bytes = 0;
};

std::uint64_t digest(const Image& img) {
  std::vector<std::uint8_t> blob = img.serialize();
  return analysis::AnalysisCache::hash_bytes(blob.data(), blob.size()) ^
         blob.size();
}

Image traced_compile(const minic::Module& m) {
  Scope s("minic.compile");
  return minic::compile(m);
}

// Builds the job list and each job's standalone reference. With
// `store_dir` set, the references run against a cache backed by a fresh
// store there, which leaves it populated for the restart passes.
std::vector<Job> make_jobs(const Plan& plan, const std::string& store_dir) {
  std::shared_ptr<analysis::AnalysisCache> shared;
  if (!store_dir.empty()) {
    remove_tree(store_dir);
    shared = std::make_shared<analysis::AnalysisCache>();
    shared->attach_store(std::make_shared<store::ArtifactStore>(store_dir));
  }
  std::vector<Job> jobs;
  for (const auto& item : plan.items) {
    if (item[0] != "job") continue;
    Job j;
    {
      Scope s("workload.generate");
      j.corpus = std::make_shared<const workload::Corpus>(
          workload::make_corpus(to_int(item.at(1)),
                                static_cast<int>(to_int(item.at(2)))));
    }
    // The Table II ROP row setup (§VII-B): P1 + P3 variant 1 at the
    // plan's fraction; P2 and gadget confusion off.
    j.cfg.seed = to_int(item.at(3));
    j.cfg.p1 = true;
    j.cfg.p2 = false;
    j.cfg.p3_fraction = to_double(item.at(4));
    j.cfg.p3_variant = 1;
    j.cfg.gadget_confusion = false;
    Image img = traced_compile(j.corpus->module);
    {
      Scope s("engine.obfuscate");
      engine::ObfuscationEngine eng(
          &img, j.cfg,
          shared ? shared : std::make_shared<analysis::AnalysisCache>());
      j.ref_ok = eng.obfuscate_module(j.corpus->functions, plan.threads)
                     .ok_count;
    }
    {
      Scope s("bench.verify");
      j.ref_digest = digest(img);
      j.ropdata_bytes = img.section_bytes(".ropdata").size();
    }
    jobs.push_back(std::move(j));
  }
  if (shared) {
    // Also write the page cache back, so the timed passes do not share
    // the disk with set-up's writes.
    Scope s("store.flush");
    shared->store()->flush();
    ::sync();
  }
  return jobs;
}

// One job as the collector sees it.
struct Done {
  double submit_t = 0.0, done_t = 0.0;
  engine::ModuleResult result;
  engine::ObfuscationEngine::Aggregate gadgets;
};

// Per-layer totals over the passes that count (all of them untraced, the
// traced half in a traced run).
struct Layers {
  int passes = 0;
  std::size_t jobs = 0;
  double analysis_hits = 0, analysis_misses = 0;
  double aux_hits = 0, aux_misses = 0;
  double memo_hits = 0, memo_misses = 0;
  double store_hits = 0, store_misses = 0, store_spills = 0,
         store_corrupt = 0, store_bytes = 0;
  double unique_gadgets = 0, gadget_slots = 0;
  double queued_s = 0;  // latency minus the job's own stage time
};

class Streamer {
 public:
  Streamer(const Plan& plan, Raw& raw, const std::vector<Job>& jobs,
           bool cold)
      : plan_(plan), raw_(raw), jobs_(jobs), cold_(cold) {}

  PassResult pass(std::vector<double>* samples) {
    const std::string dir = plan_.work_dir + "/store";
    engine::ServiceConfig sc;
    sc.craft_threads = plan_.threads;
    if (cold_)
      sc.cache = std::make_shared<analysis::AnalysisCache>();
    else
      sc.store_dir = dir;
    std::unique_ptr<engine::ObfuscationService> svc;
    {
      Scope s("service.start");
      svc = std::make_unique<engine::ObfuscationService>(sc);
    }
    const std::size_t n = jobs_.size();
    std::vector<Image> imgs(n);
    std::vector<std::shared_ptr<engine::Session>> sessions(n);
    std::vector<engine::JobHandle> handles(n);
    std::vector<Done> done(n);

    std::mutex mu;
    std::condition_variable cv;
    std::size_t submitted = 0, collected = 0;
    bool aborted = false;  // the generator threw; collect nothing more
    // A client drops its session once the job is back, as the generator
    // does not reuse sessions; keeping all of them would hold every
    // job's gadget pool until the pass ends.
    std::thread collector([&] {
      for (std::size_t j = 0; j < n; ++j) {
        engine::JobHandle h;
        std::shared_ptr<engine::Session> session;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return submitted > j || aborted; });
          if (submitted <= j) return;
          h = std::move(handles[j]);
          session = std::move(sessions[j]);
        }
        const engine::ModuleResult& r = h.wait();
        double t = now_s();
        engine::ObfuscationEngine::Aggregate ag = session->engine().aggregate();
        {
          std::lock_guard<std::mutex> lock(mu);
          done[j].done_t = t;
          done[j].result = r;
          done[j].gadgets = ag;
          ++collected;
        }
        cv.notify_all();
      }
    });

    const std::size_t window =
        static_cast<std::size_t>(std::max(1, plan_.threads));
    try {
      for (std::size_t j = 0; j < n; ++j) {
        const long id = static_cast<long>(j);
        imgs[j] = traced_compile(jobs_[j].corpus->module);
        {
          std::unique_lock<std::mutex> lock(mu);
          if (submitted - collected >= window) {
            Scope s("client.wait", id);
            cv.wait(lock, [&] { return submitted - collected < window; });
          }
        }
        std::shared_ptr<engine::Session> session;
        {
          Scope s("service.open_session", id);
          session = svc->open_session(&imgs[j], jobs_[j].cfg);
        }
        double t = now_s();
        engine::JobHandle h;
        {
          Scope s("service.submit", id);
          h = session->submit(jobs_[j].corpus->functions);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          sessions[j] = std::move(session);
          handles[j] = std::move(h);
          done[j].submit_t = t;
          ++submitted;
        }
        cv.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        aborted = true;
      }
      cv.notify_all();
      collector.join();
      throw;
    }
    {
      Scope s("client.wait");
      collector.join();
    }
    PassResult pr;
    pr.seconds = done.back().done_t - done.front().submit_t;

    const bool counts = !plan_.trace || tracer().on();
    store::ArtifactStore* disk = svc->analysis_cache()->store().get();
    if (disk) {
      Scope s("store.flush");
      disk->flush();
    }
    if (counts) {
      auto as = svc->analysis_cache()->stats();
      auto xs = svc->analysis_cache()->aux_stats();
      auto ss = disk ? disk->stats() : store::ArtifactStore::Stats{};
      L.analysis_hits += as.hits;
      L.analysis_misses += as.misses;
      L.aux_hits += xs.hits;
      L.aux_misses += xs.misses;
      L.store_hits += ss.hits;
      L.store_misses += ss.misses;
      L.store_spills += ss.spills;
      L.store_corrupt += ss.corrupt_evictions;
      ++L.passes;
    }
    {
      Scope s("service.shutdown");
      svc.reset();
    }
    if (counts && disk) {
      Scope s("bench.fs");
      L.store_bytes += static_cast<double>(tree_bytes(dir));
    }

    Scope s("bench.verify");
    for (std::size_t j = 0; j < n; ++j) {
      const engine::ModuleResult& r = done[j].result;
      ++raw_.attempted;
      const double lat = done[j].done_t - done[j].submit_t;
      samples->push_back(lat * 1e3);
      if (r.rejected || r.cancelled || r.error) {
        raw_.fail("job " + std::to_string(j) +
                  (r.rejected ? " rejected" : r.cancelled ? " cancelled"
                                                          : " quarantined"));
        continue;
      }
      if (r.ok_count != jobs_[j].ref_ok ||
          digest(imgs[j]) != jobs_[j].ref_digest) {
        raw_.fail("job " + std::to_string(j) +
                  ": image differs from the standalone reference");
        continue;
      }
      pr.work += static_cast<double>(r.ok_count);
      if (counts) {
        ++L.jobs;
        L.memo_hits += r.craft_memo_hits;
        L.memo_misses += r.craft_memo_misses;
        L.queued_s += lat - r.craft_seconds - r.resolve_seconds -
                      r.materialize_seconds;
        L.unique_gadgets += done[j].gadgets.unique_gadgets;
        L.gadget_slots += done[j].gadgets.gadget_slots;
      }
    }
    if (pr.seconds > 0)
      pass_rates[tracer().on() ? 1 : 0].push_back(pr.work / pr.seconds);
    return pr;
  }

  Layers L;
  // Functions rewritten per second of each pass, per half of the run.
  std::vector<double> pass_rates[2];

 private:
  const Plan& plan_;
  Raw& raw_;
  const std::vector<Job>& jobs_;
  bool cold_;
};

// Traced run only: the same jobs once more through the engine's public
// stage functions, serially, so each stage gets its own span. The cache
// is set up as in the passes: private, with the populated store on
// restart.
void replay_stages(const Plan& plan, Raw& raw, const std::vector<Job>& jobs,
                   bool cold) {
  auto cache = std::make_shared<analysis::AnalysisCache>();
  if (!cold)
    cache->attach_store(
        std::make_shared<store::ArtifactStore>(plan.work_dir + "/store"));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const long id = static_cast<long>(j);
    Image img = traced_compile(jobs[j].corpus->module);
    engine::ObfuscationEngine eng(&img, jobs[j].cfg, cache);
    engine::CraftedModule cm;
    engine::ResolvedModule rm;
    engine::ModuleResult mr;
    {
      Scope s("engine.craft", id);
      cm = eng.craft_module(jobs[j].corpus->functions, plan.threads);
    }
    {
      Scope s("engine.resolve", id);
      rm = eng.resolve_module(std::move(cm), plan.threads);
    }
    {
      Scope s("engine.materialize", id);
      mr = eng.materialize_module(std::move(rm));
    }
    Scope s("bench.verify", id);
    ++raw.attempted;
    if (mr.ok_count != jobs[j].ref_ok || digest(img) != jobs[j].ref_digest)
      raw.fail("replayed job " + std::to_string(j) +
               ": image differs from the standalone reference");
  }
  if (cache->store()) {
    Scope s("store.flush");
    cache->store()->flush();
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int run_obfuscate(const Plan& plan, Raw& raw, bool cold) {
  const std::string populate_dir = cold ? "" : plan.work_dir + "/store";
  std::vector<Job> jobs =
      repeated_setup(raw, [&] { return make_jobs(plan, populate_dir); });
  if (jobs.empty()) {
    raw.fail("plan has no jobs");
    return 1;
  }
  Streamer streamer(plan, raw, jobs, cold);
  run_timed(plan, raw,
            [&](std::vector<double>* samples) { return streamer.pass(samples); });
  if (tracer().on()) replay_stages(plan, raw, jobs, cold);
  // The median pass: a brief host stall moves one pass, not the rate.
  raw.rate = median(streamer.pass_rates[plan.trace ? 1 : 0]);
  raw.untraced_rate = median(streamer.pass_rates[0]);

  double ok = 0, ropdata = 0;
  for (const Job& j : jobs) {
    ok += j.ref_ok;
    ropdata += j.ropdata_bytes;
  }
  const Layers& L = streamer.L;
  const double passes = L.passes ? L.passes : 1;
  const double njobs = L.jobs ? static_cast<double>(L.jobs) : 1;
  auto& c = raw.counters;
  c["gadgets.chain_bytes_per_fn"] = ratio(ropdata, ok);
  c["obf.jobs_per_pass"] = static_cast<double>(jobs.size());
  c["obf.functions_per_pass"] = ok;
  c["analysis.hit_rate"] =
      ratio(L.analysis_hits, L.analysis_hits + L.analysis_misses);
  c["analysis.misses"] = L.analysis_misses / passes;
  c["harvest.hit_rate"] = ratio(L.aux_hits, L.aux_hits + L.aux_misses);
  c["craft_memo.hit_rate"] =
      ratio(L.memo_hits, L.memo_hits + L.memo_misses);
  c["store.hits"] = L.store_hits / passes;
  c["store.misses"] = L.store_misses / passes;
  c["store.spills"] = L.store_spills / passes;
  c["store.corrupt_evictions"] = L.store_corrupt / passes;
  c["store.bytes"] = L.store_bytes / passes;
  c["gadgets.unique_gadgets"] = L.unique_gadgets / njobs;
  c["gadgets.gadget_slots"] = L.gadget_slots / njobs;
  c["service.wait_s"] = L.queued_s / njobs;
  return 0;
}

}  // namespace perfbench
