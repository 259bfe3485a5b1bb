// ObfuscationService tests: the streaming front door must move
// wall-clock, never bytes. A module streamed through the
// craft/resolve/materialize pipeline -- concurrently with other
// sessions, at any pool width, against the shared
// analysis cache -- must be byte-identical to standalone
// obfuscate_module() runs with the same batches and seed; per-session
// results arrive in submission order; shutdown with jobs in flight
// completes every handle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "workload/corpus.hpp"

namespace raindrop {
namespace {

// Same convention as test_attack: RAINDROP_DEADLINE_SCALE widens every
// wall-clock budget uniformly on slower machines (sanitized Debug
// builds run ~10x slower), so deadline-driven scenarios keep their
// shape -- the gated job overruns, its followers do not.
double deadline_scale() {
  static const double scale = [] {
    const char* e = std::getenv("RAINDROP_DEADLINE_SCALE");
    double s = (e && *e) ? std::atof(e) : 0.0;
    return s > 0.0 ? s : 1.0;
  }();
  return scale;
}

rop::ObfConfig full_cfg(std::uint64_t seed) {
  rop::ObfConfig c = rop::rop_k(0.25, seed);
  c.p2 = true;
  c.gadget_confusion = true;
  return c;
}

// Splits the corpus functions into `parts` contiguous batches: one
// submitted job each, mirroring a client streaming a module in pieces.
std::vector<std::vector<std::string>> split_batches(
    const std::vector<std::string>& names, int parts) {
  std::vector<std::vector<std::string>> out(parts);
  for (std::size_t i = 0; i < names.size(); ++i)
    out[i * parts / names.size()].push_back(names[i]);
  return out;
}

// The standalone reference: one engine with a private cache, the same
// batches as sequential obfuscate_module calls. This is the bit-identity
// oracle every streamed run is held to.
struct StandaloneRun {
  Image img;
  std::vector<engine::ModuleResult> results;
};

StandaloneRun run_standalone(const workload::Corpus& cp,
                             const std::vector<std::vector<std::string>>& jobs,
                             std::uint64_t seed, int threads = 1) {
  StandaloneRun out;
  out.img = minic::compile(cp.module);
  engine::ObfuscationEngine eng(&out.img, full_cfg(seed),
                                std::make_shared<analysis::AnalysisCache>());
  for (const auto& names : jobs)
    out.results.push_back(eng.obfuscate_module(names, threads));
  return out;
}

void expect_same_image(const Image& a, const Image& b, const char* what) {
  for (const char* sec : {".ropdata", ".text", ".data", ".rodata"})
    EXPECT_EQ(a.section_bytes(sec), b.section_bytes(sec))
        << what << ": " << sec << " diverges";
}

void expect_same_results(const engine::ModuleResult& a,
                         const engine::ModuleResult& b, const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  EXPECT_EQ(a.ok_count, b.ok_count) << what;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].ok, b.results[i].ok) << what << " fn " << i;
    EXPECT_EQ(a.results[i].failure, b.results[i].failure) << what;
    EXPECT_EQ(a.results[i].chain_addr, b.results[i].chain_addr) << what;
    EXPECT_EQ(a.results[i].chain_size, b.results[i].chain_size) << what;
    EXPECT_EQ(a.results[i].stats.unique_gadgets,
              b.results[i].stats.unique_gadgets)
        << what;
  }
}

TEST(ServiceStreaming, ThreeConcurrentSessionsAreByteIdentical) {
  // Three clients, three distinct modules, two jobs each, submitted
  // interleaved so the pipeline holds several sessions at once. Every
  // streamed image and every per-job result must match the standalone
  // sequential reference for that module.
  const std::uint64_t corpus_seeds[] = {3, 5, 7};
  std::vector<workload::Corpus> corpora;
  std::vector<std::vector<std::vector<std::string>>> jobs;
  std::vector<StandaloneRun> refs;
  for (std::uint64_t cs : corpus_seeds) {
    corpora.push_back(workload::make_corpus(cs, 60));
    jobs.push_back(split_batches(corpora.back().functions, 2));
    refs.push_back(run_standalone(corpora.back(), jobs.back(), 100 + cs));
  }

  engine::ServiceConfig sc;
  sc.craft_threads = 2;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  engine::ObfuscationService service(sc);

  std::vector<Image> imgs(corpora.size());
  std::vector<std::shared_ptr<engine::Session>> sessions;
  for (std::size_t m = 0; m < corpora.size(); ++m) {
    imgs[m] = minic::compile(corpora[m].module);
    sessions.push_back(
        service.open_session(&imgs[m], full_cfg(100 + corpus_seeds[m])));
  }
  // Interleave: batch 0 of every session, then batch 1 of every session.
  std::vector<std::vector<engine::JobHandle>> handles(corpora.size());
  for (int b = 0; b < 2; ++b)
    for (std::size_t m = 0; m < corpora.size(); ++m)
      handles[m].push_back(sessions[m]->submit(jobs[m][b]));

  for (std::size_t m = 0; m < corpora.size(); ++m) {
    for (int b = 0; b < 2; ++b) {
      const engine::ModuleResult& streamed = handles[m][b].wait();
      expect_same_results(streamed, refs[m].results[b], "streamed job");
      EXPECT_GE(streamed.queue_seconds, 0.0);
      EXPECT_GE(streamed.overlap_seconds, 0.0);
      EXPECT_GE(streamed.sessions_in_flight, 1);
    }
    expect_same_image(imgs[m], refs[m].img, "streamed module");
  }

  auto st = service.stats();
  EXPECT_EQ(st.jobs_submitted, 6u);
  EXPECT_EQ(st.jobs_completed, 6u);
  EXPECT_GE(st.peak_sessions_in_flight, 2u);
  EXPECT_GT(st.craft_busy_seconds, 0.0);
  EXPECT_GT(st.commit_busy_seconds, 0.0);
}

TEST(ServiceStreaming, PoolWidthSweepMatchesSerialReference) {
  // The streamed output must reproduce the serial (inline pool)
  // standalone reference bit for bit at every shared-pool width; phase
  // 2a plans one shard per worker of that pool.
  auto cp = workload::make_corpus(9, 60);
  auto jobs = split_batches(cp.functions, 2);
  StandaloneRun ref = run_standalone(cp, jobs, 42);

  for (int width : {1, 2, 3, 4}) {
    engine::ServiceConfig sc;
    sc.craft_threads = width;
    sc.cache = std::make_shared<analysis::AnalysisCache>();
    engine::ObfuscationService service(sc);
    Image img = minic::compile(cp.module);
    auto session = service.open_session(&img, full_cfg(42));
    std::vector<engine::JobHandle> hs;
    for (const auto& names : jobs) hs.push_back(session->submit(names));
    for (std::size_t b = 0; b < hs.size(); ++b)
      expect_same_results(hs[b].wait(), ref.results[b], "sweep job");
    expect_same_image(img, ref.img, "sweep module");
  }
}

TEST(ServiceStreaming, CacheSharingAcrossSessionsServesRepeatedModuleHot) {
  // The service's raison d'etre: a second client submitting an identical
  // module is served entirely from the shared analysis cache and craft
  // memo -- warm hit rate 1.0 -- and still lands identical bytes.
  auto cp = workload::make_corpus(4, 60);
  engine::ServiceConfig sc;
  sc.craft_threads = 2;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  engine::ObfuscationService service(sc);

  Image img_a = minic::compile(cp.module);
  Image img_b = minic::compile(cp.module);
  auto sess_a = service.open_session(&img_a, full_cfg(77));
  auto sess_b = service.open_session(&img_b, full_cfg(77));

  const engine::ModuleResult& ra = sess_a->submit(cp.functions).wait();
  const engine::ModuleResult& rb = sess_b->submit(cp.functions).wait();

  EXPECT_GT(ra.ok_count, 0u);
  EXPECT_EQ(ra.ok_count, rb.ok_count);
  // Session B ran fully hot off session A's work.
  EXPECT_GT(rb.analysis_cache_hits, 0u);
  EXPECT_EQ(rb.analysis_cache_misses, 0u);
  EXPECT_DOUBLE_EQ(rb.analysis_cache_hit_rate, 1.0);
  EXPECT_GT(rb.craft_memo_hits, 0u);
  EXPECT_EQ(rb.craft_memo_misses, 0u);
  expect_same_image(img_a, img_b, "hot-served repeat module");
}

TEST(ServiceStreaming, ShutdownWithJobsInFlightCompletesEveryHandle) {
  // shutdown() (and the destructor) drains: every submitted handle must
  // become ready with a correct result, and post-shutdown submits still
  // work synchronously.
  auto cp = workload::make_corpus(6, 60);
  auto jobs = split_batches(cp.functions, 3);
  StandaloneRun ref = run_standalone(cp, jobs, 11);

  Image img = minic::compile(cp.module);
  std::vector<engine::JobHandle> hs;
  std::shared_ptr<engine::Session> session;
  {
    engine::ServiceConfig sc;
    sc.craft_threads = 2;
    sc.cache = std::make_shared<analysis::AnalysisCache>();
    engine::ObfuscationService service(sc);
    session = service.open_session(&img, full_cfg(11));
    // First two jobs stream; shutdown races their pipeline transit.
    hs.push_back(session->submit(jobs[0]));
    hs.push_back(session->submit(jobs[1]));
    service.shutdown();
    for (auto& h : hs) EXPECT_TRUE(h.ready());
    // Post-shutdown submit: the synchronous fallback, ready on return.
    hs.push_back(session->submit(jobs[2]));
    EXPECT_TRUE(hs.back().ready());
  }  // destructor after explicit shutdown: idempotent
  for (std::size_t b = 0; b < hs.size(); ++b)
    expect_same_results(hs[b].wait(), ref.results[b], "drained job");
  expect_same_image(img, ref.img, "drained module");

  // The detached session keeps working standalone after service death.
  EXPECT_FALSE(session->submit({cp.functions[0]}).wait().results[0].ok)
      << "already-rewritten function must fail, not crash";
}

TEST(ServiceStreaming, PipelineSweepMatchesSerialReference) {
  // The §9 acceptance sweep: streamed output must reproduce the serial
  // (inline pool) standalone reference bit for bit at every (pool width,
  // sessions, craft bound) combination -- queues move wall-clock, never
  // bytes. Two concurrent sessions over distinct modules, three jobs
  // each, submitted interleaved.
  const std::uint64_t corpus_seeds[] = {17, 19};
  std::vector<workload::Corpus> corpora;
  std::vector<std::vector<std::vector<std::string>>> jobs;
  std::vector<StandaloneRun> refs;
  for (std::uint64_t cs : corpus_seeds) {
    corpora.push_back(workload::make_corpus(cs, 40));
    jobs.push_back(split_batches(corpora.back().functions, 3));
    refs.push_back(run_standalone(corpora.back(), jobs.back(), 200 + cs));
  }

  for (std::size_t craft_depth : {std::size_t{2}, std::size_t{0}}) {
    for (int width : {1, 2, 3}) {
      engine::ServiceConfig sc;
      sc.craft_threads = width;
      sc.craft_queue_depth = craft_depth;
      sc.cache = std::make_shared<analysis::AnalysisCache>();
      engine::ObfuscationService service(sc);
      std::vector<Image> imgs(corpora.size());
      std::vector<std::shared_ptr<engine::Session>> sessions;
      for (std::size_t m = 0; m < corpora.size(); ++m) {
        imgs[m] = minic::compile(corpora[m].module);
        sessions.push_back(service.open_session(
            &imgs[m], full_cfg(200 + corpus_seeds[m])));
      }
      std::vector<std::vector<engine::JobHandle>> hs(corpora.size());
      for (std::size_t b = 0; b < 3; ++b)
        for (std::size_t m = 0; m < corpora.size(); ++m)
          hs[m].push_back(sessions[m]->submit(jobs[m][b]));
      for (std::size_t m = 0; m < corpora.size(); ++m) {
        for (std::size_t b = 0; b < 3; ++b)
          expect_same_results(hs[m][b].wait(), refs[m].results[b],
                              "pipeline sweep job");
        expect_same_image(imgs[m], refs[m].img, "pipeline sweep module");
      }
      auto st = service.stats();
      EXPECT_EQ(st.jobs_completed, 6u)
          << "depth=" << craft_depth << " width=" << width;
      EXPECT_EQ(st.jobs_cancelled + st.jobs_rejected, 0u);
    }
  }
}

// Blocks a chosen pipeline stage until released, so tests can hold the
// service in a known state (a job mid-craft, the queues full).
struct StageGate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;
  std::string stage_to_block = "craft";

  void on_probe(const char* stage) {
    std::unique_lock<std::mutex> lk(m);
    if (stage != stage_to_block) return;
    ++entered;
    cv.notify_all();
    cv.wait(lk, [this] { return open; });
  }
  void wait_entered(int n) {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return entered >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(m);
    open = true;
    cv.notify_all();
  }
};

TEST(ServiceAdmission, BoundedCraftQueueBlocksSubmitUntilSpace) {
  // With craft_queue_depth = 1 and the blocking policy, a submit
  // against a full craft queue must park the caller instead of
  // buffering unboundedly, and admit it as soon as the pipeline makes
  // space. The gate holds job 1 mid-craft so the queue state is exact.
  auto cp = workload::make_corpus(23, 30);
  auto jobs = split_batches(cp.functions, 3);
  StandaloneRun ref = run_standalone(cp, jobs, 31);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.craft_queue_depth = 1;
  sc.submit_policy = engine::ServiceConfig::SubmitPolicy::kBlock;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(31));

  std::vector<engine::JobHandle> hs;
  hs.push_back(session->submit(jobs[0]));  // popped by the craft worker
  gate->wait_entered(1);                   // ...which is now held mid-craft
  hs.push_back(session->submit(jobs[1]));  // fills the craft queue
  EXPECT_EQ(service.stats().jobs_submitted, 2u);

  // Queue full: this submit must block until job 1 starts crafting.
  engine::JobHandle h3;
  std::thread submitter(
      [&] { h3 = session->submit(jobs[2]); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.stats().jobs_submitted, 2u)
      << "submit() accepted a job although the craft queue was full";

  gate->release();
  submitter.join();
  for (auto& h : hs) h.wait();
  h3.wait();

  auto st = service.stats();
  EXPECT_EQ(st.jobs_submitted, 3u);
  EXPECT_EQ(st.jobs_completed, 3u);
  EXPECT_EQ(st.jobs_rejected, 0u);
  EXPECT_LE(st.craft_queue_peak, 1u) << "the depth bound was exceeded";
  for (std::size_t b = 0; b < 2; ++b)
    expect_same_results(hs[b].wait(), ref.results[b], "backpressured job");
  expect_same_results(h3.wait(), ref.results[2], "backpressured job");
  expect_same_image(img, ref.img, "backpressured module");
}

TEST(ServiceAdmission, FailFastSubmitRejectsWhenFullAndLandsNothing) {
  // Fail-fast flavour: a full craft queue (or exhausted session quota)
  // refuses immediately with a ready, `rejected` handle, and a rejected
  // job must leave the image exactly as if it was never submitted.
  auto cp = workload::make_corpus(29, 30);
  auto jobs = split_batches(cp.functions, 3);
  StandaloneRun ref = run_standalone(cp, {jobs[0], jobs[1]}, 37);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.craft_queue_depth = 1;
  sc.submit_policy = engine::ServiceConfig::SubmitPolicy::kFailFast;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(37));

  engine::JobHandle h1 = session->submit(jobs[0]);
  gate->wait_entered(1);                        // job 1 held mid-craft
  engine::JobHandle h2 = session->submit(jobs[1]);  // fills the queue
  engine::JobHandle h3 = session->submit(jobs[2]);  // refused
  EXPECT_TRUE(h3.ready()) << "fail-fast submit must return a ready handle";
  const engine::ModuleResult& r3 = h3.wait();
  EXPECT_TRUE(r3.rejected);
  EXPECT_FALSE(r3.cancelled);
  EXPECT_TRUE(r3.results.empty());

  gate->release();
  h1.wait();
  h2.wait();
  auto st = service.stats();
  EXPECT_EQ(st.jobs_submitted, 2u);
  EXPECT_EQ(st.jobs_rejected, 1u);
  EXPECT_EQ(st.jobs_completed, 2u);
  expect_same_results(h1.wait(), ref.results[0], "surviving job");
  expect_same_results(h2.wait(), ref.results[1], "surviving job");
  expect_same_image(img, ref.img, "rejected job leaked into the image");
}

TEST(ServiceAdmission, SessionQuotaRefusesIndependentlyOfQueueSpace) {
  // Per-session in-flight quota: with session_quota = 1 a session's
  // second concurrent job is refused even though the craft queue has
  // plenty of room -- one tenant cannot monopolize the pipe.
  auto cp = workload::make_corpus(31, 20);
  auto jobs = split_batches(cp.functions, 2);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.craft_queue_depth = 16;
  sc.session_quota = 1;
  sc.submit_policy = engine::ServiceConfig::SubmitPolicy::kFailFast;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(41));

  engine::JobHandle h1 = session->submit(jobs[0]);
  gate->wait_entered(1);
  engine::JobHandle h2 = session->submit(jobs[1]);
  EXPECT_TRUE(h2.wait().rejected) << "quota must refuse the second job";
  gate->release();
  EXPECT_GT(h1.wait().ok_count, 0u);
  EXPECT_EQ(service.stats().jobs_rejected, 1u);
}

TEST(ServiceAdmission, ShutdownWakesParkedBlockingSubmitWithRejection) {
  // DESIGN.md §12: a kBlock submitter parked on a full craft queue must
  // not deadlock when the service shuts down underneath it -- it wakes
  // with a ready, rejected handle carrying a typed kShutdown error,
  // before the drain completes (the drain here is held up by the gate).
  auto cp = workload::make_corpus(43, 30);
  auto jobs = split_batches(cp.functions, 3);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.craft_queue_depth = 1;
  sc.submit_policy = engine::ServiceConfig::SubmitPolicy::kBlock;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(53));

  engine::JobHandle h1 = session->submit(jobs[0]);  // held mid-craft
  gate->wait_entered(1);
  engine::JobHandle h2 = session->submit(jobs[1]);  // fills the queue
  engine::JobHandle h3;
  std::thread submitter([&] { h3 = session->submit(jobs[2]); });
  // Let the submitter park on admission (queue full, policy kBlock).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(service.stats().jobs_submitted, 2u);

  std::thread shutter([&] { service.shutdown(); });
  // The parked submitter must wake and return rejected NOW, while the
  // drain is still blocked on the gated craft stage.
  submitter.join();
  EXPECT_TRUE(h3.ready());
  const engine::ModuleResult& r3 = h3.wait();
  EXPECT_TRUE(r3.rejected);
  ASSERT_TRUE(r3.error.has_value());
  EXPECT_EQ(r3.error->kind, engine::ObfError::Kind::kShutdown);
  EXPECT_EQ(r3.error->stage, "submit");

  gate->release();
  shutter.join();
  EXPECT_GT(h1.wait().ok_count, 0u);
  EXPECT_GT(h2.wait().ok_count, 0u);
  auto st = service.stats();
  EXPECT_EQ(st.jobs_completed, 2u);
  EXPECT_EQ(st.jobs_rejected, 1u);
}

TEST(ServiceWatchdog, DeadlineDemotesOverrunningCraftToSerialPath) {
  // Graceful degradation: a craft held past watchdog_deadline_s is
  // flagged, cancelled via the engine's poll, and rerun on the serial
  // obfuscate_module path. Expiring *before* craft entry means nothing
  // touched the image, so the demoted job -- and the whole session --
  // still lands the exact standalone-reference bytes.
  auto cp = workload::make_corpus(47, 30);
  auto jobs = split_batches(cp.functions, 2);
  StandaloneRun ref = run_standalone(cp, jobs, 59);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.watchdog_deadline_s = 0.05 * deadline_scale();
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(59));

  engine::JobHandle h1 = session->submit(jobs[0]);
  gate->wait_entered(1);  // held at the craft probe, clock running
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::lround(250 * deadline_scale())));
  gate->release();

  const engine::ModuleResult& r1 = h1.wait();
  EXPECT_TRUE(r1.degraded_serial);
  EXPECT_FALSE(r1.error.has_value()) << "degradation is completion, not "
                                        "quarantine";
  engine::JobHandle h2 = session->submit(jobs[1]);  // unaffected follower
  h2.wait();

  auto st = service.stats();
  EXPECT_GE(st.watchdog_flags, 1u);
  EXPECT_EQ(st.jobs_degraded_serial, 1u);
  EXPECT_EQ(st.jobs_completed, 2u);
  EXPECT_EQ(st.jobs_quarantined, 0u);
  expect_same_results(r1, ref.results[0], "demoted job");
  expect_same_results(h2.wait(), ref.results[1], "follower job");
  expect_same_image(img, ref.img, "demoted module");
}

TEST(ServiceWatchdog, DownstreamOverrunIsFlaggedNotDemoted) {
  // A materialize held past watchdog_deadline_s has no cancellation
  // point (stopping mid-commit would corrupt the image), so the
  // watchdog only flags it: the job still completes on the pipelined
  // path, undemoted, with the standalone-reference bytes.
  auto cp = workload::make_corpus(53, 12);
  auto jobs = split_batches(cp.functions, 1);
  StandaloneRun ref = run_standalone(cp, jobs, 61);

  auto gate = std::make_shared<StageGate>();
  gate->stage_to_block = "materialize";
  engine::ServiceConfig sc;
  sc.watchdog_deadline_s = 0.1 * deadline_scale();
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(61));

  engine::JobHandle h = session->submit(jobs[0]);
  gate->wait_entered(1);  // held at the materialize probe, clock running
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::lround(500 * deadline_scale())));
  gate->release();

  const engine::ModuleResult& r = h.wait();
  EXPECT_FALSE(r.degraded_serial);
  EXPECT_FALSE(r.error.has_value());
  auto st = service.stats();
  EXPECT_GE(st.watchdog_flags, 1u);
  EXPECT_EQ(st.jobs_degraded_serial, 0u);
  EXPECT_EQ(st.jobs_completed, 1u);
  EXPECT_EQ(st.jobs_quarantined, 0u);
  expect_same_results(r, ref.results[0], "flagged job");
  expect_same_image(img, ref.img, "flagged module");
}

TEST(ServiceFailure, ThrowingStageBodyQuarantinesWithStageFailure) {
  // Any non-fault exception out of a stage -- here thrown once by the
  // stage probe, which runs inside the stage runner's catch ladder --
  // quarantines exactly the struck job with a typed kStageFailure
  // naming its stage, and is never retried. A concurrent session
  // streams on untouched and the service still drains. The single-job
  // session submits first, so it reaches every stage first.
  auto cp_a = workload::make_corpus(59, 12);
  auto cp_b = workload::make_corpus(61, 30);
  auto jobs_b = split_batches(cp_b.functions, 2);
  StandaloneRun ref_b = run_standalone(cp_b, jobs_b, 67);

  for (const std::string stage : {"craft", "resolve", "materialize"}) {
    SCOPED_TRACE(stage);
    auto fired = std::make_shared<std::atomic<bool>>(false);
    engine::ServiceConfig sc;
    sc.cache = std::make_shared<analysis::AnalysisCache>();
    sc.stage_probe = [stage, fired](const char* s) {
      if (s == stage && !fired->exchange(true))
        throw std::runtime_error("probe threw at " + stage);
    };
    engine::ObfuscationService service(sc);
    Image img_a = minic::compile(cp_a.module);
    Image img_b = minic::compile(cp_b.module);
    auto sess_a = service.open_session(&img_a, full_cfg(63));
    auto sess_b = service.open_session(&img_b, full_cfg(67));

    engine::JobHandle ha = sess_a->submit(cp_a.functions);
    std::vector<engine::JobHandle> hb;
    for (const auto& names : jobs_b) hb.push_back(sess_b->submit(names));

    const engine::ModuleResult& ra = ha.wait();
    ASSERT_TRUE(ra.error.has_value());
    EXPECT_EQ(ra.error->kind, engine::ObfError::Kind::kStageFailure);
    EXPECT_EQ(ra.error->stage, stage);
    EXPECT_FALSE(ra.error->retryable);
    EXPECT_EQ(ra.error->attempts, 1);
    EXPECT_NE(ra.error->detail.find("probe threw"), std::string::npos);
    EXPECT_TRUE(ra.results.empty());
    for (std::size_t b = 0; b < hb.size(); ++b)
      expect_same_results(hb[b].wait(), ref_b.results[b], "concurrent job");
    service.shutdown();
    expect_same_image(img_b, ref_b.img, "concurrent module");
    auto st = service.stats();
    EXPECT_EQ(st.jobs_quarantined, 1u);
    EXPECT_EQ(st.jobs_completed, jobs_b.size());
    EXPECT_EQ(st.stage_retries, 0u);
  }
}

TEST(ServiceCancellation, DroppedHandlesCancelJobsBeforeResolve) {
  // Dropping every client copy of a JobHandle cancels the job at its
  // next stage boundary if it has not entered resolve: the cancelled
  // batches land nothing, and the surviving jobs' bytes are exactly the
  // standalone reference that never contained the cancelled batches.
  auto cp = workload::make_corpus(37, 40);
  auto jobs = split_batches(cp.functions, 4);
  StandaloneRun ref = run_standalone(cp, {jobs[0], jobs[3]}, 43);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(43));

  engine::JobHandle h1 = session->submit(jobs[0]);
  gate->wait_entered(1);  // job 1 held mid-craft; later jobs queue behind it
  {
    engine::JobHandle h2 = session->submit(jobs[1]);
    engine::JobHandle h3 = session->submit(jobs[2]);
    EXPECT_FALSE(h2.ready());
    EXPECT_FALSE(h3.ready());
  }  // both handles dropped before their jobs could enter craft
  engine::JobHandle h4 = session->submit(jobs[3]);
  gate->release();

  EXPECT_GT(h1.wait().ok_count, 0u);
  EXPECT_GT(h4.wait().ok_count, 0u);
  auto st = service.stats();
  EXPECT_EQ(st.jobs_submitted, 4u);
  EXPECT_EQ(st.jobs_completed, 2u);
  EXPECT_EQ(st.jobs_cancelled, 2u);
  expect_same_results(h1.wait(), ref.results[0], "surviving job 1");
  expect_same_results(h4.wait(), ref.results[1], "surviving job 4");
  expect_same_image(img, ref.img, "cancelled jobs leaked into the image");
}

TEST(ServiceCancellation, MidCraftDropShedsRemainingFunctions) {
  // Dropping every client handle while the job is *inside* the craft
  // stage sheds the rest of the batch: craft_module polls the cancel
  // flag between functions, skips the remaining bodies, and the job is
  // cancelled at the resolve boundary. The shed count surfaces in
  // Stats::craft_shed_functions; the next job is unaffected.
  auto cp = workload::make_corpus(41, 30);
  auto jobs = split_batches(cp.functions, 2);

  auto gate = std::make_shared<StageGate>();
  engine::ServiceConfig sc;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  sc.stage_probe = [gate](const char* stage) { gate->on_probe(stage); };
  engine::ObfuscationService service(sc);
  Image img = minic::compile(cp.module);
  auto session = service.open_session(&img, full_cfg(47));

  {
    engine::JobHandle h1 = session->submit(jobs[0]);
    gate->wait_entered(1);  // held at the craft probe, before function 0
  }  // the only handle dropped while the job sits inside the craft stage
  engine::JobHandle h2 = session->submit(jobs[1]);
  gate->release();

  EXPECT_GT(h2.wait().ok_count, 0u);
  auto st = service.stats();
  EXPECT_EQ(st.jobs_submitted, 2u);
  EXPECT_EQ(st.jobs_completed, 1u);
  EXPECT_EQ(st.jobs_cancelled, 1u);
  // The probe fires before craft_module, so expiry preceded every
  // per-function poll: the whole first batch was shed.
  EXPECT_EQ(st.craft_shed_functions, jobs[0].size());
}

TEST(ServiceStreaming, FacadesShareTheStreamedExecutionPath) {
  // One execution path: rewrite_function -> obfuscate_module -> the
  // same craft_module/resolve_module/materialize_module stages the
  // service drives. All three front doors produce identical bytes for
  // identical input.
  auto cp = workload::make_corpus(11, 20);
  Image a = minic::compile(cp.module);
  Image b = minic::compile(cp.module);
  Image c = minic::compile(cp.module);

  engine::ObfuscationEngine single(
      &a, full_cfg(5), std::make_shared<analysis::AnalysisCache>());
  for (const std::string& name : cp.functions) single.rewrite_function(name);

  engine::ObfuscationEngine eng(&b, full_cfg(5),
                                std::make_shared<analysis::AnalysisCache>());
  for (const std::string& name : cp.functions)
    eng.obfuscate_module({name}, 1);

  engine::ServiceConfig sc;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  engine::ObfuscationService service(sc);
  auto session = service.open_session(&c, full_cfg(5));
  std::vector<engine::JobHandle> hs;
  for (const std::string& name : cp.functions)
    hs.push_back(session->submit({name}));
  for (auto& h : hs) h.wait();

  expect_same_image(a, b, "rewrite_function vs obfuscate_module");
  expect_same_image(b, c, "engine vs streamed session");
}

}  // namespace
}  // namespace raindrop
