// Chaos suite (DESIGN.md §12): sweep every registered fault site under
// three concurrent streaming sessions and hold the self-healing service
// to its contract --
//
//   * no deadlock or crash: every submitted handle becomes ready;
//   * fault isolation: sessions whose jobs were never faulted land
//     results and bytes identical to the fault-free standalone
//     reference;
//   * self-healing: faults at retryable sites (stage entries, the pure
//     craft_one) are absorbed -- the retried jobs are byte-identical to
//     a never-faulted run;
//   * typed failure: faults the service may not retry (gadget plan/
//     commit, image mutation, pool tasks) quarantine exactly the struck
//     job with a typed ObfError while the pipeline keeps draining.
//
// Fault injection is seed-deterministic (see support/faultpoint.hpp),
// so these are real assertions, not "it usually works".
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "support/faultpoint.hpp"
#include "workload/corpus.hpp"

namespace raindrop {
namespace {

rop::ObfConfig full_cfg(std::uint64_t seed) {
  rop::ObfConfig c = rop::rop_k(0.25, seed);
  c.p2 = true;
  c.gadget_confusion = true;
  return c;
}

std::vector<std::vector<std::string>> split_batches(
    const std::vector<std::string>& names, int parts) {
  std::vector<std::vector<std::string>> out(parts);
  for (std::size_t i = 0; i < names.size(); ++i)
    out[i * parts / names.size()].push_back(names[i]);
  return out;
}

constexpr std::uint64_t kCorpusSeeds[] = {3, 5, 7};
constexpr int kJobsPerSession = 2;

struct Reference {
  std::vector<workload::Corpus> corpora;
  std::vector<std::vector<std::vector<std::string>>> jobs;
  std::vector<Image> imgs;  // post-obfuscation reference images
  std::vector<std::vector<engine::ModuleResult>> results;
};

// The fault-free oracle: per module, the standalone sequential
// reference every unaffected/retried streamed job must match bit for
// bit. Built once, before any site is armed.
const Reference& reference() {
  static const Reference ref = [] {
    Reference r;
    for (std::uint64_t cs : kCorpusSeeds) {
      r.corpora.push_back(workload::make_corpus(cs, 40));
      r.jobs.push_back(
          split_batches(r.corpora.back().functions, kJobsPerSession));
      r.imgs.push_back(minic::compile(r.corpora.back().module));
      engine::ObfuscationEngine eng(&r.imgs.back(), full_cfg(100 + cs),
                                    std::make_shared<analysis::AnalysisCache>());
      r.results.emplace_back();
      for (const auto& names : r.jobs.back())
        r.results.back().push_back(eng.obfuscate_module(names, 1));
    }
    return r;
  }();
  return ref;
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
    EXPECT_EQ(a.results[i].chain_addr, b.results[i].chain_addr) << what;
    EXPECT_EQ(a.results[i].chain_size, b.results[i].chain_size) << what;
  }
}

// Sites whose faults the service may NOT retry: the struck job must be
// quarantined with a typed error; everything else keeps flowing.
bool quarantines(const std::string& site) {
  static const std::set<std::string> kThrowSites = {
      "pool.plan", "pool.commit", "image.apply_commit", "threadpool.task"};
  return kThrowSites.count(site) > 0;
}

// One full chaos round: arm `site` so it fires exactly once (on its
// second hit), stream 3 sessions x 2 jobs through a fresh service, and
// check the invariants for the site's class.
void run_chaos_round(const std::string& site) {
  SCOPED_TRACE("site=" + site);
  const Reference& ref = reference();
  fault::disarm_all();

  // Store sites need the disk tier wired up -- and read-side corruption
  // needs records on disk to corrupt, so populate the directory with one
  // fault-free pass first (a prior "process", torn down to flush).
  namespace fs = std::filesystem;
  const bool store_site = site.rfind("store.", 0) == 0;
  fs::path store_dir;
  if (store_site) {
    store_dir = fs::path(::testing::TempDir()) / "chaos_store";
    std::error_code ec;
    fs::remove_all(store_dir, ec);
    if (site == "store.read.corrupt") {
      engine::ServiceConfig pc;
      pc.craft_threads = 2;
      pc.store_dir = store_dir.string();
      engine::ObfuscationService populate(pc);
      std::vector<Image> pimgs;
      pimgs.reserve(ref.corpora.size());
      std::vector<std::shared_ptr<engine::Session>> psessions;
      for (std::size_t m = 0; m < ref.corpora.size(); ++m) {
        pimgs.push_back(minic::compile(ref.corpora[m].module));
        psessions.push_back(
            populate.open_session(&pimgs[m], full_cfg(100 + kCorpusSeeds[m])));
      }
      std::vector<engine::JobHandle> phs;
      for (int b = 0; b < kJobsPerSession; ++b)
        for (std::size_t m = 0; m < ref.corpora.size(); ++m)
          phs.push_back(psessions[m]->submit(ref.jobs[m][b]));
      for (auto& h : phs) h.wait();
    }
  }
  fault::arm(site, fault::Spec::every_nth(2, /*cap=*/1));

  std::vector<Image> imgs;
  std::vector<std::vector<engine::ModuleResult>> got(ref.corpora.size());
  std::uint64_t fires = 0;
  engine::ObfuscationService::Stats st;
  {
    engine::ServiceConfig sc;
    sc.craft_threads = 2;
    if (store_site)
      sc.store_dir = store_dir.string();
    else
      sc.cache = std::make_shared<analysis::AnalysisCache>();
    engine::ObfuscationService service(sc);
    imgs.reserve(ref.corpora.size());
    std::vector<std::shared_ptr<engine::Session>> sessions;
    for (std::size_t m = 0; m < ref.corpora.size(); ++m) {
      imgs.push_back(minic::compile(ref.corpora[m].module));
      sessions.push_back(
          service.open_session(&imgs[m], full_cfg(100 + kCorpusSeeds[m])));
    }
    std::vector<std::vector<engine::JobHandle>> hs(ref.corpora.size());
    for (int b = 0; b < kJobsPerSession; ++b)
      for (std::size_t m = 0; m < ref.corpora.size(); ++m)
        hs[m].push_back(sessions[m]->submit(ref.jobs[m][b]));
    // No-deadlock invariant: every handle must become ready. (The ctest
    // timeout is the backstop; a hang here fails the suite, not the
    // machine.)
    for (std::size_t m = 0; m < hs.size(); ++m)
      for (auto& h : hs[m]) got[m].push_back(h.wait());
    fires = fault::site_stats(site).fires;
    st = service.stats();
  }
  fault::disarm_all();
  if (store_site) {
    std::error_code ec;
    fs::remove_all(store_dir, ec);
  }

  // The spec must actually have exercised the site: a site that never
  // fires is a wiring bug in this suite, not a pass.
  EXPECT_EQ(fires, 1u) << "site never fired under the chaos workload";

  std::size_t quarantined_jobs = 0;
  for (std::size_t m = 0; m < got.size(); ++m) {
    // Locate this session's quarantined job, if any.
    std::optional<std::size_t> q;
    for (std::size_t b = 0; b < got[m].size(); ++b) {
      const engine::ModuleResult& r = got[m][b];
      EXPECT_FALSE(r.rejected) << "m=" << m << " b=" << b;
      EXPECT_FALSE(r.cancelled) << "m=" << m << " b=" << b;
      if (r.error.has_value()) {
        ASSERT_FALSE(q.has_value()) << "two quarantined jobs in one session";
        q = b;
        ++quarantined_jobs;
        // Typed failure: the diagnostic names the injected fault.
        EXPECT_EQ(r.error->kind, engine::ObfError::Kind::kFaultInjected);
        EXPECT_NE(r.error->detail.find(site), std::string::npos)
            << "error detail does not name the fault site: "
            << r.error->detail;
        EXPECT_FALSE(r.error->stage.empty());
        EXPECT_TRUE(r.results.empty())
            << "a quarantined job must not carry partial results";
      }
    }
    if (!q.has_value()) {
      // Fault-free (or healed) session: full byte-identity with the
      // never-faulted reference.
      for (std::size_t b = 0; b < got[m].size(); ++b)
        expect_same_results(got[m][b], ref.results[m][b], "chaos job");
      expect_same_image(imgs[m], ref.imgs[m], "chaos module");
    } else {
      // Quarantine isolation: jobs this session completed BEFORE the
      // quarantined one are still byte-identical (the fault struck
      // later); jobs after it must still complete cleanly (the engine
      // state stays serviceable), though their bytes may shift -- the
      // quarantined job consumed ordinals/reservations.
      for (std::size_t b = 0; b < *q; ++b)
        expect_same_results(got[m][b], ref.results[m][b],
                            "pre-quarantine job");
      for (std::size_t b = *q + 1; b < got[m].size(); ++b)
        EXPECT_FALSE(got[m][b].error.has_value())
            << "a later job of the quarantined session errored too";
    }
  }

  EXPECT_EQ(st.jobs_quarantined, quarantined_jobs);
  EXPECT_EQ(st.jobs_completed + st.jobs_quarantined,
            kJobsPerSession * ref.corpora.size());
  if (quarantines(site)) {
    EXPECT_EQ(quarantined_jobs, 1u)
        << "a non-retryable fault fired but nothing was quarantined";
    EXPECT_GE(st.quarantined.size(), 1u);
  } else {
    // Retryable stage entries, the pure craft_one, and corrupt-at-
    // insert cache sites must be fully absorbed: zero quarantines,
    // every session byte-identical (checked above via q == nullopt).
    EXPECT_EQ(quarantined_jobs, 0u)
        << "a self-healing site leaked a failure to a client";
    if (std::strncmp(site.c_str(), "service.", 8) == 0 ||
        site == "engine.craft_one") {
      EXPECT_GE(st.jobs_retried, 1u) << "the injected fault was not retried";
    }
  }
}

TEST(Chaos, EveryRegisteredSiteUnderThreeConcurrentSessions) {
  for (const char* site : fault::all_sites()) run_chaos_round(site);
}

TEST(Chaos, RetryableFaultExhaustionQuarantinesWithTypedError) {
  // Fire service.craft.pre on EVERY hit: the stage retry budget
  // (max_stage_retries) is exhausted and every job is quarantined --
  // with retryable=true, the full attempt count, and an untouched image
  // (craft.pre quarantines strictly before any image mutation).
  const Reference& ref = reference();
  fault::disarm_all();
  fault::arm("service.craft.pre", fault::Spec::every_nth(1, /*cap=*/0));

  engine::ServiceConfig sc;
  sc.craft_threads = 2;
  sc.retry_backoff_ms = 0.1;  // keep the exhaustion loop fast
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  engine::ObfuscationService service(sc);
  Image img = minic::compile(ref.corpora[0].module);
  // Baseline: engine constructed (its setup touches the image), zero
  // jobs run -- what `img` must still look like when every job was
  // quarantined strictly before craft.
  Image pristine = minic::compile(ref.corpora[0].module);
  engine::ObfuscationEngine pristine_eng(
      &pristine, full_cfg(103), std::make_shared<analysis::AnalysisCache>());
  auto session = service.open_session(&img, full_cfg(103));

  std::vector<engine::JobHandle> hs;
  for (const auto& names : ref.jobs[0]) hs.push_back(session->submit(names));
  for (auto& h : hs) {
    const engine::ModuleResult& r = h.wait();
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->kind, engine::ObfError::Kind::kFaultInjected);
    EXPECT_EQ(r.error->stage, "craft");
    EXPECT_TRUE(r.error->retryable);
    EXPECT_EQ(r.error->attempts, sc.max_stage_retries + 1);
    EXPECT_EQ(r.retries, sc.max_stage_retries);
  }
  auto st = service.stats();
  fault::disarm_all();
  EXPECT_EQ(st.jobs_quarantined, hs.size());
  EXPECT_EQ(st.jobs_retried, hs.size());
  EXPECT_EQ(st.jobs_completed, 0u);
  EXPECT_EQ(st.stage_retries,
            static_cast<std::size_t>(sc.max_stage_retries) * hs.size());
  ASSERT_GE(st.quarantined.size(), 1u);
  EXPECT_EQ(st.quarantined[0].stage, "craft");
  // Quarantined-before-craft jobs leak nothing into the image.
  expect_same_image(img, pristine, "quarantined-only session");
}

TEST(Chaos, DisarmedRegistryInjectsNothing) {
  // The zero-overhead contract's functional half: with nothing armed, a
  // full streamed run reports zero injections, retries, quarantines and
  // degradations -- the robustness layer is invisible.
  const Reference& ref = reference();
  fault::disarm_all();

  engine::ServiceConfig sc;
  sc.craft_threads = 2;
  sc.cache = std::make_shared<analysis::AnalysisCache>();
  engine::ObfuscationService service(sc);
  Image img = minic::compile(ref.corpora[0].module);
  auto session = service.open_session(&img, full_cfg(103));
  std::vector<engine::JobHandle> hs;
  for (const auto& names : ref.jobs[0]) hs.push_back(session->submit(names));
  for (std::size_t b = 0; b < hs.size(); ++b)
    expect_same_results(hs[b].wait(), ref.results[0][b], "fault-free job");
  expect_same_image(img, ref.imgs[0], "fault-free module");

  EXPECT_EQ(fault::injected_total(), 0u);
  auto st = service.stats();
  EXPECT_EQ(st.jobs_retried, 0u);
  EXPECT_EQ(st.stage_retries, 0u);
  EXPECT_EQ(st.jobs_quarantined, 0u);
  EXPECT_EQ(st.jobs_degraded_serial, 0u);
  EXPECT_EQ(st.watchdog_flags, 0u);
}

}  // namespace
}  // namespace raindrop
