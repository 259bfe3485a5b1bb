// Service demo: the streaming front door. Three "clients" each hand the
// long-lived ObfuscationService a module; the service pipelines them
// through its three stages -- crafting one client's chains while
// resolving another's gadgets and materializing a third's image --
// against one shared analysis cache, and every result arrives through a
// future-like JobHandle. The bounded craft queue means submit() exerts
// backpressure instead of buffering unboundedly (DESIGN.md §9).
// Compare examples/quickstart.cpp, which drives the same pipeline
// synchronously through the one-shot engine facade.
#include <cstdio>
#include <vector>

#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "image/image.hpp"
#include "minic/codegen.hpp"
#include "workload/corpus.hpp"

using namespace raindrop;

int main() {
  // Three distinct client modules (a small corpus each).
  std::vector<workload::Corpus> corpora;
  for (std::uint64_t seed : {21, 22, 23})
    corpora.push_back(workload::make_corpus(seed, 30));

  // One long-lived service: shared craft workers, shared analysis
  // cache. In a real deployment this object outlives thousands of
  // sessions; analyses, harvest layers and craft memos stay hot across
  // all of them (DESIGN.md §7/§8).
  engine::ServiceConfig sc;
  sc.craft_threads = 2;
  // Admission control (§9): at most 4 jobs buffered ahead of the craft
  // stage and 2 in flight per session; a full queue parks submit().
  sc.craft_queue_depth = 4;
  sc.session_quota = 2;
  engine::ObfuscationService service(sc);

  // One session per client module: image + config + seed. submit()
  // returns immediately; the pipeline double-buffers craft of one
  // module against commit of another.
  std::vector<Image> images(corpora.size());
  std::vector<engine::JobHandle> handles;
  for (std::size_t m = 0; m < corpora.size(); ++m) {
    images[m] = minic::compile(corpora[m].module);
    auto session =
        service.open_session(&images[m], rop::rop_k(0.5, 42 + m));
    handles.push_back(session->submit(corpora[m].functions));
  }

  for (std::size_t m = 0; m < corpora.size(); ++m) {
    const engine::ModuleResult& r = handles[m].wait();
    std::printf("module %zu: %zu/%zu functions rewritten  "
                "(craft %.1fms, commit %.1fms, queued %.1fms, "
                "%.1fms of craft hidden behind another module's commit, "
                "%d sessions in flight)\n",
                m, r.ok_count, r.results.size(), r.craft_seconds * 1e3,
                r.commit_seconds * 1e3, r.queue_seconds * 1e3,
                r.overlap_seconds * 1e3, r.sessions_in_flight);
  }

  auto st = service.stats();
  std::printf("\nservice: %zu jobs, stage busy craft %.1fms / resolve %.1fms "
              "/ materialize %.1fms, overlap %.1fms (ratio %.2f), peak %zu "
              "sessions in flight, craft-queue peak %zu\n",
              st.jobs_completed, st.craft_busy_seconds * 1e3,
              st.resolve_busy_seconds * 1e3,
              st.materialize_busy_seconds * 1e3, st.overlap_seconds * 1e3,
              st.overlap_ratio(), st.peak_sessions_in_flight,
              st.craft_queue_peak);

  // Functional spot check: a rewritten function still runs.
  for (std::size_t m = 0; m < corpora.size(); ++m) {
    LoadedImage li = images[m].load_shared();
    for (const std::string& name : corpora[m].runnable) {
      const FunctionSym* f = images[m].function(name);
      if (!f || !f->rop_rewritten) continue;
      std::vector<std::uint64_t> args(
          static_cast<std::size_t>(f->arg_count), 3);
      auto res = call_function(li, f->addr, args);
      std::printf("module %zu: %s(3,...) = %lld through its chain\n", m,
                  name.c_str(), (long long)res.rax);
      break;
    }
  }
  return 0;
}
