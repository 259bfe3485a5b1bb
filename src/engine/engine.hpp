// Two-phase batch ObfuscationEngine: the scalable front door to the
// paper's rewriting pipeline (Figure 2).
//
// Phase 1 (craft, pure, parallel): each function's chain is produced as a
// side-effect-free CraftedFunction artifact against an immutable snapshot
// of the image and a frozen, shared GadgetPool. The support analyses
// (CFG, liveness, taint) come from a content-addressed AnalysisCache
// shared across engines, so repeated sweeps over the same corpus compute
// them once. Every per-function random decision draws from a
// counter-based stream (Rng::stream(seed, ordinal)), and gadgets the
// frozen pool cannot serve become relocatable GadgetRequests -- so a
// batch crafted on N threads is bit-identical to the same batch crafted
// serially.
//
// Phase 2 (commit) is split in two:
//   2a (resolve, parallel): all gadget requests of the batch plan
//      through GadgetPool::plan_batch -- sharded by core-key hash, one
//      shard per worker of the pool it runs on, planned in parallel
//      against the frozen catalog, pure with respect to the image. This
//      is where cross-function gadget reuse (Table III's B << A)
//      happens.
//   2b (materialize, serial): the plan's new gadgets land in the image
//      in deterministic batch order, then chains land in .ropdata,
//      P1 arrays are written, pivot stubs installed -- the whole batch
//      staged as ONE deferred image commit (one .ropdata append plus all
//      patches), so the serial tail is a single image mutation per batch.
// Output images are bit-identical at every pool width.
//
// All three phases are public pipeline stages (craft_module /
// resolve_module / materialize_module) so a long-lived
// ObfuscationService (service.hpp) can run a three-deep pipeline: craft
// of module N+2 overlaps the parallel resolve of module N+1 and the
// serial-per-image materialize of module N on a shared ThreadPool
// (DESIGN.md §9). obfuscate_module() is all three stages back to
// back -- there is exactly one execution path whether a module is
// streamed through the service or rewritten standalone.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/cache.hpp"
#include "gadgets/catalog.hpp"
#include "image/image.hpp"
#include "rop/chain.hpp"
#include "rop/predicates.hpp"
#include "rop/types.hpp"
#include "support/rng.hpp"

namespace raindrop {
class ThreadPool;  // support/thread_pool.hpp
}

namespace raindrop::engine {

// The immutable product of crafting one function: the relocatable chain
// (GadgetRefs + label deltas unresolved), its deferred gadget requests,
// and the predicate data. It is a pure function of (function bytes,
// prealloc addresses, config, seed, ordinal, frozen-catalog
// fingerprint), which is exactly the key the craft memo hashes
// (DESIGN.md §7): a warm sweep serves the whole artifact from the
// AnalysisCache (Kind::kCraftMemo) and goes straight to commit. Shared
// const -- commit never mutates it (materialization maps GadgetRefs
// through an external address table).
struct CraftArtifact {
  bool ok = false;
  rop::RewriteFailure failure = rop::RewriteFailure::None;
  std::string detail;
  rop::Chain chain;
  std::vector<gadgets::GadgetRequest> requests;
  std::optional<rop::P1Array> p1;  // cells crafted; addr pre-reserved
  std::size_t program_points = 0;
  // Structural content digest stamped before the artifact enters the
  // craft memo and re-verified on every memo hit (DESIGN.md §12): a
  // corrupted memo entry is evicted and the function re-crafted instead
  // of materializing a wrong chain.
  std::uint64_t integrity = 0;
  std::uint64_t compute_integrity() const;
};

// The craft memo's Kind::kCraftMemo codec for AnalysisCache::get_or_build:
// the artifact is valid exactly when its integrity digest matches.
struct CraftMemoCodec {
  using Value = CraftArtifact;
  static constexpr store::Kind kKind = store::Kind::kCraftMemo;
  static constexpr const char* kCorruptSite = "cache.craft_memo.corrupt";
  std::vector<std::uint8_t> encode(const CraftArtifact& art) const;
  std::shared_ptr<CraftArtifact> decode(
      std::span<const std::uint8_t> payload) const;
  analysis::Verdict check(const CraftArtifact& art) const;
  std::shared_ptr<const CraftArtifact> corrupt(const CraftArtifact& art) const;
};

// The per-batch phase-1 slot: batch bookkeeping plus the shared
// artifacts. Nothing here requires the image to have been touched.
struct CraftedFunction {
  std::string name;
  std::size_t ordinal = 0;  // RNG stream index (engine-global, monotonic)
  std::uint64_t fn_addr = 0;
  std::vector<std::uint64_t> spill_slots;  // pre-reserved addresses

  // Outcome (copied from the artifact; duplicate-name demotion in phase
  // 2a may override it without touching the shared artifact).
  bool ok = false;
  rop::RewriteFailure failure = rop::RewriteFailure::None;
  std::string detail;

  std::shared_ptr<const CraftArtifact> art;  // null on early failure
  std::vector<std::uint64_t> req_addrs;      // filled by phase 2a

  // Support-analysis artifacts (Figure 2) for this function, shared
  // with the AnalysisCache (never mutated).
  std::shared_ptr<const analysis::AnalysisArtifacts> analyses;
  // How the two tier lookups were served; materialize_module folds them
  // into ModuleResult. Meaningful only when `analyses` is set (early
  // failures consult no cache).
  analysis::LookupOutcome analysis_lookup;
  analysis::LookupOutcome memo_lookup;
};

// Typed failure record for the self-healing service pipeline
// (DESIGN.md §12). Stage workers catch per-job exceptions and surface
// one of these through ModuleResult::error instead of letting the
// exception escape (which used to kill the worker thread).
struct ObfError {
  enum class Kind {
    kNone = 0,
    kFaultInjected,  // a fault-registry site fired (fault::FaultInjected)
    kStageFailure,   // any other exception out of a stage body
    kCorruption,     // integrity-digest mismatch that could not be healed
    kTimeout,        // watchdog deadline exceeded
    kShutdown,       // service shut down while the job was parked
    kInternal,
  };
  Kind kind = Kind::kNone;
  std::string stage;      // "submit" | "craft" | "resolve" | "materialize"
  bool retryable = false; // whether the service was allowed to retry it
  int attempts = 0;       // retries consumed before giving up
  std::string detail;     // exception text / fault-site name
};

struct ModuleResult {
  std::vector<rop::RewriteResult> results;  // parallel to the input names
  std::size_t ok_count = 0;
  double craft_seconds = 0.0;        // phase 1 wall-clock
  double resolve_seconds = 0.0;      // phase 2a (sharded request planning)
  double materialize_seconds = 0.0;  // phase 2b (serial image mutation)
  // Pipeline admission outcomes (service only): a job rejected by the
  // fail-fast backpressure policy, or cancelled because every client
  // JobHandle was dropped before it entered resolve. Either way
  // `results` is empty and nothing touched the image in resolve or
  // materialize.
  bool rejected = false;
  bool cancelled = false;
  // Pipeline telemetry, stamped by the ObfuscationService on jobs that
  // complete its pipeline; zero on the synchronous obfuscate_module
  // path and on degraded, cancelled or quarantined jobs. None of these
  // affect the output bytes -- they only describe how the job moved
  // through the craft/commit pipeline.
  double queue_seconds = 0.0;    // submit -> craft start
  double overlap_seconds = 0.0;  // craft time hidden behind another
                                 // job's commit (double-buffering win)
  int sessions_in_flight = 0;    // sessions with queued/running jobs
                                 // when this job entered craft
  // AnalysisCache telemetry for this batch (functions that reached the
  // analyses; early failures consult no cache).
  std::size_t analysis_cache_hits = 0;
  std::size_t analysis_cache_misses = 0;
  double analysis_cache_hit_rate = 0.0;  // 0 when nothing was looked up
  // Craft-memo telemetry: whole phase-1 artifacts served content-
  // addressed from the cache (memory or store) without a re-craft.
  std::size_t craft_memo_hits = 0;
  std::size_t craft_memo_misses = 0;
  // Persistent-store telemetry (zero when no store is attached): disk
  // records served / probed-and-absent (each miss implies a spill of the
  // freshly built artifact) / evicted after failing validation.
  std::size_t store_hits = 0;
  std::size_t store_misses = 0;
  std::size_t store_spills = 0;
  std::size_t store_corrupt_evictions = 0;
  double store_hit_rate = 0.0;  // 0 when the store was never probed
  // -- Robustness telemetry (DESIGN.md §12) ---------------------------
  // Set by the self-healing service (and by the engine for in-stage
  // recoveries); all empty/zero on an untroubled run.
  std::optional<ObfError> error;        // quarantined: why the job failed
  int retries = 0;                      // service-level stage retries
  std::size_t craft_retries = 0;        // engine-internal craft_one retries
  // Memory-tier integrity evict+recompute events (analyses + craft memo).
  std::size_t corruptions_recovered = 0;
  bool degraded_serial = false;  // watchdog demoted the job to the serial
                                 // reference path (obfuscate_module)
};

// The product of pipeline stage 1 for a whole batch: every function
// crafted, nothing committed. Produced by craft_module() and consumed
// exactly once by resolve_module(); the ObfuscationService carries one
// of these between its craft and resolve pipeline stages.
struct CraftedModule {
  std::vector<std::string> names;
  std::vector<CraftedFunction> crafted;  // parallel to names
  double craft_seconds = 0.0;
  // Functions skipped because the cancel predicate fired mid-batch
  // (their slots keep the default not-ok CraftedFunction). A shed batch
  // is safe to resolve/materialize -- shed slots behave like failures
  // -- but the service cancels such jobs instead.
  std::size_t craft_shed = 0;
  // Engine-internal robustness counters (flow into ModuleResult).
  std::size_t craft_retries = 0;
};

// The product of pipeline stage 2a for a whole batch: every gadget
// request planned (GadgetPool::plan_batch), nothing committed -- the
// image is untouched since craft. Produced by resolve_module() and
// consumed exactly once by materialize_module(); the ObfuscationService
// carries one of these between its resolve and materialize stages, so
// the parallel planning of module N+1 overlaps the serial image
// mutation of module N.
struct ResolvedModule {
  CraftedModule cm;            // stage 1's product, duplicates demoted
  gadgets::ResolvedPlan plan;  // persistent 2a output
  double resolve_seconds = 0.0;
  // How the store served the phase-2a plan record (DESIGN.md §13);
  // folded into ModuleResult's store counters by materialize_module.
  analysis::LookupOutcome plan_lookup;
};

class ObfuscationEngine {
 public:
  // `cache` is the content-addressed analysis cache to consult during
  // crafting; by default engines share the per-process singleton
  // (AnalysisCache::process_cache()), so a sweep building many engines
  // over the same corpus analyses each function once. Pass a private
  // instance to isolate (benchmarks measuring cold runs do).
  ObfuscationEngine(Image* img, const rop::ObfConfig& cfg,
                    std::shared_ptr<analysis::AnalysisCache> cache = nullptr);

  // Batch API: obfuscates `names` with phase 1 and phase 2a on one
  // `threads`-wide pool (phase 2a shards its requests one per worker).
  // Output images and stats are bit-identical at every width. A thin
  // facade over the three pipeline stages below (craft_module,
  // resolve_module, materialize_module), which is the same path the
  // streaming ObfuscationService drives.
  ModuleResult obfuscate_module(const std::vector<std::string>& names,
                                int threads = 1);

  // Pipeline stage 1: serial prealloc pre-pass + pure parallel craft.
  // Runs on `pool` when given (the service's shared workers; its width
  // then governs parallelism), else on a private `threads`-wide pool.
  // Mutates the image only through reservations; a CraftedModule from
  // engine state S must be committed before the next craft of the same
  // engine (the service serializes a session's jobs for exactly this
  // reason). `cancel` is polled once per function between crafts: once
  // it returns true, remaining functions are shed (CraftedModule::
  // craft_shed counts them). The prealloc pre-pass always completes, so
  // later batches keep their exact addresses either way.
  CraftedModule craft_module(const std::vector<std::string>& names,
                             int threads = 1, ThreadPool* pool = nullptr,
                             const std::function<bool()>& cancel = {});

  // Pipeline stage 2a: sharded parallel planning of every gadget
  // request of the batch (GadgetPool::plan_batch) -- pure with respect
  // to the image, so it may overlap another module's materialize. Runs
  // on `pool` when given, else on a private `threads`-wide pool, with
  // one shard per worker of that pool. Consumes the CraftedModule; the
  // ResolvedModule must be materialized before this engine's next craft
  // (per-session FIFO in the service).
  ResolvedModule resolve_module(CraftedModule&& cm, int threads = 1,
                                ThreadPool* pool = nullptr);

  // Pipeline stage 2b: the serial image-mutating tail -- planned
  // gadgets appended in batch order, then the whole batch staged as one
  // deferred image commit. Consumes the ResolvedModule.
  ModuleResult materialize_module(ResolvedModule&& rm);

  // Single-function convenience: obfuscate_module({name}) -- one
  // element, one craft thread -- returning that element's result. Emits
  // the chain into .ropdata, patches the body with a pivot stub and
  // plants artificial gadgets in .text; rewriting an already-rewritten
  // function fails.
  rop::RewriteResult rewrite_function(const std::string& name);

  // Aggregate gadget statistics across all commits so far (Table III).
  struct Aggregate {
    std::size_t program_points = 0;
    std::size_t gadget_slots = 0;
    std::size_t unique_gadgets = 0;
  };
  Aggregate aggregate() const;

  std::uint64_t ss_addr() const { return ss_addr_; }
  std::uint64_t funcret_gadget() const { return funcret_gadget_; }
  gadgets::GadgetPool& pool() { return pool_; }
  const gadgets::GadgetPool& pool() const { return pool_; }
  const rop::ObfConfig& config() const { return cfg_; }
  const std::shared_ptr<analysis::AnalysisCache>& analysis_cache() const {
    return cache_;
  }

  // Size in bytes of the pivoting stub (functions shorter than this
  // cannot be rewritten; the coverage bench reports them separately).
  static std::size_t pivot_stub_size();

 private:
  // Per-function resources reserved serially before phase 1, so crafting
  // sees fixed addresses without ever touching the image.
  struct Prealloc {
    std::size_t ordinal = 0;
    std::uint64_t fn_addr = 0;
    std::uint64_t fn_size = 0;
    int arg_count = 6;          // taint sources for the analyses
    std::uint64_t p1_addr = 0;  // 0 = no P1 array for this config
    std::vector<std::uint64_t> spill_slots;
    // Failures detectable before crafting (serial, image-dependent).
    rop::RewriteFailure early_failure = rop::RewriteFailure::None;
    std::string early_detail;
  };

  Prealloc preallocate(const std::string& name);
  CraftedFunction craft_one(const std::string& name,
                            const Prealloc& pre) const;
  // The craft itself, run on a craft-memo miss: a pure function of the
  // craft_key inputs.
  std::shared_ptr<CraftArtifact> craft_artifact(
      const Prealloc& pre, const analysis::AnalysisArtifacts& analyses) const;
  // Content hash over every craft input (function bytes, the analyses'
  // revalidated out-of-body dependency fingerprint, prealloc addresses,
  // config, seed, ordinal, catalog fingerprint): the craft memo key.
  std::uint64_t craft_key(const Prealloc& pre, std::uint64_t dep_fp) const;
  // Phase 2b: stages one resolved artifact into the batch's deferred
  // commit. `chain_base` is where this chain will land in .ropdata; the
  // chain bytes append to dc->bytes and all patches (P1 cells, switch
  // displacements, pivot stub) accumulate in dc. Pure with respect to
  // the image -- nothing lands until the caller applies dc once.
  rop::RewriteResult stage_one(CraftedFunction& cf, std::uint64_t chain_base,
                               Image::DeferredCommit* dc);
  std::vector<std::uint8_t> make_pivot_stub(std::uint64_t chain_addr) const;
  // Content hash of a whole-module record (Kind::kModule): pre-
  // obfuscation image bytes + config + batch names. Two engines fed the
  // same image, config, and batch compute the same key, so a module
  // obfuscated by one process is reloadable by another.
  std::uint64_t module_key(const std::vector<std::string>& names) const;

  Image* img_;
  rop::ObfConfig cfg_;
  std::shared_ptr<analysis::AnalysisCache> cache_;
  gadgets::GadgetPool pool_;
  std::uint64_t ss_addr_ = 0;
  std::uint64_t funcret_gadget_ = 0;
  std::size_t next_ordinal_ = 0;
  std::vector<std::uint64_t> all_gadget_addrs_;
  std::size_t total_points_ = 0;
  // Whole-module store records are probed/spilled only while the engine
  // is virgin (no batch crafted yet): after any craft the pool carries
  // planned-gadget state a reloaded image would not reflect, so later
  // batches stay on the per-record tier. Cleared by craft_module.
  bool module_record_eligible_ = true;
};

}  // namespace raindrop::engine
