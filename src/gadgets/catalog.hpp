// Gadget pool for the ROP encoder (§IV-A1). The paper's rewriter draws
// from artificial gadgets planted as dead code in .text, combined with
// gadgets already present in unobfuscated program parts. We do the same:
//  * plan_batch() + commit_plan() resolve every gadget request of a batch
//    to a gadget whose executed semantics equal the requested core
//    instruction sequence (followed by ret / jmp reg) -- the one way
//    gadgets are chosen; find_variant() is the craft phase's read-only
//    view of the same policy,
//  * variants are diversified with dynamically-dead junk instructions
//    that only touch caller-approved clobber registers (§V-D: one gadget
//    serves different purposes; extra instructions are dynamically dead),
//  * harvest() registers gadgets found by scanning existing code. The
//    scan is content-addressed: its result is an immutable HarvestLayer
//    keyed on a hash of the scanned bytes and memoized in the
//    AnalysisCache (Kind::kHarvest), so a warm sweep attaches the layer
//    with one shared_ptr instead of re-decoding .text at every byte
//    offset.
//
// Storage is layered: harvested gadgets live in shared immutable base
// layers; synthesized gadgets live in a pool-owned overlay. Lookups see
// base banks first, then the overlay, which reproduces the registration
// order of the former flat catalog (harvest before synthesis).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cache.hpp"
#include "analysis/liveness.hpp"
#include "image/image.hpp"
#include "isa/insn.hpp"
#include "support/rng.hpp"

namespace raindrop {
class ThreadPool;  // support/thread_pool.hpp
}

namespace raindrop::gadgets {

using analysis::RegSet;

struct Gadget {
  std::uint64_t addr = 0;
  std::vector<isa::Insn> body;   // executed instructions, excl. terminator
  bool jop = false;              // terminates with jmp r instead of ret
  isa::Reg jop_target = isa::Reg::RAX;
  RegSet extra_clobbers;         // junk side effects beyond the core
};

// Immutable result of one harvest scan: safe to share across pools and
// threads. Bank pointers alias the by_addr map nodes (stable).
struct HarvestLayer {
  std::map<std::uint64_t, Gadget> by_addr;
  std::unordered_map<std::string, std::vector<const Gadget*>> by_core;
  std::uint64_t fingerprint = 0;  // content hash of the scanned range
  std::size_t count() const { return by_addr.size(); }
  // Structural content digest stamped by build_harvest_layer and
  // re-verified on every memo hit (DESIGN.md §12): a corrupted cached
  // layer is evicted and the scan redone instead of silently steering
  // gadget selection.
  std::uint64_t integrity = 0;
  std::uint64_t compute_integrity() const;
};

// Kind::kHarvest codec for AnalysisCache::get_or_build: a layer is valid
// when it was scanned for `key` and its integrity digest matches.
struct HarvestCodec {
  using Value = HarvestLayer;
  static constexpr store::Kind kKind = store::Kind::kHarvest;
  static constexpr const char* kCorruptSite = "cache.harvest.corrupt";
  std::uint64_t key = 0;
  std::vector<std::uint8_t> encode(const HarvestLayer& layer) const;
  std::shared_ptr<HarvestLayer> decode(
      std::span<const std::uint8_t> payload) const;
  analysis::Verdict check(const HarvestLayer& layer) const;
  std::shared_ptr<const HarvestLayer> corrupt(const HarvestLayer& layer) const;
};

// A deferred gadget demand recorded by the pure craft phase (which runs
// against a frozen pool and cannot synthesize). The engine resolves
// whole batches through plan_batch() + commit_plan(): requests are
// sharded by core key and planned in parallel, then merged in global
// request order, so new-gadget addresses are assigned deterministically
// no matter how wide the pools that crafted and resolved them were.
struct GadgetRequest {
  std::vector<isa::Insn> core;
  bool jop = false;
  isa::Reg jop_target = isa::Reg::RAX;
  RegSet allowed_clobbers;
  std::string key;  // key_of(core, jop, jop_target); craft fills it so
                    // resolution never re-encodes the core
};

// Persistent output of the parallel plan phase (2a): every request of a
// batch resolved to either an existing gadget address or a fully-built
// planned gadget that still needs its image address. Produced by
// plan_batch() against a frozen catalog and pure with respect to the
// image; consumed exactly once by commit_plan(), whose serial merge
// appends the planned gadgets and yields the final address table. The
// engine's materialize stage carries one of these across the service's
// resolve -> materialize pipeline hop, so the image-mutating tail stays
// serial-per-image while planning parallelises freely.
class ResolvedPlan {
 public:
  ResolvedPlan();
  ResolvedPlan(ResolvedPlan&&) noexcept;
  ResolvedPlan& operator=(ResolvedPlan&&) noexcept;
  ~ResolvedPlan();

  // Requests planned (size of the address table commit_plan returns).
  std::size_t size() const;
  // How many requests need a new gadget appended at commit.
  std::size_t planned_count() const;

 private:
  friend class GadgetPool;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class GadgetPool {
 public:
  // New gadgets are synthesized into the image's .text: dead code in
  // the executable segment, like the paper.
  GadgetPool(Image* img, std::uint64_t seed, int max_variants = 4);

  // Appends a ret-terminated gadget executing exactly `core` -- no junk,
  // no random draw -- and registers it in the overlay; returns its
  // address. For fixed gadgets a client needs at a known address before
  // any batch is planned (the engine's function-return gadget, §IV-B2).
  std::uint64_t plant(std::span<const isa::Insn> core);

  // -- Immutable-after-build protocol ----------------------------------
  // Lifecycle per batch: the engine freezes the pool before the parallel
  // craft phase; frozen, the pool is a read-only catalog safe to share
  // across threads (find_variant()/random_gadget_addr() are the
  // concurrent-reader surface). plan_batch() then plans against the
  // still-frozen catalog in parallel, and commit_plan() unfreezes it
  // for the serial merge, leaving the pool unfrozen for the next batch.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  // Craft-phase lookup: picks an existing compatible variant with the
  // caller's rng, or returns nullopt to signal "record a GadgetRequest"
  // (no fit, or the variant bank may still grow and the rng opted to
  // diversify -- mirroring the growth policy of plan_batch()). `key` is
  // key_of(core, jop, jop_target), computed once by the caller and
  // reused for the request.
  std::optional<std::uint64_t> find_variant(const std::string& key, bool jop,
                                            RegSet allowed_clobbers,
                                            Rng& rng) const;

  // Commit-phase resolution of a deferred-request batch, as two
  // pipeline stages (DESIGN.md §9). The plan phase runs on `pool` and
  // partitions the requests by core-key hash into one shard per worker
  // (max(1, pool.thread_count())); same-key requests always share a
  // shard, so variant-bank growth is shard-local and shards plan in
  // parallel without synchronization. Every random decision draws from
  // a counter-based per-request stream, and planned gadgets are
  // appended to the image in global request order at merge, so the
  // resolved addresses -- and therefore the committed image -- are
  // bit-identical at every pool width, including the inline (serial)
  // pool. May reuse a gadget synthesized for an earlier request in this
  // or any previous batch (cross-function reuse: Table III's B << A).
  //
  // plan_batch is the parallel half: it freezes the catalog (idempotent
  // when the engine already froze it for craft), plans every request
  // against the frozen banks, and returns a persistent ResolvedPlan
  // without touching the image -- the catalog stays frozen so further
  // plans/crafts may read it. commit_plan is the serial half: it
  // appends the planned gadgets to the image in global request order,
  // registers them, unfreezes the pool, and returns the final
  // per-request address table. Exactly one commit_plan must follow each
  // plan_batch (on the same pool, in plan order).
  ResolvedPlan plan_batch(std::span<const GadgetRequest* const> reqs,
                          ThreadPool& pool);
  std::vector<std::uint64_t> commit_plan(ResolvedPlan&& plan);

  // -- Disk tier for plans (DESIGN.md §13) -----------------------------
  // Content hash over every input plan_batch would read for this batch
  // at the pool's current state: the catalog fingerprint, the
  // per-request stream base (resolve seed + the batch's base ordinal),
  // and each request's key/clobbers/termination. Equal plan keys mean
  // plan_batch produces bit-identical ResolvedPlans, so a plan spilled
  // to the artifact store (Kind::kResolvedPlan) by one process replays
  // in another. The pool width is deliberately absent: the plan content
  // is bit-identical across widths.
  std::uint64_t plan_key(std::span<const GadgetRequest* const> reqs) const;
  // Canonical (shard-independent) encoding of a plan: per-request slots
  // plus the planned gadgets in global request order, so the payload of
  // a plan is a pure function of plan_key's inputs no matter how wide
  // the pool that planned it.
  static std::vector<std::uint8_t> serialize_plan(const ResolvedPlan& plan);
  // Rebuilds a ResolvedPlan from a spilled payload, reproducing the pool
  // side effects of the plan_batch it replaces (catalog freeze +
  // consumption of `nreqs` request ordinals) so commit_plan treats the
  // two identically. Returns nullopt on any malformed payload WITHOUT
  // touching pool state; the caller evicts the record and falls back to
  // plan_batch.
  std::optional<ResolvedPlan> plan_from_payload(
      std::span<const std::uint8_t> payload, std::size_t nreqs);

  // Scans [lo, hi) for pre-existing usable gadget bodies and registers
  // them (gadgets "already available in program parts left
  // unobfuscated"). With `cache`, the scan result is memoized in the
  // cache (and its store, when attached) and reused by any pool whose
  // range holds identical bytes. Returns how many were registered.
  std::size_t harvest(std::uint64_t lo, std::uint64_t hi,
                      analysis::AnalysisCache* cache = nullptr);

  const Gadget* at(std::uint64_t addr) const;
  std::size_t unique_count() const;

  // A uniformly random existing gadget address (0 if the pool is empty);
  // gadget confusion uses these as disguise bases for immediates (§V-D).
  // Indexes gadgets in ascending address order across all layers.
  std::uint64_t random_gadget_addr(Rng& rng) const;

  // Content fingerprint of everything the frozen-catalog read surface
  // (find_variant / random_gadget_addr / bank sizes) can observe:
  // harvest-layer content hashes plus a running hash over synthesized
  // gadgets. Equal fingerprints (same seed / variant budget) mean craft
  // decisions against the two catalogs are identical -- the craft memo
  // keys on this (DESIGN.md §7).
  std::uint64_t fingerprint() const;

  static std::string key_of(std::span<const isa::Insn> core, bool jop,
                            isa::Reg jop_target);

 private:
  struct Planned;  // shard-local synthesized gadget awaiting an address
  friend struct ResolvedPlan::Impl;  // holds Planned across the 2a/2b hop

  // plan_batch's junk-diversification policy: draws from `rng` in a
  // fixed order.
  static Gadget make_body(std::span<const isa::Insn> core, bool jop,
                          isa::Reg jop_target, RegSet junk_allowed, Rng& rng,
                          std::vector<std::uint8_t>* bytes);
  const Gadget* register_owned(Gadget g, const std::string& key);
  // Bank size / fit collection across base layers and the overlay.
  std::size_t bank_size(const std::string& key) const;
  void collect_fits(const std::string& key, RegSet allowed,
                    std::vector<const Gadget*>* fits) const;

  Image* img_;
  std::uint64_t resolve_seed_;       // per-request stream base (commit)
  std::uint64_t next_request_ordinal_ = 0;
  int max_variants_;
  bool frozen_ = false;
  std::vector<std::shared_ptr<const HarvestLayer>> bases_;
  std::deque<Gadget> owned_;         // synthesized; stable references
  std::unordered_map<std::string, std::vector<const Gadget*>> by_core_;
  std::map<std::uint64_t, const Gadget*> by_addr_;
  std::uint64_t overlay_fp_ = 0;     // running hash over register_owned()
};

// Kind::kResolvedPlan codec (disk tier only): serialize_plan /
// plan_from_payload for a batch of `nreqs` requests on `pool`. decode
// validates fully and, on success, applies plan_batch's pool side
// effects, so check() has nothing left to reject.
struct PlanCodec {
  using Value = ResolvedPlan;
  static constexpr store::Kind kKind = store::Kind::kResolvedPlan;
  GadgetPool* pool = nullptr;
  std::size_t nreqs = 0;
  std::vector<std::uint8_t> encode(const ResolvedPlan& plan) const {
    return GadgetPool::serialize_plan(plan);
  }
  std::shared_ptr<ResolvedPlan> decode(
      std::span<const std::uint8_t> payload) const {
    std::optional<ResolvedPlan> plan = pool->plan_from_payload(payload, nreqs);
    return plan ? std::make_shared<ResolvedPlan>(std::move(*plan)) : nullptr;
  }
  analysis::Verdict check(const ResolvedPlan&) const {
    return analysis::Verdict::kValid;
  }
};

}  // namespace raindrop::gadgets
