// Content-addressed cache for the support analyses of Figure 2. The
// obfuscation pipeline's frontend (CFG reconstruction, liveness, taint)
// is a pure function of the function's bytes plus a handful of small
// image facts (jump-table cells, callee argument counts); repeated
// sweeps -- Table II rebuilds the identical corpus once per
// configuration -- therefore recompute identical artifacts 10+ times.
//
// The cache keys artifacts on a 64-bit content hash of (function bytes,
// entry address, size, arg_count, analysis version). Values are
// immutable and handed out as shared_ptr<const AnalysisArtifacts>, so a
// hit costs one hash + one shard-map probe and no copies, and artifacts
// outlive any particular engine or image. Cross-image reuse is made
// sound by recording the *out-of-body* facts each analysis consumed --
// the jump-table cells build_cfg read and the callee arg counts
// compute_liveness refined calls with -- and revalidating them against
// the current image on every hit; a mismatch rebuilds (counted as an
// eviction + miss), so patching a byte anywhere the analyses looked can
// never yield a stale artifact.
//
// The same cache holds every other content-addressed artifact of the
// pipeline (craft memos, harvest layers) behind one generic two-tier
// lookup, get_or_build, each kind in its own table. The tables are
// sharded by key hash with one mutex per shard: the engine's parallel
// craft phase probes them from every worker thread. A bounded FIFO per
// table keeps memory flat on long-lived service processes.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/disasm.hpp"
#include "analysis/liveness.hpp"
#include "analysis/taintreg.hpp"
#include "store/store.hpp"
#include "support/faultpoint.hpp"

namespace raindrop::analysis {

// Bump when any analysis' semantics change: old cache entries (e.g. in a
// long-lived service sharing one process cache across engine versions)
// become unreachable instead of wrong.
inline constexpr std::uint32_t kAnalysisVersion = 1;

// The immutable value: every config-independent artifact craft needs.
// For an incomplete CFG (reconstruction failure, §VII-C1) liveness and
// taint are left empty; callers check cfg.complete exactly as they
// would on a fresh build_cfg result.
struct AnalysisArtifacts {
  Cfg cfg;
  Liveness liveness;
  TaintInfo taint;
  // Hash of the out-of-body facts the analyses consumed (jump-table
  // cells, callee arg counts). lookup_or_build revalidates those facts
  // against the live image on every hit, so a returned artifact's
  // dep_fingerprint always reflects the image's *current* state --
  // downstream memos (the engine's craft memo) fold it into their own
  // keys to inherit that revalidation.
  std::uint64_t dep_fingerprint = 0;
  // Structural content digest, stamped at build time and re-verified on
  // every hit (DESIGN.md §12): a corrupted cache entry is detected,
  // evicted and transparently recomputed instead of silently steering
  // craft. Deliberately O(#insns) -- cheap next to the O(#bytes) key
  // hash the hit already pays.
  std::uint64_t integrity = 0;
  std::uint64_t compute_integrity() const;
};

// A codec's judgement of a cached or decoded value against the current
// lookup: kStale (identity or dependency mismatch) and kCorrupt
// (integrity-digest mismatch) both evict, only kCorrupt counts as a
// healed corruption.
enum class Verdict { kValid, kStale, kCorrupt };

// What one get_or_build call did (DESIGN.md §13). `hit` means "served
// without a rebuild": a memory hit or a promoted store record.
struct LookupOutcome {
  bool hit = false;
  bool store_hit = false;       // promoted from the store
  bool spilled = false;         // store attached, record absent: built + put
  bool memory_corrupt = false;  // memory entry failed integrity, evicted
  bool store_corrupt = false;   // store record failed its digest, decode
                                // or check, evicted
};

class AnalysisCache {
 public:
  // Per-kind counters. A hit is a lookup served without a rebuild, so a
  // store record promoted into memory counts as a hit, not a miss.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  // capacity + stale-dependency rebuilds
    // Subset of evictions caused by an integrity-digest mismatch (a
    // corrupted entry caught before it could be served).
    std::uint64_t integrity_evictions = 0;
    double hit_rate() const {
      std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };

  explicit AnalysisCache(std::size_t shard_count = 8,
                         std::size_t capacity_per_shard = 2048);

  // Returns the artifacts for the function at [entry, entry+size) with
  // `arg_count` taint sources, computing and inserting them on a miss.
  // Thread-safe; concurrent callers with the same key may both compute
  // (both results are identical by construction). `out`, when given,
  // reports which tiers served or rebuilt the value.
  std::shared_ptr<const AnalysisArtifacts> lookup_or_build(
      const Image& img, std::uint64_t entry, std::uint64_t size,
      int arg_count, LookupOutcome* out = nullptr);

  // -- The two-tier artifact lookup (DESIGN.md §13) -------------------
  // One flow serves every content-addressed artifact of the pipeline --
  // analyses, craft memos, harvest layers, ResolvedPlans:
  //   1. probe memory; check() the value; on failure evict (counting an
  //      integrity eviction for kCorrupt);
  //   2. probe the attached store; decode() + check(); promote the
  //      value, or evict the bad record;
  //   3. otherwise build(), put() the clean value, then run the
  //      Codec::kCorruptSite fault drill, which may poison only the
  //      memory copy -- the store always holds what build() produced.
  // A Codec supplies, for its value type T:
  //   using Value = T;  static constexpr store::Kind kKind;
  //   std::vector<std::uint8_t> encode(const T&) const;
  //   std::shared_ptr<T> decode(std::span<const std::uint8_t>) const;
  //                                       // null on any parse failure
  //   Verdict check(const T&) const;
  // and, for the memory tier, `static constexpr const char*
  // kCorruptSite` plus `std::shared_ptr<const T> corrupt(const T&)
  // const` (the drill's mutator). `build` returns std::shared_ptr<T>.
  template <class Codec, class Build>
  std::shared_ptr<const typename Codec::Value> get_or_build(
      const Codec& codec, std::uint64_t key, Build&& build,
      LookupOutcome* out = nullptr);
  // The disk-only half (steps 2 and 3 without the drill), for artifacts
  // with no memory tier. `st` may be null: then it only builds.
  template <class Codec, class Build>
  static std::shared_ptr<typename Codec::Value> get_or_build(
      store::ArtifactStore* st, const Codec& codec, std::uint64_t key,
      Build&& build, LookupOutcome* out = nullptr);

  // With a store attached, every get_or_build probes it on a memory miss
  // and spills every freshly built value.
  void attach_store(std::shared_ptr<store::ArtifactStore> st);
  const std::shared_ptr<store::ArtifactStore>& store() const {
    return store_;
  }

  // stats() counts the kAnalysis kind; aux_stats() sums every other kind
  // held in memory (craft memos, harvest layers).
  Stats stats() const { return sum_stats(true); }
  Stats aux_stats() const { return sum_stats(false); }
  void clear();

  // Default process-wide instance shared by every ObfuscationEngine not
  // given an explicit cache.
  static const std::shared_ptr<AnalysisCache>& process_cache();

  // 64-bit FNV-1a, the content hash used for keys (exposed so other
  // artifact owners derive keys the same way).
  static std::uint64_t hash_bytes(const std::uint8_t* data, std::size_t n,
                                  std::uint64_t seed = 0xcbf29ce484222325ull);
  // The one scalar-fold primitive every cache key in the pipeline uses
  // (engine craft keys, pool fingerprints): centralized so the hashes
  // cannot drift apart across call sites.
  static constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
    return (h ^ v) * 0x100000001b3ull;
  }

 private:
  struct Entry;

 public:
  // The kAnalysis codec: identity + out-of-body dependencies + the whole
  // artifact. check() needs the lookup's context; encode/decode do not.
  struct EntryCodec {
    using Value = Entry;
    static constexpr store::Kind kKind = store::Kind::kAnalysis;
    static constexpr const char* kCorruptSite = "cache.analysis.corrupt";
    const Image* img = nullptr;
    std::uint64_t entry = 0;
    std::uint64_t size = 0;
    int arg_count = 0;
    std::vector<std::uint8_t> encode(const Entry& e) const;
    std::shared_ptr<Entry> decode(std::span<const std::uint8_t> payload) const;
    Verdict check(const Entry& e) const;
    std::shared_ptr<const Entry> corrupt(const Entry& e) const;
  };

 private:
  struct Entry {
    std::uint64_t entry_addr = 0;
    std::uint64_t size = 0;
    int arg_count = 0;
    AnalysisArtifacts art;
    // Out-of-body dependencies, revalidated on every hit.
    struct TableDep {
      std::uint64_t addr = 0;
      std::size_t bytes = 0;
      std::uint64_t hash = 0;
    };
    struct CalleeDep {
      std::uint64_t target = 0;
      int arg_count = -1;  // -1: no function symbol at target
    };
    std::vector<TableDep> tables;
    std::vector<CalleeDep> callees;
  };

  // One table per store::Kind, each with its own FIFO capacity bound
  // and counters; the shard mutex guards all of them.
  struct Table {
    std::unordered_map<std::uint64_t, std::shared_ptr<const void>> map;
    std::deque<std::uint64_t> fifo;  // live keys in insertion order
    Stats stats;
  };
  static constexpr std::size_t kTables =
      static_cast<std::size_t>(store::Kind::kResolvedPlan) + 1;
  struct Shard {
    mutable std::mutex mu;
    std::array<Table, kTables> tables;
  };

  Shard& shard_for(std::uint64_t key);
  Stats sum_stats(bool analysis) const;
  std::shared_ptr<const void> probe(store::Kind kind, std::uint64_t key);
  // Evicts `key` if it still maps to `seen` (a racing rebuild may have
  // replaced it already).
  void drop(store::Kind kind, std::uint64_t key, const void* seen,
            bool corrupt);
  // Counts one lookup (hit: served without a rebuild) and inserts
  // `value` unless the key is present.
  void admit(store::Kind kind, std::uint64_t key,
             std::shared_ptr<const void> value, bool hit);
  static bool deps_valid(const Entry& e, const Image& img);
  static std::shared_ptr<Entry> build_entry(const Image& img,
                                            std::uint64_t entry,
                                            std::uint64_t size,
                                            int arg_count);

  std::vector<Shard> shards_;
  std::size_t capacity_;
  std::shared_ptr<store::ArtifactStore> store_;
};

template <class Codec, class Build>
std::shared_ptr<const typename Codec::Value> AnalysisCache::get_or_build(
    const Codec& codec, std::uint64_t key, Build&& build, LookupOutcome* out) {
  using T = typename Codec::Value;
  LookupOutcome local;
  LookupOutcome& o = out ? *out : local;
  o = LookupOutcome{};
  if (std::shared_ptr<const void> cached = probe(Codec::kKind, key)) {
    Verdict v = codec.check(*static_cast<const T*>(cached.get()));
    if (v == Verdict::kValid) {
      o.hit = true;
      admit(Codec::kKind, key, cached, /*hit=*/true);
      return std::static_pointer_cast<const T>(std::move(cached));
    }
    o.memory_corrupt = v == Verdict::kCorrupt;
    drop(Codec::kKind, key, cached.get(), o.memory_corrupt);
  }
  std::shared_ptr<const T> value =
      get_or_build(store_.get(), codec, key, std::forward<Build>(build), &o);
  std::shared_ptr<const void> kept = value;
  if (!o.hit && fault::fire(Codec::kCorruptSite)) kept = codec.corrupt(*value);
  admit(Codec::kKind, key, std::move(kept), o.hit);
  return value;
}

template <class Codec, class Build>
std::shared_ptr<typename Codec::Value> AnalysisCache::get_or_build(
    store::ArtifactStore* st, const Codec& codec, std::uint64_t key,
    Build&& build, LookupOutcome* out) {
  LookupOutcome local;
  LookupOutcome& o = out ? *out : local;
  if (st) {
    if (std::optional<std::vector<std::uint8_t>> payload =
            st->get(Codec::kKind, key, &o.store_corrupt)) {
      std::shared_ptr<typename Codec::Value> loaded = codec.decode(*payload);
      if (loaded && codec.check(*loaded) == Verdict::kValid) {
        o.hit = o.store_hit = true;
        return loaded;
      }
      // Parsed-but-invalid record: corruption that beat the store's
      // payload digest, stale dependencies, or a key collision.
      st->evict(Codec::kKind, key);
      o.store_corrupt = true;
    }
  }
  std::shared_ptr<typename Codec::Value> fresh = build();
  if (st) {
    st->put(Codec::kKind, key, codec.encode(*fresh));
    o.spilled = true;
  }
  return fresh;
}

}  // namespace raindrop::analysis
