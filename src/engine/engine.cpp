#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>
#include <unordered_set>

#include "isa/encode.hpp"
#include "rop/craft.hpp"
#include "rop/roplet.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"
#include "support/binio.hpp"
#include "support/faultpoint.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

namespace raindrop::engine {

using isa::Insn;
using isa::MemRef;
using isa::Reg;
namespace ib = isa::ib;

ObfuscationEngine::ObfuscationEngine(
    Image* img, const rop::ObfConfig& cfg,
    std::shared_ptr<analysis::AnalysisCache> cache)
    : img_(img), cfg_(cfg),
      cache_(cache ? std::move(cache)
                   : analysis::AnalysisCache::process_cache()),
      pool_(img, Rng(cfg.seed).next(), cfg.gadget_variants) {
  // Stack-switching array ss (§IV-A3): cell 0 holds the byte offset of
  // the top entry; entries follow. Sized for deep recursion.
  ss_addr_ = img_->reserve(".data", 8 * 1025);
  img_->add_object("__raindrop_ss", ss_addr_, 8 * 1025);

  // The synthetic function-return gadget with a hard-wired ss address
  // (§IV-B2): mov r11, ss; add r11, [r11]; xchg rsp, [r11]; ret.
  std::vector<Insn> core = {
      ib::mov_i64(Reg::R11, static_cast<std::int64_t>(ss_addr_)),
      ib::add_m(Reg::R11, MemRef::base_disp(Reg::R11)),
      ib::xchg_m(Reg::RSP, MemRef::base_disp(Reg::R11)),
  };
  funcret_gadget_ = pool_.plant(core);

  // Seed the pool with gadgets already present in compiled code
  // ("program parts left unobfuscated", §IV-A1). The scan result is
  // content-addressed through the analysis cache, so sibling engines
  // over identical .text bytes share one immutable harvest layer.
  pool_.harvest(kTextBase, img_->section_end(".text"), cache_.get());
}

std::vector<std::uint8_t> ObfuscationEngine::make_pivot_stub(
    std::uint64_t chain_addr) const {
  // Appendix A pivoting stub, in MiniX86. Uses only RAX (caller-saved,
  // dead at function entry) and push/pop pairs, like the paper's 22-byte
  // optimised sequence.
  std::vector<std::uint8_t> bytes;
  isa::encode(ib::push_i32(static_cast<std::int64_t>(ss_addr_)), bytes);
  isa::encode(ib::pop(Reg::RAX), bytes);
  isa::encode(ib::add_mi(MemRef::base_disp(Reg::RAX), 8), bytes);   // (a)
  isa::encode(ib::add_m(Reg::RAX, MemRef::base_disp(Reg::RAX)), bytes);
  isa::encode(ib::store(MemRef::base_disp(Reg::RAX), Reg::RSP), bytes);  // (b)
  isa::encode(ib::push_i32(static_cast<std::int64_t>(chain_addr)), bytes);
  isa::encode(ib::pop(Reg::RSP), bytes);                            // (c)
  isa::encode(ib::ret(), bytes);
  return bytes;
}

std::size_t ObfuscationEngine::pivot_stub_size() {
  std::vector<std::uint8_t> bytes;
  isa::encode(ib::push_i32(0), bytes);
  isa::encode(ib::pop(Reg::RAX), bytes);
  isa::encode(ib::add_mi(MemRef::base_disp(Reg::RAX), 8), bytes);
  isa::encode(ib::add_m(Reg::RAX, MemRef::base_disp(Reg::RAX)), bytes);
  isa::encode(ib::store(MemRef::base_disp(Reg::RAX), Reg::RSP), bytes);
  isa::encode(ib::push_i32(0), bytes);
  isa::encode(ib::pop(Reg::RSP), bytes);
  isa::encode(ib::ret(), bytes);
  return bytes.size();
}

ObfuscationEngine::Prealloc ObfuscationEngine::preallocate(
    const std::string& name) {
  Prealloc pre;
  pre.ordinal = next_ordinal_++;
  FunctionSym* fn = img_->function(name);
  if (!fn || fn->rop_rewritten) {
    pre.early_failure = rop::RewriteFailure::UnsupportedInsn;
    pre.early_detail = fn ? "already rewritten" : "no such function";
    return pre;
  }
  pre.fn_addr = fn->addr;
  pre.fn_size = fn->size;
  pre.arg_count = fn->arg_count;
  if (fn->size < pivot_stub_size()) {
    pre.early_failure = rop::RewriteFailure::TooShort;
    pre.early_detail = "body smaller than pivot stub";
    return pre;
  }
  // Per-function P1 array (also required by P3 variant 2). The cell
  // count is a pure function of the config, so the space can be reserved
  // before the cells are crafted.
  if (cfg_.p1 || cfg_.p3_variant >= 2) {
    std::size_t cells =
        static_cast<std::size_t>(cfg_.p1_s) * static_cast<std::size_t>(cfg_.p1_p);
    pre.p1_addr = img_->reserve(".data", cells * 8);
  }
  // Spill slots: adjacent to the chain area by default ("inlined 8-byte
  // chain slot", §IV-B2), or in .data for read-only chains (§IV-C).
  for (int i = 0; i < cfg_.max_spill_slots; ++i)
    pre.spill_slots.push_back(
        img_->reserve(cfg_.read_only_chain ? ".data" : ".ropdata", 8));
  return pre;
}

namespace {

using analysis::AnalysisCache;
constexpr auto fold = AnalysisCache::fold;

// Distinct addresses in `addrs`. Sort + unique rather than a std::set:
// chains hold hundreds of slots and a session tens of thousands, and a
// node allocation per insert is measurably slower.
std::size_t count_unique(std::vector<std::uint64_t> addrs) {
  std::sort(addrs.begin(), addrs.end());
  return static_cast<std::size_t>(
      std::unique(addrs.begin(), addrs.end()) - addrs.begin());
}

// Every ObfConfig field folds into the craft-memo key: two configs that
// differ anywhere craft can observe must never share artifacts. The
// size check trips when a field is added so this function cannot
// silently go stale (stale = two configs aliasing one artifact).
static_assert(sizeof(rop::ObfConfig) == 96,
              "ObfConfig changed: fold the new field into config_hash and "
              "bump kCraftMemoTag");
std::uint64_t config_hash(const rop::ObfConfig& c) {
  auto dbl = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fold(h, c.seed);
  h = fold(h, (c.p1 ? 1u : 0u) | (c.p2 ? 2u : 0u) |
                  (c.gadget_confusion ? 4u : 0u) |
                  (c.read_only_chain ? 8u : 0u) |
                  (c.shuffle_blocks ? 16u : 0u));
  h = fold(h, static_cast<std::uint64_t>(c.p1_n) |
                  (static_cast<std::uint64_t>(c.p1_s) << 16) |
                  (static_cast<std::uint64_t>(c.p1_p) << 32));
  h = fold(h, c.p1_m);
  h = fold(h, static_cast<std::uint64_t>(c.p2_x_max));
  h = fold(h, dbl(c.p3_fraction));
  h = fold(h, static_cast<std::uint64_t>(c.p3_variant));
  h = fold(h, c.p3_iter_mask);
  h = fold(h, dbl(c.confusion_bump_prob));
  h = fold(h, static_cast<std::uint64_t>(c.max_spill_slots));
  h = fold(h, static_cast<std::uint64_t>(c.gadget_variants));
  return h;
}

// Tag separating craft-memo keys from other cache keys; bump with any
// craft semantics change.
constexpr std::uint64_t kCraftMemoTag = 0x435246540001ull;
// Module-record key tag: bump with any change of the record layout, so
// records in the old layout miss instead of failing to parse.
constexpr std::uint64_t kModuleRecordTag = 0x4d4f44554c450003ull;

// Runs fn on `pool` when given (the service's shared workers), else on
// one private `threads`-wide pool -- the only place the engine builds
// a pool of its own.
template <class Fn>
decltype(auto) on_pool(ThreadPool* pool, int threads, Fn&& fn) {
  if (pool) return fn(*pool);
  ThreadPool own(threads);
  return fn(own);
}

}  // namespace

// Disk-tier codec for a whole CraftArtifact (Kind::kCraftMemo records,
// DESIGN.md §13). The craft key is cross-process deterministic (content
// hashes + config + ordinal, no addresses of process objects), so a
// record spilled by one process serves a warm restart byte-identically.
std::vector<std::uint8_t> CraftMemoCodec::encode(
    const CraftArtifact& art) const {
  binio::Writer w;
  w.u8(art.ok ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(art.failure));
  w.str(art.detail);
  store::write_chain(w, art.chain);
  w.u32(static_cast<std::uint32_t>(art.requests.size()));
  for (const gadgets::GadgetRequest& req : art.requests) {
    w.vu64(req.core.size());
    for (const isa::Insn& insn : req.core) store::write_insn(w, insn);
    w.u8(req.jop ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(req.jop_target));
    store::write_regset(w, req.allowed_clobbers);
    // req.key is not stored: it is GadgetPool::key_of(core, jop,
    // jop_target) by construction, so the reader recomputes it from the
    // fields above. Keys are ~25% of a memo's request bytes.
  }
  w.u8(art.p1 ? 1 : 0);
  if (art.p1) store::write_p1(w, *art.p1);
  w.u64(art.program_points);
  w.u64(art.integrity);
  return w.take();
}

std::shared_ptr<CraftArtifact> CraftMemoCodec::decode(
    std::span<const std::uint8_t> payload) const {
  try {
    binio::Reader r(payload);
    auto art = std::make_shared<CraftArtifact>();
    art->ok = r.u8() != 0;
    art->failure = static_cast<rop::RewriteFailure>(r.u32());
    art->detail = r.str();
    art->chain = store::read_chain(r);
    std::uint32_t n_reqs = r.count(/*min_elem_bytes=*/4);
    for (std::uint32_t i = 0; i < n_reqs; ++i) {
      gadgets::GadgetRequest req;
      std::uint64_t n_core = r.vu64();
      if (n_core > r.remaining() / 5)
        throw binio::Error("binio: count exceeds remaining payload");
      req.core.reserve(n_core);
      for (std::uint64_t j = 0; j < n_core; ++j)
        req.core.push_back(store::read_insn(r));
      req.jop = r.u8() != 0;
      std::uint8_t tgt = r.u8();
      if (tgt >= isa::kNumRegs) return nullptr;
      req.jop_target = static_cast<isa::Reg>(tgt);
      req.allowed_clobbers = store::read_regset(r);
      req.key = gadgets::GadgetPool::key_of(req.core, req.jop,
                                            req.jop_target);
      art->requests.push_back(std::move(req));
    }
    if (r.u8()) art->p1 = store::read_p1(r);
    art->program_points = r.u64();
    art->integrity = r.u64();
    return art;
  } catch (const binio::Error&) {
    return nullptr;
  }
}

analysis::Verdict CraftMemoCodec::check(const CraftArtifact& art) const {
  return art.integrity == art.compute_integrity() ? analysis::Verdict::kValid
                                                  : analysis::Verdict::kCorrupt;
}

std::shared_ptr<const CraftArtifact> CraftMemoCodec::corrupt(
    const CraftArtifact& art) const {
  // A digest-covered field flipped, the stored digest kept clean.
  auto bad = std::make_shared<CraftArtifact>(art);
  bad->program_points ^= 1;
  return bad;
}

std::uint64_t CraftArtifact::compute_integrity() const {
  // Structural fold over everything materialization consumes from the
  // artifact. Does not cover the `integrity` field itself, so flipping
  // any covered scalar -- or the stored digest -- is detectable.
  std::uint64_t h = 0xd1f87c35b96ea207ull;
  h = fold(h, ok ? 1 : 0);
  h = fold(h, static_cast<std::uint64_t>(failure));
  h = fold(h, detail.size());
  h = fold(h, program_points);
  h = fold(h, requests.size());
  for (const gadgets::GadgetRequest& req : requests) {
    h = fold(h, req.core.size());
    h = fold(h, AnalysisCache::hash_bytes(
                    reinterpret_cast<const std::uint8_t*>(req.key.data()),
                    req.key.size()));
  }
  h = fold(h, p1 ? p1->cells.size() + 1 : 0);
  if (p1)
    for (std::uint64_t c : p1->cells) h = fold(h, c);
  const auto& items = chain.items();
  h = fold(h, items.size());
  for (const rop::ChainItem& it : items) {
    h = fold(h, static_cast<std::uint64_t>(it.kind));
    h = fold(h, it.gadget);
    h = fold(h, static_cast<std::uint64_t>(it.gadget_req + 1));
    h = fold(h, static_cast<std::uint64_t>(it.imm));
    h = fold(h, static_cast<std::uint64_t>(it.label_a + 1));
    h = fold(h, static_cast<std::uint64_t>(it.label_b + 1));
    h = fold(h, static_cast<std::uint64_t>(it.addend));
    h = fold(h, it.raw.size());
    for (std::uint8_t b : it.raw) h = fold(h, b);
    h = fold(h, static_cast<std::uint64_t>(it.label + 1));
  }
  h = fold(h, chain.patches().size());
  return h;
}

std::uint64_t ObfuscationEngine::craft_key(const Prealloc& pre,
                                           std::uint64_t dep_fp) const {
  std::span<const std::uint8_t> view =
      img_->bytes_view(pre.fn_addr, static_cast<std::size_t>(pre.fn_size));
  std::uint64_t h;
  if (!view.empty()) {
    h = AnalysisCache::hash_bytes(view.data(), view.size());
  } else {
    h = 0xcbf29ce484222325ull;
    for (std::uint64_t i = 0; i < pre.fn_size; ++i)
      h = fold(h, img_->byte_at(pre.fn_addr + i));
  }
  h = fold(h, kCraftMemoTag);
  // Out-of-body facts the analyses consumed (jump-table cells, callee
  // arg counts): lookup_or_build revalidated them against the live
  // image just before this, so folding the fingerprint makes the memo
  // inherit that revalidation -- a .rodata table cell changing under
  // unchanged function bytes must miss here, never serve a stale chain.
  h = fold(h, dep_fp);
  h = fold(h, pre.fn_addr);
  h = fold(h, pre.fn_size);
  h = fold(h, static_cast<std::uint64_t>(pre.arg_count));
  h = fold(h, pre.ordinal);
  h = fold(h, pre.p1_addr);
  for (std::uint64_t s : pre.spill_slots) h = fold(h, s);
  h = fold(h, ss_addr_);
  h = fold(h, funcret_gadget_);
  h = fold(h, pool_.fingerprint());
  h = fold(h, config_hash(cfg_));
  return h;
}

CraftedFunction ObfuscationEngine::craft_one(const std::string& name,
                                             const Prealloc& pre) const {
  CraftedFunction cf;
  cf.name = name;
  cf.ordinal = pre.ordinal;
  cf.fn_addr = pre.fn_addr;
  cf.spill_slots = pre.spill_slots;
  if (pre.early_failure != rop::RewriteFailure::None) {
    cf.failure = pre.early_failure;
    cf.detail = pre.early_detail;
    return cf;
  }

  // Fault site before any work: craft_one is pure (const; the only side
  // effect is a cache insert below this point), so a fault here is
  // retried in place by craft_module without perturbing the output.
  fault::maybe_throw("engine.craft_one");

  // Support analyses (Figure 2: CFG reconstruction, liveness, gadget
  // finder feed translation / chain crafting), shared through the
  // content-addressed cache: a warm sweep reuses the artifacts of any
  // earlier engine that analysed identical function bytes.
  cf.analyses = cache_->lookup_or_build(*img_, pre.fn_addr, pre.fn_size,
                                        pre.arg_count, &cf.analysis_lookup);

  // Craft memo: the whole phase-1 artifact is a pure function of the
  // key's inputs, so a sweep re-obfuscating identical bytes under an
  // identical configuration -- in this process or, through the store,
  // an earlier one -- serves it without re-crafting. A corrupted memo
  // entry is evicted and re-crafted: the recomputed artifact is
  // identical to an uncached craft, so the image never sees it.
  cf.art = cache_->get_or_build(
      CraftMemoCodec{}, craft_key(pre, cf.analyses->dep_fingerprint),
      [&] { return craft_artifact(pre, *cf.analyses); }, &cf.memo_lookup);
  cf.ok = cf.art->ok;
  cf.failure = cf.art->failure;
  cf.detail = cf.art->detail;
  return cf;
}

std::shared_ptr<CraftArtifact> ObfuscationEngine::craft_artifact(
    const Prealloc& pre, const analysis::AnalysisArtifacts& analyses) const {
  auto art = std::make_shared<CraftArtifact>();
  // All randomness in this function's craft comes from its own
  // counter-based stream: the artifact depends only on (image snapshot,
  // frozen pool, prealloc, seed, ordinal), never on sibling functions.
  Rng rng = Rng::stream(cfg_.seed, pre.ordinal);
  const analysis::Cfg& cfg = analyses.cfg;
  if (!cfg.complete) {
    art->failure = rop::RewriteFailure::CfgIncomplete;
    art->detail = cfg.error;
  } else {
    rop::TranslateResult tr =
        rop::translate(cfg, analyses.liveness, analyses.taint);
    if (!tr.ok) {
      art->failure = rop::RewriteFailure::UnsupportedInsn;
      art->detail = tr.error;
    } else {
      if (pre.p1_addr != 0) {
        art->p1 = rop::P1Array::generate(rng, cfg_.p1_n, cfg_.p1_s,
                                         cfg_.p1_p, cfg_.p1_m);
        art->p1->addr = pre.p1_addr;
      }

      rop::CraftEnv env;
      env.pool = &pool_;
      env.cfg = &cfg_;
      env.rng = &rng;
      env.ss_addr = ss_addr_;
      env.funcret_gadget = funcret_gadget_;
      env.spill_slots = pre.spill_slots;
      env.p1 = art->p1 ? &*art->p1 : nullptr;
      env.liveness = &analyses.liveness;
      env.fn_addr = pre.fn_addr;
      env.fn_stub_end = pre.fn_addr + pivot_stub_size();

      rop::CraftOutput co = rop::craft_chain(env, tr);
      if (!co.ok) {
        art->failure = co.failure;
        art->detail = co.detail;
        art->p1.reset();
      } else {
        art->chain = std::move(co.chain);
        art->requests = std::move(co.requests);
        art->program_points = co.program_points;
        art->ok = true;
      }
    }
  }
  art->integrity = art->compute_integrity();
  return art;
}

rop::RewriteResult ObfuscationEngine::stage_one(CraftedFunction& cf,
                                                std::uint64_t chain_base,
                                                Image::DeferredCommit* dc) {
  rop::RewriteResult res;
  if (!cf.ok) {
    res.failure = cf.failure;
    res.detail = cf.detail;
    return res;
  }
  const CraftArtifact& art = *cf.art;

  // Materialization (§IV-B3): fix the layout, embed the chain, patch the
  // switch displacements into the (now dead) original body, install the
  // pivot stub. `chain_base` is where these bytes will land in .ropdata
  // (current section end plus every chain staged before this one in the
  // batch), which is what absolute chain items (flag-preserving jumps)
  // resolve against. Nothing touches the image here: the whole batch
  // accumulates into one deferred commit, applied once by the caller.
  rop::Chain::Materialized mat =
      art.chain.materialize(chain_base, cf.req_addrs);
  dc->bytes.insert(dc->bytes.end(), mat.bytes.begin(), mat.bytes.end());
  if (art.p1) {
    // One contiguous raw patch for the whole P1 array: per-cell u64
    // patches cost a section scan each.
    std::vector<std::uint8_t> cells(art.p1->cells.size() * 8);
    for (std::size_t i = 0; i < art.p1->cells.size(); ++i)
      for (int k = 0; k < 8; ++k)
        cells[8 * i + k] =
            static_cast<std::uint8_t>(art.p1->cells[i] >> (8 * k));
    dc->raw_patches.push_back({art.p1->addr, std::move(cells)});
  }
  for (auto [addr, val] : mat.patches)
    dc->u32_patches.push_back({addr, static_cast<std::uint32_t>(val)});
  dc->raw_patches.push_back({cf.fn_addr, make_pivot_stub(chain_base)});

  res.ok = true;
  res.chain_addr = chain_base;
  res.chain_size = mat.bytes.size();
  res.stats.program_points = art.program_points;
  res.stats.gadget_slots = art.chain.gadget_slots();
  std::vector<std::uint64_t> gaddrs = art.chain.gadget_addrs(cf.req_addrs);
  all_gadget_addrs_.insert(all_gadget_addrs_.end(), gaddrs.begin(),
                           gaddrs.end());
  res.stats.unique_gadgets = count_unique(std::move(gaddrs));
  res.stats.gadgets_per_point =
      art.program_points == 0
          ? 0.0
          : static_cast<double>(res.stats.gadget_slots) /
                static_cast<double>(art.program_points);
  res.stats.chain_bytes = mat.bytes.size();
  total_points_ += art.program_points;
  return res;
}

CraftedModule ObfuscationEngine::craft_module(
    const std::vector<std::string>& names, int threads, ThreadPool* pool,
    const std::function<bool()>& cancel) {
  module_record_eligible_ = false;
  CraftedModule cm;
  cm.names = names;
  Stopwatch watch;

  // Serial pre-pass: fix every address crafting will need (P1 arrays,
  // spill slots) and catch image-dependent early failures, so phase 1
  // can run against an immutable image.
  std::vector<Prealloc> pre;
  pre.reserve(names.size());
  for (const std::string& name : names) pre.push_back(preallocate(name));

  // Phase 1: pure parallel craft against the frozen pool. Results land
  // in their input slot; thread scheduling cannot reorder anything.
  pool_.freeze();
  cm.crafted.resize(names.size());
  std::atomic<std::size_t> shed{0};
  std::atomic<std::size_t> retried{0};
  // craft_one is pure (const; its one side effect, the memo insert, is
  // idempotent), so a transient failure is safely retried in place --
  // the retried result is bit-identical to a never-failed craft. After
  // kCraftAttempts the exception escapes through parallel_for's capture
  // and the whole batch fails to the caller (the service quarantines).
  constexpr int kCraftAttempts = 3;
  on_pool(pool, threads, [&](ThreadPool& tp) {
    tp.parallel_for(names.size(), [&](std::size_t i) {
      // Cancellation poll between functions: a dropped JobHandle sheds
      // the rest of an in-flight batch instead of crafting to
      // completion. Expiry is permanent, so a shed batch stays shed.
      if (cancel && cancel()) {
        shed.fetch_add(1, std::memory_order_relaxed);
        return;  // slot keeps its default (not-ok) CraftedFunction
      }
      for (int attempt = 1;; ++attempt) {
        try {
          cm.crafted[i] = craft_one(names[i], pre[i]);
          break;
        } catch (...) {
          if (attempt >= kCraftAttempts) throw;
          retried.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  });
  cm.craft_shed = shed.load(std::memory_order_relaxed);
  cm.craft_retries = retried.load(std::memory_order_relaxed);
  cm.craft_seconds = watch.seconds();
  return cm;
}

ResolvedModule ObfuscationEngine::resolve_module(CraftedModule&& cm,
                                                 int threads,
                                                 ThreadPool* pool) {
  ResolvedModule rm;
  Stopwatch watch;
  rm.cm = std::move(cm);

  // Phase 2a: sharded parallel request planning, batch order. A name
  // listed twice in one batch crafts twice (prealloc happens before any
  // commit); only the first artifact may land, so losers are demoted
  // *before* planning and synthesize nothing.
  std::unordered_set<std::string> landing;
  for (CraftedFunction& cf : rm.cm.crafted) {
    if (!cf.ok) continue;
    if (img_->function(cf.name)->rop_rewritten || !landing.insert(cf.name).second) {
      cf.ok = false;
      cf.failure = rop::RewriteFailure::UnsupportedInsn;
      cf.detail = "already rewritten";
    }
  }
  std::vector<const gadgets::GadgetRequest*> flat;
  for (const CraftedFunction& cf : rm.cm.crafted) {
    if (!cf.ok) continue;
    for (const gadgets::GadgetRequest& req : cf.art->requests)
      flat.push_back(&req);
  }
  // The pool stays frozen from phase 1 through the plan: plan_batch
  // reads the frozen catalog in parallel and touches no image bytes --
  // commit_plan (in materialize_module) appends the planned gadgets in
  // global request order. A request may be served by a gadget planned
  // for an earlier function in the batch: cross-function reuse
  // (Table III's B << A).
  //
  // Disk tier for the plan itself (DESIGN.md §13): the plan is a pure
  // function of (catalog fingerprint, resolve seed, base ordinal,
  // requests), so with a store attached a warm restart replays phase 2a
  // from the spilled record instead of re-planning. Empty batches skip
  // the store: nothing to save, and a probe would pollute the
  // perfect-hit-rate restart contract.
  store::ArtifactStore* st =
      (cache_ && !flat.empty()) ? cache_->store().get() : nullptr;
  // plan_key must read the pool before plan_batch consumes ordinals.
  const std::uint64_t pk = st ? pool_.plan_key(flat) : 0;
  rm.plan = std::move(*AnalysisCache::get_or_build(
      st, gadgets::PlanCodec{&pool_, flat.size()}, pk,
      [&] {
        return on_pool(pool, threads, [&](ThreadPool& tp) {
          return std::make_shared<gadgets::ResolvedPlan>(
              pool_.plan_batch(flat, tp));
        });
      },
      &rm.plan_lookup));
  rm.resolve_seconds = watch.seconds();
  return rm;
}

ModuleResult ObfuscationEngine::materialize_module(ResolvedModule&& rm) {
  ModuleResult out;
  Stopwatch watch;
  out.craft_seconds = rm.cm.craft_seconds;
  out.resolve_seconds = rm.resolve_seconds;
  out.craft_retries = rm.cm.craft_retries;
  std::vector<CraftedFunction>& crafted = rm.cm.crafted;

  // Every tier lookup of the batch (analyses + craft memo per crafted
  // function, one plan record) folds into the counters here.
  auto tally = [&out](const analysis::LookupOutcome& o) {
    out.store_hits += o.store_hit;
    out.store_misses += o.spilled;
    out.store_spills += o.spilled;
    out.store_corrupt_evictions += o.store_corrupt;
    out.corruptions_recovered += o.memory_corrupt;
  };
  for (const CraftedFunction& cf : crafted) {
    if (!cf.analyses) continue;  // early failure: no cache consultation
    ++(cf.analysis_lookup.hit ? out.analysis_cache_hits
                              : out.analysis_cache_misses);
    ++(cf.memo_lookup.hit ? out.craft_memo_hits : out.craft_memo_misses);
    tally(cf.analysis_lookup);
    tally(cf.memo_lookup);
  }
  tally(rm.plan_lookup);
  std::size_t lookups = out.analysis_cache_hits + out.analysis_cache_misses;
  out.analysis_cache_hit_rate =
      lookups ? static_cast<double>(out.analysis_cache_hits) /
                    static_cast<double>(lookups)
              : 0.0;
  std::size_t store_lookups = out.store_hits + out.store_misses;
  out.store_hit_rate =
      store_lookups ? static_cast<double>(out.store_hits) /
                          static_cast<double>(store_lookups)
                    : 0.0;

  // The serial half of phase 2a: planned gadgets land in the image in
  // global request order (bit-identical to the former fused resolve),
  // then request addresses distribute back to their functions.
  std::vector<std::uint64_t> addrs = pool_.commit_plan(std::move(rm.plan));
  std::size_t cursor = 0;
  for (CraftedFunction& cf : crafted) {
    if (!cf.ok) continue;
    cf.req_addrs.assign(addrs.begin() + cursor,
                        addrs.begin() + cursor + cf.art->requests.size());
    cursor += cf.art->requests.size();
  }

  // Phase 2b: serial materialization in batch order, staged into ONE
  // deferred image commit -- one .ropdata append for every chain of the
  // batch plus all P1/switch/pivot patches -- instead of one commit per
  // function. Chain bases are assigned cumulatively exactly as the
  // per-function commits would have, so the image bytes are unchanged;
  // only the serial tail (a section scan + append per function) shrinks.
  const std::uint64_t batch_base = img_->section_end(".ropdata");
  std::uint64_t chain_base = batch_base;
  Image::DeferredCommit dc;
  dc.section = ".ropdata";
  out.results.reserve(crafted.size());
  for (CraftedFunction& cf : crafted) {
    out.results.push_back(stage_one(cf, chain_base, &dc));
    const rop::RewriteResult& res = out.results.back();
    if (res.ok) {
      ++out.ok_count;
      chain_base += res.chain_size;
    }
  }
  // Tripwire BEFORE mutating: if .ropdata grew while the batch was
  // staged (it cannot: staging is pure and gadget synthesis in phase 2a
  // appends to .text, not .ropdata -- but a future pool/section change
  // could), fail while the image is intact.
  if (img_->section_end(".ropdata") != batch_base) {
    for (rop::RewriteResult& res : out.results) {
      if (!res.ok) continue;
      res = rop::RewriteResult{};
      res.failure = rop::RewriteFailure::UnsupportedInsn;
      res.detail = "chain base moved during materialization";
    }
    out.ok_count = 0;
    out.materialize_seconds = watch.seconds();
    return out;
  }
  img_->apply_commit(dc);
  for (const CraftedFunction& cf : crafted)
    if (cf.ok) img_->function(cf.name)->rop_rewritten = true;
  out.materialize_seconds = watch.seconds();
  return out;
}

std::uint64_t ObfuscationEngine::module_key(
    const std::vector<std::string>& names) const {
  std::vector<std::uint8_t> blob = img_->serialize();
  std::uint64_t h = AnalysisCache::hash_bytes(blob.data(), blob.size());
  h = fold(h, kModuleRecordTag);
  h = fold(h, config_hash(cfg_));
  h = fold(h, names.size());
  for (const std::string& n : names)
    h = fold(h, AnalysisCache::hash_bytes(
                    reinterpret_cast<const std::uint8_t*>(n.data()),
                    n.size()));
  return h;
}

// The whole-module fast path (DESIGN.md §13): with a store attached and
// a virgin engine, probe for a finished module record before doing any
// work. Output is bit-identical either way -- the record's key covers
// every input of the deterministic build (image bytes, config, batch),
// so a hit can only serve what this build would have produced, and the
// Image and per-function results round-trip exactly (a hit returns the
// same `results` as the build that spilled the record). `threads` is
// deliberately not in the key: output is bit-identical at every pool
// width (see above). On a miss the freshly built module is spilled for
// the next process.
ModuleResult ObfuscationEngine::obfuscate_module(
    const std::vector<std::string>& names, int threads) {
  // The three stages back to back, craft and resolve on one pool.
  auto build = [&] {
    ThreadPool tp(threads);
    return materialize_module(
        resolve_module(craft_module(names, threads, &tp), threads, &tp));
  };
  std::shared_ptr<store::ArtifactStore> st =
      (module_record_eligible_ && cache_) ? cache_->store() : nullptr;
  if (!st) return build();

  const std::uint64_t mkey = module_key(names);
  bool evicted = false;
  if (std::optional<store::ModuleRecord> rec =
          store::get_module(*st, mkey, &evicted)) {
    module_record_eligible_ = false;
    *img_ = std::move(rec->img);
    total_points_ = rec->program_points;
    all_gadget_addrs_ = std::move(rec->gadget_addrs);
    ModuleResult out;
    out.results = std::move(rec->results);
    for (const rop::RewriteResult& r : out.results) out.ok_count += r.ok;
    out.store_hits = 1;
    out.store_hit_rate = 1.0;
    return out;
  }
  // The batch's own lookups are already tallied; add only the module
  // record's eviction, never the store-wide counter, which also moves
  // for other engines sharing the store.
  ModuleResult out = build();
  out.store_corrupt_evictions += evicted;
  if (!out.rejected && !out.cancelled) {
    // The engine was virgin, so its aggregate is this batch's alone.
    store::put_module(*st, mkey, *img_, out.results, total_points_,
                      all_gadget_addrs_);
    ++out.store_misses;
    ++out.store_spills;
    std::size_t lookups = out.store_hits + out.store_misses;
    out.store_hit_rate = static_cast<double>(out.store_hits) /
                         static_cast<double>(lookups);
  }
  return out;
}

rop::RewriteResult ObfuscationEngine::rewrite_function(
    const std::string& name) {
  return obfuscate_module({name}, 1).results.front();
}

ObfuscationEngine::Aggregate ObfuscationEngine::aggregate() const {
  Aggregate a;
  a.program_points = total_points_;
  a.gadget_slots = all_gadget_addrs_.size();
  a.unique_gadgets = count_unique(all_gadget_addrs_);
  return a;
}

}  // namespace raindrop::engine
