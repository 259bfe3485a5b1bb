#include "gadgets/catalog.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "isa/encode.hpp"
#include "store/serialize.hpp"
#include "support/binio.hpp"
#include "support/faultpoint.hpp"
#include "support/thread_pool.hpp"

namespace raindrop::gadgets {

using analysis::AnalysisCache;
using analysis::insn_defs;
using analysis::insn_uses;
using isa::Insn;
using isa::Op;
using isa::Reg;

namespace {

// Bump when the scan semantics change: stale memoized layers in a
// shared AnalysisCache become unreachable instead of wrong.
constexpr std::uint64_t kHarvestVersion = 1;

std::uint64_t fnv1a(const std::string& s) {
  return AnalysisCache::hash_bytes(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

}  // namespace

GadgetPool::GadgetPool(Image* img, std::uint64_t seed, int max_variants,
                       std::string section)
    : img_(img),
      resolve_seed_(Rng(seed + 0x524553ull).next()),
      max_variants_(max_variants), section_(std::move(section)) {}

std::string GadgetPool::key_of(std::span<const Insn> core, bool jop,
                               Reg jop_target) {
  std::vector<std::uint8_t> bytes;
  for (const Insn& i : core) isa::encode(i, bytes);
  if (jop) {
    bytes.push_back(0xfe);
    bytes.push_back(static_cast<std::uint8_t>(jop_target));
  }
  return std::string(bytes.begin(), bytes.end());
}

std::size_t GadgetPool::bank_size(const std::string& key) const {
  std::size_t n = 0;
  for (const auto& base : bases_) {
    auto it = base->by_core.find(key);
    if (it != base->by_core.end()) n += it->second.size();
  }
  auto it = by_core_.find(key);
  if (it != by_core_.end()) n += it->second.size();
  return n;
}

void GadgetPool::collect_fits(const std::string& key, RegSet allowed,
                              std::vector<const Gadget*>* fits) const {
  // Base layers first, then the overlay: the registration order of the
  // former flat catalog (harvested before synthesized).
  for (const auto& base : bases_) {
    auto it = base->by_core.find(key);
    if (it == base->by_core.end()) continue;
    for (const Gadget* g : it->second)
      if (g->extra_clobbers.minus(allowed).empty()) fits->push_back(g);
  }
  auto it = by_core_.find(key);
  if (it == by_core_.end()) return;
  for (const Gadget* g : it->second)
    if (g->extra_clobbers.minus(allowed).empty()) fits->push_back(g);
}

Gadget GadgetPool::make_body(std::span<const Insn> core, bool jop,
                             Reg jop_target, RegSet junk_allowed, Rng& rng,
                             std::vector<std::uint8_t>* bytes) {
  // Junk must not disturb the core dataflow: exclude every register the
  // core touches (and the JOP target). Junk is flag-neutral by
  // construction (mov-immediate only), so gadgets that *read* flags from
  // the surrounding chain context stay correct.
  RegSet excluded;
  for (const Insn& i : core) {
    excluded = excluded | insn_uses(i) | insn_defs(i);
  }
  excluded.add(Reg::RSP);
  if (jop) excluded.add(jop_target);
  std::vector<Reg> junk_regs;
  for (int r = 0; r < isa::kNumRegs; ++r) {
    Reg reg = static_cast<Reg>(r);
    if (junk_allowed.has(reg) && !excluded.has(reg)) junk_regs.push_back(reg);
  }

  Gadget g;
  std::size_t junk_count =
      junk_regs.empty() ? 0 : rng.below(3);  // 0..2 junk insns
  std::vector<Insn> body;
  for (std::size_t j = 0; j < junk_count; ++j) {
    Reg jr = rng.pick(junk_regs);
    // Dynamically dead data: looks meaningful, contributes nothing.
    std::int64_t v = static_cast<std::int64_t>(rng.next() & 0x7fffffff);
    body.push_back(rng.chance(1, 2) ? isa::ib::mov_i32(jr, v)
                                    : isa::ib::mov_i64(jr, v));
    g.extra_clobbers.add(jr);
  }
  // Junk first keeps flag-reading cores safe.
  body.insert(body.end(), core.begin(), core.end());

  for (const Insn& i : body) {
    std::size_t n = isa::encode(i, *bytes);
    assert(n > 0 && "unencodable gadget body");
    (void)n;
  }
  if (jop)
    isa::encode(isa::ib::jmp_r(jop_target), *bytes);
  else
    isa::encode(isa::ib::ret(), *bytes);

  g.body = std::move(body);
  g.jop = jop;
  g.jop_target = jop_target;
  return g;
}

const Gadget* GadgetPool::register_owned(Gadget g, const std::string& key) {
  owned_.push_back(std::move(g));
  const Gadget* p = &owned_.back();
  by_addr_[p->addr] = p;
  by_core_[key].push_back(p);
  // Fold everything find_variant / random_gadget_addr can observe about
  // this gadget into the overlay fingerprint.
  std::uint64_t h = overlay_fp_ ^ 0x9e3779b97f4a7c15ull;
  h = AnalysisCache::fold(h, p->addr);
  h = AnalysisCache::fold(h, fnv1a(key));
  h = AnalysisCache::fold(h, p->extra_clobbers.raw());
  h = AnalysisCache::fold(
      h, (p->jop ? 1u : 0u) |
             (static_cast<std::uint64_t>(p->jop_target) << 1) |
             (p->body.size() << 8));
  overlay_fp_ = h;
  return p;
}

std::uint64_t GadgetPool::fingerprint() const {
  std::uint64_t h = overlay_fp_;
  for (const auto& base : bases_)
    h = AnalysisCache::fold(h, base->fingerprint);
  h = AnalysisCache::fold(h, static_cast<std::uint64_t>(max_variants_));
  return h;
}

std::uint64_t GadgetPool::plant(std::span<const Insn> core) {
  assert(!frozen_ && "plant() on a frozen pool");
  std::vector<std::uint8_t> bytes;
  for (const Insn& i : core) isa::encode(i, bytes);
  isa::encode(isa::ib::ret(), bytes);
  Gadget g;
  g.body.assign(core.begin(), core.end());
  g.addr = img_->append(section_, bytes);
  return register_owned(std::move(g), key_of(core, false, Reg::RAX))->addr;
}

std::optional<std::uint64_t> GadgetPool::find_variant(const std::string& key,
                                                      bool jop,
                                                      RegSet allowed_clobbers,
                                                      Rng& rng) const {
  std::vector<const Gadget*> fits;
  collect_fits(key, allowed_clobbers, &fits);
  if (fits.empty()) return std::nullopt;
  if (jop) return fits.front()->addr;  // JOP gadgets reuse without growing
  bool may_grow = static_cast<int>(bank_size(key)) < max_variants_;
  if (may_grow && rng.chance(1, 3)) return std::nullopt;  // diversify
  return fits[rng.below(fits.size())]->addr;
}

// -- Batch resolution ---------------------------------------------------

// A gadget the plan phase decided to synthesize: everything but its
// address, which the serial merge assigns in global request order. Owns
// its bank key so a ResolvedPlan stays valid across a pipeline hop even
// if the requests it was planned from are released early.
struct GadgetPool::Planned {
  std::size_t ordinal = 0;  // creating request's index in the batch
  Gadget g;
  std::vector<std::uint8_t> bytes;
  std::string key;
};

// Per-request resolution: an already-known address lives in addrs; a
// planned gadget is addressed by (shard, index-within-shard).
struct ResolvedPlan::Impl {
  struct Slot {
    std::int32_t shard = -1;
    std::uint32_t planned = 0;
  };
  std::vector<std::uint64_t> addrs;
  std::vector<Slot> slots;
  std::vector<std::vector<GadgetPool::Planned>> shard_planned;
  std::size_t planned_total = 0;
};

ResolvedPlan::ResolvedPlan() : impl_(std::make_unique<Impl>()) {}
ResolvedPlan::ResolvedPlan(ResolvedPlan&&) noexcept = default;
ResolvedPlan& ResolvedPlan::operator=(ResolvedPlan&&) noexcept = default;
ResolvedPlan::~ResolvedPlan() = default;
std::size_t ResolvedPlan::size() const { return impl_ ? impl_->addrs.size() : 0; }
std::size_t ResolvedPlan::planned_count() const {
  return impl_ ? impl_->planned_total : 0;
}

ResolvedPlan GadgetPool::plan_batch(std::span<const GadgetRequest* const> reqs,
                                    int shards, int threads, ThreadPool* pool) {
  // Fault site sits before any pool state changes (freeze, ordinal
  // consumption), so a faulted plan leaves the catalog untouched.
  fault::maybe_throw("pool.plan");
  ResolvedPlan plan;
  std::vector<std::uint64_t>& addrs = plan.impl_->addrs;
  addrs.assign(reqs.size(), 0);
  frozen_ = true;  // the catalog is read-only until commit_plan()
  if (reqs.empty()) return plan;
  const std::uint64_t base_ordinal = next_request_ordinal_;
  next_request_ordinal_ += reqs.size();
  const int nshards = std::max(1, shards);

  // Partition by core-key hash. Same key -> same shard, so a shard sees
  // every bank its requests can grow, in batch order.
  std::vector<std::vector<std::size_t>> shard_reqs(
      static_cast<std::size_t>(nshards));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // A plain-ret request legitimately has an empty core and key; any
    // other request must carry its precomputed key.
    assert((!reqs[i]->key.empty() || reqs[i]->core.empty()) &&
           "GadgetRequest.key not precomputed");
    shard_reqs[fnv1a(reqs[i]->key) % static_cast<std::uint64_t>(nshards)]
        .push_back(i);
  }

  // Plan phase: read-only on the catalog (kept frozen), one independent
  // task per shard. A request resolves against the persistent banks plus
  // the shard-local gadgets planned by earlier requests of its key;
  // randomness comes from a counter-based stream over the request's
  // global ordinal, so nothing depends on shard count or scheduling.
  using Slot = ResolvedPlan::Impl::Slot;
  std::vector<Slot>& slots = plan.impl_->slots;
  slots.resize(reqs.size());
  std::vector<std::vector<Planned>>& shard_planned = plan.impl_->shard_planned;
  shard_planned.resize(static_cast<std::size_t>(nshards));
  {
    // Plan on the caller's shared pool when given (service pipeline),
    // else a private pool of `threads` workers.
    std::optional<ThreadPool> own;
    if (!pool) pool = &own.emplace(threads);
    pool->parallel_for(static_cast<std::size_t>(nshards), [&](std::size_t s) {
      std::vector<Planned>& planned = shard_planned[s];
      std::unordered_map<std::string, std::vector<std::size_t>>
          planned_by_key;
      std::vector<const Gadget*> fits;
      for (std::size_t i : shard_reqs[s]) {
        const GadgetRequest& req = *reqs[i];
        Rng rng = Rng::stream(resolve_seed_, base_ordinal + i);
        fits.clear();
        collect_fits(req.key, req.allowed_clobbers, &fits);
        auto pit = planned_by_key.find(req.key);
        std::size_t persistent_fits = fits.size();
        std::size_t planned_in_bank = 0;
        if (pit != planned_by_key.end()) {
          planned_in_bank = pit->second.size();
          for (std::size_t pidx : pit->second)
            if (planned[pidx].g.extra_clobbers.minus(req.allowed_clobbers)
                    .empty())
              fits.push_back(nullptr);  // placeholder; index mapped below
        }
        auto pick_planned = [&](std::size_t nth) -> std::size_t {
          // nth index among the *fitting* planned gadgets of this key.
          std::size_t seen = 0;
          for (std::size_t pidx : pit->second) {
            if (!planned[pidx].g.extra_clobbers.minus(req.allowed_clobbers)
                     .empty())
              continue;
            if (seen++ == nth) return pidx;
          }
          assert(false && "planned fit index out of range");
          return 0;
        };
        auto plan_new = [&]() {
          Planned p;
          p.ordinal = i;
          p.key = req.key;
          p.g = make_body(req.core, req.jop, req.jop_target,
                          req.allowed_clobbers, rng, &p.bytes);
          slots[i] = {static_cast<std::int32_t>(s),
                      static_cast<std::uint32_t>(planned.size())};
          planned_by_key[req.key].push_back(planned.size());
          planned.push_back(std::move(p));
        };
        auto take_fit = [&](std::size_t k) {
          if (k < persistent_fits) {
            addrs[i] = fits[k]->addr;
            slots[i].shard = -1;
          } else {
            slots[i] = {static_cast<std::int32_t>(s),
                        static_cast<std::uint32_t>(
                            pick_planned(k - persistent_fits))};
          }
        };
        if (req.jop) {
          // JOP: first fit, never diversify.
          if (!fits.empty())
            take_fit(0);
          else
            plan_new();
          continue;
        }
        // Diversification policy: keep growing variants up to the
        // budget, then pick uniformly among the fits (multiple
        // equivalent gadgets serving one purpose at different program
        // points, §I).
        bool may_grow = static_cast<int>(bank_size(req.key) +
                                         planned_in_bank) < max_variants_;
        if (fits.empty() || (may_grow && rng.chance(1, 3)))
          plan_new();
        else
          take_fit(static_cast<std::size_t>(rng.below(fits.size())));
      }
    });
  }

  for (const auto& sp : shard_planned) plan.impl_->planned_total += sp.size();
  return plan;
}

std::vector<std::uint64_t> GadgetPool::commit_plan(ResolvedPlan&& plan) {
  // Fault site before the image-mutating merge: a faulted commit leaves
  // the image clean (the plan is lost with the job, which is why the
  // service treats this as non-retryable).
  fault::maybe_throw("pool.commit");
  // Merge: append planned gadgets to the image in global request order
  // (shard-independent by construction), then patch request slots. This
  // is the only image-mutating half; it must run serially per image, in
  // the order the plans were made.
  frozen_ = false;
  ResolvedPlan::Impl& p = *plan.impl_;
  std::vector<Planned*> order;
  for (auto& sp : p.shard_planned)
    for (Planned& pl : sp) order.push_back(&pl);
  std::sort(order.begin(), order.end(),
            [](const Planned* a, const Planned* b) {
              return a->ordinal < b->ordinal;
            });
  for (Planned* pl : order) {
    pl->g.addr = img_->append(section_, pl->bytes);
    register_owned(pl->g, pl->key);
  }
  for (std::size_t i = 0; i < p.addrs.size(); ++i) {
    if (p.slots[i].shard < 0) continue;
    p.addrs[i] = p.shard_planned[static_cast<std::size_t>(p.slots[i].shard)]
                     [p.slots[i].planned].g.addr;
  }
  return std::move(p.addrs);
}

// -- Plan disk tier (DESIGN.md §13) -------------------------------------

std::uint64_t GadgetPool::plan_key(
    std::span<const GadgetRequest* const> reqs) const {
  // fingerprint() already folds the variant budget and every catalog
  // fact the plan phase can observe (bank contents and addresses).
  std::uint64_t h = 0x706c616e2d726563ull;  // plan-record tag
  h = AnalysisCache::fold(h, fingerprint());
  h = AnalysisCache::fold(h, resolve_seed_);
  h = AnalysisCache::fold(h, next_request_ordinal_);
  h = AnalysisCache::fold(h, reqs.size());
  for (const GadgetRequest* req : reqs) {
    // key_of() is an injective encoding of (core, jop, jop_target), so
    // hashing the key covers the core bytes make_body would re-encode.
    h = AnalysisCache::fold(h, fnv1a(req->key));
    h = AnalysisCache::fold(h, req->allowed_clobbers.raw());
    h = AnalysisCache::fold(
        h, (req->jop ? 1u : 0u) |
               (static_cast<std::uint64_t>(req->jop_target) << 1));
  }
  return h;
}

std::vector<std::uint8_t> GadgetPool::serialize_plan(
    const ResolvedPlan& plan) {
  const ResolvedPlan::Impl& p = *plan.impl_;
  // Canonicalize: planned gadgets in global request (ordinal) order --
  // the order commit_plan appends them -- with a (shard, index) -> flat
  // index remap for the slots. Ordinals are unique per planned gadget
  // (each is created by exactly one request), so the order is total.
  struct Ref {
    const Planned* pl;
    std::size_t shard, idx;
  };
  std::vector<Ref> order;
  for (std::size_t s = 0; s < p.shard_planned.size(); ++s)
    for (std::size_t j = 0; j < p.shard_planned[s].size(); ++j)
      order.push_back({&p.shard_planned[s][j], s, j});
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    return a.pl->ordinal < b.pl->ordinal;
  });
  std::vector<std::vector<std::uint64_t>> remap(p.shard_planned.size());
  for (std::size_t s = 0; s < p.shard_planned.size(); ++s)
    remap[s].resize(p.shard_planned[s].size());
  for (std::size_t k = 0; k < order.size(); ++k)
    remap[order[k].shard][order[k].idx] = k;

  binio::Writer w;
  w.vu64(p.addrs.size());
  for (std::size_t i = 0; i < p.addrs.size(); ++i) {
    if (p.slots[i].shard < 0) {
      w.u8(0);  // served by a persistent gadget: address is final
      w.vu64(p.addrs[i]);
    } else {
      w.u8(1);  // served by a planned gadget: flat index, addr at commit
      w.vu64(remap[static_cast<std::size_t>(p.slots[i].shard)]
                  [p.slots[i].planned]);
    }
  }
  w.vu64(order.size());
  for (const Ref& ref : order) {
    const Planned& pl = *ref.pl;
    w.vu64(pl.ordinal);
    w.vu64(pl.key.size());
    for (char c : pl.key) w.u8(static_cast<std::uint8_t>(c));
    w.vu64(pl.bytes.size());
    for (std::uint8_t b : pl.bytes) w.u8(b);
    w.vu64(pl.g.body.size());
    for (const Insn& insn : pl.g.body) raindrop::store::write_insn(w, insn);
    w.u8(pl.g.jop ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(pl.g.jop_target));
    raindrop::store::write_regset(w, pl.g.extra_clobbers);
  }
  return w.take();
}

std::optional<ResolvedPlan> GadgetPool::plan_from_payload(
    std::span<const std::uint8_t> payload, std::size_t nreqs) {
  // Same fault site, same ordering contract as plan_batch: fire before
  // any pool state changes, so a faulted load leaves the catalog
  // untouched and the service's resolve-stage fault handling sees the
  // two planning paths identically.
  fault::maybe_throw("pool.plan");
  ResolvedPlan plan;
  ResolvedPlan::Impl& p = *plan.impl_;
  try {
    binio::Reader r(payload);
    if (r.vu64() != nreqs) return std::nullopt;
    p.addrs.assign(nreqs, 0);
    p.slots.resize(nreqs);
    for (std::size_t i = 0; i < nreqs; ++i) {
      std::uint8_t tag = r.u8();
      if (tag == 0) {
        p.addrs[i] = r.vu64();
      } else if (tag == 1) {
        std::uint64_t flat = r.vu64();
        if (flat >= nreqs) return std::nullopt;  // <= one planned per req
        p.slots[i] = {0, static_cast<std::uint32_t>(flat)};
      } else {
        return std::nullopt;
      }
    }
    std::uint64_t nplanned = r.vu64();
    if (nplanned > nreqs) return std::nullopt;
    // The canonical form is a single "shard": commit_plan's ordinal sort
    // and slot patching are layout-agnostic.
    p.shard_planned.resize(1);
    std::vector<Planned>& planned = p.shard_planned[0];
    std::uint64_t prev_ordinal = 0;
    for (std::uint64_t k = 0; k < nplanned; ++k) {
      Planned pl;
      pl.ordinal = r.vu64();
      if (pl.ordinal >= nreqs || (k > 0 && pl.ordinal <= prev_ordinal))
        return std::nullopt;  // ordinal order is what commit relies on
      prev_ordinal = pl.ordinal;
      std::uint64_t key_len = r.vu64();
      if (key_len > r.remaining()) return std::nullopt;
      pl.key.reserve(key_len);
      for (std::uint64_t c = 0; c < key_len; ++c)
        pl.key.push_back(static_cast<char>(r.u8()));
      std::uint64_t n_bytes = r.vu64();
      if (n_bytes > r.remaining()) return std::nullopt;
      pl.bytes.reserve(n_bytes);
      for (std::uint64_t b = 0; b < n_bytes; ++b) pl.bytes.push_back(r.u8());
      std::uint64_t n_body = r.vu64();
      if (n_body * 5 > r.remaining()) return std::nullopt;  // >= 5 B/insn
      for (std::uint64_t j = 0; j < n_body; ++j)
        pl.g.body.push_back(raindrop::store::read_insn(r));
      pl.g.jop = r.u8() != 0;
      std::uint8_t tgt = r.u8();
      if (tgt >= isa::kNumRegs) return std::nullopt;
      pl.g.jop_target = static_cast<Reg>(tgt);
      pl.g.extra_clobbers = raindrop::store::read_regset(r);
      planned.push_back(std::move(pl));
    }
    for (std::size_t i = 0; i < nreqs; ++i)
      if (p.slots[i].shard == 0 && p.slots[i].planned >= planned.size())
        return std::nullopt;
    if (r.remaining() != 0) return std::nullopt;  // trailing garbage
    p.planned_total = planned.size();
  } catch (const binio::Error&) {
    return std::nullopt;
  }
  // Only a fully-validated plan mutates pool state, exactly as the
  // plan_batch it replaces would have.
  frozen_ = true;
  next_request_ordinal_ += nreqs;
  return plan;
}

// -- Harvesting ---------------------------------------------------------

namespace {

std::shared_ptr<HarvestLayer> build_harvest_layer(
    const std::uint8_t* data, std::size_t n, std::uint64_t lo,
    std::uint64_t fingerprint) {
  auto layer = std::make_shared<HarvestLayer>();
  layer->fingerprint = fingerprint;
  for (std::size_t a = 0; a < n; ++a) {
    std::vector<Insn> body;
    std::size_t p = a;
    bool ok = false;
    for (int count = 0; count < 4 && p < n; ++count) {
      std::uint8_t buf[16] = {0};
      std::memcpy(buf, data + p, std::min<std::size_t>(16, n - p));
      auto dec = isa::decode(buf);
      if (!dec) break;
      if (dec->insn.op == Op::RET) {
        ok = true;
        break;
      }
      // Only side-effect-free-on-memory bodies are safely reusable.
      if (dec->insn.op == Op::STORE || dec->insn.op == Op::XCHG_RM ||
          dec->insn.op == Op::ADD_MI || dec->insn.op == Op::SUB_MI ||
          isa::is_branch(dec->insn.op) || dec->insn.op == Op::HLT ||
          dec->insn.op == Op::UD || dec->insn.op == Op::TRACE)
        break;
      body.push_back(dec->insn);
      p += dec->length;
    }
    if (!ok || body.empty()) continue;
    std::uint64_t addr = lo + a;
    if (layer->by_addr.count(addr)) continue;
    Gadget g;
    g.addr = addr;
    g.body = std::move(body);
    const Gadget* stored = &(layer->by_addr[addr] = std::move(g));
    layer->by_core[GadgetPool::key_of(stored->body, false, Reg::RAX)]
        .push_back(stored);
  }
  layer->integrity = layer->compute_integrity();
  return layer;
}

}  // namespace

// Disk-tier codec for a whole HarvestLayer (Kind::kHarvest records,
// DESIGN.md §13). Only by_addr is encoded: by_core aliases by_addr map
// nodes, so it is rebuilt on read by iterating by_addr in ascending
// order -- the exact insertion order of the original scan (addresses
// scanned low to high), so bank order and gadget selection match a
// fresh build_harvest_layer bit for bit.
std::vector<std::uint8_t> HarvestCodec::encode(
    const HarvestLayer& layer) const {
  binio::Writer w;
  w.u64(layer.fingerprint);
  w.u64(layer.integrity);
  w.u32(static_cast<std::uint32_t>(layer.by_addr.size()));
  for (const auto& [addr, g] : layer.by_addr) {
    w.u64(addr);
    w.u32(static_cast<std::uint32_t>(g.body.size()));
    for (const Insn& insn : g.body) raindrop::store::write_insn(w, insn);
    w.u8(g.jop ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(g.jop_target));
    raindrop::store::write_regset(w, g.extra_clobbers);
  }
  return w.take();
}

std::shared_ptr<HarvestLayer> HarvestCodec::decode(
    std::span<const std::uint8_t> payload) const {
  try {
    binio::Reader r(payload);
    auto layer = std::make_shared<HarvestLayer>();
    layer->fingerprint = r.u64();
    layer->integrity = r.u64();
    std::uint32_t n = r.count(/*min_elem_bytes=*/15);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t addr = r.u64();
      Gadget g;
      g.addr = addr;
      std::uint32_t n_body = r.count(/*min_elem_bytes=*/5);
      for (std::uint32_t j = 0; j < n_body; ++j)
        g.body.push_back(raindrop::store::read_insn(r));
      g.jop = r.u8() != 0;
      std::uint8_t tgt = r.u8();
      if (tgt >= isa::kNumRegs) return nullptr;
      g.jop_target = static_cast<Reg>(tgt);
      g.extra_clobbers = raindrop::store::read_regset(r);
      layer->by_addr[addr] = std::move(g);
    }
    for (const auto& [addr, g] : layer->by_addr)
      layer->by_core[GadgetPool::key_of(g.body, g.jop, g.jop_target)]
          .push_back(&g);
    return layer;
  } catch (const binio::Error&) {
    return nullptr;
  }
}

analysis::Verdict HarvestCodec::check(const HarvestLayer& layer) const {
  return layer.fingerprint == key &&
                 layer.integrity == layer.compute_integrity()
             ? analysis::Verdict::kValid
             : analysis::Verdict::kCorrupt;
}

// Deep copy with one gadget dropped (or, for an empty layer, the stored
// digest flipped) while keeping the clean integrity value: the shape of
// in-cache corruption the fault site "cache.harvest.corrupt" emulates.
// by_core pointers must be rebuilt -- they alias by_addr map nodes.
std::shared_ptr<const HarvestLayer> HarvestCodec::corrupt(
    const HarvestLayer& src) const {
  auto bad = std::make_shared<HarvestLayer>();
  bad->fingerprint = src.fingerprint;
  bad->integrity = src.integrity;
  bad->by_addr = src.by_addr;
  if (!bad->by_addr.empty())
    bad->by_addr.erase(std::prev(bad->by_addr.end()));
  else
    bad->integrity ^= 1;
  for (const auto& [addr, g] : bad->by_addr)
    bad->by_core[GadgetPool::key_of(g.body, g.jop, g.jop_target)].push_back(
        &g);
  return bad;
}

std::uint64_t HarvestLayer::compute_integrity() const {
  std::uint64_t h = 0xa3c59ec77481d2f5ull;
  h = AnalysisCache::fold(h, fingerprint);
  h = AnalysisCache::fold(h, by_addr.size());
  for (const auto& [addr, g] : by_addr) {
    h = AnalysisCache::fold(h, addr);
    h = AnalysisCache::fold(h, g.body.size());
    for (const isa::Insn& i : g.body)
      h = AnalysisCache::fold(h, static_cast<std::uint64_t>(i.op));
  }
  return h;
}

std::size_t GadgetPool::harvest(std::uint64_t lo, std::uint64_t hi,
                                AnalysisCache* cache) {
  if (hi <= lo) return 0;
  std::size_t n = static_cast<std::size_t>(hi - lo);
  std::span<const std::uint8_t> view = img_->bytes_view(lo, n);
  std::vector<std::uint8_t> copy;
  if (view.empty()) {
    // Range not contiguous in one section (or runs past its end):
    // materialize it, padding with zeros exactly like byte_at reads.
    copy.resize(n);
    for (std::size_t i = 0; i < n; ++i) copy[i] = img_->byte_at(lo + i);
    view = copy;
  }

  std::uint64_t key = AnalysisCache::hash_bytes(view.data(), view.size());
  key ^= lo * 0x9e3779b97f4a7c15ull;
  key ^= (n + kHarvestVersion) * 0xff51afd7ed558ccdull;
  auto scan = [&] {
    return build_harvest_layer(view.data(), view.size(), lo, key);
  };
  std::shared_ptr<const HarvestLayer> layer =
      cache ? cache->get_or_build(HarvestCodec{key}, key, scan) : scan();
  bases_.push_back(layer);
  return layer->count();
}

const Gadget* GadgetPool::at(std::uint64_t addr) const {
  auto it = by_addr_.find(addr);
  if (it != by_addr_.end()) return it->second;
  for (const auto& base : bases_) {
    auto bit = base->by_addr.find(addr);
    if (bit != base->by_addr.end()) return &bit->second;
  }
  return nullptr;
}

std::size_t GadgetPool::unique_count() const {
  std::size_t n = by_addr_.size();
  for (const auto& base : bases_) n += base->count();
  return n;
}

std::uint64_t GadgetPool::random_gadget_addr(Rng& rng) const {
  std::size_t total = unique_count();
  if (total == 0) return 0;
  std::size_t k = static_cast<std::size_t>(rng.below(total));
  // k-th smallest address across all (individually sorted) layers.
  struct Cursor {
    std::map<std::uint64_t, Gadget>::const_iterator it, end;
  };
  std::vector<Cursor> cursors;
  for (const auto& base : bases_)
    cursors.push_back({base->by_addr.begin(), base->by_addr.end()});
  auto oit = by_addr_.begin();
  std::uint64_t result = 0;
  for (std::size_t step = 0; step <= k; ++step) {
    int best = -1;
    std::uint64_t best_addr = 0;
    for (std::size_t c = 0; c < cursors.size(); ++c) {
      if (cursors[c].it == cursors[c].end) continue;
      if (best == -1 || cursors[c].it->first < best_addr) {
        best = static_cast<int>(c);
        best_addr = cursors[c].it->first;
      }
    }
    if (oit != by_addr_.end() &&
        (best == -1 || oit->first < best_addr)) {
      result = oit->first;
      ++oit;
    } else if (best >= 0) {
      result = best_addr;
      ++cursors[static_cast<std::size_t>(best)].it;
    }
  }
  return result;
}

}  // namespace raindrop::gadgets
