#include "analysis/cache.hpp"

#include <algorithm>
#include <utility>

#include "store/serialize.hpp"
#include "support/binio.hpp"

namespace raindrop::analysis {

namespace {

// Hashes [addr, addr+n) of the image, through the zero-copy view when
// the range sits in one section and byte-at-a-time otherwise.
std::uint64_t hash_range(const Image& img, std::uint64_t addr,
                         std::size_t n) {
  std::span<const std::uint8_t> view = img.bytes_view(addr, n);
  if (!view.empty())
    return AnalysisCache::hash_bytes(view.data(), view.size());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= img.byte_at(addr + i);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 finalizer: cheap avalanche for the scalar key parts.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::uint64_t AnalysisArtifacts::compute_integrity() const {
  // Structural fold over everything craft consumes from the artifact.
  // The digest does NOT cover the `integrity` field itself, so flipping
  // any covered scalar -- or the stored digest -- produces a mismatch.
  std::uint64_t h = 0x9d6f1e0cc7a5b311ull;
  h = AnalysisCache::fold(h, cfg.entry);
  h = AnalysisCache::fold(h, cfg.complete ? 1 : 0);
  h = AnalysisCache::fold(h, cfg.error.size());
  h = AnalysisCache::fold(h, cfg.blocks.size());
  for (const auto& [addr, bb] : cfg.blocks) {
    h = AnalysisCache::fold(h, addr);
    h = AnalysisCache::fold(h, bb.insns.size());
    for (const CfgInsn& ci : bb.insns) {
      h = AnalysisCache::fold(h, ci.addr);
      h = AnalysisCache::fold(h, static_cast<std::uint64_t>(ci.insn.op));
    }
    h = AnalysisCache::fold(h, bb.succs.size());
    if (bb.jump_table) h = AnalysisCache::fold(h, bb.jump_table->table_addr);
  }
  h = AnalysisCache::fold(h, dep_fingerprint);
  return h;
}

std::uint64_t AnalysisCache::hash_bytes(const std::uint8_t* data,
                                        std::size_t n, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

AnalysisCache::AnalysisCache(std::size_t shard_count,
                             std::size_t capacity_per_shard)
    : shards_(shard_count ? shard_count : 1),
      capacity_(capacity_per_shard ? capacity_per_shard : 1) {}

AnalysisCache::Shard& AnalysisCache::shard_for(std::uint64_t key) {
  return shards_[key % shards_.size()];
}

std::shared_ptr<AnalysisCache::Entry> AnalysisCache::build_entry(
    const Image& img, std::uint64_t entry, std::uint64_t size,
    int arg_count) {
  auto e = std::make_shared<Entry>();
  e->entry_addr = entry;
  e->size = size;
  e->arg_count = arg_count;
  AnalysisArtifacts* art = &e->art;
  art->cfg = build_cfg(img, entry, size);
  if (art->cfg.complete) {
    art->liveness = compute_liveness(art->cfg, &img);
    art->taint = compute_taint(art->cfg, arg_count);
  }
  // Record everything the analyses read outside [entry, entry+size):
  // jump-table cells (build_cfg) and callee argument counts (the
  // CALL_REL refinement in compute_liveness). The same facts fold into
  // the artifact's dep_fingerprint so downstream memos key on them too.
  std::uint64_t dep_fp = 0xcbf29ce484222325ull;
  for (const auto& [addr, bb] : art->cfg.blocks) {
    if (bb.jump_table) {
      Entry::TableDep td;
      td.addr = bb.jump_table->table_addr;
      td.bytes = 8 * bb.jump_table->targets.size();
      td.hash = hash_range(img, td.addr, td.bytes);
      dep_fp = AnalysisCache::fold(dep_fp, td.addr);
      dep_fp = AnalysisCache::fold(dep_fp, td.hash);
      e->tables.push_back(td);
    }
    for (const CfgInsn& ci : bb.insns) {
      if (ci.insn.op != isa::Op::CALL_REL) continue;
      Entry::CalleeDep cd;
      cd.target = ci.addr + ci.length + static_cast<std::uint64_t>(ci.insn.imm);
      const FunctionSym* callee = img.function_at(cd.target);
      cd.arg_count = callee ? callee->arg_count : -1;
      dep_fp = AnalysisCache::fold(dep_fp, cd.target);
      dep_fp = AnalysisCache::fold(
          dep_fp, static_cast<std::uint64_t>(cd.arg_count + 1));
      e->callees.push_back(cd);
    }
  }
  art->dep_fingerprint = dep_fp;
  art->integrity = art->compute_integrity();
  return e;
}

void AnalysisCache::attach_store(std::shared_ptr<store::ArtifactStore> st) {
  store_ = std::move(st);
}

// Disk record layout for one Entry (identity + out-of-body deps + the
// full artifact). The store's header already authenticates kind/key/
// payload digest; this codec only has to round-trip losslessly and
// parse-fail recoverably on anything malformed.
std::vector<std::uint8_t> AnalysisCache::EntryCodec::encode(
    const Entry& e) const {
  binio::Writer w;
  w.u64(e.entry_addr);
  w.u64(e.size);
  w.i64(e.arg_count);
  w.u32(static_cast<std::uint32_t>(e.tables.size()));
  for (const Entry::TableDep& td : e.tables) {
    w.u64(td.addr);
    w.u64(td.bytes);
    w.u64(td.hash);
  }
  w.u32(static_cast<std::uint32_t>(e.callees.size()));
  for (const Entry::CalleeDep& cd : e.callees) {
    w.u64(cd.target);
    w.i64(cd.arg_count);
  }
  const AnalysisArtifacts& a = e.art;
  w.u64(a.dep_fingerprint);
  w.u64(a.integrity);
  w.u64(a.cfg.entry);
  w.u8(a.cfg.complete ? 1 : 0);
  w.str(a.cfg.error);
  w.u32(static_cast<std::uint32_t>(a.cfg.blocks.size()));
  for (const auto& [addr, bb] : a.cfg.blocks) {
    w.u64(addr);
    w.u64(bb.start);
    w.u32(static_cast<std::uint32_t>(bb.insns.size()));
    for (const CfgInsn& ci : bb.insns) {
      w.u64(ci.addr);
      w.u64(ci.length);
      store::write_insn(w, ci.insn);
    }
    w.u32(static_cast<std::uint32_t>(bb.succs.size()));
    for (std::uint64_t s : bb.succs) w.u64(s);
    w.u8(bb.jump_table ? 1 : 0);
    if (bb.jump_table) {
      w.u64(bb.jump_table->table_addr);
      w.u32(static_cast<std::uint32_t>(bb.jump_table->targets.size()));
      for (std::uint64_t t : bb.jump_table->targets) w.u64(t);
    }
  }
  auto write_regmap = [&w](const std::map<std::uint64_t, RegSet>& m) {
    w.u32(static_cast<std::uint32_t>(m.size()));
    for (const auto& [addr, rs] : m) {
      w.u64(addr);
      store::write_regset(w, rs);
    }
  };
  write_regmap(a.liveness.live_out);
  write_regmap(a.liveness.block_in);
  write_regmap(a.taint.tainted_in);
  return w.take();
}

std::shared_ptr<AnalysisCache::Entry> AnalysisCache::EntryCodec::decode(
    std::span<const std::uint8_t> payload) const {
  try {
    binio::Reader r(payload);
    auto e = std::make_shared<Entry>();
    e->entry_addr = r.u64();
    e->size = r.u64();
    e->arg_count = static_cast<int>(r.i64());
    std::uint32_t n_tables = r.count(/*min_elem_bytes=*/24);
    for (std::uint32_t i = 0; i < n_tables; ++i) {
      Entry::TableDep td;
      td.addr = r.u64();
      td.bytes = r.u64();
      td.hash = r.u64();
      e->tables.push_back(td);
    }
    std::uint32_t n_callees = r.count(/*min_elem_bytes=*/16);
    for (std::uint32_t i = 0; i < n_callees; ++i) {
      Entry::CalleeDep cd;
      cd.target = r.u64();
      cd.arg_count = static_cast<int>(r.i64());
      e->callees.push_back(cd);
    }
    AnalysisArtifacts* art = &e->art;
    art->dep_fingerprint = r.u64();
    art->integrity = r.u64();
    art->cfg.entry = r.u64();
    art->cfg.complete = r.u8() != 0;
    art->cfg.error = r.str();
    std::uint32_t n_blocks = r.count(/*min_elem_bytes=*/25);
    for (std::uint32_t i = 0; i < n_blocks; ++i) {
      std::uint64_t addr = r.u64();
      BasicBlock bb;
      bb.start = r.u64();
      std::uint32_t n_insns = r.count(/*min_elem_bytes=*/16);
      for (std::uint32_t j = 0; j < n_insns; ++j) {
        CfgInsn ci;
        ci.addr = r.u64();
        ci.length = r.u64();
        ci.insn = store::read_insn(r);
        bb.insns.push_back(ci);
      }
      std::uint32_t n_succs = r.count(/*min_elem_bytes=*/8);
      for (std::uint32_t j = 0; j < n_succs; ++j) bb.succs.push_back(r.u64());
      if (r.u8()) {
        JumpTable jt;
        jt.table_addr = r.u64();
        std::uint32_t n_targets = r.count(/*min_elem_bytes=*/8);
        for (std::uint32_t j = 0; j < n_targets; ++j)
          jt.targets.push_back(r.u64());
        bb.jump_table = std::move(jt);
      }
      art->cfg.blocks[addr] = std::move(bb);
    }
    auto read_regmap = [&r](std::map<std::uint64_t, RegSet>& m) {
      std::uint32_t n = r.count(/*min_elem_bytes=*/9);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::uint64_t addr = r.u64();
        m[addr] = store::read_regset(r);
      }
    };
    read_regmap(art->liveness.live_out);
    read_regmap(art->liveness.block_in);
    read_regmap(art->taint.tainted_in);
    return e;
  } catch (const binio::Error&) {
    return nullptr;
  }
}

bool AnalysisCache::deps_valid(const Entry& e, const Image& img) {
  for (const Entry::TableDep& td : e.tables)
    if (hash_range(img, td.addr, td.bytes) != td.hash) return false;
  for (const Entry::CalleeDep& cd : e.callees) {
    const FunctionSym* callee = img.function_at(cd.target);
    if ((callee ? callee->arg_count : -1) != cd.arg_count) return false;
  }
  return true;
}

Verdict AnalysisCache::EntryCodec::check(const Entry& e) const {
  // Same content hash but different identity would be a 64-bit
  // collision between coexisting functions; stale dependencies mean the
  // image changed somewhere the analyses looked. Either rebuilds.
  if (e.entry_addr != entry || e.size != size || e.arg_count != arg_count ||
      !deps_valid(e, *img))
    return Verdict::kStale;
  return e.art.integrity == e.art.compute_integrity() ? Verdict::kValid
                                                      : Verdict::kCorrupt;
}

std::shared_ptr<const AnalysisCache::Entry> AnalysisCache::EntryCodec::corrupt(
    const Entry& e) const {
  // A digest-covered field flipped, the stored digest kept clean.
  auto bad = std::make_shared<Entry>(e);
  bad->art.dep_fingerprint ^= 1;
  return bad;
}

std::shared_ptr<const AnalysisArtifacts> AnalysisCache::lookup_or_build(
    const Image& img, std::uint64_t entry, std::uint64_t size,
    int arg_count, LookupOutcome* out) {
  std::uint64_t key = hash_range(img, entry, static_cast<std::size_t>(size));
  key = mix(key, entry);
  key = mix(key, size);
  key = mix(key, static_cast<std::uint64_t>(arg_count));
  key = mix(key, kAnalysisVersion);
  std::shared_ptr<const Entry> e = get_or_build(
      EntryCodec{&img, entry, size, arg_count}, key,
      [&] { return build_entry(img, entry, size, arg_count); }, out);
  return std::shared_ptr<const AnalysisArtifacts>(e, &e->art);
}

std::shared_ptr<const void> AnalysisCache::probe(store::Kind kind,
                                                 std::uint64_t key) {
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  const Table& t = sh.tables[static_cast<std::size_t>(kind)];
  auto it = t.map.find(key);
  return it == t.map.end() ? nullptr : it->second;
}

void AnalysisCache::drop(store::Kind kind, std::uint64_t key,
                         const void* seen, bool corrupt) {
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  Table& t = sh.tables[static_cast<std::size_t>(kind)];
  auto it = t.map.find(key);
  if (it == t.map.end() || it->second.get() != seen) return;
  t.map.erase(it);
  // The FIFO holds live keys only: a stale slot left behind would later
  // evict the rebuilt entry early.
  t.fifo.erase(std::find(t.fifo.begin(), t.fifo.end(), key));
  ++t.stats.evictions;
  if (corrupt) ++t.stats.integrity_evictions;
}

void AnalysisCache::admit(store::Kind kind, std::uint64_t key,
                          std::shared_ptr<const void> value, bool hit) {
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  Table& t = sh.tables[static_cast<std::size_t>(kind)];
  ++(hit ? t.stats.hits : t.stats.misses);
  if (!t.map.emplace(key, std::move(value)).second) return;
  t.fifo.push_back(key);
  while (t.fifo.size() > capacity_) {
    t.map.erase(t.fifo.front());
    t.fifo.pop_front();
    ++t.stats.evictions;
  }
}

AnalysisCache::Stats AnalysisCache::sum_stats(bool analysis) const {
  Stats s;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (std::size_t k = 0; k < kTables; ++k) {
      if ((k == static_cast<std::size_t>(store::Kind::kAnalysis)) != analysis)
        continue;
      const Stats& t = sh.tables[k].stats;
      s.hits += t.hits;
      s.misses += t.misses;
      s.evictions += t.evictions;
      s.integrity_evictions += t.integrity_evictions;
    }
  }
  return s;
}

void AnalysisCache::clear() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (Table& t : sh.tables) t = Table{};
  }
}

const std::shared_ptr<AnalysisCache>& AnalysisCache::process_cache() {
  static const std::shared_ptr<AnalysisCache> cache =
      std::make_shared<AnalysisCache>();
  return cache;
}

}  // namespace raindrop::analysis
