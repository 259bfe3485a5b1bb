#include "store/serialize.hpp"

#include <bit>
#include <utility>

namespace raindrop::store {

namespace {

template <typename E>
E checked_enum(std::uint64_t raw, std::uint64_t limit, const char* what) {
  if (raw >= limit) throw binio::Error(std::string("bad enum: ") + what);
  return static_cast<E>(raw);
}

}  // namespace

// Five fixed bytes, then only what the instruction actually carries: a
// flags byte gates the memory-operand byte pair, the displacement and
// the immediate. Instruction lists are the store's highest-volume
// payload (craft-memo request cores, analysis CFGs); the canonical
// no-memory no-immediate case is 5 bytes instead of 25. The round-trip
// is exact for every representable Insn: the memory pair is also
// emitted when any of base/index/scale is nonzero without the
// has_base/has_index flags, so non-canonical fields survive.
void write_insn(binio::Writer& w, const isa::Insn& insn) {
  w.u8(static_cast<std::uint8_t>(insn.op));
  w.u8(static_cast<std::uint8_t>(insn.r1) |
       static_cast<std::uint8_t>(static_cast<std::uint8_t>(insn.r2) << 4));
  w.u8(static_cast<std::uint8_t>(insn.cc));
  w.u8(insn.size);
  bool mem_regs = insn.mem.has_base || insn.mem.has_index ||
                  insn.mem.base != isa::Reg::RAX ||
                  insn.mem.index != isa::Reg::RAX ||
                  insn.mem.scale_log2 != 0;
  std::uint8_t flags = (insn.mem.has_base ? 1 : 0) |
                       (insn.mem.has_index ? 2 : 0) |
                       (insn.mem.rip_rel ? 4 : 0) |
                       (insn.mem.disp ? 8 : 0) |
                       (insn.imm ? 16 : 0) |
                       (mem_regs ? 32 : 0);
  w.u8(flags);
  if (mem_regs) {
    w.u8(static_cast<std::uint8_t>(insn.mem.base) |
         static_cast<std::uint8_t>(
             static_cast<std::uint8_t>(insn.mem.index) << 4));
    w.u8(insn.mem.scale_log2);
  }
  if (insn.mem.disp) w.vi64(insn.mem.disp);
  if (insn.imm) w.vi64(insn.imm);
}

isa::Insn read_insn(binio::Reader& r) {
  isa::Insn insn;
  insn.op = checked_enum<isa::Op>(r.u8(), isa::kNumOps, "op");
  std::uint8_t regs = r.u8();
  insn.r1 = checked_enum<isa::Reg>(regs & 0xf, isa::kNumRegs, "r1");
  insn.r2 = checked_enum<isa::Reg>(regs >> 4, isa::kNumRegs, "r2");
  insn.cc = checked_enum<isa::Cond>(r.u8(), isa::kNumConds, "cc");
  insn.size = r.u8();
  std::uint8_t flags = r.u8();
  insn.mem.has_base = flags & 1;
  insn.mem.has_index = flags & 2;
  insn.mem.rip_rel = flags & 4;
  if (flags & 32) {
    std::uint8_t mem = r.u8();
    insn.mem.base = checked_enum<isa::Reg>(mem & 0xf, isa::kNumRegs,
                                           "mem.base");
    insn.mem.index = checked_enum<isa::Reg>(mem >> 4, isa::kNumRegs,
                                            "mem.index");
    insn.mem.scale_log2 = r.u8();
  }
  if (flags & 8) insn.mem.disp = r.vi64();
  if (flags & 16) insn.imm = r.vi64();
  return insn;
}

void write_regset(binio::Writer& w, analysis::RegSet rs) { w.vu64(rs.raw()); }

analysis::RegSet read_regset(binio::Reader& r) {
  std::uint64_t raw = r.vu64();
  if (raw > 0x1ffff) throw binio::Error("bad enum: regset bits");
  return analysis::RegSet::from_raw(static_cast<std::uint32_t>(raw));
}

void write_chain(binio::Writer& w, const rop::Chain& chain) {
  const auto& items = chain.items();
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const rop::ChainItem& it : items) {
    w.u8(static_cast<std::uint8_t>(it.kind));
    w.vu64(it.gadget);
    w.vi64(it.gadget_req);
    w.vi64(it.imm);
    w.vi64(it.label_a);
    w.vi64(it.label_b);
    w.vi64(it.addend);
    w.vu64(it.raw.size());
    for (std::uint8_t b : it.raw) w.u8(b);
    w.vi64(it.label);
  }
  const auto& patches = chain.patches();
  w.u32(static_cast<std::uint32_t>(patches.size()));
  for (const rop::ExternalPatch& p : patches) {
    w.vu64(p.text_addr);
    w.vi64(p.label_a);
    w.vi64(p.label_b);
  }
  w.vi64(chain.label_count());
}

rop::Chain read_chain(binio::Reader& r) {
  std::vector<rop::ChainItem> items;
  std::uint32_t n_items = r.count(/*min_elem_bytes=*/8);
  items.reserve(n_items);
  for (std::uint32_t i = 0; i < n_items; ++i) {
    rop::ChainItem it;
    it.kind = checked_enum<rop::ChainItem::Kind>(r.u8(), 6, "chain item kind");
    it.gadget = r.vu64();
    it.gadget_req = static_cast<int>(r.vi64());
    it.imm = r.vi64();
    it.label_a = static_cast<int>(r.vi64());
    it.label_b = static_cast<int>(r.vi64());
    it.addend = r.vi64();
    std::uint64_t n_raw = r.vu64();
    if (n_raw > r.remaining())
      throw binio::Error("binio: raw bytes exceed remaining payload");
    it.raw.reserve(n_raw);
    for (std::uint64_t b = 0; b < n_raw; ++b) it.raw.push_back(r.u8());
    it.label = static_cast<int>(r.vi64());
    items.push_back(std::move(it));
  }
  std::vector<rop::ExternalPatch> patches;
  std::uint32_t n_patches = r.count(/*min_elem_bytes=*/3);
  patches.reserve(n_patches);
  for (std::uint32_t i = 0; i < n_patches; ++i) {
    rop::ExternalPatch p;
    p.text_addr = r.vu64();
    p.label_a = static_cast<int>(r.vi64());
    p.label_b = static_cast<int>(r.vi64());
    patches.push_back(p);
  }
  int label_count = static_cast<int>(r.vi64());
  return rop::Chain::from_parts(std::move(items), std::move(patches),
                                label_count);
}

void write_p1(binio::Writer& w, const rop::P1Array& p1) {
  w.u64(p1.addr);
  w.i64(p1.n);
  w.i64(p1.s);
  w.i64(p1.p);
  w.u64(p1.m);
  w.u32(static_cast<std::uint32_t>(p1.cells.size()));
  for (std::uint64_t c : p1.cells) w.u64(c);
  w.u32(static_cast<std::uint32_t>(p1.residues.size()));
  for (std::uint64_t a : p1.residues) w.u64(a);
}

rop::P1Array read_p1(binio::Reader& r) {
  rop::P1Array p1;
  p1.addr = r.u64();
  p1.n = static_cast<int>(r.i64());
  p1.s = static_cast<int>(r.i64());
  p1.p = static_cast<int>(r.i64());
  p1.m = r.u64();
  std::uint32_t n_cells = r.count(/*min_elem_bytes=*/8);
  p1.cells.reserve(n_cells);
  for (std::uint32_t i = 0; i < n_cells; ++i) p1.cells.push_back(r.u64());
  std::uint32_t n_res = r.count(/*min_elem_bytes=*/8);
  p1.residues.reserve(n_res);
  for (std::uint32_t i = 0; i < n_res; ++i) p1.residues.push_back(r.u64());
  return p1;
}

std::vector<std::uint8_t> serialize_image(const Image& img) {
  return img.serialize();
}

Image deserialize_image(std::span<const std::uint8_t> payload) {
  return Image::deserialize(payload);
}

void put_module(ArtifactStore& st, std::uint64_t key, const Image& img,
                std::span<const rop::RewriteResult> results,
                std::uint64_t program_points,
                std::span<const std::uint64_t> gadget_addrs) {
  binio::Writer w;
  w.bytes(img.serialize());
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const rop::RewriteResult& r : results) {
    w.u8(r.ok ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(r.failure));
    w.str(r.detail);
    w.u64(r.stats.program_points);
    w.u64(r.stats.gadget_slots);
    w.u64(r.stats.unique_gadgets);
    w.u64(std::bit_cast<std::uint64_t>(r.stats.gadgets_per_point));
    w.u64(r.stats.chain_bytes);
    w.u64(r.chain_addr);
    w.u64(r.chain_size);
  }
  w.u64(program_points);
  w.u32(static_cast<std::uint32_t>(gadget_addrs.size()));
  for (std::uint64_t a : gadget_addrs) w.u64(a);
  st.put(Kind::kModule, key, w.take());
}

std::optional<ModuleRecord> get_module(ArtifactStore& st, std::uint64_t key) {
  std::optional<std::vector<std::uint8_t>> payload =
      st.get(Kind::kModule, key);
  if (!payload) return std::nullopt;
  try {
    binio::Reader r(*payload);
    ModuleRecord rec{Image::deserialize(r.bytes()), {}, 0, {}};
    constexpr std::uint64_t kFailureLimit =
        static_cast<std::uint64_t>(rop::RewriteFailure::RegisterPressure) + 1;
    rec.results.resize(r.count(/*min_elem_bytes=*/65));
    for (rop::RewriteResult& res : rec.results) {
      res.ok = r.u8() != 0;
      res.failure = checked_enum<rop::RewriteFailure>(r.u32(), kFailureLimit,
                                                      "RewriteFailure");
      res.detail = r.str();
      res.stats.program_points = r.u64();
      res.stats.gadget_slots = r.u64();
      res.stats.unique_gadgets = r.u64();
      res.stats.gadgets_per_point = std::bit_cast<double>(r.u64());
      res.stats.chain_bytes = r.u64();
      res.chain_addr = r.u64();
      res.chain_size = r.u64();
    }
    rec.program_points = r.u64();
    rec.gadget_addrs.resize(r.count(/*min_elem_bytes=*/8));
    for (std::uint64_t& a : rec.gadget_addrs) a = r.u64();
    if (!r.at_end()) throw binio::Error("module record: trailing bytes");
    return rec;
  } catch (const binio::Error&) {
    st.evict(Kind::kModule, key);
    return std::nullopt;
  }
}

}  // namespace raindrop::store
