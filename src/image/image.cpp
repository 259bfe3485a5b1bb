#include "image/image.hpp"

#include <stdexcept>

#include "support/binio.hpp"
#include "support/faultpoint.hpp"

namespace raindrop {

Image::Image() {
  sections_[".text"] = Section{kTextBase, kPermRX, {}};
  sections_[".rodata"] = Section{kRodataBase, kPermR, {}};
  sections_[".data"] = Section{kDataBase, kPermRW, {}};
  sections_[".ropdata"] = Section{kRopDataBase, kPermRW, {}};
  sections_[".heap"] = Section{kHeapBase, kPermRW, {}};
}

Image::Section& Image::sec(const std::string& name) {
  auto it = sections_.find(name);
  if (it == sections_.end()) throw std::out_of_range("no section " + name);
  return it->second;
}
const Image::Section& Image::sec(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) throw std::out_of_range("no section " + name);
  return it->second;
}

std::uint64_t Image::append(const std::string& section,
                            std::span<const std::uint8_t> bytes) {
  Section& s = sec(section);
  std::uint64_t addr = s.base + s.bytes.size();
  s.bytes.insert(s.bytes.end(), bytes.begin(), bytes.end());
  return addr;
}

std::uint64_t Image::append_zeros(const std::string& section, std::size_t n) {
  Section& s = sec(section);
  std::uint64_t addr = s.base + s.bytes.size();
  s.bytes.resize(s.bytes.size() + n, 0);
  return addr;
}

std::uint64_t Image::reserve(const std::string& section, std::size_t n) {
  return append_zeros(section, n);
}

void Image::patch(std::uint64_t addr, std::span<const std::uint8_t> bytes) {
  for (auto& [name, s] : sections_) {
    if (addr >= s.base && addr - s.base + bytes.size() <= s.bytes.size()) {
      std::copy(bytes.begin(), bytes.end(), s.bytes.begin() + (addr - s.base));
      return;
    }
  }
  throw std::out_of_range("patch outside any section");
}

void Image::patch_u64(std::uint64_t addr, std::uint64_t value) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = (value >> (8 * i)) & 0xff;
  patch(addr, b);
}

void Image::patch_u32(std::uint64_t addr, std::uint32_t value) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = (value >> (8 * i)) & 0xff;
  patch(addr, b);
}

std::uint8_t Image::byte_at(std::uint64_t addr) const {
  for (const auto& [name, s] : sections_) {
    if (addr >= s.base && addr - s.base < s.bytes.size())
      return s.bytes[addr - s.base];
  }
  return 0;
}

std::uint64_t Image::u64_at(std::uint64_t addr) const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(byte_at(addr + i)) << (8 * i);
  return v;
}

std::uint64_t Image::section_end(const std::string& section) const {
  const Section& s = sec(section);
  return s.base + s.bytes.size();
}

std::uint64_t Image::section_base(const std::string& section) const {
  return sec(section).base;
}

std::vector<std::uint8_t> Image::section_bytes(
    const std::string& section) const {
  return sec(section).bytes;
}

std::span<const std::uint8_t> Image::bytes_view(std::uint64_t addr,
                                                std::size_t n) const {
  for (const auto& [name, s] : sections_) {
    if (addr >= s.base && addr - s.base + n <= s.bytes.size())
      return {s.bytes.data() + (addr - s.base), n};
  }
  return {};
}

void Image::add_function(FunctionSym fn) { funcs_.push_back(std::move(fn)); }

FunctionSym* Image::function(const std::string& name) {
  for (auto& f : funcs_)
    if (f.name == name) return &f;
  return nullptr;
}
const FunctionSym* Image::function(const std::string& name) const {
  for (const auto& f : funcs_)
    if (f.name == name) return &f;
  return nullptr;
}
const FunctionSym* Image::function_at(std::uint64_t addr) const {
  for (const auto& f : funcs_)
    if (addr >= f.addr && addr < f.addr + f.size) return &f;
  return nullptr;
}

void Image::add_object(const std::string& name, std::uint64_t addr,
                       std::uint64_t size) {
  objects_[name] = {addr, size};
}

std::uint64_t Image::apply_commit(const DeferredCommit& dc) {
  // Fault site before any mutation: a faulted commit leaves the image
  // exactly as it was (no partial append/patch state to unwind).
  fault::maybe_throw("image.apply_commit");
  std::uint64_t addr =
      dc.bytes.empty() ? section_end(dc.section) : append(dc.section, dc.bytes);
  for (const auto& [a, v] : dc.u64_patches) patch_u64(a, v);
  for (const auto& [a, v] : dc.u32_patches) patch_u32(a, v);
  for (const auto& [a, b] : dc.raw_patches) patch(a, b);
  return addr;
}

Memory Image::load() const {
  Memory mem;
  for (const auto& [name, s] : sections_) {
    // Round the region up so late appends to .text (artificial gadgets)
    // and chain growth stay executable/readable without re-mapping.
    std::uint64_t size = std::max<std::uint64_t>(s.bytes.size(), 1);
    mem.map_region(s.base, size, s.perm, name);
    mem.write_bytes(s.base, s.bytes);
  }
  mem.map_region(kStackBase, kStackSize, kPermRW, "stack");
  // Sentinel pad: a single HLT; top-level calls return here.
  auto hlt = isa::encode_one(isa::ib::hlt());
  mem.map_region(kHltPad, 16, kPermRX, "hltpad");
  mem.write_bytes(kHltPad, hlt);
  return mem;
}

LoadedImage Image::load_shared() const {
  LoadedImage li;
  li.mem = load();
  li.mem.freeze();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  ranges.reserve(funcs_.size() + 1);
  for (const FunctionSym& f : funcs_) {
    if (f.size > 0) ranges.emplace_back(f.addr, f.addr + f.size);
  }
  ranges.emplace_back(kHltPad, kHltPad + 1);  // sentinel return block
  li.cache = build_code_cache(li.mem, ranges);
  return li;
}

std::vector<std::uint8_t> Image::serialize() const {
  binio::Writer w;
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, s] : sections_) {
    w.str(name);
    w.u64(s.base);
    w.u8(static_cast<std::uint8_t>(s.perm));
    w.bytes(s.bytes);
  }
  w.u32(static_cast<std::uint32_t>(funcs_.size()));
  for (const FunctionSym& f : funcs_) {
    w.str(f.name);
    w.u64(f.addr);
    w.u64(f.size);
    w.u8(f.rop_rewritten ? 1 : 0);
    w.i64(f.arg_count);
  }
  w.u32(static_cast<std::uint32_t>(objects_.size()));
  for (const auto& [name, as] : objects_) {
    w.str(name);
    w.u64(as.first);
    w.u64(as.second);
  }
  return w.take();
}

Image Image::deserialize(std::span<const std::uint8_t> payload) {
  binio::Reader r(payload);
  Image img;
  img.sections_.clear();  // drop the default skeleton; the record has all
  std::uint32_t n_sec = r.count(/*min_elem_bytes=*/13);
  for (std::uint32_t i = 0; i < n_sec; ++i) {
    std::string name = r.str();
    Section s;
    s.base = r.u64();
    s.perm = static_cast<Perm>(r.u8() & (kPermR | kPermW | kPermX));
    s.bytes = r.bytes();
    img.sections_[std::move(name)] = std::move(s);
  }
  std::uint32_t n_fn = r.count(/*min_elem_bytes=*/29);
  for (std::uint32_t i = 0; i < n_fn; ++i) {
    FunctionSym f;
    f.name = r.str();
    f.addr = r.u64();
    f.size = r.u64();
    f.rop_rewritten = r.u8() != 0;
    f.arg_count = static_cast<int>(r.i64());
    img.funcs_.push_back(std::move(f));
  }
  std::uint32_t n_obj = r.count(/*min_elem_bytes=*/20);
  for (std::uint32_t i = 0; i < n_obj; ++i) {
    std::string name = r.str();
    std::uint64_t addr = r.u64();
    std::uint64_t size = r.u64();
    img.objects_[std::move(name)] = {addr, size};
  }
  return img;
}

CallResult call_function(const LoadedImage& li, std::uint64_t fn_addr,
                         std::span<const std::uint64_t> args,
                         std::uint64_t insn_budget) {
  Memory mem = li.mem.clone();
  Cpu cpu(&mem);
  cpu.import_cache(li.cache);
  static const isa::Reg kArgRegs[] = {isa::Reg::RDI, isa::Reg::RSI,
                                      isa::Reg::RDX, isa::Reg::RCX,
                                      isa::Reg::R8,  isa::Reg::R9};
  for (std::size_t i = 0; i < args.size() && i < 6; ++i)
    cpu.set_reg(kArgRegs[i], args[i]);
  std::uint64_t rsp = kStackBase + kStackSize - 64;
  rsp -= 8;
  mem.write_u64(rsp, kHltPad);  // return address -> HLT sentinel
  cpu.set_reg(isa::Reg::RSP, rsp);
  cpu.set_rip(fn_addr);
  CpuStatus st = cpu.run(insn_budget);
  CallResult r;
  r.status = st;
  r.rax = cpu.reg(isa::Reg::RAX);
  r.insns = cpu.insn_count();
  r.probes = cpu.trace_probes();
  if (cpu.fault()) r.fault_reason = cpu.fault()->reason;
  return r;
}

}  // namespace raindrop
