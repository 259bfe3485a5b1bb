// Program image ("MiniELF"): sections, symbols and a loader. This plays
// the role of the x64 ELF binaries the paper's rewriter consumes: the
// compiler emits .text/.rodata/.data, the gadget synthesizer appends
// artificial gadgets to .text, and the ROP rewriter embeds chains in a
// dedicated data section and patches function bodies with pivot stubs
// (§IV-A4).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cpu/code_cache.hpp"
#include "cpu/cpu.hpp"
#include "isa/insn.hpp"
#include "mem/memory.hpp"

namespace raindrop {

// Fixed layout, mirroring a classic non-PIE Linux binary (the paper's
// rewritten binaries are loaded at fixed addresses too, §IV-C).
inline constexpr std::uint64_t kTextBase = 0x400000;
inline constexpr std::uint64_t kRodataBase = 0x1000000;
inline constexpr std::uint64_t kDataBase = 0x2000000;
inline constexpr std::uint64_t kRopDataBase = 0x3000000;  // embedded chains
inline constexpr std::uint64_t kHeapBase = 0x4000000;
inline constexpr std::uint64_t kStackBase = 0x7ff00000;
inline constexpr std::uint64_t kStackSize = 0x100000;
inline constexpr std::uint64_t kHltPad = 0x10000;  // sentinel return target

// A frozen, shareable load of an image: the immutable Memory snapshot
// plus a CodeCache pre-decoded over it (DESIGN.md §10). It is the one
// input every run takes -- call_function and the attack engines
// (dse / se / tds / ropmemu) clone `mem` and import `cache` so every
// call/run starts warm; the lineage check inside Cpu::import_cache
// keeps the pairing sound.
struct LoadedImage {
  Memory mem;                              // frozen (Memory::freeze)
  std::shared_ptr<const CodeCache> cache;  // may be null (empty image)
};

struct FunctionSym {
  std::string name;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
  bool rop_rewritten = false;  // body replaced with a pivot stub
  int arg_count = 6;  // ABI argument registers holding inputs (taint
                      // sources); 6 = conservative when unknown
};

class Image {
 public:
  Image();

  // -- Section building -----------------------------------------------
  // Appends bytes to a section, returns the address they landed at.
  std::uint64_t append(const std::string& section,
                       std::span<const std::uint8_t> bytes);
  std::uint64_t append_zeros(const std::string& section, std::size_t n);
  // Reserves space and returns its address without writing.
  std::uint64_t reserve(const std::string& section, std::size_t n);
  // Patches already-emitted bytes (label fixups, jump tables, stubs).
  void patch(std::uint64_t addr, std::span<const std::uint8_t> bytes);
  void patch_u64(std::uint64_t addr, std::uint64_t value);
  void patch_u32(std::uint64_t addr, std::uint32_t value);

  std::uint8_t byte_at(std::uint64_t addr) const;
  std::uint64_t u64_at(std::uint64_t addr) const;
  std::uint64_t section_end(const std::string& section) const;
  std::uint64_t section_base(const std::string& section) const;
  // Current contents of a section (for scanners).
  std::vector<std::uint8_t> section_bytes(const std::string& section) const;
  // Zero-copy view of [addr, addr+n); empty when the range is not fully
  // inside one section. Invalidated by the next append/reserve there.
  std::span<const std::uint8_t> bytes_view(std::uint64_t addr,
                                           std::size_t n) const;

  // -- Symbols ----------------------------------------------------------
  void add_function(FunctionSym fn);
  FunctionSym* function(const std::string& name);
  const FunctionSym* function(const std::string& name) const;
  const std::vector<FunctionSym>& functions() const { return funcs_; }
  std::vector<FunctionSym>& functions() { return funcs_; }
  const FunctionSym* function_at(std::uint64_t addr) const;

  // Named data objects (the engine's stack-switching array); carried
  // through serialize()/deserialize().
  void add_object(const std::string& name, std::uint64_t addr,
                  std::uint64_t size);

  // -- Deferred commit --------------------------------------------------
  // A batch of mutations prepared away from the image (the obfuscation
  // engine's serial phase 2 builds one per crafted function): an
  // optional append to `section` followed by address patches, applied in
  // one call. apply_commit returns the address the appended bytes landed
  // at (the section end before the append; section_end(section) when
  // `bytes` is empty).
  struct DeferredCommit {
    std::string section;              // append target
    std::vector<std::uint8_t> bytes;  // appended payload
    std::vector<std::pair<std::uint64_t, std::uint64_t>> u64_patches;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> u32_patches;
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
        raw_patches;
  };
  std::uint64_t apply_commit(const DeferredCommit& dc);

  // -- Loading ----------------------------------------------------------
  // Materialises the image into a mutable Memory (regions + bytes +
  // stack + pad): the building block of load_shared(), and the input of
  // callers that drive a raw Cpu over memory they patch while it runs.
  Memory load() const;

  // Materialises the image into a *frozen* Memory snapshot bundled with
  // a CodeCache pre-decoded over every function body (plus the HLT
  // sentinel pad). The snapshot is immutable; every run executes against
  // a clone (call_function / the attack engines clone per run and
  // import the cache, so every run starts warm).
  LoadedImage load_shared() const;

  // -- Persistence (DESIGN.md §13) --------------------------------------
  // Lossless byte encoding of the whole image -- sections (bases, perms,
  // contents), function symbols and objects -- so a rewritten module is a
  // durable artifact the store can hand to a later process. deserialize
  // throws binio::Error on malformed payloads; a round-tripped image
  // load()s to byte-identical memory.
  std::vector<std::uint8_t> serialize() const;
  static Image deserialize(std::span<const std::uint8_t> payload);

 private:
  struct Section {
    std::uint64_t base = 0;
    Perm perm = kPermR;
    std::vector<std::uint8_t> bytes;
  };
  Section& sec(const std::string& name);
  const Section& sec(const std::string& name) const;

  std::map<std::string, Section> sections_;
  std::vector<FunctionSym> funcs_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> objects_;
};

// -- Execution helpers --------------------------------------------------
// Calls a function in a fresh clone of a frozen LoadedImage following
// the SysV-like convention (args in RDI,RSI,RDX,RCX,R8,R9; result in
// RAX). The clone imports the image's prewarmed CodeCache, so repeated
// calls skip the per-call re-decode.
struct CallResult {
  CpuStatus status = CpuStatus::kHalted;
  std::uint64_t rax = 0;
  std::uint64_t insns = 0;
  std::vector<std::int64_t> probes;
  std::string fault_reason;
};

CallResult call_function(const LoadedImage& li, std::uint64_t fn_addr,
                         std::span<const std::uint64_t> args,
                         std::uint64_t insn_budget = 200'000'000);

}  // namespace raindrop
