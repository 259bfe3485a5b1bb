// The MiniX86 interpreter. Executes native code and ROP chains alike:
// a chain is just data in .data that RET walks, exactly as on real
// hardware. Exposes tracing hooks used by the dynamic attacks (DSE
// shadow execution, TDS trace recording, ROPMEMU-style chain emulation).
//
// Execution engine (DESIGN.md §6): instead of a per-instruction decode
// probe, the CPU decodes straight-line superblocks -- runs of
// instructions up to a terminator (branch/call/ret/hlt/ud/trace) --
// once into flat DecodedBlock vectors and dispatches whole blocks from
// run(). Hooks are stratified: the zero-hook configuration executes
// blocks with no per-instruction callback checks; installing a per-insn
// hook (or single-stepping) transparently falls back to exact
// one-instruction semantics, so attack traces are bit-identical either
// way. Blocks snapshot the write generations of the memory pages they
// decode from (Memory::page_gen) and lazily re-decode when a spanned
// page is written -- a .ropdata commit or P1-cell write no longer
// destroys unrelated cached code.
//
// Two further layers sit on top (DESIGN.md §10):
//  * threaded dispatch -- in the zero-hook stratum each block caches
//    validated links to its successor blocks (fallthrough, direct
//    branch taken/not-taken, indirect targets via a return-target
//    cache sized for ROP chains' gadget working sets), so execution
//    chains block-to-block without returning to the central
//    hash-lookup fetch. Every cached block marks the pages it spans
//    (Memory::watch_code), so the Memory write epoch moves only when
//    code pages are written: while it holds still, links are trusted
//    and stores skip revalidating the running block; once it moves, a
//    page-generation mismatch unlinks and falls back to the central
//    path. Any installed hook demotes dispatch to the central loop so
//    per-dispatch and per-insn callbacks keep firing exactly as before.
//  * clone-aware cache import -- a CodeCache built over a frozen
//    Memory snapshot (code_cache.hpp) can be imported into any Cpu
//    whose Memory descends from that snapshot; blocks are copied in
//    lazily on first fetch after revalidating their page generations
//    against the importing clone.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/encode.hpp"
#include "isa/insn.hpp"
#include "isa/lower.hpp"
#include "mem/memory.hpp"

namespace raindrop {

enum class CpuStatus {
  kRunning,
  kHalted,          // HLT reached
  kFault,           // bad decode / NX violation / div by zero / UD
  kBudgetExceeded,  // instruction budget exhausted
};

struct CpuFault {
  std::uint64_t rip = 0;
  std::string reason;
};

class Cpu;
class CodeCache;

// Typed hook bundle. The strata are ordered by cost:
//  * none      -- superblock fast path, zero per-instruction checks;
//  * block     -- fast path kept, one callback per block *dispatch*
//                 (the same block re-fires after a budget pause or an
//                 invalidation re-entry, so treat calls as dispatch
//                 events, not unique blocks);
//  * insn      -- exact per-instruction interpretation (pre-exec
//                 callback, may mutate state; returning false aborts the
//                 run with an "aborted by hook" fault).
// Attack engines install the cheapest stratum that observes what they
// need; the architectural trace is identical across strata.
struct HookSet {
  using InsnHook =
      std::function<bool(Cpu&, std::uint64_t addr, const isa::Insn&)>;
  using BlockHook = std::function<void(Cpu&, std::uint64_t block_start)>;

  InsnHook insn;
  BlockHook block;

  bool per_insn() const { return static_cast<bool>(insn); }
  bool empty() const { return !insn && !block; }
};

// A decoded straight-line run. `insns` ends at the first terminator
// (branch/call/ret/hlt/ud/trace), region boundary, or size cap; the
// decode never crosses the memory region containing `start`, so one
// NX check at dispatch covers every instruction in the block.
struct BlockInsn {
  isa::Insn insn;
  std::uint8_t length = 0;
  // Any op that writes memory mid-block (stores, read-modify-writes,
  // pushes). After one executes, the current block is revalidated so
  // in-block code smashes take effect exactly as per-instruction
  // interpretation would. Calls also write, but always end a block.
  bool writes_mem = false;
};

struct DecodedBlock {
  std::uint64_t start = 0;
  std::uint32_t byte_len = 0;
  std::vector<BlockInsn> insns;
  // Pre-lowered micro-op stream, index-parallel with `insns` (one µop
  // per instruction, same index), produced once at decode time by
  // isa::lower() -- see DESIGN.md §11. The zero-hook stratum executes
  // this form; every other stratum executes `insns` through exec().
  // Rides along CodeCache sharing: lowered µops contain only absolute
  // addresses and constants, so a block copied out of a shared cache
  // keeps them verbatim (only the successor links are per-Cpu).
  std::vector<isa::MicroOp> uops;
  // Generation snapshot of the (at most two) pages spanned by
  // [start, start + byte_len).
  std::uint32_t gen0 = 0;
  std::uint32_t gen1 = 0;
  bool two_pages = false;
  // NX verdict snapshot: valid while the region list has not grown
  // (regions are append-only, so an existing region's permissions
  // never change; only previously-uncovered addresses can gain one).
  bool perm_x = false;
  std::uint32_t region_count = 0;
  // Threaded-dispatch successor links (valid only inside the owning
  // Cpu's arena; cleared when a block is copied out of a shared
  // CodeCache). A link is trusted when the Memory write epoch is
  // unchanged since it was last validated (the target's pages are
  // marked, so no write reached them), and revalidated against the
  // target's page generations otherwise -- see DESIGN.md §10.
  struct Link {
    DecodedBlock* target = nullptr;
    std::uint32_t index = 0;     // instruction index within target
    std::uint64_t epoch = 0;     // Memory::write_epoch at last validation
  };
  Link fall;   // fallthrough / not-taken successor
  Link taken;  // direct branch / direct call target
  // Terminator class, pre-classified at decode time so block-end chain
  // dispatch never reloads the final Insn: which link slot (if any)
  // covers the outgoing transition.
  enum : std::uint8_t {
    kTermFall = 0,  // TRACE cut / size-cap split: straight-line fallthrough
    kTermTaken,     // JMP_REL / CALL_REL: fixed direct target
    kTermCond,      // JCC_REL: fall or taken by comparing rip_
    kTermIndirect,  // RET / JMP_R / JMP_M / CALL_R: return-target cache
  };
  std::uint8_t term = kTermFall;
};

// Decodes one superblock at `start` against `mem` without touching any
// cache (shared by Cpu::build_block and build_code_cache).
DecodedBlock decode_superblock(const Memory& mem, std::uint64_t start);

class Cpu {
 public:
  explicit Cpu(Memory* mem) : mem_(mem) {}

  // Not copyable: addr_index_ and successor links hold raw pointers into
  // arena_ nodes, so a copy would dispatch blocks owned by the source.
  // Fork the Memory (Memory::clone) and build a fresh Cpu instead.
  // Moves are fine -- deque and unordered_map nodes are stable across a
  // container move.
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;
  Cpu(Cpu&&) = default;
  Cpu& operator=(Cpu&&) = default;

  // Register file.
  std::uint64_t reg(isa::Reg r) const { return regs_[static_cast<int>(r)]; }
  void set_reg(isa::Reg r, std::uint64_t v) { regs_[static_cast<int>(r)] = v; }
  std::uint64_t rip() const { return rip_; }
  void set_rip(std::uint64_t v) { rip_ = v; }
  std::uint64_t flags() const { return flags_; }  // packed CF/ZF/SF/OF
  void set_flags(std::uint64_t f) { flags_ = f & 0xf; }
  bool eval_cond(isa::Cond cc) const;

  Memory& mem() { return *mem_; }
  const Memory& mem() const { return *mem_; }

  // Runs until halt/fault or until `max_insns` more instructions executed.
  CpuStatus run(std::uint64_t max_insns);
  // Executes exactly one instruction.
  CpuStatus step();

  std::uint64_t insn_count() const { return insn_count_; }
  const std::optional<CpuFault>& fault() const { return fault_; }

  // Coverage probes hit by TRACE instructions, in execution order.
  const std::vector<std::int64_t>& trace_probes() const { return probes_; }

  // Installs a stratified hook bundle (an empty HookSet detaches).
  void set_hooks(HookSet hooks) { hooks_ = std::move(hooks); }

  // Enforce NX: RIP must lie in a kPermX region. On by default; the image
  // loader maps regions. Tests running raw code can disable it. Toggling
  // the setting drops the decode cache: successor links memoize the NX
  // verdict of their establishment-time setting, so a flip must sever
  // them (and rebuilding a handful of blocks is cheap).
  void set_enforce_nx(bool on) {
    if (on != enforce_nx_) invalidate_decode_cache();
    enforce_nx_ = on;
  }

  // Threaded dispatch toggle (on by default). On, the zero-hook
  // stratum runs the chained, pre-lowered µop executor; off forces
  // every block transition through the central fetch loop, which runs
  // each instruction through the exec() reference switch -- the
  // reference the lowered path's differential tests compare against.
  void set_threaded_dispatch(bool on) { threaded_dispatch_ = on; }

  // Adopts a shared read-only CodeCache built over a frozen Memory
  // snapshot. Returns false (and imports nothing) unless this Cpu's
  // Memory descends from exactly that snapshot (Memory::lineage) --
  // sibling-to-sibling import is unsound: two clones can reach equal
  // page generations with different bytes. Imported blocks are copied
  // into the local cache lazily, on first fetch of an address the cache
  // covers, after their page-generation snapshot is revalidated against
  // this clone's pages. Importing again swaps the cache consulted on a
  // miss; copies already made hold no pointer into the old one and stay.
  bool import_cache(std::shared_ptr<const CodeCache> cache);

  // Drops every cached superblock (and all successor links / the
  // return-target cache). Never required for correctness --
  // page-generation checks invalidate stale blocks lazily -- but kept
  // for tests and memory pressure. An imported CodeCache is retained:
  // it re-seeds the cache on the next fetch.
  void invalidate_decode_cache() {
    blocks_.clear();
    addr_index_.clear();
    arena_.clear();
    rtc_.fill(RtcEntry{});
  }

  // Block-cache observability (tests, bench counters).
  struct CacheStats {
    std::uint64_t blocks_built = 0;      // decode passes, incl. rebuilds
    std::uint64_t block_hits = 0;        // central fetches served from cache
    std::uint64_t stale_redecodes = 0;   // rebuilds forced by page gens
    std::uint64_t dispatches = 0;        // block dispatches in run()
    std::uint64_t chain_hits = 0;        // dispatches via successor links
    std::uint64_t import_hits = 0;       // blocks copied from a CodeCache
    std::uint64_t central_dispatches = 0;  // run() dispatches via fetch
    std::uint64_t lowered_dispatches = 0;  // dispatches run as µop streams
    // Always 0 (no trace arena or fused µops); only perfbench reads them.
    std::uint64_t arena_dispatches = 0;
    std::uint64_t fused_execs = 0;
  };
  const CacheStats& cache_stats() const { return stats_; }

 private:
  struct RtcEntry {
    std::uint64_t addr = 0;
    DecodedBlock* block = nullptr;
    std::uint32_t index = 0;
    std::uint64_t epoch = 0;
  };

  CpuStatus fault_out(const std::string& reason);
  void effective_addr(const isa::MemRef& m, std::uint64_t insn_end,
                      std::uint64_t& out) const;
  void set_flags_logic(std::uint64_t result);
  void set_flags_add(std::uint64_t a, std::uint64_t b, std::uint64_t carry_in,
                     std::uint64_t result);
  void set_flags_sub(std::uint64_t a, std::uint64_t b, std::uint64_t borrow_in,
                     std::uint64_t result);
  CpuStatus exec(const isa::Insn& insn, std::uint64_t next_rip);

  // Superblock machinery.
  CpuStatus fetch_block(DecodedBlock** out, std::uint32_t* index);
  DecodedBlock build_block(std::uint64_t start) const;
  bool block_valid(const DecodedBlock& b) const;
  bool block_exec_ok(DecodedBlock& b) const;
  DecodedBlock* insert_block(DecodedBlock&& b);
  void discard_block(std::uint64_t block_start);
  CpuStatus run_blocks(std::uint64_t end_count);
  // Zero-hook chained dispatch over the pre-lowered µop streams: the
  // whole fetch/chain/execute loop in one frame, so block-to-block
  // transitions never leave the executor (DESIGN.md §11).
  CpuStatus run_lowered(std::uint64_t end_count);

  Memory* mem_;
  std::array<std::uint64_t, isa::kNumRegs> regs_{};
  std::uint64_t rip_ = 0;
  std::uint64_t flags_ = 0;
  std::uint64_t insn_count_ = 0;
  std::optional<CpuFault> fault_;
  std::vector<std::int64_t> probes_;
  HookSet hooks_;
  bool enforce_nx_ = true;
  bool threaded_dispatch_ = true;
  // Block storage. Nodes live in arena_ and are never destroyed before
  // invalidate_decode_cache() -- a discarded (stale) block merely drops
  // out of blocks_/addr_index_. That makes every successor-link and
  // return-target-cache pointer permanently safe to dereference: a
  // pointer to a discarded block self-invalidates, because page
  // generations only move forward and its snapshot can never match
  // again.
  std::deque<DecodedBlock> arena_;
  std::unordered_map<std::uint64_t, DecodedBlock*> blocks_;
  struct AddrEntry {
    DecodedBlock* block = nullptr;  // stable: arena nodes never move
    std::uint32_t index = 0;        // instruction index within the block
  };
  // Every decoded instruction start -> its block, so single-stepping and
  // branches into block interiors reuse existing blocks instead of
  // decoding overlapping suffixes.
  std::unordered_map<std::uint64_t, AddrEntry> addr_index_;
  // Direct-mapped cache for indirect control transfers (RET above all:
  // ROP dispatch is a RET per gadget), keyed on the target address.
  // Sized for a ROP chain's gadget working set (DESIGN.md §10): at 64
  // entries the clbg ROP builds missed on ~17% of dispatches, at 1024
  // (~32 KB per Cpu) on ~1%.
  static constexpr unsigned kRtcBits = 10;
  // Multiplicative hash: return addresses and gadget entries cluster on
  // small strides.
  static std::size_t rtc_slot(std::uint64_t addr) {
    return static_cast<std::size_t>((addr * 0x9E3779B97F4A7C15ull) >>
                                    (64 - kRtcBits));
  }
  std::array<RtcEntry, std::size_t{1} << kRtcBits> rtc_{};
  std::shared_ptr<const CodeCache> imported_;
  CacheStats stats_;
};

}  // namespace raindrop
