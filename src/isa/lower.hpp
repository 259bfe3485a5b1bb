// Pre-lowered micro-op form of MiniX86 (DESIGN.md §11). The superblock
// decoder lowers every Insn once, at decode time, into a flat MicroOp:
//  * a dense specialized opcode -- one UOp per operand shape, so the
//    executor never re-branches on sub-cases (ADD_RR / ADD_RI / ADD_RM
//    are three distinct µops) and never re-derives operand kinds;
//  * direct register-file slot indices (a/b/base/index are plain array
//    offsets into the CPU register file);
//  * pre-resolved immediates (sign-extension happened at decode; shift
//    counts are masked; branch targets are folded to absolute addresses
//    because the lowering site knows the instruction's address);
//  * a pre-classified addressing recipe: abs / base+disp /
//    index·scale+disp / base+index·scale+disp, with rip-relative
//    operands folded into kAbs at lower time (insn_end is a per-slot
//    constant);
//  * pre-fused flag handling: flag-writing vs flag-free variants are
//    distinct µops selected at lower time (e.g. an immediate shift with
//    count 0 lowers to the flags-only kShiftRI0), so the executor never
//    consults writes_flags() dynamically.
//
// What may be folded at lower time: anything derivable from the
// instruction bytes and their absolute address (targets, immediates,
// rip constants, operand shapes, sizes). What must stay dynamic:
// register values, memory contents, flags, and every fault decision --
// the lowered execution must stay bit-identical to Cpu::exec() at any
// observation point (budget pause, fault, demotion to the per-insn
// stratum).
#pragma once

#include <cstdint>

#include "isa/insn.hpp"

namespace raindrop::isa {

// Dense specialized opcodes. One value per operand shape of the source
// Op, plus lower-time flag/size splits. Kept dense and byte-sized so
// the executor's dispatch is a single indexed jump.
enum class UOp : std::uint8_t {
  kNop = 0,
  kHlt,
  kUd,
  kBadOp,  // undecodable/kCount defensive slot: faults like exec()
  kTrace,

  kMovRR,
  kMovRI,  // MOV_RI64 and MOV_RI32: imm pre-extended at decode
  kLea,

  kLoad1, kLoad2, kLoad4, kLoad8,   // zero-extending loads by size
  kLoads1, kLoads2, kLoads4,        // sign-extending loads by size
  kStore1, kStore2, kStore4, kStore8,
  kXchgRR,
  kXchgM8,  // qword-only (normalized at encode/lower time)

  kPushR, kPopR, kPushI, kPushF, kPopF,

  kAddRR, kAddRI, kAddRM8,
  kAdcRR,
  kSubRR, kSubRI,
  kSbbRR,
  kCmpRR, kCmpRI,
  kAndRR, kAndRI,
  kOrRR, kOrRI,
  kXorRR, kXorRI,
  kTestRR, kTestRI,
  kImulRR, kImulRI,
  kUdivRR, kUremRR,
  kShlRR, kShrRR, kSarRR,     // dynamic counts
  kShlRI, kShrRI, kSarRI,     // count folded at lower time, nonzero
  kShiftRI0,                  // any RI shift with count 0: flags only
  kAddM8I, kSubM8I,

  kNegR, kNotR, kIncR, kDecR,

  kMovzx, kMovsx,
  kCmov, kSetcc,
  kRdFlags, kWrFlags,

  kJmp,    // target folded to an absolute address
  kJcc,    // taken target folded; fallthrough is next_pc
  kJmpR,
  kJmpM8,
  kCall,   // target folded; pushes the next_pc constant
  kCallR,
  kRet,

  kCount,
};

// Pre-classified addressing recipe. rip-relative operands never reach
// the executor: lower() folds them into kAbs.
enum class AddrMode : std::uint8_t {
  kAbs = 0,    // disp
  kBase,       // regs[base] + disp
  kIndex,      // (regs[index] << scale) + disp
  kBaseIndex,  // regs[base] + (regs[index] << scale) + disp
};

// One lowered instruction. Exactly one MicroOp per BlockInsn, same
// index, so block-interior entry points and the per-insn reference
// stratum share the block's instruction numbering.
struct MicroOp {
  UOp op = UOp::kNop;
  AddrMode mode = AddrMode::kAbs;
  std::uint8_t a = 0;      // dst / r1 register-file slot
  std::uint8_t b = 0;      // src / r2 register-file slot
  std::uint8_t cc = 0;     // Cond, for kJcc/kCmov/kSetcc
  std::uint8_t size = 0;   // residual dynamic size (kMovzx/kMovsx only)
  std::uint8_t base = 0;   // addressing base slot
  std::uint8_t index = 0;  // addressing index slot
  std::uint8_t scale = 0;  // log2 addressing scale
  std::uint8_t len = 0;    // encoded length (pc = next_pc - len)
  std::int64_t imm = 0;    // immediate / folded absolute branch target
  std::int64_t disp = 0;   // addressing displacement, rip folded in
  std::uint64_t next_pc = 0;  // absolute fallthrough address
};

// Lowers `insn`, whose first byte sits at absolute address `pc` and
// whose encoding is `len` bytes long. Total function: every decodable
// instruction lowers (malformed op bytes never reach here -- the block
// decoder rejects them -- but a defensive kBadOp mirrors exec()'s
// "bad opcode" fault).
MicroOp lower(const Insn& insn, std::uint64_t pc, std::uint8_t len);

}  // namespace raindrop::isa
