// Byte encoding of MiniX86. Variable-length: 1 to 10 bytes per
// instruction. The encoding is deliberately *not* self-synchronising so
// that decoding the same bytes at different offsets yields different
// instruction streams -- the property gadget confusion (§V-D) exploits.
//
// Layout: [opcode u8] [operands...] where the operand layout is fixed per
// opcode signature:
//   R      : reg u8
//   RR     : (r1<<4 | r2) u8
//   RI64   : reg u8, imm s64 LE
//   RI32   : reg u8, imm s32 LE
//   I32    : imm s32 LE
//   RM     : reg u8, mem
//   RMS    : reg u8, mem, size u8
//   RRS    : (r1<<4|r2) u8, size u8
//   M      : mem
//   MI32   : mem, imm s32 LE
//   CCRR   : cc u8, (r1<<4|r2) u8
//   CCR    : cc u8, reg u8
//   REL32  : rel s32 LE (relative to end of instruction)
//   CCREL32: cc u8, rel s32 LE
//   NONE   : (nothing)
// mem encoding (6 bytes): flags u8 (bit0 has_base, bit1 has_index,
//   bits2-3 scale_log2, bit4 rip_rel), (base<<4 | index) u8, disp s32 LE.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "isa/insn.hpp"

namespace raindrop::isa {

enum class Sig {
  NONE, R, RR, RI64, RI32, I32, RM, RMS, RRS, M, MI32, CCRR, CCR,
  REL32, CCREL32,
};

Sig sig_of(Op op);

// Appends the encoding of `insn` to `out`. Returns the encoded length.
// Fails (returns 0) if an immediate/displacement does not fit its field.
std::size_t encode(const Insn& insn, std::vector<std::uint8_t>& out);

std::vector<std::uint8_t> encode_one(const Insn& insn);

// Length the instruction will occupy once encoded (0 if not encodable).
std::size_t encoded_length(const Insn& insn);

struct Decoded {
  Insn insn;
  std::size_t length = 0;
};

// Decodes one instruction from `bytes`. Returns nullopt on any malformed
// byte (unknown opcode, bad cc/size field, truncated operand). Robust
// against arbitrary input: this is what the harvest scan and the
// ROP-aware attacks run over raw memory.
std::optional<Decoded> decode(std::span<const std::uint8_t> bytes);

// Decodes one instruction into caller-owned storage, avoiding the
// optional wrapper on hot paths (the CPU's superblock builder decodes
// straight into preallocated block slots). `*out` is unspecified on
// failure. Returns false on any malformed byte, exactly like decode().
bool decode_into(std::span<const std::uint8_t> bytes, Decoded* out);

}  // namespace raindrop::isa
