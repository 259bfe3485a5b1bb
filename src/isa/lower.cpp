#include "isa/lower.hpp"

namespace raindrop::isa {

namespace {

// Classifies a MemRef into an AddrMode recipe. rip-relative operands
// fold into kAbs: superblocks are keyed by absolute start address and
// never relocated, and the decoder rejects rip_rel combined with
// base/index, so disp + insn_end is a lower-time constant.
void fill_addr(MicroOp& u, const MemRef& m) {
  if (m.rip_rel) {
    u.mode = AddrMode::kAbs;
    u.disp = static_cast<std::int64_t>(static_cast<std::uint64_t>(m.disp) +
                                       u.next_pc);
    return;
  }
  u.disp = m.disp;
  u.base = static_cast<std::uint8_t>(m.base);
  u.index = static_cast<std::uint8_t>(m.index);
  u.scale = m.scale_log2;
  if (m.has_base)
    u.mode = m.has_index ? AddrMode::kBaseIndex : AddrMode::kBase;
  else
    u.mode = m.has_index ? AddrMode::kIndex : AddrMode::kAbs;
}

}  // namespace

MicroOp lower(const Insn& i, std::uint64_t pc, std::uint8_t len) {
  MicroOp u;
  u.len = len;
  u.next_pc = pc + len;
  u.a = static_cast<std::uint8_t>(i.r1);
  u.b = static_cast<std::uint8_t>(i.r2);
  u.cc = static_cast<std::uint8_t>(i.cc);
  u.imm = i.imm;
  switch (i.op) {
    case Op::NOP: u.op = UOp::kNop; break;
    case Op::HLT: u.op = UOp::kHlt; break;
    case Op::UD: u.op = UOp::kUd; break;
    case Op::TRACE: u.op = UOp::kTrace; break;

    case Op::MOV_RR: u.op = UOp::kMovRR; break;
    case Op::MOV_RI64:
    case Op::MOV_RI32:  // imm already sign-extended by decode
      u.op = UOp::kMovRI;
      break;
    case Op::LEA:
      u.op = UOp::kLea;
      fill_addr(u, i.mem);
      break;
    case Op::LOAD:
      switch (i.size) {
        case 1: u.op = UOp::kLoad1; break;
        case 2: u.op = UOp::kLoad2; break;
        case 4: u.op = UOp::kLoad4; break;
        default: u.op = UOp::kLoad8; break;
      }
      fill_addr(u, i.mem);
      break;
    case Op::LOADS:
      switch (i.size) {
        case 1: u.op = UOp::kLoads1; break;
        case 2: u.op = UOp::kLoads2; break;
        default: u.op = UOp::kLoads4; break;
      }
      fill_addr(u, i.mem);
      break;
    case Op::STORE:
      switch (i.size) {
        case 1: u.op = UOp::kStore1; break;
        case 2: u.op = UOp::kStore2; break;
        case 4: u.op = UOp::kStore4; break;
        default: u.op = UOp::kStore8; break;
      }
      fill_addr(u, i.mem);
      break;
    case Op::XCHG_RR: u.op = UOp::kXchgRR; break;
    case Op::XCHG_RM:
      // Architecturally qword-only; encode() rejects any other width.
      u.op = UOp::kXchgM8;
      fill_addr(u, i.mem);
      break;

    case Op::PUSH_R: u.op = UOp::kPushR; break;
    case Op::POP_R: u.op = UOp::kPopR; break;
    case Op::PUSH_I32: u.op = UOp::kPushI; break;
    case Op::PUSHF: u.op = UOp::kPushF; break;
    case Op::POPF: u.op = UOp::kPopF; break;

    case Op::ADD_RR: u.op = UOp::kAddRR; break;
    case Op::ADD_RI: u.op = UOp::kAddRI; break;
    case Op::ADD_RM:
      u.op = UOp::kAddRM8;  // qword-only, like XCHG_RM
      fill_addr(u, i.mem);
      break;
    case Op::ADC_RR: u.op = UOp::kAdcRR; break;
    case Op::SUB_RR: u.op = UOp::kSubRR; break;
    case Op::SUB_RI: u.op = UOp::kSubRI; break;
    case Op::SBB_RR: u.op = UOp::kSbbRR; break;
    case Op::CMP_RR: u.op = UOp::kCmpRR; break;
    case Op::CMP_RI: u.op = UOp::kCmpRI; break;
    case Op::AND_RR: u.op = UOp::kAndRR; break;
    case Op::AND_RI: u.op = UOp::kAndRI; break;
    case Op::OR_RR: u.op = UOp::kOrRR; break;
    case Op::OR_RI: u.op = UOp::kOrRI; break;
    case Op::XOR_RR: u.op = UOp::kXorRR; break;
    case Op::XOR_RI: u.op = UOp::kXorRI; break;
    case Op::TEST_RR: u.op = UOp::kTestRR; break;
    case Op::TEST_RI: u.op = UOp::kTestRI; break;
    case Op::IMUL_RR: u.op = UOp::kImulRR; break;
    case Op::IMUL_RI: u.op = UOp::kImulRI; break;
    case Op::UDIV_RR: u.op = UOp::kUdivRR; break;
    case Op::UREM_RR: u.op = UOp::kUremRR; break;
    case Op::SHL_RR: u.op = UOp::kShlRR; break;
    case Op::SHR_RR: u.op = UOp::kShrRR; break;
    case Op::SAR_RR: u.op = UOp::kSarRR; break;
    case Op::SHL_RI:
    case Op::SHR_RI:
    case Op::SAR_RI: {
      // The dynamic count mask folds here. Count 0 is flag-behaviour
      // only and identical across all three shifts.
      unsigned c = static_cast<unsigned>(i.imm) & 63;
      if (c == 0) {
        u.op = UOp::kShiftRI0;
      } else {
        u.op = i.op == Op::SHL_RI   ? UOp::kShlRI
               : i.op == Op::SHR_RI ? UOp::kShrRI
                                    : UOp::kSarRI;
        u.imm = static_cast<std::int64_t>(c);
      }
      break;
    }
    case Op::ADD_MI:
      u.op = UOp::kAddM8I;
      fill_addr(u, i.mem);
      break;
    case Op::SUB_MI:
      u.op = UOp::kSubM8I;
      fill_addr(u, i.mem);
      break;

    case Op::NEG_R: u.op = UOp::kNegR; break;
    case Op::NOT_R: u.op = UOp::kNotR; break;
    case Op::INC_R: u.op = UOp::kIncR; break;
    case Op::DEC_R: u.op = UOp::kDecR; break;

    case Op::MOVZX:
      u.op = UOp::kMovzx;
      u.size = i.size;
      break;
    case Op::MOVSX:
      u.op = UOp::kMovsx;
      u.size = i.size;
      break;
    case Op::CMOV: u.op = UOp::kCmov; break;
    case Op::SETCC: u.op = UOp::kSetcc; break;
    case Op::RDFLAGS: u.op = UOp::kRdFlags; break;
    case Op::WRFLAGS: u.op = UOp::kWrFlags; break;

    case Op::JMP_REL:
      u.op = UOp::kJmp;
      u.imm = static_cast<std::int64_t>(u.next_pc +
                                        static_cast<std::uint64_t>(i.imm));
      break;
    case Op::JCC_REL:
      u.op = UOp::kJcc;
      u.imm = static_cast<std::int64_t>(u.next_pc +
                                        static_cast<std::uint64_t>(i.imm));
      break;
    case Op::JMP_R: u.op = UOp::kJmpR; break;
    case Op::JMP_M:
      u.op = UOp::kJmpM8;
      fill_addr(u, i.mem);
      break;
    case Op::CALL_REL:
      u.op = UOp::kCall;
      u.imm = static_cast<std::int64_t>(u.next_pc +
                                        static_cast<std::uint64_t>(i.imm));
      break;
    case Op::CALL_R: u.op = UOp::kCallR; break;
    case Op::RET: u.op = UOp::kRet; break;

    case Op::kCount:
      u.op = UOp::kBadOp;
      break;
  }
  return u;
}

}  // namespace raindrop::isa
