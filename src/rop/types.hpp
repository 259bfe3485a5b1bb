// Slim public types shared by the chain-crafting stage and the batch
// ObfuscationEngine: the obfuscation configuration (Table I's ROPk
// family), the failure taxonomy of the coverage study (§VII-C1), and the
// per-function rewrite statistics (Table III).
#pragma once

#include <cstdint>
#include <string>

namespace raindrop::rop {

// Obfuscation configuration (Table I's ROPk family).
struct ObfConfig {
  std::uint64_t seed = 1;

  // P1: anti-disassembly via the periodic opaque array (§V-A).
  bool p1 = false;
  int p1_n = 4;             // branch slots
  int p1_s = 4;             // period length (s >= n; s-n garbage cells)
  int p1_p = 32;            // repetitions (power of two: f(x) masks with p-1)
  std::uint64_t p1_m = 7;   // modulus (m > n)

  // P2: data-dependent RSP updates that derail brute-force flips (§V-B).
  bool p2 = false;
  int p2_x_max = 4;         // derail stride multiplier upper bound

  // P3: state-space widening (§V-C). Fraction k of eligible program
  // points; variant 1 = FOR loops, 2 = opaque array updates, 3 = mixed.
  double p3_fraction = 0.0;
  int p3_variant = 1;
  std::uint64_t p3_iter_mask = 0xff;  // loop count mask (paper: one byte)

  // Gadget confusion (§V-D): disguised immediates + unaligned RSP bumps.
  bool gadget_confusion = false;
  double confusion_bump_prob = 0.15;

  // Register allocation (§IV-C): spilling slots available per sequence.
  int max_spill_slots = 1;
  bool read_only_chain = false;  // spill slots in .data instead of chain area

  int gadget_variants = 4;       // diversification budget per gadget core
  bool shuffle_blocks = false;   // §IV-B3: optionally rearrange blocks
};

// Named configurations from Table I.
ObfConfig rop_k(double k, std::uint64_t seed = 1);

enum class RewriteFailure {
  None,
  TooShort,          // body smaller than the pivoting stub (§VII-C1: 119)
  CfgIncomplete,     // CFG reconstruction failed (§VII-C1: 1)
  UnsupportedInsn,   // push rsp / push [rsp+imm] style (§VII-C1: 19)
  RegisterPressure,  // spilling budget exhausted (§VII-C1: 40)
};
const char* failure_name(RewriteFailure f);

struct RewriteStats {
  std::size_t program_points = 0;   // N in Table III
  std::size_t gadget_slots = 0;     // A
  std::size_t unique_gadgets = 0;   // B (per-function; the engine also
                                    // aggregates across chains)
  double gadgets_per_point = 0.0;   // C
  std::size_t chain_bytes = 0;
};

struct RewriteResult {
  bool ok = false;
  RewriteFailure failure = RewriteFailure::None;
  std::string detail;
  RewriteStats stats;
  std::uint64_t chain_addr = 0;
  std::uint64_t chain_size = 0;
};

}  // namespace raindrop::rop
