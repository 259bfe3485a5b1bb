#include "rop/types.hpp"

namespace raindrop::rop {

ObfConfig rop_k(double k, std::uint64_t seed) {
  // Table I: "ROPk = ROP obfuscation with P3 inserted at a fraction k of
  // program points and with P1 instantiated with n=4, s=n, p=32".
  // P2 and gadget confusion are part of the full design (§V); the
  // DSE-focused resilience benches disable them explicitly (§VII-B).
  ObfConfig c;
  c.seed = seed;
  c.p1 = true;
  c.p1_n = 4;
  c.p1_s = 4;
  c.p1_p = 32;
  c.p1_m = 7;
  c.p2 = true;
  c.p3_fraction = k;
  c.p3_variant = 1;
  c.gadget_confusion = true;
  return c;
}

const char* failure_name(RewriteFailure f) {
  switch (f) {
    case RewriteFailure::None: return "none";
    case RewriteFailure::TooShort: return "too-short";
    case RewriteFailure::CfgIncomplete: return "cfg-incomplete";
    case RewriteFailure::UnsupportedInsn: return "unsupported-insn";
    case RewriteFailure::RegisterPressure: return "register-pressure";
  }
  return "?";
}

}  // namespace raindrop::rop
