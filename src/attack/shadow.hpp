// Concolic shadow execution: runs the CPU concretely while maintaining
// symbolic expressions for everything derived from the marked input --
// the core of the DSE engine (S2E stand-in) and the trace source for
// TDS. Symbolic-address dereferences are either concretized (recording a
// flippable address constraint, S2E's default) or expanded with a
// windowed theory-of-arrays select (the page-ToA model of §VII-C3).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cpu/cpu.hpp"
#include "solver/expr.hpp"

namespace raindrop {
struct LoadedImage;
}

namespace raindrop::attack {

struct BranchEvent {
  std::uint64_t pc = 0;
  solver::ExprRef cond = solver::kNoExpr;  // 0/1-valued
  bool taken = false;                      // concrete outcome
  bool address_pin = false;  // concretization constraint (rsp/pointer)
};

// One executed instruction, for TDS trace simplification.
struct TraceEntry {
  std::uint64_t addr = 0;
  isa::Insn insn;
  bool tainted = false;  // any input-derived operand involved
};

struct ShadowConfig {
  bool toa_memory = false;      // windowed theory-of-arrays loads
  int toa_window = 256;         // bytes around the concrete address
  std::uint64_t max_insns = 5'000'000;
  bool collect_trace = false;   // record TraceEntry stream (TDS)
};

struct ShadowResult {
  CpuStatus status = CpuStatus::kHalted;
  std::uint64_t rax = 0;
  solver::ExprRef rax_expr = solver::kNoExpr;  // symbolic return value
  std::uint64_t insns = 0;
  std::vector<std::int64_t> probes;
  std::vector<BranchEvent> branches;
  std::vector<TraceEntry> trace;
};

// Runs `fn_addr` with the first argument register holding `arg`, whose
// low `input_bytes` bytes are symbolic (solver vars 0..input_bytes-1).
// The shadow CPU clones the frozen LoadedImage (Image::load_shared) and
// imports its prewarmed CodeCache, so every concolic iteration over the
// same image starts warm.
ShadowResult shadow_run(solver::ExprPool* pool, const LoadedImage& li,
                        std::uint64_t fn_addr, std::uint64_t arg,
                        int input_bytes, const ShadowConfig& cfg);

}  // namespace raindrop::attack
