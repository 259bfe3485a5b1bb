// The ROP rewriter facade: the paper's primary contribution (§IV, §V).
// Takes compiled functions in an Image and re-encodes them as
// self-contained ROP chains embedded in a data section, replacing the
// function body with a pivoting stub. Optionally strengthens chains with
// the P1/P2/P3 predicates and gadget confusion.
//
// Since the two-phase refactor this is a thin single-function facade over
// engine::ObfuscationEngine; batch/parallel callers should use the engine
// directly (engine.obfuscate_module(names, threads)), and long-lived
// multi-module callers the streaming engine::ObfuscationService
// (engine/service.hpp). All three front doors run the same three
// pipeline stages (craft_module / resolve_module / materialize_module)
// -- one execution path, so a function rewritten here is byte-identical
// to the same function rewritten through a streamed session
// (DESIGN.md §8).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "engine/engine.hpp"
#include "rop/types.hpp"

namespace raindrop::rop {

class Rewriter {
 public:
  // `cache` as in ObfuscationEngine: nullptr shares the process-wide
  // content-addressed analysis cache.
  Rewriter(Image* img, const ObfConfig& cfg,
           std::shared_ptr<analysis::AnalysisCache> cache = nullptr)
      : engine_(img, cfg, std::move(cache)) {}

  // Rewrites one function in place: emits the chain into .ropdata,
  // patches the body with a pivot stub, plants artificial gadgets in
  // .text. Idempotence: rewriting an already-rewritten function fails.
  RewriteResult rewrite_function(const std::string& name) {
    return engine_.rewrite_function(name);
  }

  // Aggregate gadget statistics across all chains so far (Table III).
  using Aggregate = engine::ObfuscationEngine::Aggregate;
  Aggregate aggregate() const { return engine_.aggregate(); }

  std::uint64_t ss_addr() const { return engine_.ss_addr(); }
  std::uint64_t funcret_gadget() const { return engine_.funcret_gadget(); }
  gadgets::GadgetPool& pool() { return engine_.pool(); }
  const ObfConfig& config() const { return engine_.config(); }
  engine::ObfuscationEngine& engine() { return engine_; }

  // Size in bytes of the pivoting stub (functions shorter than this
  // cannot be rewritten; the coverage bench reports them separately).
  static std::size_t pivot_stub_size() {
    return engine::ObfuscationEngine::pivot_stub_size();
  }

 private:
  engine::ObfuscationEngine engine_;
};

}  // namespace raindrop::rop
