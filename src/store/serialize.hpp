// Shared domain serializers for the artifact store (DESIGN.md §13):
// the byte encodings of the value types that appear inside more than
// one record kind (instructions, register sets, chains, P1 arrays),
// plus the whole-module record helpers. Per-kind record layouts live
// with their owning types -- AnalysisCache entries in analysis/cache.cpp
// (they cover private dependency records), craft memos in
// engine/engine.cpp, harvest layers in gadgets/catalog.cpp -- all built
// from these primitives so the encodings cannot drift apart.
//
// Every read_* validates enum ranges and throws binio::Error on
// malformed input: a corrupted payload that beat the store's record
// digest (or a stale-format file) must parse-fail recoverably, never
// construct an out-of-range value.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/liveness.hpp"
#include "image/image.hpp"
#include "isa/insn.hpp"
#include "rop/chain.hpp"
#include "rop/predicates.hpp"
#include "rop/types.hpp"
#include "store/store.hpp"
#include "support/binio.hpp"

namespace raindrop::store {

void write_insn(binio::Writer& w, const isa::Insn& insn);
isa::Insn read_insn(binio::Reader& r);

void write_regset(binio::Writer& w, analysis::RegSet rs);
analysis::RegSet read_regset(binio::Reader& r);

void write_chain(binio::Writer& w, const rop::Chain& chain);
rop::Chain read_chain(binio::Reader& r);

void write_p1(binio::Writer& w, const rop::P1Array& p1);
rop::P1Array read_p1(binio::Reader& r);

// Lossless Image encoding (sections + symbols + objects). Throws
// binio::Error on malformed payloads.
std::vector<std::uint8_t> serialize_image(const Image& img);
Image deserialize_image(std::span<const std::uint8_t> payload);

// Whole-module records (Kind::kModule): the rewritten Image plus the
// batch's per-function RewriteResults and module-wide gadget statistics,
// so obfuscated modules are durable artifacts a later process reloads
// and executes byte-for-byte, and a record hit reports exactly what the
// build that spilled it reported (results and engine aggregate alike).
struct ModuleRecord {
  Image img;
  std::vector<rop::RewriteResult> results;  // parallel to the batch names
  std::uint64_t program_points = 0;         // summed over the batch
  std::vector<std::uint64_t> gadget_addrs;  // every chain's gadget slots
};

// Store round-trip helpers: put_module spills synchronously-queued like
// any record; get_module returns nullopt on miss or corruption (the
// store evicts the record; parse failures evict here). `evicted`, when
// given, is set to whether this call evicted the record.
void put_module(ArtifactStore& st, std::uint64_t key, const Image& img,
                std::span<const rop::RewriteResult> results,
                std::uint64_t program_points,
                std::span<const std::uint64_t> gadget_addrs);
std::optional<ModuleRecord> get_module(ArtifactStore& st, std::uint64_t key,
                                       bool* evicted = nullptr);

}  // namespace raindrop::store
