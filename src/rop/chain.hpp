// Chain model: the symbolic form of a ROP payload while it is being
// crafted (§IV-B2), before materialization (§IV-B3) fixes the layout and
// turns labels into concrete RSP-relative displacements.
//
// A chain is a byte-addressed sequence of items:
//   Gadget   - 8-byte gadget address
//   Imm      - 8-byte immediate data operand (consumed by pop gadgets)
//   Delta    - 8-byte value resolved as pos(label_a) - pos(label_b) + addend
//              (branch displacements; label_b is the RSP anchor)
//   Raw      - arbitrary filler bytes (gadget confusion, §V-D: they shift
//              every later item off the 8-byte grid)
//   Label    - zero-size position marker
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace raindrop::rop {

struct ChainItem {
  // GadgetRef is the relocatable form of Gadget used by the pure craft
  // phase: it indexes into the artifact's GadgetRequest list and is
  // rewritten into a concrete Gadget address by resolve_gadget_refs()
  // when the engine commits the function.
  enum class Kind { Gadget, GadgetRef, Imm, Delta, Raw, Label };
  Kind kind = Kind::Imm;
  std::uint64_t gadget = 0;          // Kind::Gadget
  int gadget_req = -1;               // Kind::GadgetRef (request index)
  std::int64_t imm = 0;              // Kind::Imm
  int label_a = -1, label_b = -1;    // Kind::Delta
  std::int64_t addend = 0;           // Kind::Delta
  std::vector<std::uint8_t> raw;     // Kind::Raw
  int label = -1;                    // Kind::Label
};

// A patch the materializer applies outside the chain: write
// int32(pos(label_a) - pos(label_b)) at `text_addr` (used by the switch
// lowering that stores chain displacements at original case addresses,
// Appendix A).
struct ExternalPatch {
  std::uint64_t text_addr = 0;
  int label_a = -1;
  int label_b = -1;
};

class Chain {
 public:
  int new_label() { return n_labels_++; }

  // Reassembles a chain from its observable parts -- the inverse of
  // items()/patches()/label_count(), used by the artifact store's
  // deserialization path (a craft memo read back from disk must carry a
  // chain indistinguishable from the freshly crafted one).
  static Chain from_parts(std::vector<ChainItem> items,
                          std::vector<ExternalPatch> patches,
                          int label_count) {
    Chain c;
    c.items_ = std::move(items);
    c.patches_ = std::move(patches);
    c.n_labels_ = label_count;
    return c;
  }

  void g(std::uint64_t gadget_addr) {
    ChainItem it;
    it.kind = ChainItem::Kind::Gadget;
    it.gadget = gadget_addr;
    items_.push_back(it);
  }
  void gref(int request_index) {
    ChainItem it;
    it.kind = ChainItem::Kind::GadgetRef;
    it.gadget_req = request_index;
    items_.push_back(it);
  }
  void imm(std::int64_t v) {
    ChainItem it;
    it.kind = ChainItem::Kind::Imm;
    it.imm = v;
    items_.push_back(it);
  }
  void delta(int label_a, int label_b, std::int64_t addend = 0) {
    ChainItem it;
    it.kind = ChainItem::Kind::Delta;
    it.label_a = label_a;
    it.label_b = label_b;
    it.addend = addend;
    items_.push_back(it);
  }
  // Absolute chain position: chain_base + pos(label_a). Used by the
  // flag-preserving `pop rsp` jump (an rsp-add would clobber live flags).
  void abs_pos(int label_a) {
    ChainItem it;
    it.kind = ChainItem::Kind::Delta;
    it.label_a = label_a;
    it.label_b = -1;  // -1 marks "relative to the chain base"
    items_.push_back(it);
  }
  void raw(std::vector<std::uint8_t> bytes) {
    ChainItem it;
    it.kind = ChainItem::Kind::Raw;
    it.raw = std::move(bytes);
    items_.push_back(it);
  }
  void bind(int label) {
    ChainItem it;
    it.kind = ChainItem::Kind::Label;
    it.label = label;
    items_.push_back(it);
  }

  void add_patch(std::uint64_t text_addr, int label_a, int label_b) {
    patches_.push_back(ExternalPatch{text_addr, label_a, label_b});
  }

  const std::vector<ChainItem>& items() const { return items_; }
  const std::vector<ExternalPatch>& patches() const { return patches_; }
  int label_count() const { return n_labels_; }

  // Transactional emission support: predicates with register-pressure
  // preconditions snapshot the item count and roll back on failure so no
  // partial sequence survives in the chain.
  std::size_t size() const { return items_.size(); }
  void truncate(std::size_t n) { items_.resize(n); }

  struct Materialized {
    std::vector<std::uint8_t> bytes;
    std::map<int, std::uint64_t> label_offsets;  // label -> byte offset
    // (text_addr, int32 value) pairs for the image to apply.
    std::vector<std::pair<std::uint64_t, std::int32_t>> patches;
  };

  // Rewrites every GadgetRef item into a concrete Gadget using
  // request-index -> address mapping `addrs` (commit phase). Throws on an
  // out-of-range index.
  void resolve_gadget_refs(const std::vector<std::uint64_t>& addrs);

  // Lays out the chain and resolves every Delta. `chain_base` is the
  // address the chain will be embedded at (needed by absolute items).
  // `req_addrs` maps GadgetRef request indices to resolved addresses, so
  // a const (possibly cached and shared) relocatable chain materializes
  // without being rewritten in place; with it empty, GadgetRef items are
  // an error. Throws on unbound labels, unresolved GadgetRefs, or
  // displacement overflow (programming errors in the crafter / engine).
  Materialized materialize(std::uint64_t chain_base = 0,
                           std::span<const std::uint64_t> req_addrs = {})
      const;

  // Statistics for Table III; `req_addrs` as in materialize().
  std::size_t gadget_slots() const;  // A contribution
  // Every gadget slot's address, in chain order (B counts the distinct
  // ones).
  std::vector<std::uint64_t> gadget_addrs(
      std::span<const std::uint64_t> req_addrs = {}) const;

 private:
  std::vector<ChainItem> items_;
  std::vector<ExternalPatch> patches_;
  int n_labels_ = 0;
};

}  // namespace raindrop::rop
