#include "rop/chain.hpp"

#include <stdexcept>

namespace raindrop::rop {

void Chain::resolve_gadget_refs(const std::vector<std::uint64_t>& addrs) {
  for (ChainItem& it : items_) {
    if (it.kind != ChainItem::Kind::GadgetRef) continue;
    if (it.gadget_req < 0 ||
        static_cast<std::size_t>(it.gadget_req) >= addrs.size())
      throw std::runtime_error("gadget request index out of range");
    it.kind = ChainItem::Kind::Gadget;
    it.gadget = addrs[static_cast<std::size_t>(it.gadget_req)];
    it.gadget_req = -1;
  }
}

Chain::Materialized Chain::materialize(
    std::uint64_t chain_base, std::span<const std::uint64_t> req_addrs)
    const {
  Materialized out;
  auto ref_addr = [&](int req) -> std::uint64_t {
    if (req < 0 || static_cast<std::size_t>(req) >= req_addrs.size())
      throw std::runtime_error("materialize() with unresolved GadgetRef");
    return req_addrs[static_cast<std::size_t>(req)];
  };
  // Pass 1: offsets.
  std::vector<std::uint64_t> item_off(items_.size());
  std::uint64_t off = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    item_off[i] = off;
    const ChainItem& it = items_[i];
    switch (it.kind) {
      case ChainItem::Kind::GadgetRef:
      case ChainItem::Kind::Gadget:
      case ChainItem::Kind::Imm:
      case ChainItem::Kind::Delta:
        off += 8;
        break;
      case ChainItem::Kind::Raw:
        off += it.raw.size();
        break;
      case ChainItem::Kind::Label:
        out.label_offsets[it.label] = off;
        break;
    }
  }
  auto label_pos = [&](int label) -> std::uint64_t {
    auto it = out.label_offsets.find(label);
    if (it == out.label_offsets.end())
      throw std::runtime_error("unbound chain label " +
                               std::to_string(label));
    return it->second;
  };

  // Pass 2: bytes.
  out.bytes.reserve(off);
  auto put64 = [&](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) out.bytes.push_back((v >> (8 * k)) & 0xff);
  };
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const ChainItem& it = items_[i];
    switch (it.kind) {
      case ChainItem::Kind::GadgetRef:
        put64(ref_addr(it.gadget_req));
        break;
      case ChainItem::Kind::Gadget:
        put64(it.gadget);
        break;
      case ChainItem::Kind::Imm:
        put64(static_cast<std::uint64_t>(it.imm));
        break;
      case ChainItem::Kind::Delta: {
        std::int64_t v;
        if (it.label_b == -1) {
          v = static_cast<std::int64_t>(chain_base + label_pos(it.label_a)) +
              it.addend;
        } else {
          v = static_cast<std::int64_t>(label_pos(it.label_a)) -
              static_cast<std::int64_t>(label_pos(it.label_b)) + it.addend;
        }
        put64(static_cast<std::uint64_t>(v));
        break;
      }
      case ChainItem::Kind::Raw:
        out.bytes.insert(out.bytes.end(), it.raw.begin(), it.raw.end());
        break;
      case ChainItem::Kind::Label:
        break;
    }
  }

  for (const ExternalPatch& p : patches_) {
    std::int64_t v = static_cast<std::int64_t>(label_pos(p.label_a)) -
                     static_cast<std::int64_t>(label_pos(p.label_b));
    if (v < INT32_MIN || v > INT32_MAX)
      throw std::runtime_error("switch displacement overflow");
    out.patches.push_back({p.text_addr, static_cast<std::int32_t>(v)});
  }
  return out;
}

std::size_t Chain::gadget_slots() const {
  std::size_t n = 0;
  for (const auto& it : items_)
    if (it.kind == ChainItem::Kind::Gadget ||
        it.kind == ChainItem::Kind::GadgetRef)
      ++n;
  return n;
}

std::vector<std::uint64_t> Chain::gadget_addrs(
    std::span<const std::uint64_t> req_addrs) const {
  std::vector<std::uint64_t> v;
  v.reserve(items_.size() / 2);
  for (const auto& it : items_) {
    if (it.kind == ChainItem::Kind::Gadget) {
      v.push_back(it.gadget);
    } else if (it.kind == ChainItem::Kind::GadgetRef) {
      // Same contract as materialize(): an unmapped ref is an engine
      // bug -- throwing beats silently undercounting Table III stats.
      if (it.gadget_req < 0 ||
          static_cast<std::size_t>(it.gadget_req) >= req_addrs.size())
        throw std::runtime_error("gadget_addrs() with unresolved GadgetRef");
      v.push_back(req_addrs[static_cast<std::size_t>(it.gadget_req)]);
    }
  }
  return v;
}

}  // namespace raindrop::rop
