// store_fixture: writes a damaged segment store for the store_inspect
// smoke tests registered in CMakeLists.txt.
//
//   store_fixture <dir>
//
// <dir> is emptied, then gets three analysis records and one craft-memo
// record. The second analysis record has its last payload byte flipped
// (framed, but its digest fails), and the craft-memo segment ends in a
// torn tail (a copy of its record's header plus half the payload). So
// `store_inspect <dir> verify` must exit 1, and after
// `store_inspect <dir> prune` it must exit 0.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/store.hpp"

using raindrop::store::ArtifactStore;
using raindrop::store::Kind;

namespace {

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> p(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<std::uint8_t>(i * 29 + 3);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    ArtifactStore st(dir, /*async_spill=*/false);
    for (std::uint64_t k = 1; k <= 3; ++k)
      st.put(Kind::kAnalysis, k, payload(64 * k));
    st.put(Kind::kCraftMemo, 9, payload(100));
  }
  const std::vector<ArtifactStore::EntryInfo> recs =
      ArtifactStore::scan(dir, /*verify=*/true);
  if (recs.size() != 4) {
    std::fprintf(stderr, "store_fixture: expected 4 records, got %zu\n",
                 recs.size());
    return 1;
  }

  const ArtifactStore::EntryInfo& rot = recs[1];  // analysis key 2
  {
    std::fstream f(rot.segment, std::ios::binary | std::ios::in | std::ios::out);
    const auto at =
        static_cast<std::streamoff>(rot.offset + 40 + rot.payload_size - 1);
    char c = 0;
    f.seekg(at);
    f.get(c);
    f.seekp(at);
    f.put(static_cast<char>(c ^ 0x01));
  }

  const ArtifactStore::EntryInfo& memo = recs[3];
  std::vector<char> head(40 + memo.payload_size / 2);
  {
    std::ifstream in(memo.segment, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(memo.offset));
    in.read(head.data(), static_cast<std::streamsize>(head.size()));
  }
  std::ofstream(memo.segment, std::ios::binary | std::ios::app)
      .write(head.data(), static_cast<std::streamsize>(head.size()));
  return 0;
}
