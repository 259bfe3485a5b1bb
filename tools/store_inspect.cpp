// store_inspect: offline CLI over an ArtifactStore directory
// (DESIGN.md §13). Lists the records of every segment, verifies payload
// digests, or compacts and prunes segments -- without constructing a
// store instance. It is safe to point at a directory other processes
// are spilling into: a segment whose writer still holds its lock is
// only read, and its unframed tail is taken as an append in flight.
//
//   store_inspect <dir> [list|verify|prune [--max-bytes N] [--max-age-s N]]
//
//   list    frame every segment's records by their headers, print kind,
//           key, payload size, segment and offset (default)
//   verify  additionally read + digest-check payloads; exit 1 if any
//           record is invalid or a segment ends in a torn tail
//   prune   compact: copy each kind's live records (each key's newest
//           digest-valid copy) out of segments holding corrupt,
//           superseded or torn records into one fresh segment, delete
//           those segments and old-layout <key>.art files; with
//           --max-age-s, then delete segments last used more than N
//           seconds ago; with --max-bytes, then delete the least
//           recently used segments until the store fits N bytes. A
//           segment's last use is its mtime: appends refresh it, and a
//           store instance refreshes it on its first hit there.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "store/store.hpp"

using raindrop::store::ArtifactStore;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <store-dir> "
               "[list|verify|prune [--max-bytes N] [--max-age-s N]]\n",
               argv0);
  return 2;
}

int list_or_verify(const std::string& dir, bool verify) {
  auto entries = ArtifactStore::scan(dir, verify);
  std::size_t bad = 0;
  std::uint64_t bytes = 0;
  std::printf("%-12s %-16s %10s  %-7s %s @ %s\n", "KIND", "KEY", "PAYLOAD",
              "STATUS", "SEGMENT", "OFFSET");
  for (const auto& e : entries) {
    if (!e.valid) ++bad;
    bytes += e.payload_size;
    std::printf("%-12s %016" PRIx64 " %10" PRIu64 "  %-7s %s @ %" PRIu64 "\n",
                raindrop::store::kind_name(e.kind), e.key, e.payload_size,
                e.valid ? "ok" : "INVALID", e.segment.c_str(), e.offset);
  }
  std::printf("%zu record(s), %" PRIu64 " payload byte(s), %zu invalid%s\n",
              entries.size(), bytes, bad,
              verify ? " (digest-checked)" : "");
  return verify && bad ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string dir = argv[1];
  std::string cmd = argc >= 3 ? argv[2] : "list";
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "store_inspect: not a directory: %s\n", dir.c_str());
    return 2;
  }
  if (cmd == "list") return argc > 3 ? usage(argv[0]) : list_or_verify(dir, false);
  if (cmd == "verify") return argc > 3 ? usage(argv[0]) : list_or_verify(dir, true);
  if (cmd == "prune") {
    std::uint64_t max_bytes = 0, max_age_s = 0;
    for (int i = 3; i < argc; ++i) {
      char* end = nullptr;
      if (std::strcmp(argv[i], "--max-bytes") == 0 && i + 1 < argc)
        max_bytes = std::strtoull(argv[++i], &end, 10);
      else if (std::strcmp(argv[i], "--max-age-s") == 0 && i + 1 < argc)
        max_age_s = std::strtoull(argv[++i], &end, 10);
      else
        return usage(argv[0]);
      if (end == nullptr || *end != '\0') return usage(argv[0]);
    }
    std::size_t removed = ArtifactStore::prune(dir, max_bytes, max_age_s);
    std::printf("pruned %zu entr%s\n", removed, removed == 1 ? "y" : "ies");
    return 0;
  }
  return usage(argv[0]);
}
