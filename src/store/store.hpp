// ArtifactStore: the persistent, content-addressed second tier of the
// pipeline's caches (DESIGN.md §13). The in-memory AnalysisCache already
// content-addresses every expensive artifact -- support analyses, whole
// craft memos, harvest layers -- on hashes of the bytes they were
// computed from; this store spills those artifacts to disk under the
// SAME keys, so a fresh process (a restarted service, the next CI sweep,
// a sibling worker sharing the directory) starts warm instead of
// recomputing everything. Whole obfuscated-module images round-trip
// through the same records (Kind::kModule), making rewritten modules
// durable, reloadable artifacts.
//
// Layout: a log-structured store (the Bitcask design, Sheehy & Smith
// 2010). Each kind has a directory <dir>/<kind>/ of append-only segment
// files, <number %08u>.seg. A segment is records back to back; each
// record is a fixed 40-byte header (magic, format version, kind, key,
// payload size, payload FNV-1a digest) followed by the payload bytes.
// Opening a store hops the headers of every segment with pread(2),
// oldest segment first, and builds an in-memory index key -> (segment,
// offset, size, digest); a later copy of a key wins. get() is one
// pread(2) of the payload plus the digest check.
//
// Writers: every store instance appends only to its own segment,
// created lazily with O_EXCL on its first put() and held under an
// exclusive flock(2) for the instance's lifetime, so segments never
// have two writers and a live writer is visible to other processes.
//
// Crash consistency: a crash mid-append leaves a torn tail -- a record
// whose header or payload runs past the end of the file, or a header
// that does not parse. Open stops framing there and truncates the tail
// unless a live writer holds the segment (then the tail is an append in
// flight). A record that is framed but lies about its contents (the
// "store.write.torn" / "store.read.corrupt" fault sites, or real disk
// rot) fails the digest check on read: it leaves the index, is counted
// as a corrupt eviction, and the caller recomputes -- corruption is
// never fatal and never alters output bytes (the recompute is
// content-equal by construction, and its put() appends a later copy).
//
// Writes are asynchronous by default: put() enqueues onto one background
// spiller thread (bounded queue; overflow degrades to a synchronous
// append in the caller) so the craft hot path never waits on disk.
// flush() drains the queue -- call it before handing the directory to
// another process. A key already in the index is skipped: same key
// means same content, so rewrites are wasted IO.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace raindrop::store {

// Bump when the record header or any kind's payload encoding changes:
// old stores read as misses (format_version mismatch), never as garbage.
inline constexpr std::uint32_t kStoreFormatVersion = 1;

enum class Kind : std::uint32_t {
  kAnalysis = 1,      // AnalysisCache entry (artifacts + dependency facts)
  kCraftMemo = 2,     // whole CraftArtifact (engine craft memo)
  kHarvest = 3,       // HarvestLayer (gadget-finder scan result)
  kModule = 4,        // whole obfuscated Image
  kResolvedPlan = 5,  // phase-2a ResolvedPlan (gadget-request planning)
};
const char* kind_name(Kind k);

class ArtifactStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t spills = 0;             // records actually appended
    std::uint64_t corrupt_evictions = 0;  // bad records dropped from the index
    double hit_rate() const {
      std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };

  // Opens (creating if needed) the store rooted at `dir` and indexes its
  // segments, truncating torn tails no live writer holds. `async_spill`
  // starts the background writer; false makes put() synchronous (the
  // inspector and deterministic tests use that).
  explicit ArtifactStore(std::string dir, bool async_spill = true);
  // Flushes pending spills, joins the writer and releases the segments.
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  // Reads the record (kind, key). Returns the payload on a clean hit;
  // nullopt on a miss OR on a short read / digest mismatch (the corrupt
  // record leaves the index and is counted -- the caller recomputes).
  std::optional<std::vector<std::uint8_t>> get(Kind kind, std::uint64_t key);

  // Appends the record (kind, key) -> payload to this instance's
  // segment. Asynchronous when the spiller is running; a key already in
  // the index is skipped (content-addressed: same key, same bytes).
  void put(Kind kind, std::uint64_t key, std::vector<std::uint8_t> payload);

  // Drops one record from the index; used by owners whose post-parse
  // validation (artifact integrity digest, dependency revalidation)
  // rejected a record the container-level digest could not catch. Its
  // bytes stay in the segment until a later put() supersedes them or
  // prune() compacts them away. Returns whether it was indexed; counted
  // as a corrupt eviction.
  bool evict(Kind kind, std::uint64_t key);

  // Blocks until every put() enqueued so far has landed on disk.
  void flush();

  Stats stats() const;
  const std::string& dir() const { return dir_; }

  // -- Offline surface (tools/store_inspect) ---------------------------
  struct EntryInfo {
    Kind kind = Kind::kAnalysis;
    std::uint64_t key = 0;
    // Payload bytes; for an unframed tail, the tail's length.
    std::uint64_t payload_size = 0;
    bool valid = false;  // framed (and, with verify, digest checks pass)
    std::string segment;      // segment file path
    std::uint64_t offset = 0;  // record (header) start within the segment
  };
  // Lists every record of every segment under `dir`, superseded copies
  // included, in kind / segment / offset order (no store instance
  // needed). A torn tail is one invalid entry, unless a live writer holds
  // the segment. With `verify`, payloads are read and digest-checked.
  // Files that are not segments (old-layout `<key>.art` records) are
  // ignored.
  static std::vector<EntryInfo> scan(const std::string& dir, bool verify);
  // Compaction plus retention, over the segments no live writer holds.
  // Compaction: every segment holding a dead byte (a corrupt or
  // superseded record, a torn tail) has its live records -- each key's
  // newest digest-valid copy -- copied into one fresh segment per kind
  // and is deleted; old-layout `<key>.art` files and `.tmp` leftovers are
  // deleted too. Retention then drops whole segments: those last used
  // (segment mtime; a store instance refreshes it on its first hit in
  // the segment, and appends refresh it) more than `max_age_s` ago, then
  // the least recently used until the segment bytes fit `max_bytes`.
  // Pass 0 to disable either bound. Returns how many records and stray
  // files were removed.
  static std::size_t prune(const std::string& dir, std::uint64_t max_bytes = 0,
                           std::uint64_t max_age_s = 0);

 private:
  struct Segment;  // an open segment file (store.cpp)
  // Where the indexed copy of a key lives.
  struct Loc {
    std::uint32_t seg = 0;     // index into Shelf::segs
    std::uint64_t offset = 0;  // payload start
    std::uint64_t size = 0;
    std::uint64_t digest = 0;  // from the header; checked on every get
  };
  // One kind's directory: its open segments and the key index over them.
  struct Shelf {
    std::string dir;
    std::vector<std::unique_ptr<Segment>> segs;       // guarded by mu_
    std::unordered_map<std::uint64_t, Loc> index;     // guarded by mu_
    // This instance's append segment, created on the first append; the
    // fields below are guarded by append_mu_.
    std::uint32_t own = kNoSegment;
    std::uint64_t own_end = 0;
    std::uint64_t next_number = 0;  // first segment number to try
  };
  static constexpr std::uint32_t kNoSegment = ~std::uint32_t{0};

  struct Pending {
    Kind kind;
    std::uint64_t key;
    std::vector<std::uint8_t> payload;
  };

  Shelf& shelf(Kind kind);
  void open_shelf(Kind kind);
  bool indexed(Kind kind, std::uint64_t key);
  // The synchronous append (header build, torn-write fault site, one
  // pwrite). Returns whether a new record landed.
  bool write_record(Kind kind, std::uint64_t key,
                    const std::vector<std::uint8_t>& payload);
  void spill_loop();

  std::string dir_;

  std::mutex mu_;  // every Shelf's segs and index; shelves_[kind - 1]
  std::array<Shelf, static_cast<std::size_t>(Kind::kResolvedPlan)> shelves_;
  std::mutex append_mu_;  // serializes appends

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::mutex qmu_;
  std::condition_variable qcv_;       // work available / stopping
  std::condition_variable drained_;   // queue empty and writer idle
  std::deque<Pending> queue_;
  std::size_t writing_ = 0;
  bool stop_ = false;
  bool async_ = false;
  std::thread spiller_;
};

}  // namespace raindrop::store
