#include "store/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <limits>
#include <utility>

#include "support/faultpoint.hpp"
#include "support/log.hpp"

namespace raindrop::store {

namespace fs = std::filesystem;

namespace {

// Record header: 40 bytes, little-endian, preceding the payload.
constexpr std::uint32_t kMagic = 0x53414452u;  // "RDAS"
constexpr std::size_t kHeaderSize = 40;

constexpr Kind kKinds[] = {Kind::kAnalysis, Kind::kCraftMemo, Kind::kHarvest,
                           Kind::kModule, Kind::kResolvedPlan};

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// An owned file descriptor, closed (releasing any flock) on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  ~Fd() { reset(); }
  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }

 private:
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
};

bool pread_all(int fd, std::uint8_t* buf, std::size_t n, std::uint64_t off) {
  while (n > 0) {
    ssize_t got = ::pread(fd, buf, n, static_cast<off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<std::size_t>(got);
    off += static_cast<std::uint64_t>(got);
  }
  return true;
}

bool pwrite_all(int fd, const std::uint8_t* buf, std::size_t n,
                std::uint64_t off) {
  while (n > 0) {
    ssize_t put = ::pwrite(fd, buf, n, static_cast<off_t>(off));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    buf += put;
    n -= static_cast<std::size_t>(put);
    off += static_cast<std::uint64_t>(put);
  }
  return true;
}

std::uint64_t file_size(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

struct Header {
  std::uint64_t key = 0;
  std::uint64_t size = 0;  // payload bytes
  std::uint64_t digest = 0;
};

std::vector<std::uint8_t> encode_record(Kind kind, std::uint64_t key,
                                        const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> rec(kHeaderSize + payload.size());
  put_u32(rec.data() + 0, kMagic);
  put_u32(rec.data() + 4, kStoreFormatVersion);
  put_u32(rec.data() + 8, static_cast<std::uint32_t>(kind));
  put_u32(rec.data() + 12, 0);  // reserved
  put_u64(rec.data() + 16, key);
  put_u64(rec.data() + 24, payload.size());
  put_u64(rec.data() + 32, fnv1a(payload.data(), payload.size()));
  std::copy(payload.begin(), payload.end(), rec.begin() + kHeaderSize);
  return rec;
}

// Walks the records of one `kind` segment from `from` up to `size`,
// calling visit(offset, header) for each framed record, and returns the
// offset where framing stops: `size` when the segment ends cleanly,
// earlier at a torn tail (a header that does not parse, or a record that
// runs past the end of the file).
template <class Visit>
std::uint64_t frame(int fd, Kind kind, std::uint64_t from, std::uint64_t size,
                    Visit&& visit) {
  std::uint64_t off = from;
  std::uint8_t h[kHeaderSize];
  while (off <= size && size - off >= kHeaderSize &&
         pread_all(fd, h, kHeaderSize, off)) {
    if (get_u32(h + 0) != kMagic || get_u32(h + 4) != kStoreFormatVersion ||
        get_u32(h + 8) != static_cast<std::uint32_t>(kind))
      break;
    Header hd{get_u64(h + 16), get_u64(h + 24), get_u64(h + 32)};
    if (hd.size > size - off - kHeaderSize) break;
    visit(off, hd);
    off += kHeaderSize + hd.size;
  }
  return off;
}

bool payload_valid(int fd, std::uint64_t record_off, const Header& hd) {
  std::vector<std::uint8_t> p(hd.size);
  return pread_all(fd, p.data(), p.size(), record_off + kHeaderSize) &&
         fnv1a(p.data(), p.size()) == hd.digest;
}

// Whether another open file description holds the segment's writer lock.
bool held_by_writer(int fd) {
  if (::flock(fd, LOCK_SH | LOCK_NB) != 0) return errno == EWOULDBLOCK;
  ::flock(fd, LOCK_UN);
  return false;
}

// The segments of one kind directory, in number (= creation) order.
std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const fs::path& kind_dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(kind_dir, ec)) {
    const fs::path& p = e.path();
    std::string stem = p.stem().string();
    if (p.extension() != ".seg" || stem.empty() || stem.size() > 19 ||
        !std::all_of(stem.begin(), stem.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
      continue;
    out.emplace_back(std::stoull(stem), p.string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Creates the first free segment number >= *number in `kind_dir` with
// O_EXCL and takes its exclusive writer lock. On return *number is one
// past the created segment.
Fd create_segment(const fs::path& kind_dir, std::uint64_t* number,
                  std::string* path) {
  for (;;) {
    char name[32];
    std::snprintf(name, sizeof(name), "%08llu.seg",
                  static_cast<unsigned long long>((*number)++));
    *path = (kind_dir / name).string();
    Fd fd(::open(path->c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644));
    if (!fd) {
      if (errno == EEXIST) continue;
      return Fd();
    }
    // Blocks only while a pruner holds the still-empty file; if it
    // deleted the file meanwhile, the path no longer names this inode.
    ::flock(fd.get(), LOCK_EX);
    struct stat mine {}, named {};
    if (::fstat(fd.get(), &mine) == 0 && ::stat(path->c_str(), &named) == 0 &&
        mine.st_ino == named.st_ino && mine.st_dev == named.st_dev)
      return fd;
  }
}

std::int64_t mtime_ns(int fd) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return 0;
  return static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         st.st_mtim.tv_nsec;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kAnalysis:
      return "analysis";
    case Kind::kCraftMemo:
      return "craftmemo";
    case Kind::kHarvest:
      return "harvest";
    case Kind::kModule:
      return "module";
    case Kind::kResolvedPlan:
      return "resolvedplan";
  }
  return "unknown";
}

struct ArtifactStore::Segment {
  Fd fd;
  // Set once this instance has refreshed the segment's mtime (the LRU
  // clock prune() reads): at most one futimens per segment per open.
  std::atomic<bool> touched{false};
};

ArtifactStore::ArtifactStore(std::string dir, bool async_spill)
    : dir_(std::move(dir)) {
  for (Kind k : kKinds) open_shelf(k);
  if (async_spill) {
    async_ = true;
    spiller_ = std::thread([this] { spill_loop(); });
  }
}

ArtifactStore::~ArtifactStore() {
  if (async_) {
    {
      std::lock_guard<std::mutex> lk(qmu_);
      stop_ = true;
    }
    qcv_.notify_all();
    spiller_.join();
  }
}

ArtifactStore::Shelf& ArtifactStore::shelf(Kind kind) {
  return shelves_.at(static_cast<std::size_t>(kind) - 1);
}

void ArtifactStore::open_shelf(Kind kind) {
  Shelf& s = shelf(kind);
  s.dir = (fs::path(dir_) / kind_name(kind)).string();
  std::error_code ec;
  fs::create_directories(s.dir, ec);
  for (const auto& [number, path] : list_segments(s.dir)) {
    s.next_number = number + 1;
    Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    if (!fd) continue;
    const auto seg = static_cast<std::uint32_t>(s.segs.size());
    auto add = [&](std::uint64_t off, const Header& hd) {
      s.index[hd.key] = Loc{seg, off + kHeaderSize, hd.size, hd.digest};
    };
    std::uint64_t size = file_size(fd.get());
    std::uint64_t end = frame(fd.get(), kind, 0, size, add);
    if (end < size && ::flock(fd.get(), LOCK_EX | LOCK_NB) == 0) {
      // No live writer. One that finished since the first pass may have
      // completed the record, so frame on from `end` at the current size
      // before cutting what is left.
      size = file_size(fd.get());
      end = frame(fd.get(), kind, end, size, add);
      if (end < size && ::truncate(path.c_str(), static_cast<off_t>(end)) != 0)
        RD_WARN("store: cannot truncate the torn tail of %s", path.c_str());
      ::flock(fd.get(), LOCK_UN);
    }
    auto segment = std::make_unique<Segment>();
    segment->fd = std::move(fd);
    s.segs.push_back(std::move(segment));
  }
}

bool ArtifactStore::indexed(Kind kind, std::uint64_t key) {
  Shelf& s = shelf(kind);
  std::lock_guard<std::mutex> lk(mu_);
  return s.index.count(key) != 0;
}

std::optional<std::vector<std::uint8_t>> ArtifactStore::get(
    Kind kind, std::uint64_t key, bool* corrupt) {
  Shelf& s = shelf(kind);
  if (corrupt) *corrupt = false;
  Loc loc;
  Segment* seg = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      loc = it->second;
      seg = s.segs[loc.seg].get();
    }
  }
  if (seg == nullptr) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::vector<std::uint8_t> payload(loc.size);
  bool ok = pread_all(seg->fd.get(), payload.data(), payload.size(),
                      loc.offset);
  // Disk-rot emulation (DESIGN.md §13): flip one byte of a successfully
  // read record. The digest check below must catch it -- the record is
  // evicted and the caller recomputes, byte-identically.
  if (ok && fault::fire("store.read.corrupt") && !payload.empty())
    payload.back() ^= 0x01;
  if (!ok || fnv1a(payload.data(), payload.size()) != loc.digest) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = s.index.find(key);
      // Unless a concurrent put() has already superseded this copy.
      if (it != s.index.end() && it->second.seg == loc.seg &&
          it->second.offset == loc.offset)
        s.index.erase(it);
    }
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.misses;
    ++stats_.corrupt_evictions;
    if (corrupt) *corrupt = true;
    return std::nullopt;
  }
  // LRU clock for the retention prune: the first hit in a segment
  // refreshes its mtime. Best-effort (a read-only mount degrades the LRU
  // order to append order).
  if (!seg->touched.exchange(true, std::memory_order_relaxed))
    ::futimens(seg->fd.get(), nullptr);
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.hits;
  return payload;
}

bool ArtifactStore::write_record(Kind kind, std::uint64_t key,
                                 const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> alk(append_mu_);
  if (indexed(kind, key)) return false;  // content-addressed: done
  Shelf& s = shelf(kind);
  if (s.own == kNoSegment) {
    std::string path;
    Fd fd = create_segment(s.dir, &s.next_number, &path);
    if (!fd) return false;
    auto segment = std::make_unique<Segment>();
    segment->fd = std::move(fd);
    segment->touched = true;  // appends refresh the mtime themselves
    std::lock_guard<std::mutex> lk(mu_);
    s.own = static_cast<std::uint32_t>(s.segs.size());
    s.own_end = 0;
    s.segs.push_back(std::move(segment));
  }
  const int fd = s.segs[s.own]->fd.get();  // segs only grow under append_mu_

  std::vector<std::uint8_t> rec = encode_record(kind, key, payload);
  const std::uint64_t digest = get_u64(rec.data() + 32);
  // Torn-write emulation (DESIGN.md §13): the record's tail never
  // reached the disk intact (power died before the durability barrier;
  // the blocks hold other bytes). The record keeps its full length, so
  // later records stay framed, but its payload no longer matches the
  // header digest: the next get() evicts and the caller recomputes.
  if (fault::fire("store.write.torn")) {
    if (payload.empty())
      rec[32] ^= 0x01;  // no payload to garble: garble the digest
    for (std::size_t i = kHeaderSize + payload.size() / 2; i < rec.size(); ++i)
      rec[i] ^= 0xa5;
  }
  // On failure the next append overwrites the partial record at
  // own_end; if none comes, the next open truncates it as a torn tail.
  if (!pwrite_all(fd, rec.data(), rec.size(), s.own_end)) return false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.index[key] = Loc{s.own, s.own_end + kHeaderSize, payload.size(), digest};
  }
  s.own_end += rec.size();
  std::lock_guard<std::mutex> lk(stats_mu_);
  ++stats_.spills;
  return true;
}

void ArtifactStore::put(Kind kind, std::uint64_t key,
                        std::vector<std::uint8_t> payload) {
  if (indexed(kind, key)) return;  // content-addressed: same bytes on disk
  if (async_) {
    constexpr std::size_t kMaxQueue = 256;
    std::unique_lock<std::mutex> lk(qmu_);
    if (!stop_ && queue_.size() < kMaxQueue) {
      queue_.push_back(Pending{kind, key, std::move(payload)});
      lk.unlock();
      qcv_.notify_one();
      return;
    }
  }
  // Synchronous path: no spiller, queue full, or shutting down.
  write_record(kind, key, payload);
}

bool ArtifactStore::evict(Kind kind, std::uint64_t key) {
  Shelf& s = shelf(kind);
  bool removed = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    removed = s.index.erase(key) != 0;
  }
  if (removed) {
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.corrupt_evictions;
  }
  return removed;
}

void ArtifactStore::flush() {
  if (!async_) return;
  std::unique_lock<std::mutex> lk(qmu_);
  drained_.wait(lk, [this] { return queue_.empty() && writing_ == 0; });
}

void ArtifactStore::spill_loop() {
  std::unique_lock<std::mutex> lk(qmu_);
  for (;;) {
    qcv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++writing_;
    lk.unlock();
    write_record(p.kind, p.key, p.payload);
    lk.lock();
    --writing_;
    if (queue_.empty() && writing_ == 0) drained_.notify_all();
  }
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

std::vector<ArtifactStore::EntryInfo> ArtifactStore::scan(
    const std::string& dir, bool verify) {
  std::vector<EntryInfo> out;
  for (Kind kind : kKinds) {
    for (const auto& [number, path] :
         list_segments(fs::path(dir) / kind_name(kind))) {
      Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
      if (!fd) continue;
      const std::uint64_t size = file_size(fd.get());
      const std::uint64_t end =
          frame(fd.get(), kind, 0, size,
                [&](std::uint64_t off, const Header& hd) {
                  out.push_back(EntryInfo{
                      kind, hd.key, hd.size,
                      !verify || payload_valid(fd.get(), off, hd), path, off});
                });
      // A live writer's unframed tail is an append in flight.
      if (end < size && !held_by_writer(fd.get()))
        out.push_back(EntryInfo{kind, 0, size - end, false, path, end});
    }
  }
  return out;
}

std::size_t ArtifactStore::prune(const std::string& dir,
                                 std::uint64_t max_bytes,
                                 std::uint64_t max_age_s) {
  std::size_t removed = 0;
  std::error_code ec;
  // A segment this prune holds under the writer lock: no store instance
  // appends to it while the prune runs.
  struct Held {
    Fd fd;
    std::string path;
    std::uint64_t bytes = 0;
    std::int64_t mtime = 0;  // ns since the epoch: the LRU clock
    std::size_t records = 0;
  };
  std::vector<Held> pool;  // retention candidates, every kind

  for (Kind kind : kKinds) {
    const fs::path kind_dir = fs::path(dir) / kind_name(kind);
    if (!fs::is_directory(kind_dir, ec)) continue;
    // Old-layout records and crash-leftover temp files.
    for (const fs::directory_entry& e : fs::directory_iterator(kind_dir, ec)) {
      const fs::path& p = e.path();
      if (p.extension() == ".art" || p.extension() == ".tmp")
        if (fs::remove(p, ec)) ++removed;
    }

    struct Seg {
      Held h;
      bool mine = false;  // locked by this prune; false: a live writer's
      std::uint64_t end = 0;  // where framing stops; < h.bytes: torn tail
    };
    struct Copy {
      std::size_t seg;
      std::uint64_t off;
      Header hd;
    };
    std::vector<Seg> segs;
    std::vector<Copy> copies;
    std::unordered_map<std::uint64_t, std::size_t> newest;  // key -> copies[]
    std::uint64_t next_number = 0;
    for (const auto& [number, path] : list_segments(kind_dir)) {
      next_number = number + 1;
      Seg s;
      s.h.fd = Fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
      if (!s.h.fd) continue;
      s.h.path = path;
      s.mine = ::flock(s.h.fd.get(), LOCK_EX | LOCK_NB) == 0;
      s.h.bytes = file_size(s.h.fd.get());
      s.h.mtime = mtime_ns(s.h.fd.get());
      s.end = frame(s.h.fd.get(), kind, 0, s.h.bytes,
                    [&](std::uint64_t off, const Header& hd) {
                      ++s.h.records;
                      if (!payload_valid(s.h.fd.get(), off, hd)) return;
                      newest[hd.key] = copies.size();
                      copies.push_back(Copy{segs.size(), off, hd});
                    });
      segs.push_back(std::move(s));
    }

    // Live records per segment; a segment of ours with anything else in
    // it (or nothing at all) is compacted.
    std::vector<std::size_t> live(segs.size(), 0);
    for (const auto& [key, c] : newest) ++live[copies[c].seg];
    std::vector<bool> dirty(segs.size(), false);
    bool any_dirty = false;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      const Seg& s = segs[i];
      dirty[i] = s.mine && (live[i] < s.h.records || s.end < s.h.bytes ||
                            s.h.records == 0);
      any_dirty = any_dirty || dirty[i];
    }
    // Copies every dirty segment's live records into one fresh segment,
    // then deletes the dirty ones. On failure nothing is deleted.
    auto compact = [&]() -> bool {
      Held fresh;
      fresh.fd = create_segment(kind_dir, &next_number, &fresh.path);
      if (!fresh.fd) return false;
      std::vector<std::uint8_t> buf;
      for (std::size_t c = 0; c < copies.size(); ++c) {
        const Copy& cp = copies[c];
        if (!dirty[cp.seg] || newest.at(cp.hd.key) != c) continue;
        buf.resize(kHeaderSize + cp.hd.size);
        if (!pread_all(segs[cp.seg].h.fd.get(), buf.data(), buf.size(),
                       cp.off) ||
            !pwrite_all(fresh.fd.get(), buf.data(), buf.size(),
                        fresh.bytes)) {
          fs::remove(fresh.path, ec);
          return false;
        }
        fresh.bytes += buf.size();
        ++fresh.records;
      }
      // The merged segment is as recently used as its newest source.
      for (std::size_t i = 0; i < segs.size(); ++i) {
        if (!dirty[i]) continue;
        fresh.mtime = std::max(fresh.mtime, segs[i].h.mtime);
        removed +=
            segs[i].h.records - live[i] + (segs[i].end < segs[i].h.bytes);
        fs::remove(segs[i].h.path, ec);
      }
      if (fresh.records == 0) {
        fs::remove(fresh.path, ec);
        return true;
      }
      const struct timespec times[2] = {
          {0, UTIME_OMIT},
          {static_cast<time_t>(fresh.mtime / 1000000000),
           static_cast<long>(fresh.mtime % 1000000000)}};
      ::futimens(fresh.fd.get(), times);
      pool.push_back(std::move(fresh));
      return true;
    };
    if (any_dirty && !compact()) dirty.assign(segs.size(), false);
    for (std::size_t i = 0; i < segs.size(); ++i)
      if (segs[i].mine && !dirty[i]) pool.push_back(std::move(segs[i].h));
  }

  // Retention: whole segments, expired first, then least recently used
  // (path breaks mtime ties, so the sweep is deterministic).
  std::sort(pool.begin(), pool.end(), [](const Held& a, const Held& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  std::uint64_t total = 0;
  for (const Held& h : pool) total += h.bytes;
  struct timespec now {};
  ::clock_gettime(CLOCK_REALTIME, &now);
  // Nothing was last used before the epoch: an age past it expires none.
  std::int64_t cutoff = std::numeric_limits<std::int64_t>::min();
  if (max_age_s < static_cast<std::uint64_t>(now.tv_sec))
    cutoff = (static_cast<std::int64_t>(now.tv_sec) -
              static_cast<std::int64_t>(max_age_s)) * 1000000000 +
             now.tv_nsec;
  for (const Held& h : pool) {
    const bool expired = max_age_s && h.mtime < cutoff;
    if (!expired && !(max_bytes && total > max_bytes)) continue;
    if (fs::remove(h.path, ec)) {
      removed += h.records;
      total -= h.bytes;
    }
  }
  return removed;
}

}  // namespace raindrop::store
