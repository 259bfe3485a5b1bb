#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

Plan Plan::read(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  Plan p;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::vector<std::string> f;
    for (std::string w; ls >> w;) f.push_back(w);
    if (f.empty()) continue;
    const std::string& tag = f[0];
    if (tag == "workload") p.workload = f.at(1);
    else if (tag == "seconds") p.seconds = to_double(f.at(1));
    else if (tag == "trace") p.trace = f.at(1) == "1";
    else if (tag == "threads") p.threads = static_cast<int>(to_int(f.at(1)));
    else if (tag == "min_samples") p.min_samples = to_int(f.at(1));
    else if (tag == "work_dir") p.work_dir = f.at(1);
    else if (tag == "trace_path") p.trace_path = f.at(1);
    else p.items.push_back(std::move(f));
  }
  if (p.workload.empty()) throw std::runtime_error("plan names no workload");
  return p;
}

int Tracer::begin(const char* name, long job) {
  if (!on()) return -1;
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = open_.empty() ? -1 : open_.back();
  s.job = job;
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Scopes close in reverse order of opening.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %d, \"job\": %ld}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, s.job);
    out << buf;
  }
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Raw::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

namespace {
std::string quote(const std::string& s) {
  std::string r = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') r.push_back('\\');
    if (c == '\n') {
      r += "\\n";
      continue;
    }
    r.push_back(c);
  }
  return r + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void Raw::print() const {
  std::string o = "{\"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    o += (i ? ", " : "") + quote(failures[i]);
  o += "], \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    o += (i ? ", " : "") + num(setup_s[i]);
  o += "], \"timed_s\": " + num(timed_s) + ", \"work\": " + num(work) +
       ", \"rate\": " + num(rate) +
       ", \"untraced_rate\": " + num(untraced_rate) +
       ", \"peak_rss_mb\": " + num(peak_rss_mb()) + ", \"samples_ms\": [";
  for (std::size_t i = 0; i < samples_ms.size(); ++i)
    o += (i ? ", " : "") + num(samples_ms[i]);
  o += "], \"pass_ends\": [";
  for (std::size_t i = 0; i < pass_ends.size(); ++i)
    o += (i ? ", " : "") + std::to_string(pass_ends[i]);
  o += "], \"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters) {
    o += (first ? "" : ", ") + quote(k) + ": " + num(v);
    first = false;
  }
  o += "}}";
  std::printf("%s\n", o.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double SlotTimes::median(int half, int slot) const {
  auto it = slots_[half].find(slot);
  return it == slots_[half].end() ? 0.0 : perfbench::median(it->second);
}

double to_double(const std::string& s) { return std::stod(s); }
long long to_int(const std::string& s) { return std::stoll(s); }

}  // namespace perfbench
