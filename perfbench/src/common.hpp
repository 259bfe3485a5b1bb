// Shared pieces of the perfbench runner: the plan it is handed, the span
// recorder of the traced run, and the raw result it prints.
//
// The runner only calls the program's public functions and reads its
// public counters; every timing and span here is taken by the benchmark
// around those calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since the process-wide epoch (first call).
double now_s();

// The workload plan, one record per line: `<tag> <field> <field> ...`.
// The Python front end generates it from the seed; the runner never sees
// the seed itself.
struct Plan {
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;
  std::size_t min_samples = 200;
  std::string work_dir;    // scratch directory for artifact stores
  std::string trace_path;  // where the traced run writes its spans
  std::vector<std::vector<std::string>> items;  // every other record

  static Plan read(const std::string& path);
};

// In-memory span recorder (traced run only). Spans are recorded from the
// runner's main thread, so they nest strictly: each span's parent is the
// innermost span open when it began. Disabled, every call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = -1;
    long job = -1;
  };

  void enable(bool on) { on_ = on; }
  bool on() const { return on_ && !muted_; }
  // Muted, nested spans are dropped: the traced run measures its
  // untraced half inside one enclosing span.
  void set_muted(bool m) { muted_ = m; }
  int begin(const char* name, long job = -1);
  void end(int id);
  // Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  bool muted_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer& tracer();

// RAII span; `job` groups the spans of one job or call.
class Scope {
 public:
  explicit Scope(const char* name, long job = -1)
      : id_(tracer().begin(name, job)) {}
  ~Scope() { tracer().end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// Raw result of one runner run, printed as the last line of stdout. The
// Python front end turns it into the benchmark's metrics.
struct Raw {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::vector<double> setup_s;        // one entry per repeated set-up
  double timed_s = 0.0;               // wall time of the timed phase
  double work = 0.0;                  // units of work finished in it
  std::vector<double> samples_ms;     // per-operation latencies
  // samples_ms.size() after each pass, so latencies group by pass.
  std::vector<std::size_t> pass_ends;
  // Work per second of a typical pass, estimated from per-operation
  // medians so that a brief host stall does not move it; in a traced
  // run, `rate` is the traced half and `untraced_rate` the muted half.
  double rate = 0.0;
  double untraced_rate = 0.0;
  std::map<std::string, double> counters;  // per-layer values

  void fail(const std::string& why);
  void print() const;
};

// Repeats a workload's set-up (it is deterministic) at least three times
// and until a second has passed, at most 15 times, recording each wall
// time so that the reported median of a short set-up is steady too. The
// last product is kept.
template <class Setup>
auto repeated_setup(Raw& raw, Setup&& setup) {
  const double start = now_s();
  for (;;) {
    double t0 = now_s();
    auto p = setup();
    raw.setup_s.push_back(now_s() - t0);
    const std::size_t n = raw.setup_s.size();
    if (n >= 15 || (n >= 3 && now_s() - start >= 1.0)) return p;
  }
}

// What one pass over a workload's inputs contributed to the timed phase.
struct PassResult {
  double seconds = 0.0;  // wall time of the timed work (no teardown)
  double work = 0.0;     // units of work finished
};

// Runs whole passes (`pass(samples)` appends one latency per operation,
// and `raw.pass_ends` marks where each pass's latencies end) until the
// timed work reaches `plan.seconds` and at least `plan.min_samples`
// latencies exist -- or eight times the budget has
// passed, leaving the percentile short of samples. The traced run does
// half the budget with spans muted, inside one `bench.untraced` span, and
// half with spans on; the two halves give the tracing overhead.
template <class Pass>
void run_timed(const Plan& plan, Raw& raw, Pass&& pass) {
  auto loop = [&](double budget, std::size_t min_samples,
                  std::vector<double>* samples) {
    PassResult total;
    const double start = now_s();
    while ((total.seconds < budget || samples->size() < min_samples) &&
           now_s() - start < 8.0 * budget) {
      PassResult p = pass(samples);
      if (samples == &raw.samples_ms) raw.pass_ends.push_back(samples->size());
      total.seconds += p.seconds;
      total.work += p.work;
    }
    return total;
  };
  if (!plan.trace) {
    PassResult t = loop(plan.seconds, plan.min_samples, &raw.samples_ms);
    raw.timed_s = t.seconds;
    raw.work = t.work;
    return;
  }
  std::vector<double> untraced_samples;
  {
    Scope s("bench.untraced");
    tracer().set_muted(true);
    loop(plan.seconds / 2, 0, &untraced_samples);
    tracer().set_muted(false);
  }
  PassResult t = loop(plan.seconds / 2, 0, &raw.samples_ms);
  raw.timed_s = t.seconds;
  raw.work = t.work;
}

double median(std::vector<double> v);

// Per-operation times of a workload whose passes repeat the same
// operations ("slots"), kept apart for the two halves of a traced run
// (half 0: untraced or muted, half 1: traced).
class SlotTimes {
 public:
  void add(bool traced, int slot, double seconds) {
    slots_[traced ? 1 : 0][slot].push_back(seconds);
  }
  // Median time of the slot in that half; 0 if it never ran there.
  double median(int half, int slot) const;

 private:
  std::map<int, std::vector<double>> slots_[2];
};

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Directory helpers for the artifact-store workloads.
void remove_tree(const std::string& dir);
std::uint64_t tree_bytes(const std::string& dir);

double to_double(const std::string& s);
long long to_int(const std::string& s);

}  // namespace perfbench
