// google-benchmark microbenchmarks for the infrastructure hot paths:
// CPU interpretation throughput (native vs ROP chain dispatch), rewriter
// throughput, and solver evaluation -- the knobs that size every scaled
// experiment in this repo.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "minic/interp.hpp"
#include "solver/solver.hpp"
#include "workload/corpus.hpp"
#include "workload/randomfuns.hpp"

using namespace raindrop;
using namespace raindrop::bench;

namespace {

workload::RandomFun target() {
  workload::RandomFunSpec spec;
  spec.control = 2;  // (for (for (bb 4)))
  spec.type = minic::Type::I32;
  spec.seed = 1;
  return workload::make_random_fun(spec);
}

void BM_CpuNative(benchmark::State& state) {
  auto rf = target();
  Image img = minic::compile(rf.module);
  // Frozen snapshot + prewarmed CodeCache: each iteration clones and
  // imports, so no per-call re-decode (DESIGN.md §10).
  LoadedImage li = img.load_shared();
  std::uint64_t fn = img.function(rf.name)->addr;
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto r = call_function(li, fn, {{42}});
    benchmark::DoNotOptimize(r.rax);
    insns += r.insns;
  }
  state.counters["insns/iter"] =
      benchmark::Counter(static_cast<double>(insns) / state.iterations());
}
BENCHMARK(BM_CpuNative);

void BM_CpuRopChain(benchmark::State& state) {
  auto rf = target();
  Image img = minic::compile(rf.module);
  rop::Rewriter rw(&img, rop::rop_k(0.0, 3));
  if (!rw.rewrite_function(rf.name).ok) {
    state.SkipWithError("rewrite failed");
    return;
  }
  LoadedImage li = img.load_shared();
  std::uint64_t fn = img.function(rf.name)->addr;
  std::uint64_t insns = 0;
  for (auto _ : state) {
    auto r = call_function(li, fn, {{42}});
    benchmark::DoNotOptimize(r.rax);
    insns += r.insns;
  }
  state.counters["insns/iter"] =
      benchmark::Counter(static_cast<double>(insns) / state.iterations());
}
BENCHMARK(BM_CpuRopChain);

// Pure dispatch throughput of the superblock engine per hook stratum:
// the same warm counted loop with no hook, a block hook, and a per-insn
// hook. The spread is the price of observability (DESIGN.md §6).
void BM_CpuDispatchStrata(benchmark::State& state) {
  int stratum = static_cast<int>(state.range(0));  // 0 none, 1 block, 2 insn
  CountedLoop loop = make_counted_loop(1000);
  Memory mem = load_counted_loop(loop);
  Cpu cpu(&mem);
  HookSet hooks;
  std::uint64_t sink = 0;
  if (stratum == 1) hooks.block = [&](Cpu&, std::uint64_t a) { sink += a; };
  if (stratum == 2)
    hooks.insn = [&](Cpu&, std::uint64_t a, const isa::Insn&) {
      sink += a;
      return true;
    };
  cpu.set_hooks(std::move(hooks));
  std::uint64_t insns = 0;
  for (auto _ : state) {
    std::uint64_t before = cpu.insn_count();
    cpu.set_rip(0x1000);
    cpu.run(100'000);
    insns += cpu.insn_count() - before;
  }
  benchmark::DoNotOptimize(sink);
  state.counters["insns/s"] = benchmark::Counter(
      static_cast<double>(insns), benchmark::Counter::kIsRate);
  // Dispatch telemetry: the zero-hook stratum should chain nearly every
  // dispatch; any hook demotes to the central loop (chain_hits == 0).
  const Cpu::CacheStats& cs = cpu.cache_stats();
  state.counters["chain_hits"] =
      benchmark::Counter(static_cast<double>(cs.chain_hits));
  state.counters["central_dispatches"] =
      benchmark::Counter(static_cast<double>(cs.central_dispatches));
  state.counters["import_hits"] =
      benchmark::Counter(static_cast<double>(cs.import_hits));
}
BENCHMARK(BM_CpuDispatchStrata)->Arg(0)->Arg(1)->Arg(2);

// The zero-hook executor (DESIGN.md §11) against its reference: the
// chained, pre-lowered µop fast path (0) vs the central fetch loop (1),
// on the same warm counted loop.
void BM_CpuLowered(benchmark::State& state) {
  CountedLoop loop = make_counted_loop(1000);
  Memory mem = load_counted_loop(loop);
  Cpu cpu(&mem);
  if (state.range(0) == 1) cpu.set_threaded_dispatch(false);
  std::uint64_t insns = 0;
  for (auto _ : state) {
    std::uint64_t before = cpu.insn_count();
    cpu.set_rip(0x1000);
    cpu.run(100'000);
    insns += cpu.insn_count() - before;
  }
  state.counters["insns/s"] = benchmark::Counter(
      static_cast<double>(insns), benchmark::Counter::kIsRate);
  const Cpu::CacheStats& cs = cpu.cache_stats();
  state.counters["lowered_dispatches"] =
      benchmark::Counter(static_cast<double>(cs.lowered_dispatches));
  state.counters["chain_hits"] =
      benchmark::Counter(static_cast<double>(cs.chain_hits));
}
BENCHMARK(BM_CpuLowered)->Arg(0)->Arg(1);

void BM_RewriteFunction(benchmark::State& state) {
  auto rf = target();
  for (auto _ : state) {
    Image img = minic::compile(rf.module);
    rop::Rewriter rw(&img, rop::rop_k(0.5, 3));
    auto r = rw.rewrite_function(rf.name);
    benchmark::DoNotOptimize(r.stats.gadget_slots);
  }
}
BENCHMARK(BM_RewriteFunction);

void BM_EngineBatchCraft(benchmark::State& state) {
  // Batch throughput of the two-phase engine over a 100-function corpus
  // slice, at the thread count given by the benchmark argument.
  auto cp = workload::make_corpus(1, 100);
  int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Image img = minic::compile(cp.module);
    engine::ObfuscationEngine eng(&img, rop::rop_k(0.25, 9));
    auto mr = eng.obfuscate_module(cp.functions, threads);
    benchmark::DoNotOptimize(mr.ok_count);
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_EngineBatchCraft)->Arg(1)->Arg(4);

void BM_InterpOracle(benchmark::State& state) {
  auto rf = target();
  minic::Interp in(rf.module);
  for (auto _ : state) {
    auto r = in.call(rf.name, {{42}});
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_InterpOracle);

void BM_SolverExhaustive2Byte(benchmark::State& state) {
  solver::ExprPool pool;
  // h = ((in0|in1<<8) * 0x101 + 7) ^ 0x55aa ; h == C for a known input
  auto in = pool.bin(solver::Ex::Or, pool.var(0),
                     pool.bin(solver::Ex::Shl, pool.var(1),
                              pool.constant(8)));
  auto h = pool.bin(solver::Ex::Xor,
                    pool.add(pool.bin(solver::Ex::Mul, in,
                                      pool.constant(0x101)),
                             pool.constant(7)),
                    pool.constant(0x55aa));
  solver::Assignment want{};
  want[0] = 0xbe;
  want[1] = 0x7a;
  auto target_c = pool.constant(pool.eval(h, want));
  auto eq = pool.eq(h, target_c);
  for (auto _ : state) {
    solver::Solver s(&pool);
    std::vector<solver::ExprRef> cs{eq};
    auto sol = s.solve(cs, 2, Deadline(10.0));
    benchmark::DoNotOptimize(sol.has_value());
  }
}
BENCHMARK(BM_SolverExhaustive2Byte);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Machine-readable summary: CPU dispatch throughput per hook stratum
  // plus one engine batch timed directly (the google-benchmark table
  // above is for humans).
  BenchJson json("micro");

  // Zero-hook vs per-insn-hook throughput on the standard probe loop;
  // the Release CI job gates on the zero-hook number (tools/
  // bench_report.py --check) and on the absolute cpu_minsns_per_s /
  // cpu_chain_hit_rate floors (--check-min). One measurement feeds the
  // gate keys and the uniform cross-bench keys.
  CpuProbe zero_hook = cpu_probe();
  double zero_hook_m = zero_hook.insns_per_s / 1e6;
  json.metric("cpu_zero_hook_minsns_per_s", zero_hook_m);
  json.metric("cpu_minsns_per_s", zero_hook_m);
  json.metric("cpu_chain_hit_rate", zero_hook.chain_hit_rate);
  // Executors (DESIGN.md §11): the default zero-hook probe runs the
  // lowered µop path; the central-loop reference below measures its
  // win. The Release CI job gates cpu_lowered_dispatch_share alongside
  // cpu_minsns_per_s.
  json.metric("cpu_lowered_minsns_per_s", zero_hook_m);
  json.metric("cpu_lowered_dispatch_share", zero_hook.lowered_share);
  {
    CpuProbe central = cpu_probe(200'000, {}, Dispatch::kCentral);
    json.metric("cpu_central_minsns_per_s", central.insns_per_s / 1e6);
  }
  {
    HookSet hooks;
    hooks.insn = [](Cpu&, std::uint64_t, const isa::Insn&) { return true; };
    json.metric("cpu_insn_hook_minsns_per_s",
                cpu_insns_per_sec(200'000, std::move(hooks)) / 1e6);
  }

  // ROP-chain dispatch throughput: the rewritten probe function executed
  // repeatedly on its loaded image (chain fetch + gadget dispatch, the
  // §VI hot path). Gated by the Release CI job alongside the zero-hook
  // number.
  {
    auto rf = target();
    Image img = minic::compile(rf.module);
    rop::Rewriter rw(&img, rop::rop_k(0.0, 3));
    if (rw.rewrite_function(rf.name).ok) {
      LoadedImage li = img.load_shared();
      std::uint64_t fn = img.function(rf.name)->addr;
      std::uint64_t insns = 0;
      Stopwatch watch;
      do {
        auto r = call_function(li, fn, {{42}});
        insns += r.insns;
      } while (watch.seconds() < 0.25);
      json.metric("rop_dispatch_minsns_per_s",
                  static_cast<double>(insns) / watch.seconds() / 1e6);
    }
  }

  auto cp = workload::make_corpus(1, 100);
  std::vector<int> thread_counts = {1};
  if (bench_threads() != 1) thread_counts.push_back(bench_threads());
  for (int threads : thread_counts) {
    Image img = minic::compile(cp.module);
    engine::ObfuscationEngine eng(&img, rop::rop_k(0.25, 9));
    auto mr = eng.obfuscate_module(cp.functions, threads, bench_shards());
    char key[48];
    std::snprintf(key, sizeof(key), "engine_craft_s_%dt", threads);
    json.metric(key, mr.craft_seconds);
    std::snprintf(key, sizeof(key), "engine_commit_s_%dt", threads);
    json.metric(key, mr.commit_seconds);
    if (threads == 1) {
      // Craft throughput over the 100-function corpus slice, the second
      // Release CI gate. The process cache makes this a warm number when
      // earlier benchmarks analysed the same corpus -- deterministically
      // so under the fixed CI invocation.
      json.metric("craft_funcs_per_s",
                  mr.craft_seconds > 0
                      ? static_cast<double>(cp.functions.size()) /
                            mr.craft_seconds
                      : 0.0);
      json.metric("engine_resolve_s_1t", mr.resolve_seconds);
      emit_stage_seconds(json, mr, "engine_1t_");
      json.metric("batch_analysis_cache_hit_rate",
                  mr.analysis_cache_hit_rate);
    }
  }
  emit_analysis_cache(json);
  json.write();
  return 0;
}
