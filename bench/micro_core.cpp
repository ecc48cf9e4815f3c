// Microbenchmarks for the analysis core: D_σ construction, clock tracking,
// cycle enumeration, Gs generation and the Pruner, across workload sizes.
#include <benchmark/benchmark.h>

#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
#include "core/generator.hpp"
#include "core/online_sink.hpp"
#include "core/pruner.hpp"
#include "sim/scheduler.hpp"
#include "workloads/cache4j.hpp"
#include "workloads/jigsaw.hpp"
#include "workloads/paper_examples.hpp"

namespace {

using namespace wolf;

Trace cache_trace(int ops) {
  workloads::Cache4jConfig config;
  config.ops_per_thread = ops;
  auto trace = sim::record_trace(workloads::make_cache4j(config), 7);
  WOLF_CHECK(trace.has_value());
  return std::move(*trace);
}

Trace jigsaw_trace() {
  auto w = workloads::make_jigsaw();
  auto trace = sim::record_trace(w.program, 7, 100, 400000);
  WOLF_CHECK(trace.has_value());
  return std::move(*trace);
}

void BM_LockDependencyFromTrace(benchmark::State& state) {
  Trace trace = cache_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    LockDependency dep = LockDependency::from_trace(trace);
    benchmark::DoNotOptimize(dep.log.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_LockDependencyFromTrace)->Arg(16)->Arg(64)->Arg(256);

void BM_ClockTrackerFromTrace(benchmark::State& state) {
  Trace trace = cache_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ClockTracker clocks = ClockTracker::from_trace(trace);
    benchmark::DoNotOptimize(clocks.max_thread());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_ClockTrackerFromTrace)->Arg(64)->Arg(256);

void BM_OnlineSink(benchmark::State& state) {
  Trace trace = cache_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    OnlineAnalysisSink sink;
    for (const Event& e : trace.events) sink.on_event(e);
    benchmark::DoNotOptimize(sink.acquisition_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_OnlineSink)->Arg(64)->Arg(256);

void BM_CycleEnumerationJigsaw(benchmark::State& state) {
  Trace trace = jigsaw_trace();
  LockDependency dep = LockDependency::from_trace(trace);
  const DetectorOptions options;
  for (auto _ : state) {
    auto result = enumerate_cycles_scc(dep, options);
    benchmark::DoNotOptimize(result.cycles.size());
  }
}
BENCHMARK(BM_CycleEnumerationJigsaw);

void BM_CycleEnumerationPhilosophers(benchmark::State& state) {
  auto w = workloads::make_philosophers(static_cast<int>(state.range(0)));
  auto trace = sim::record_trace(w.program, 7);
  WOLF_CHECK(trace.has_value());
  LockDependency dep = LockDependency::from_trace(*trace);
  DetectorOptions options;
  options.max_cycle_length = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = enumerate_cycles_scc(dep, options);
    benchmark::DoNotOptimize(result.cycles.size());
  }
}
BENCHMARK(BM_CycleEnumerationPhilosophers)->Arg(3)->Arg(5)->Arg(7);

void BM_GeneratorJigsaw(benchmark::State& state) {
  Trace trace = jigsaw_trace();
  Detection detection = detect(trace);
  WOLF_CHECK(!detection.cycles.empty());
  std::size_t i = 0;
  for (auto _ : state) {
    GeneratorResult gen =
        generate(detection.cycles[i % detection.cycles.size()],
                 detection.dep);
    benchmark::DoNotOptimize(gen.feasible);
    ++i;
  }
}
BENCHMARK(BM_GeneratorJigsaw);

void BM_PrunerJigsaw(benchmark::State& state) {
  Trace trace = jigsaw_trace();
  Detection detection = detect(trace);
  for (auto _ : state) {
    auto verdicts = prune(detection);
    benchmark::DoNotOptimize(verdicts.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(detection.cycles.size()));
}
BENCHMARK(BM_PrunerJigsaw);

void BM_FullDetectJigsaw(benchmark::State& state) {
  Trace trace = jigsaw_trace();
  for (auto _ : state) {
    Detection detection = detect(trace);
    benchmark::DoNotOptimize(detection.cycles.size());
  }
}
BENCHMARK(BM_FullDetectJigsaw);

}  // namespace

BENCHMARK_MAIN();
