// Observability layer (DESIGN.md §13): span trees, sharded counters,
// progress heartbeats, the versioned JSON run report, and the wolf::Config
// facade. The load-bearing properties: enabling obs never changes pipeline
// output, PhaseTimings is an exact view of the span tree, and the stable
// report is byte-identical at every jobs level.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "wolf.hpp"
#include "workloads/collections.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

// ---------------------------------------------------------------- spans

TEST(SpanSinkTest, RecordsNestedSpans) {
  obs::SpanSink sink;
  obs::SpanId outer = sink.begin("phase/detect");
  obs::SpanId inner = sink.begin("cycle/prune", outer, 7);
  sink.end(inner);
  sink.end(outer);

  std::vector<obs::SpanRecord> spans = sink.take();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "phase/detect");
  EXPECT_EQ(spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(spans[1].name, "cycle/prune");
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].tag, 7u);
  EXPECT_GE(spans[1].start_seconds, spans[0].start_seconds);
  EXPECT_GE(spans[0].duration_seconds, spans[1].duration_seconds);
  EXPECT_TRUE(sink.take().empty()) << "take() must clear the sink";
}

TEST(SpanSinkTest, RaiiSpanEndsOnUnwind) {
  obs::SpanSink sink;
  try {
    obs::Span span(&sink, "phase/feasibility");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  std::vector<obs::SpanRecord> spans = sink.take();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans[0].duration_seconds, 0.0) << "span must close on unwind";
}

TEST(SpanSinkTest, NullSinkSpanIsANoOp) {
  obs::Span span(nullptr, "phase/detect");
  EXPECT_EQ(span.id(), obs::kNoSpan);
}

// -------------------------------------------------------------- counters

TEST(CounterRegistryTest, ShardedAddsSumAcrossThreads) {
  obs::set_counters_enabled(true);
  const obs::Counter counter("test.sharded_adds");
  obs::CounterSnapshot before = obs::CounterRegistry::instance().snapshot();

  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) counter.add();
    });
  for (std::thread& t : threads) t.join();

  obs::CounterSnapshot delta =
      obs::delta(obs::CounterRegistry::instance().snapshot(), before);
  EXPECT_EQ(delta.value("test.sharded_adds"), 8000u);
  obs::set_counters_enabled(false);
}

TEST(CounterRegistryTest, DisabledAddsAreDropped) {
  obs::set_counters_enabled(false);
  const obs::Counter counter("test.disabled_adds");
  obs::CounterSnapshot before = obs::CounterRegistry::instance().snapshot();
  counter.add(100);
  obs::CounterSnapshot delta =
      obs::delta(obs::CounterRegistry::instance().snapshot(), before);
  EXPECT_EQ(delta.value("test.disabled_adds"), 0u);
}

TEST(CounterRegistryTest, InternIsIdempotent) {
  const obs::Counter a("test.intern_twice");
  const obs::Counter b("test.intern_twice");
  EXPECT_EQ(a.id(), b.id());
}

TEST(CounterRegistryTest, DeltaKeepsZeroValuedCounters) {
  obs::CounterSnapshot before, after;
  before.samples.push_back({"x", 3, true});
  after.samples.push_back({"x", 3, true});
  after.samples.push_back({"y", 5, false});
  obs::CounterSnapshot d = obs::delta(after, before);
  ASSERT_EQ(d.samples.size(), 2u);
  EXPECT_EQ(d.value("x"), 0u) << "zero deltas are kept, not dropped";
  EXPECT_EQ(d.value("y"), 5u);
  EXPECT_FALSE(d.samples[1].stable);
}

// -------------------------------------------------------------- progress

std::string& progress_buffer() {
  static std::string buffer;
  return buffer;
}
void capture_progress(const char* line) {
  progress_buffer() += line;
  progress_buffer() += '\n';
}

TEST(ProgressTest, TicksOnlyWhenEnabled) {
  obs::set_progress_writer(&capture_progress);
  obs::set_progress_interval_ms(0);  // every tick prints

  progress_buffer().clear();
  obs::progress_tick("detect", 1, 10);
  EXPECT_TRUE(progress_buffer().empty()) << "disabled ticks must not print";

  obs::set_progress_enabled(true);
  obs::progress_tick("detect", 1, 10);
  obs::progress_tick("detect", 10, 10);
  EXPECT_NE(progress_buffer().find("wolf: detect 1/10"), std::string::npos);
  EXPECT_NE(progress_buffer().find("wolf: detect 10/10"), std::string::npos);

  obs::set_progress_enabled(false);
  obs::set_progress_interval_ms(500);
  obs::set_progress_writer(nullptr);
}

// ------------------------------------------------- pipeline span tree

std::vector<const obs::SpanRecord*> spans_named(
    const std::vector<obs::SpanRecord>& spans, const std::string& name) {
  std::vector<const obs::SpanRecord*> out;
  for (const obs::SpanRecord& s : spans)
    if (s.name == name) out.push_back(&s);
  return out;
}

TEST(PipelineSpanTest, SpanTreeShapeOnHashMap) {
  auto w = workloads::make_collections_map("HashMap");
  WolfOptions options;
  options.seed = 2014;
  options.replay.attempts = 8;
  WolfReport report = run_wolf(w.program, options);
  ASSERT_TRUE(report.trace_recorded);
  ASSERT_EQ(report.cycles.size(), 4u);

  // Exactly one span per phase, all roots.
  for (const char* phase : {"phase/record", "phase/detect",
                            "phase/feasibility", "phase/replay"}) {
    auto found = spans_named(report.spans, phase);
    ASSERT_EQ(found.size(), 1u) << phase;
    EXPECT_EQ(found[0]->parent, obs::kNoSpan) << phase;
    EXPECT_GT(found[0]->duration_seconds, 0.0) << phase;
  }
  const obs::SpanId feasibility_id =
      spans_named(report.spans, "phase/feasibility")[0]->id;
  const obs::SpanId replay_id =
      spans_named(report.spans, "phase/replay")[0]->id;

  // One prune and one generate span per cycle, parented under feasibility,
  // tagged with the cycle index (HashMap: the pruner kills nothing).
  for (const char* stage : {"cycle/prune", "cycle/generate"}) {
    auto found = spans_named(report.spans, stage);
    ASSERT_EQ(found.size(), 4u) << stage;
    std::vector<std::uint64_t> tags;
    for (const obs::SpanRecord* s : found) {
      EXPECT_EQ(s->parent, feasibility_id) << stage;
      tags.push_back(s->tag);
    }
    std::sort(tags.begin(), tags.end());
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{0, 1, 2, 3})) << stage;
  }

  // Replay spans only for the three feasible cycles (θ4 is the generator
  // false positive), parented under phase/replay.
  auto replays = spans_named(report.spans, "cycle/replay");
  ASSERT_EQ(replays.size(), 3u);
  for (const obs::SpanRecord* s : replays)
    EXPECT_EQ(s->parent, replay_id);
}

TEST(PipelineSpanTest, PhaseTimingsAreAViewOfTheSpans) {
  auto w = workloads::make_figure2();
  WolfReport report = run_wolf(w.program, {});
  ASSERT_TRUE(report.trace_recorded);
  PhaseTimings recomputed = PhaseTimings::from_spans(report.spans);
  EXPECT_EQ(report.timings.record_seconds, recomputed.record_seconds);
  EXPECT_EQ(report.timings.detect_seconds, recomputed.detect_seconds);
  EXPECT_EQ(report.timings.prune_seconds, recomputed.prune_seconds);
  EXPECT_EQ(report.timings.generate_seconds, recomputed.generate_seconds);
  EXPECT_EQ(report.timings.replay_seconds, recomputed.replay_seconds);
  EXPECT_GT(report.timings.detect_seconds, 0.0);
}

// ------------------------------------------------- pipeline counters

TEST(PipelineCounterTest, FunnelCountersMatchTheReport) {
  auto w = workloads::make_collections_map("HashMap");
  auto trace = sim::record_trace(w.program, 2014);
  ASSERT_TRUE(trace.has_value());

  obs::set_counters_enabled(true);
  obs::CounterSnapshot before = obs::CounterRegistry::instance().snapshot();
  WolfOptions options;
  options.replay.attempts = 8;
  WolfReport report = analyze_trace(w.program, *trace, options);
  obs::CounterSnapshot counters =
      obs::delta(obs::CounterRegistry::instance().snapshot(), before);
  obs::set_counters_enabled(false);

  EXPECT_EQ(counters.value("trace.events"), trace->size());
  EXPECT_EQ(counters.value("detector.tuples"),
            report.detection.dep.tuples.size());
  EXPECT_EQ(counters.value("detector.cycles"),
            report.detection.cycles.size());
  EXPECT_EQ(counters.value("pruner.cycles_in"), report.cycles.size());
  EXPECT_EQ(counters.value("pruner.cycles_killed"),
            static_cast<std::uint64_t>(
                report.count_cycles(Classification::kFalseByPruner)));
  EXPECT_EQ(counters.value("generator.cyclic_verdicts"),
            static_cast<std::uint64_t>(
                report.count_cycles(Classification::kFalseByGenerator)));

  std::uint64_t total_trials = 0, total_hits = 0;
  for (const CycleReport& c : report.cycles) {
    total_trials += static_cast<std::uint64_t>(c.replay_stats.attempts);
    total_hits += static_cast<std::uint64_t>(c.replay_stats.hits);
  }
  EXPECT_EQ(counters.value("replayer.trials"), total_trials);
  EXPECT_EQ(counters.value("replayer.confirmations"), total_hits);
}

TEST(PipelineCounterTest, EnablingObsDoesNotChangeTheReport) {
  auto w = workloads::make_collections_list("ArrayList");
  auto trace = sim::record_trace(w.program, 2014);
  ASSERT_TRUE(trace.has_value());
  WolfOptions options;
  options.replay.attempts = 8;

  obs::set_counters_enabled(false);
  WolfReport off = analyze_trace(w.program, *trace, options);
  obs::set_counters_enabled(true);
  obs::set_progress_enabled(true);
  obs::set_progress_writer(&capture_progress);
  WolfReport on = analyze_trace(w.program, *trace, options);
  obs::set_progress_writer(nullptr);
  obs::set_progress_enabled(false);
  obs::set_counters_enabled(false);

  EXPECT_EQ(off.summary(w.program.sites()), on.summary(w.program.sites()));
  ASSERT_EQ(off.cycles.size(), on.cycles.size());
  for (std::size_t c = 0; c < off.cycles.size(); ++c) {
    EXPECT_EQ(off.cycles[c].classification, on.cycles[c].classification);
    EXPECT_EQ(off.cycles[c].replay_stats.attempts,
              on.cycles[c].replay_stats.attempts);
  }
}

// ------------------------------------------------------------ JSON report

obs::RunMetrics metrics_for(const sim::Program& program, const Trace& trace,
                            int jobs) {
  obs::set_counters_enabled(true);
  obs::CounterSnapshot before = obs::CounterRegistry::instance().snapshot();
  WolfOptions options;
  options.replay.attempts = 8;
  options.jobs = jobs;
  WolfReport report = analyze_trace(program, trace, options);
  obs::RunMetrics metrics = collect_metrics(report);
  metrics.counters =
      obs::delta(obs::CounterRegistry::instance().snapshot(), before);
  obs::set_counters_enabled(false);
  return metrics;
}

TEST(MetricsJsonTest, StableReportIsByteIdenticalAcrossJobs) {
  auto w = workloads::make_collections_map("HashMap");
  auto trace = sim::record_trace(w.program, 2014);
  ASSERT_TRUE(trace.has_value());
  const obs::RunMetrics metrics = metrics_for(w.program, *trace, 1);
  ASSERT_FALSE(metrics.spans.empty());
  ASSERT_FALSE(metrics.funnel.empty());
  const std::string serial = obs::to_json(metrics, /*stable=*/true);
  const std::string parallel =
      obs::to_json(metrics_for(w.program, *trace, 4), /*stable=*/true);
  EXPECT_EQ(serial, parallel);
  // The stable mode must carry no scheduling-dependent fields.
  EXPECT_EQ(serial.find("duration"), std::string::npos);
  EXPECT_EQ(serial.find("pool."), std::string::npos);
  EXPECT_NE(serial.find("\"funnel\""), std::string::npos);
}

TEST(MetricsJsonTest, JsonEscapeQuotesEveryControlCharacter) {
  EXPECT_EQ(obs::json_escape("plain/name.1"), "plain/name.1");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  EXPECT_EQ(obs::json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(obs::json_escape(std::string("nul\0!", 5)), "nul\\u0000!");
  EXPECT_EQ(obs::json_escape("θ{ü}"), "θ{ü}") << "bytes >= 0x80 pass through";
}

// ------------------------------------------------------- wolf::Config

TEST(ConfigTest, DefaultConfigValidatesClean) {
  Config config;
  EXPECT_TRUE(config.validate().empty());
  EXPECT_FALSE(config.fatal());
}

TEST(ConfigTest, ReferenceEngineWithJobsIsANonFatalConflict) {
  // Named for the first conflict validate() learned; the reference engine
  // is no longer selectable, so the shared deadline overriding a different
  // per-attempt replay deadline stands in.
  Config config;
  config.deadline_ms = 2000;
  config.replay.retry.attempt_deadline_ms = 500;
  config.jobs = 4;
  auto issues = config.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_FALSE(issues[0].fatal);
  EXPECT_NE(issues[0].message.find("deadline_ms wins"), std::string::npos)
      << issues[0].message;
  EXPECT_FALSE(config.fatal()) << "conflicts warn, they do not reject";
}

TEST(ConfigTest, NonsenseValuesAreFatal) {
  Config config;
  config.jobs = -1;
  config.runs = 0;
  config.detector.max_cycle_length = 1;
  config.replay.attempts = 0;
  int fatal_count = 0;
  for (const ConfigIssue& issue : config.validate())
    if (issue.fatal) ++fatal_count;
  EXPECT_EQ(fatal_count, 4);
  EXPECT_TRUE(config.fatal());
}

TEST(ConfigTest, MemoryBudgetWhoseByteCountOverflowsIsFatal) {
  // The governor enforces memory_budget_mb << 20 bytes; from 2^44 MiB up
  // that wraps around size_t.
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  const std::size_t largest = max >> 20;  // 2^44 - 1 on 64-bit
  for (std::size_t mb : {largest + 1, max}) {
    Config config;
    config.memory_budget_mb = mb;
    EXPECT_TRUE(config.fatal()) << mb;
  }
  Config config;
  config.memory_budget_mb = largest;
  EXPECT_FALSE(config.fatal());
}

TEST(ConfigTest, ExplodersFoldTheSharedScalars) {
  Config config;
  config.seed = 99;
  config.jobs = 3;
  config.deadline_ms = 1234;

  WolfOptions wolf = config.wolf_options();
  EXPECT_EQ(wolf.seed, 99u);
  EXPECT_EQ(wolf.jobs, 3);
  EXPECT_EQ(wolf.replay.retry.attempt_deadline_ms, 1234);

  MultiRunOptions multi = config.multi_options();
  EXPECT_EQ(multi.seed, 99u);
  EXPECT_EQ(multi.jobs, 3);

  rt::ExecutorOptions executor = config.executor_options();
  EXPECT_EQ(executor.seed, 99u);
  EXPECT_EQ(executor.deadline_ms, 1234);

  baseline::DfOptions df = config.df_options();
  EXPECT_EQ(df.seed, 99u);
  EXPECT_EQ(df.replay.retry.attempt_deadline_ms, 1234);
}

TEST(ConfigTest, FacadeRunMatchesExplodedRun) {
  auto w = workloads::make_figure2();
  Config config;
  config.jobs = 1;
  config.replay.attempts = 8;
  WolfReport via_facade = run(w.program, config);
  WolfReport via_structs = run_wolf(w.program, config.wolf_options());
  EXPECT_EQ(via_facade.summary(w.program.sites()),
            via_structs.summary(w.program.sites()));
}

}  // namespace
}  // namespace wolf
