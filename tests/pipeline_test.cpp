// Integration tests: the full WOLF pipeline and the DeadlockFuzzer pipeline
// over the benchmark suite — the classifications behind Tables 1 and 2.
#include <gtest/gtest.h>

#include "baseline/df_pipeline.hpp"
#include "core/pipeline.hpp"
#include "workloads/collections.hpp"
#include "workloads/jigsaw.hpp"
#include "workloads/logging.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

WolfOptions fast_options(std::uint64_t seed = 2014) {
  WolfOptions options;
  options.seed = seed;
  options.replay.attempts = 8;
  return options;
}

TEST(PipelineTest, CollectionsListFullyClassified) {
  auto w = workloads::make_collections_list("ArrayList");
  WolfReport report = run_wolf(w.program, fast_options());
  ASSERT_TRUE(report.trace_recorded);
  EXPECT_EQ(report.cycles.size(), 9u);
  EXPECT_EQ(report.count_cycles(Classification::kReproduced), 9);
  EXPECT_EQ(report.count_defects(Classification::kReproduced), 6);
  EXPECT_EQ(report.false_positive_cycles(), 0);
}

TEST(PipelineTest, CollectionsMapTheta4EliminatedByGenerator) {
  auto w = workloads::make_collections_map("TreeMap");
  WolfReport report = run_wolf(w.program, fast_options());
  EXPECT_EQ(report.count_cycles(Classification::kFalseByGenerator), 1);
  EXPECT_EQ(report.count_cycles(Classification::kReproduced), 3);
  EXPECT_EQ(report.count_defects(Classification::kFalseByGenerator), 1);
  EXPECT_EQ(report.count_defects(Classification::kReproduced), 2);
}

TEST(PipelineTest, LoggingBothDefectsReproduced) {
  WolfReport report =
      run_wolf(workloads::make_logging().program, fast_options());
  EXPECT_EQ(report.count_defects(Classification::kReproduced), 2);
}

TEST(PipelineTest, JigsawClassificationSplit) {
  WolfOptions options = fast_options();
  options.max_steps = 400000;
  options.replay.attempts = 5;
  WolfReport report =
      run_wolf(workloads::make_jigsaw().program, options);
  ASSERT_TRUE(report.trace_recorded);
  EXPECT_EQ(report.defects.size(), 30u);
  EXPECT_EQ(report.count_defects(Classification::kFalseByPruner), 7);
  EXPECT_EQ(report.count_defects(Classification::kReproduced), 6);
  EXPECT_EQ(report.count_defects(Classification::kUnknown), 17);
  // The data-dependency unknowns spin on a flag whose writer the Replayer
  // paused; the spin rule force-releases the writer, so no trial runs to
  // the step cap.
  for (const CycleReport& c : report.cycles)
    EXPECT_EQ(c.replay_stats.step_limits, 0) << "cycle " << c.cycle_index;
}

TEST(PipelineTest, Figure1PrunedEndToEnd) {
  auto fig = workloads::make_figure1();
  WolfReport report = run_wolf(fig.program, fast_options());
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_EQ(report.cycles[0].classification,
            Classification::kFalseByPruner);
  EXPECT_EQ(report.cycles[0].prune_verdict, PruneVerdict::kFalseNotStarted);
}

TEST(PipelineTest, AnalyzeTraceSkipsRecording) {
  auto fig = workloads::make_figure4();
  auto trace = sim::record_trace(fig.program, 42);
  ASSERT_TRUE(trace.has_value());
  WolfReport report = analyze_trace(fig.program, *trace, fast_options());
  EXPECT_EQ(report.timings.record_seconds, 0.0);
  EXPECT_EQ(report.cycles.size(), 2u);
}

TEST(PipelineTest, DefectRollupPrefersReproducedOverUnknown) {
  // The map θ2/θ3 cycles share a defect; if either reproduces, the defect is
  // reproduced.
  auto w = workloads::make_collections_map("HashMap");
  WolfReport report = run_wolf(w.program, fast_options());
  for (const DefectReport& d : report.defects) {
    bool any_reproduced = false;
    for (std::size_t c : d.cycle_indices)
      any_reproduced |= report.cycles[c].classification ==
                        Classification::kReproduced;
    if (any_reproduced) {
      EXPECT_EQ(d.classification, Classification::kReproduced);
    }
  }
}

TEST(PipelineTest, DisabledPrunerLeavesCyclesUnknownNeverReproducesFalse) {
  auto fig = workloads::make_figure1();
  WolfOptions options = fast_options();
  options.enable_pruner = false;
  WolfReport report = run_wolf(fig.program, options);
  ASSERT_EQ(report.cycles.size(), 1u);
  // The infeasible cycle cannot be reproduced, only left unknown.
  EXPECT_EQ(report.cycles[0].classification, Classification::kUnknown);
}

TEST(PipelineTest, DisabledGeneratorCheckNeverReproducesTheta4) {
  auto w = workloads::make_collections_map("HashMap");
  WolfOptions options = fast_options();
  options.enable_generator_check = false;
  options.replay.attempts = 5;
  WolfReport report = run_wolf(w.program, options);
  // θ4's cycle must end unknown (it is unreachable), not reproduced.
  int unknown = report.count_cycles(Classification::kUnknown);
  int reproduced = report.count_cycles(Classification::kReproduced);
  EXPECT_EQ(unknown, 1);
  EXPECT_EQ(reproduced, 3);
}

TEST(PipelineTest, TimingsAreAccumulated) {
  auto w = workloads::make_collections_list("Stack");
  WolfReport report = run_wolf(w.program, fast_options());
  EXPECT_GT(report.timings.detect_seconds, 0.0);
  EXPECT_GT(report.timings.replay_seconds, 0.0);
  EXPECT_GT(report.timings.detection_total(), 0.0);
  EXPECT_GT(report.avg_gs_vertices, 0.0);
}

TEST(PipelineTest, SummaryMentionsEveryDefect) {
  auto w = workloads::make_collections_map("HashMap");
  WolfReport report = run_wolf(w.program, fast_options());
  std::string summary = report.summary(w.program.sites());
  EXPECT_NE(summary.find("3 defect(s)"), std::string::npos);
  EXPECT_NE(summary.find("false(generator)"), std::string::npos);
  EXPECT_NE(summary.find("reproduced"), std::string::npos);
}

// ---------------------------------------------------------------- DF side

TEST(DfPipelineTest, ReproducesDiagonalsOnLists) {
  baseline::DfOptions options;
  options.seed = 2014;
  options.replay.attempts = 8;
  auto w = workloads::make_collections_list("ArrayList");
  baseline::DfReport report =
      baseline::run_deadlock_fuzzer(w.program, options);
  ASSERT_TRUE(report.trace_recorded);
  EXPECT_EQ(report.cycles.size(), 9u);
  // The three diagonal defects are reliably reproduced; off-diagonals are
  // hit-or-miss, so only bound them.
  int tp = report.count_defects(Classification::kReproduced);
  EXPECT_GE(tp, 3);
  EXPECT_LE(tp, 6);
}

TEST(DfPipelineTest, EverythingElseStaysUnknown) {
  baseline::DfOptions options;
  options.seed = 7;
  options.replay.attempts = 4;
  auto fig = workloads::make_figure1();
  baseline::DfReport report =
      baseline::run_deadlock_fuzzer(fig.program, options);
  ASSERT_EQ(report.cycles.size(), 1u);
  // DeadlockFuzzer has no pruner; the infeasible cycle stays unknown.
  EXPECT_EQ(report.cycles[0].classification, Classification::kUnknown);
  EXPECT_EQ(report.count_defects(Classification::kUnknown), 1);
}

TEST(DfPipelineTest, AnalyzeTraceVariantWorks) {
  auto w = workloads::make_collections_map("HashMap");
  auto trace = sim::record_trace(w.program, 99);
  ASSERT_TRUE(trace.has_value());
  baseline::DfOptions options;
  options.replay.attempts = 6;
  baseline::DfReport report =
      baseline::analyze_trace_df(w.program, *trace, options);
  EXPECT_EQ(report.cycles.size(), 4u);
}

}  // namespace
}  // namespace wolf
