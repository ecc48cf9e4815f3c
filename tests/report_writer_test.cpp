// Tests for the markdown report writer.
#include <gtest/gtest.h>

#include "core/report_writer.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"
#include "workloads/collections.hpp"

namespace wolf {
namespace {

WolfReport hashmap_report(sim::Program& out_program) {
  auto w = workloads::make_collections_map("HashMap");
  out_program = w.program;
  WolfOptions options;
  options.seed = 2014;
  options.replay.attempts = 6;
  return run_wolf(out_program, options);
}

TEST(ReportWriterTest, ContainsSummaryCounts) {
  sim::Program program;
  WolfReport report = hashmap_report(program);
  std::string md = write_markdown_report(report, program.sites());
  EXPECT_NE(md.find("# WOLF deadlock analysis"), std::string::npos);
  EXPECT_NE(md.find("| Potential deadlock cycles | 4 |"), std::string::npos);
  EXPECT_NE(md.find("| Source-location defects | 3 |"), std::string::npos);
  EXPECT_NE(md.find("| Confirmed real (reproduced) | 2 |"),
            std::string::npos);
  EXPECT_NE(md.find("| False positives (Generator) | 1 |"),
            std::string::npos);
}

TEST(ReportWriterTest, RankingSectionOrdersDefects) {
  sim::Program program;
  WolfReport report = hashmap_report(program);
  std::string md = write_markdown_report(report, program.sites());
  auto first = md.find("1. ");
  auto last = md.find("3. ");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  // The generator-false θ4 defect must be ranked third.
  EXPECT_NE(md.find("false(generator)", last), std::string::npos);
}

TEST(ReportWriterTest, SectionsCanBeDisabled) {
  sim::Program program;
  WolfReport report = hashmap_report(program);
  ReportWriterOptions options;
  options.include_ranking = false;
  options.include_cycles = false;
  options.include_timings = false;
  options.title = "Custom title";
  std::string md = write_markdown_report(report, program.sites(), options);
  EXPECT_NE(md.find("# Custom title"), std::string::npos);
  EXPECT_EQ(md.find("## Defects"), std::string::npos);
  EXPECT_EQ(md.find("## Cycle detail"), std::string::npos);
  EXPECT_EQ(md.find("## Phase timings"), std::string::npos);
}

TEST(ReportWriterTest, WarnsWhenEnumerationTruncated) {
  sim::Program program;
  WolfReport report = hashmap_report(program);
  EXPECT_EQ(write_markdown_report(report, program.sites())
                .find("**Warning:** cycle enumeration stopped"),
            std::string::npos);

  report.detection.truncated = true;
  report.detection.cycle_cap = 4;
  std::string md = write_markdown_report(report, program.sites());
  EXPECT_NE(md.find("**Warning:** cycle enumeration stopped"),
            std::string::npos);
  // The markdown warning and the CLI stderr warning share one message
  // (truncation_message), so the texts cannot drift.
  EXPECT_NE(md.find(truncation_message(report.detection)),
            std::string::npos);
}

TEST(ReportWriterTest, WarnsWhenAnUngovernedSessionIsPoisoned) {
  // A release of a lock its thread never took poisons the session. The
  // report over the consistent prefix must say so even though nothing
  // governed the session (no budget, deadline or live reader).
  auto w = workloads::make_collections_map("HashMap");
  auto trace = sim::record_trace(w.program, 2014, 20);
  ASSERT_TRUE(trace.has_value());
  Event bad;
  bad.kind = EventKind::kLockRelease;
  bad.thread = 0;
  bad.lock = 999;
  bad.seq = trace->events.back().seq + 1;
  trace->events.push_back(bad);

  Config config;
  config.jobs = 1;
  config.replay.attempts = 2;
  Session session = Session::open(config);
  VectorTraceReader reader(*trace);
  WolfReport report =
      analyze_session(w.program, session, reader, config.wolf_options());
  EXPECT_FALSE(report.governed);
  EXPECT_FALSE(report.governor.coverage_complete);
  const std::string md = write_markdown_report(report, w.program.sites());
  EXPECT_NE(md.find("**Warning:** governed detection is INCOMPLETE — a "
                    "malformed event stopped ingestion"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("malformed event rejected"), std::string::npos);
}

TEST(ReportWriterTest, HandlesUnrecordedTrace) {
  WolfReport report;
  report.trace_recorded = false;
  SiteTable sites;
  std::string md = write_markdown_report(report, sites);
  EXPECT_NE(md.find("No completed execution"), std::string::npos);
}

}  // namespace
}  // namespace wolf
