// Tests for the benchmark's own arithmetic (measure.hpp). Build and run with
//   python3 perfbench/run.py --self-test
#include "measure.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

// Expected values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles ten = quartiles({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);

  const Quartiles five = quartiles({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 3);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);

  // The exclusive method extrapolates past the extremes of small samples.
  const Quartiles two = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);

  const Quartiles one = quartiles({4});
  EXPECT_DOUBLE_EQ(one.q1, 4);
  EXPECT_DOUBLE_EQ(one.q3, 4);
}

TEST(Quartiles, SpreadIsIqrOverMedian) {
  EXPECT_DOUBLE_EQ(spread({10, 1, 9, 2, 8, 3, 7, 4, 6, 5}), (8.25 - 2.75) / 5.5);
  EXPECT_DOUBLE_EQ(spread({2, 2, 2, 2}), 0);
  EXPECT_DOUBLE_EQ(spread({0, 0, 0}), 0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(FastHalf, MeanOfTheFasterHalf) {
  // Times: the three smallest of five (the median included).
  EXPECT_DOUBLE_EQ(fast_half_mean({5, 1, 9, 2, 3}, true), 2);
  // Rates: the two largest of four.
  EXPECT_DOUBLE_EQ(fast_half_mean({5, 1, 9, 2}, false), 7);
  // A slow tail, however long, does not move it.
  EXPECT_DOUBLE_EQ(fast_half_mean({1, 1, 1, 1, 50, 60, 70}, true), 1);
  EXPECT_DOUBLE_EQ(fast_half_mean({4}, true), 4);
  EXPECT_DOUBLE_EQ(fast_half_mean({}, true), 0);
}

TEST(HostScale, NominalOverMedianReference) {
  // A host running the reference at half speed halves the run's times.
  const double slow = 2 * kReferenceNominalSeconds;
  EXPECT_DOUBLE_EQ(host_scale({slow, slow, 5 * slow}), 0.5);
  EXPECT_DOUBLE_EQ(host_scale({kReferenceNominalSeconds}), 1);
  EXPECT_DOUBLE_EQ(host_scale({}), 1);
}

TEST(Tail, PicksHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 has exactly 10 beyond it.
  const Tail big = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(big.percentile, 99);
  EXPECT_DOUBLE_EQ(big.value, 990);
  EXPECT_EQ(big.beyond, 10u);
  EXPECT_EQ(big.samples, 1000u);

  // 61 samples (ingest's windows): p90 leaves 6, p80 leaves 12.
  const Tail ingest = tail(one_to(61));
  EXPECT_DOUBLE_EQ(ingest.percentile, 80);
  EXPECT_DOUBLE_EQ(ingest.value, 49);
  EXPECT_EQ(ingest.beyond, 12u);

  // 20 samples: only the median leaves 10.
  const Tail twenty = tail(one_to(20));
  EXPECT_DOUBLE_EQ(twenty.percentile, 50);
  EXPECT_DOUBLE_EQ(twenty.value, 10);
  EXPECT_EQ(twenty.beyond, 10u);
}

TEST(Tail, NoRungWithTooFewSamples) {
  const Tail small = tail(one_to(19));
  EXPECT_DOUBLE_EQ(small.percentile, 0);
  EXPECT_DOUBLE_EQ(small.value, 0);
  EXPECT_EQ(small.samples, 19u);
  EXPECT_DOUBLE_EQ(tail({}).percentile, 0);
}

TEST(Tail, MinBeyondIsAParameter) {
  const Tail t = tail(one_to(100), 1);
  EXPECT_DOUBLE_EQ(t.percentile, 99);
  EXPECT_EQ(t.beyond, 1u);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
                std::int64_t end, const std::string& name = "s") {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Root 0..100; children 10..30 and 20..50 overlap (union 10..50), a third
  // child runs past the root's end and is clipped to 90..100.
  const std::vector<SpanRecord> spans = {
      span(1, 0, 0, 100, "root"), span(2, 1, 10, 30, "child"),
      span(3, 1, 20, 50, "child"), span(4, 1, 90, 120, "child"),
      span(5, 2, 12, 18, "grandchild")};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_NEAR(self[0], 50e-9, 1e-15);  // 100 - 40 - 10
  EXPECT_NEAR(self[1], 14e-9, 1e-15);  // 20 - 6
  EXPECT_NEAR(self[2], 30e-9, 1e-15);
  EXPECT_NEAR(self[4], 6e-9, 1e-15);
  EXPECT_NEAR(total_self_seconds(spans, self, "child"), 74e-9, 1e-15);
}

TEST(SelfTime, SpanLogRecordsNestedScopes) {
  SpanLog log;
  std::uint64_t outer_id = 0;
  {
    SpanLog::Scope outer(log, "outer", 0, 7);
    outer_id = outer.id();
    SpanLog::Scope inner(log, "inner", outer.id(), 7);
  }
  const std::vector<SpanRecord> spans = log.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[1].trace, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  const std::vector<double> self = self_seconds(spans);
  EXPECT_GE(self[0], 0);
  EXPECT_LE(self[0], spans[0].seconds());

  std::ostringstream os;
  write_spans_jsonl(os, spans);
  EXPECT_NE(os.str().find("\"name\": \"inner\""), std::string::npos);
}

TEST(MetricNames, CharacterSet) {
  EXPECT_TRUE(valid_metric_name("wall_s"));
  EXPECT_TRUE(valid_metric_name("core.governor.window_p50_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/bad"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));

  EXPECT_TRUE(valid_unit("Mev/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("cycles/s"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(Rss, StatusParsing) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("perfbench-status-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir / "status");
    os << "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t1024 kB\n";
  }
  EXPECT_EQ(status_kib((dir / "status").string(), "VmHWM"), 2048);
  EXPECT_EQ(status_kib((dir / "status").string(), "VmRSS"), 1024);
  EXPECT_EQ(status_kib((dir / "status").string(), "VmPeak"), -1);
  EXPECT_EQ(status_kib((dir / "missing").string(), "VmHWM"), -1);
  std::filesystem::remove_all(dir);
}

// Without a writable clear_refs the high-water mark cannot be reset, so
// growth is measured from the mark at begin().
TEST(Rss, FallbackWithoutClearRefs) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("perfbench-proc-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir / "clear_refs");  // a directory: unwritable
  {
    std::ofstream os(dir / "status");
    os << "VmHWM:\t10240 kB\n";
  }
  RssGrowth rss(dir.string());
  rss.begin();
  EXPECT_FALSE(rss.reset());
  EXPECT_DOUBLE_EQ(rss.growth_mb(), 0);
  {
    std::ofstream os(dir / "status");
    os << "VmHWM:\t15360 kB\n";
  }
  EXPECT_DOUBLE_EQ(rss.growth_mb(), 5);
  std::filesystem::remove_all(dir);
}

// With /proc/self/clear_refs the mark is reset to the current resident
// size, so an earlier, larger peak does not hide this pass's growth.
TEST(Rss, ClearRefsResetsTheHighWaterMark) {
  {
    std::vector<char> earlier(96u << 20, 1);
    volatile char sink = earlier[earlier.size() / 2];
    (void)sink;
  }
  RssGrowth rss;
  rss.begin();
  if (!rss.reset()) GTEST_SKIP() << "/proc/self/clear_refs is not writable here";
  std::vector<char> now(32u << 20, 1);
  volatile char sink = now[now.size() / 2];
  (void)sink;
  EXPECT_GE(rss.growth_mb(), 30);
  EXPECT_LT(rss.growth_mb(), 90);
}

TEST(HostProbe, ValuesArePositive) {
  EXPECT_GT(cpus_available(2), 0);
  EXPECT_GT(calibration_seconds(), 0);
  EXPECT_GT(reference_seconds(), 0);
}

}  // namespace
}  // namespace perfbench
