// Unit tests for the support utilities: RNG, stats, tables, flags, strings,
// and the SPSC ring queue behind pipelined ingestion.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/io.hpp"
#include "support/ring_queue.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace wolf {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(99);
  std::map<std::uint64_t, int> histogram;
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++histogram[rng.below(8)];
  for (const auto& [bucket, count] : histogram) {
    EXPECT_GT(count, kSamples / 8 * 0.85) << "bucket " << bucket;
    EXPECT_LT(count, kSamples / 8 * 1.15) << "bucket " << bucket;
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(42);
  Rng fork1 = a.fork();
  Rng b(42);
  Rng fork2 = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fork1(), fork2());
}

TEST(RngTest, Mix64IsStable) {
  EXPECT_EQ(mix64(0), mix64(0));
  EXPECT_NE(mix64(1), mix64(2));
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, EmptyDefaults) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(StatsTest, MeanAndSum) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(StatsTest, StddevMatchesHandComputation) {
  Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  // Sample stddev (n-1): variance = 32/7.
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  Stats s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(StatsTest, PercentileSingleSample) {
  Stats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.5);
}

TEST(StatsTest, PercentileAfterLaterAdd) {
  Stats s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(3.0);  // sorted cache must invalidate
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(StatsTest, ClearResets) {
  Stats s;
  s.add(1);
  s.clear();
  EXPECT_TRUE(s.empty());
}

// ---------------------------------------------------------------- TextTable

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::string out = t.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(TextTableTest, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(TextTableTest, NumAndPctFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::pct(0.5), "50.0%");
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  Flags flags;
  flags.define_int("n", 1, "int");
  flags.define_bool("verbose", false, "bool");
  flags.define_string("name", "x", "string");
  const char* argv[] = {"prog", "--n=5", "--verbose", "--name", "hello"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 5);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "hello");
}

TEST(FlagsTest, DefaultsSurviveEmptyArgv) {
  Flags flags;
  flags.define_int("n", 7, "int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 7);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  Flags flags;
  flags.define_int("n", 7, "int");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, RejectsBadInt) {
  Flags flags;
  flags.define_int("n", 7, "int");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, BoolExplicitValues) {
  Flags flags;
  flags.define_bool("x", true, "bool");
  const char* argv[] = {"prog", "--x=false"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("x"));
}

TEST(FlagsTest, MissingValueFails) {
  Flags flags;
  flags.define_string("s", "", "string");
  const char* argv[] = {"prog", "--s"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

// ---------------------------------------------------------------- str

TEST(StrTest, SplitBasic) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StrTest, SplitNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StrTest, TrimWhitespace) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(StrTest, ParseInt) {
  long long v = 0;
  EXPECT_TRUE(parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int(" -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("12x", v));
}

TEST(StrTest, Join) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(join(parts, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

// ---------------------------------------------------------------- check

TEST(CheckTest, FailureCarriesMessage) {
  try {
    WOLF_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(WOLF_CHECK(1 + 1 == 2));
}

// ------------------------------------------------------------- atomic io

namespace {

std::string slurp(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("wolf-io-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

TEST(AtomicWriteTest, WritesContentsAndLeavesNoTempFile) {
  TempDir dir;
  const std::string target = (dir.path / "out.txt").string();
  std::string error;
  ASSERT_TRUE(support::atomic_write_file(target, "hello", &error)) << error;
  EXPECT_EQ(slurp(target), "hello");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST(AtomicWriteTest, OverwriteReplacesWholeContents) {
  TempDir dir;
  const std::string target = (dir.path / "out.txt").string();
  ASSERT_TRUE(support::atomic_write_file(target, "first version"));
  ASSERT_TRUE(support::atomic_write_file(target, "v2"));
  EXPECT_EQ(slurp(target), "v2");
}

TEST(AtomicWriteTest, TornWriteLeavesTargetUntouched) {
  TempDir dir;
  const std::string target = (dir.path / "out.txt").string();
  ASSERT_TRUE(support::atomic_write_file(target, "the good contents"));

  // Kill point mid-write: the failure must report itself, remove the temp
  // file, and leave the previous contents byte-for-byte intact.
  std::string error;
  EXPECT_FALSE(support::atomic_write_file(target, "replacement that dies",
                                          &error, /*fail_after_bytes=*/4));
  EXPECT_NE(error.find("torn"), std::string::npos);
  EXPECT_NE(error.find("untouched"), std::string::npos);
  EXPECT_EQ(slurp(target), "the good contents");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST(AtomicWriteTest, TornFirstWriteCreatesNothing) {
  TempDir dir;
  const std::string target = (dir.path / "fresh.txt").string();
  EXPECT_FALSE(
      support::atomic_write_file(target, "never lands", nullptr, 0));
  EXPECT_FALSE(std::filesystem::exists(target));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST(AtomicWriteTest, FailsCleanlyOnUnwritableDirectory) {
  std::string error;
  EXPECT_FALSE(support::atomic_write_file(
      "/nonexistent-dir-for-wolf-tests/out.txt", "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST(AtomicFileWriterTest, StreamsAndCommitsAtomically) {
  TempDir dir;
  const std::string target = (dir.path / "stream.bin").string();
  {
    support::AtomicFileWriter writer(target);
    ASSERT_TRUE(writer.ok());
    writer.stream() << "part one, ";
    writer.stream() << "part two";
    // Nothing lands at the target until commit.
    EXPECT_FALSE(std::filesystem::exists(target));
    std::string error;
    ASSERT_TRUE(writer.commit(&error)) << error;
  }
  EXPECT_EQ(slurp(target), "part one, part two");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST(AtomicFileWriterTest, DestructionWithoutCommitLeavesTargetUntouched) {
  TempDir dir;
  const std::string target = (dir.path / "keep.bin").string();
  ASSERT_TRUE(support::atomic_write_file(target, "the good contents"));
  {
    support::AtomicFileWriter writer(target);
    writer.stream() << "half-written replacement that never commits";
  }
  EXPECT_EQ(slurp(target), "the good contents");
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST(AtomicFileWriterTest, FailsCleanlyOnUnwritableDirectory) {
  support::AtomicFileWriter writer(
      "/nonexistent-dir-for-wolf-tests/out.bin");
  EXPECT_FALSE(writer.ok());
  std::string error;
  EXPECT_FALSE(writer.commit(&error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------- RingQueue

TEST(RingQueueTest, PreservesOrderSingleThreaded) {
  RingQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.push(int(i)));
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
}

TEST(RingQueueTest, PushBlocksUntilConsumerDrains) {
  RingQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks: ring is full
    third_pushed.store(true);
  });
  // The producer must be stalled, not failing fast.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  // The blocked item landed behind the ones it waited on.
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
}

TEST(RingQueueTest, PopDrainsRemainingItemsAfterClose) {
  RingQueue<int> q(8);
  ASSERT_TRUE(q.push(10));
  ASSERT_TRUE(q.push(20));
  q.close();
  EXPECT_FALSE(q.push(30));  // closed: producers are refused
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 10);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 20);
  EXPECT_FALSE(q.pop(v));  // drained AND closed
}

TEST(RingQueueTest, CloseWakesBlockedConsumer) {
  RingQueue<int> q(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    int v = 0;
    EXPECT_FALSE(q.pop(v));  // blocks on empty, then sees close
    returned.store(true);
  });
  // The consumer must be parked on the empty queue, not failing fast.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());
  q.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(q.closed());
}

TEST(RingQueueTest, SpscStressKeepsEveryItemInOrder) {
  // The production shape: one producer, one consumer, a ring much smaller
  // than the item count so both sides stall repeatedly.
  constexpr int kItems = 20000;
  RingQueue<int> q(4);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(int(i)));
    q.close();
  });
  int expected = 0, v = -1;
  while (q.pop(v)) {
    ASSERT_EQ(v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(RingQueueTest, MoveOnlyPayloadsMoveThrough) {
  RingQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

}  // namespace
}  // namespace wolf
