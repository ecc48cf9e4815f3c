// A fixed-seed mutation fuzz over every parser that takes outside bytes:
// the trace readers (text v1/v2, binary v3) and the WOLFSERVE/1 hello line.
// The inputs are recorded workload traces in all three encodings and
// hand-written hellos; no external corpus is read. Each mutant gets one to
// three mutations (bit flip, byte set, insert, delete-range, truncate), and
// the invariants below must hold for every one of them:
//
//   * nothing throws (and, in a sanitizer build, nothing is reported);
//   * the string, istream and path readers agree, in strict and in salvage
//     mode, on events, acceptance, errors, diagnostics and drop counts;
//   * for v2 and v3, a strict read that succeeds equals a complete salvage
//     read (v1 has no checksum, so its salvage also cuts at lock-discipline
//     violations that a strict read lets through, by design);
//   * detect() over every salvage result returns;
//   * an accepted session hello re-renders through format_hello to a line
//     that parses to the same request.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "serve/protocol.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "trace/serialize.hpp"
#include "workloads/cache4j.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

namespace wolf {
namespace {

constexpr std::uint64_t kFuzzSeed = 2014;

// Half the time a byte the parsers treat specially (separators, whitespace
// that trim() strips, digits, signs), else any byte.
char random_byte(Rng& rng) {
  static constexpr char kSpecial[] = " \t\n\r\v\f=#-+0123456789";
  if (rng.below(2) == 0) return kSpecial[rng.below(sizeof kSpecial - 1)];
  return static_cast<char>(rng.below(256));
}

// Applies one random mutation to `bytes`.
void mutate_once(std::string& bytes, Rng& rng) {
  const std::size_t size = bytes.size();
  switch (rng.below(5)) {
    case 0:  // bit flip
      if (size > 0)
        bytes[rng.below(size)] ^= static_cast<char>(1 << rng.below(8));
      break;
    case 1:  // byte set
      if (size > 0) bytes[rng.below(size)] = random_byte(rng);
      break;
    case 2: {  // insert 1-4 bytes
      std::string extra(1 + rng.below(4), '\0');
      for (char& c : extra) c = random_byte(rng);
      bytes.insert(rng.below(size + 1), extra);
      break;
    }
    case 3:  // delete a range of 1-16 bytes
      if (size > 0) {
        const std::size_t at = rng.below(size);
        bytes.erase(at, 1 + rng.below(std::min<std::size_t>(16, size - at)));
      }
      break;
    default:  // truncate
      bytes.resize(rng.below(size + 1));
      break;
  }
}

std::string mutant_of(const std::string& seed, Rng& rng) {
  std::string bytes = seed;
  for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) mutate_once(bytes, rng);
  return bytes;
}

struct Seed {
  std::string name;
  std::string bytes;
};

// Recorded traces in every encoding: two paper programs, a suite program,
// and a longer cache4j run that spans more than one v3 block.
std::vector<Seed> trace_seeds() {
  std::vector<std::pair<std::string, sim::Program>> programs;
  programs.emplace_back("figure4", workloads::make_figure4().program);
  const auto suite = workloads::standard_suite();
  programs.emplace_back("HashMap",
                        workloads::find_benchmark(suite, "HashMap").program);
  programs.emplace_back("Jigsaw",
                        workloads::find_benchmark(suite, "Jigsaw").program);
  workloads::Cache4jConfig long_run;
  long_run.ops_per_thread = 40;
  programs.emplace_back("cache4j-long", workloads::make_cache4j(long_run));
  std::vector<Seed> seeds;
  for (const auto& [name, program] : programs) {
    const std::optional<Trace> trace = sim::record_trace(program, 7);
    EXPECT_TRUE(trace.has_value()) << name;
    if (!trace) continue;
    for (TraceFormat format :
         {TraceFormat::kV1, TraceFormat::kV2, TraceFormat::kV3})
      seeds.push_back(
          {name + "/" + to_string(format), trace_to_string(*trace, format)});
  }
  return seeds;
}

struct StrictRead {
  std::optional<Trace> trace;
  std::string error;
};

void expect_same(const StrictRead& a, const StrictRead& b,
                 const std::string& where) {
  EXPECT_EQ(a.trace.has_value(), b.trace.has_value()) << where;
  if (a.trace && b.trace) {
    EXPECT_EQ(a.trace->events, b.trace->events) << where;
  }
  EXPECT_EQ(a.error, b.error) << where;
}

void expect_same(const SalvageReport& a, const SalvageReport& b,
                 const std::string& where) {
  EXPECT_EQ(a.trace.events, b.trace.events) << where;
  EXPECT_EQ(a.version, b.version) << where;
  EXPECT_EQ(a.complete, b.complete) << where;
  EXPECT_EQ(a.events_dropped, b.events_dropped) << where;
  EXPECT_EQ(a.diagnostics, b.diagnostics) << where;
}

class ParserFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wolf-parser-fuzz-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "mutant.trace").string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void write_file(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ParserFuzzTest, TraceReadersAgreeOnEveryMutant) {
  constexpr int kMutantsPerSeed = 150;
  Rng rng(kFuzzSeed);
  std::size_t strict_accepted = 0, salvaged_events = 0;
  for (const Seed& seed : trace_seeds()) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string bytes = mutant_of(seed.bytes, rng);
      const std::string where = seed.name + " mutant " + std::to_string(i);
      write_file(bytes);

      StrictRead from_string, from_stream, from_path;
      from_string.trace = trace_from_string(bytes, &from_string.error);
      {
        std::istringstream is(bytes);
        from_stream.trace = read_trace(is, &from_stream.error);
      }
      from_path.trace = read_trace(path_, &from_path.error);
      expect_same(from_string, from_stream, where + " (strict istream)");
      expect_same(from_string, from_path, where + " (strict path)");

      const SalvageReport salvaged = salvage_trace_from_string(bytes);
      {
        std::istringstream is(bytes);
        expect_same(salvaged, read_trace_salvage(is),
                    where + " (salvage istream)");
      }
      expect_same(salvaged, read_trace_salvage(path_),
                  where + " (salvage path)");

      if (from_string.trace) {
        ++strict_accepted;
        if (salvaged.version >= 2) {
          EXPECT_TRUE(salvaged.complete) << where;
          EXPECT_EQ(salvaged.trace.events, from_string.trace->events)
              << where;
        }
      }
      salvaged_events += salvaged.trace.size();
      EXPECT_NO_THROW(detect(salvaged.trace)) << where;
      if (HasFailure()) return;  // one mutant's report is enough
    }
  }
  // The loop must exercise both outcomes, or it checks little.
  EXPECT_GT(strict_accepted, 0u);
  EXPECT_GT(salvaged_events, 0u);
}

TEST_F(ParserFuzzTest, HelloLinesRoundTripThroughFormatHello) {
  constexpr int kMutants = 200000;
  // Parameter order differs from format_hello's (sorted by key), so a
  // value in the middle of a hello can land at the end of its rendering.
  const std::vector<std::string> seeds = {
      "WOLFSERVE/1 session name=alpha window=64 budget-mb=16 deadline-ms=5 "
      "live=1",
      "WOLFSERVE/1 session window=8 live=0 name=b",
      "WOLFSERVE/1 session live=1 budget-mb=0",
      "WOLFSERVE/1 status",
      "WOLFSERVE/1 stop",
  };
  Rng rng(kFuzzSeed + 1);
  std::size_t accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string line = mutant_of(seeds[rng.below(seeds.size())], rng);
    serve::HelloRequest request;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = serve::parse_hello(line, request, error)) << line;
    if (!ok || request.kind != serve::HelloRequest::Kind::kSession) continue;
    ++accepted;
    const std::string rendered =
        serve::format_hello(request.name, request.params);
    serve::HelloRequest again;
    ASSERT_TRUE(serve::parse_hello(rendered, again, error))
        << "accepted " << testing::PrintToString(line) << " re-rendered as "
        << testing::PrintToString(rendered) << ": " << error;
    ASSERT_EQ(again.name, request.name) << testing::PrintToString(line);
    ASSERT_EQ(again.params, request.params) << testing::PrintToString(line);
  }
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace wolf
