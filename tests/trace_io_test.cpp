// Cross-layer trace substrate tests: the guarantees that tie recording,
// serialization and consumption together.
//
//   * Detection is bit-identical whether a suite recording is consumed in
//     memory (detect), streamed from v1/v2 text, or streamed from v3 binary
//     (detect_reader); each recording round-trips exactly in every format,
//     and its v3 encoding is at most half the size of its v2 encoding.
//   * analyze_session over an ungoverned Session produces the same
//     classification-level report as analyze_trace.
//   * PipelinedTraceReader (DESIGN.md §17) delivers the same events in the
//     same blocks as its wrapped source, never runs more than depth + 1
//     blocks ahead of a stalled consumer, propagates producer exceptions to
//     the consumer, and shuts down cleanly when abandoned mid-stream.
//   * Converting v2 -> v3 -> v2 reproduces the original file byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "obs/counters.hpp"
#include "sim/scheduler.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"
#include "workloads/suite.hpp"

namespace wolf {
namespace {

// Everything a Detection asserts, flattened; equal strings = bit-identical
// detection results.
std::string detection_fingerprint(const Detection& d) {
  std::ostringstream os;
  os << d.dep.log.size() << '/' << d.dep.tuples.size() << '\n';
  for (const Acquisition& a : d.dep.log)
    os << a.thread << ':' << a.lock << ':' << a.site << '.' << a.occurrence
       << ':' << a.pos << '\n';
  for (const LockTuple& t : d.dep.tuples) {
    os << t.thread << ':' << t.lock << ':' << t.tau << ':' << t.trace_pos
       << ':';
    for (LockId l : t.lockset) os << l << ',';
    os << ':';
    for (const ExecIndex& e : t.context)
      os << e.thread << '.' << e.site << '.' << e.occurrence << ',';
    os << '\n';
  }
  for (const PotentialDeadlock& c : d.cycles) {
    os << "cycle:";
    for (std::size_t t : c.tuple_idx) os << t << ',';
    os << '\n';
  }
  for (const Defect& def : d.defects) {
    os << "defect:";
    for (SiteId s : def.signature) os << s << ',';
    os << '=';
    for (std::size_t c : def.cycle_idx) os << c << ',';
    os << '\n';
  }
  return os.str();
}

TEST(StreamingDetectionTest, IdenticalAcrossAllFormatAndPathCombos) {
  const auto suite = workloads::standard_suite();
  for (const char* name :
       {"ArrayList", "Stack", "HashMap", "TreeMap", "WeakHashMap"}) {
    SCOPED_TRACE(name);
    const workloads::Benchmark& bench = workloads::find_benchmark(suite, name);
    auto trace = sim::record_trace(bench.program, 7, 20, bench.max_steps);
    ASSERT_TRUE(trace.has_value());

    const std::string baseline = detection_fingerprint(detect(*trace));
    ASSERT_FALSE(baseline.empty());

    {  // In-memory reader.
      VectorTraceReader reader(*trace);
      EXPECT_EQ(detection_fingerprint(detect_reader(reader)), baseline);
    }
    std::map<TraceFormat, std::size_t> bytes_of;
    for (TraceFormat format : {TraceFormat::kV1, TraceFormat::kV2,
                               TraceFormat::kV3}) {  // streamed from bytes
      const std::string bytes = trace_to_string(*trace, format);
      bytes_of[format] = bytes.size();
      // An exact round trip: the same events, re-encoded to the same bytes.
      const auto decoded = trace_from_string(bytes);
      ASSERT_TRUE(decoded.has_value()) << to_string(format);
      EXPECT_EQ(decoded->events, trace->events) << to_string(format);
      EXPECT_EQ(trace_to_string(*decoded, format), bytes) << to_string(format);

      std::istringstream is{bytes};
      StreamTraceReader reader(is);
      EXPECT_EQ(detection_fingerprint(detect_reader(reader)), baseline)
          << to_string(format);
      EXPECT_TRUE(reader.ok()) << reader.error();
    }
    // Binary v3 is the compact format: at most half of v2 on real traces.
    EXPECT_LE(2 * bytes_of[TraceFormat::kV3], bytes_of[TraceFormat::kV2]);
  }
}

TEST(StreamingDetectionTest, SessionIngestsIncrementally) {
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "ArrayList");
  auto trace = sim::record_trace(bench.program, 3, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());

  Session session = Session::open(Config{});
  for (const Event& e : trace->events) ASSERT_TRUE(session.feed(e));
  EXPECT_EQ(session.events_seen(), trace->events.size());
  EXPECT_EQ(detection_fingerprint(session.finish().detection),
            detection_fingerprint(detect(*trace)));
}

// The classification-level content of a report (mirrors the equivalence
// fingerprint the perf_pipeline harness checks).
std::string report_fingerprint(const WolfReport& report) {
  std::ostringstream os;
  for (const CycleReport& c : report.cycles)
    os << c.cycle_index << ':' << to_string(c.classification) << ':'
       << c.gs_vertices << ':' << c.replay_stats.attempts << ','
       << c.replay_stats.hits << '\n';
  for (const DefectReport& d : report.defects) {
    os << "defect:";
    for (SiteId s : d.signature) os << s << ',';
    os << to_string(d.classification) << '\n';
  }
  return os.str();
}

TEST(AnalyzeReaderTest, MatchesAnalyzeTraceOnV3Stream) {
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "ArrayList");
  auto trace = sim::record_trace(bench.program, 11, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());

  Config cfg;
  cfg.seed = 5;
  cfg.jobs = 1;
  cfg.replay.attempts = 4;
  cfg.max_steps = bench.max_steps;
  const WolfOptions options = cfg.wolf_options();
  WolfReport batch = analyze_trace(bench.program, *trace, options);

  std::istringstream is{trace_to_string(*trace, TraceFormat::kV3)};
  StreamTraceReader reader(is);
  Session session = Session::open(cfg);
  WolfReport streamed =
      analyze_session(bench.program, session, reader, options);
  EXPECT_TRUE(reader.ok()) << reader.error();

  EXPECT_EQ(report_fingerprint(streamed), report_fingerprint(batch));
  EXPECT_EQ(streamed.cycles.size(), batch.cycles.size());
  EXPECT_EQ(streamed.defects.size(), batch.defects.size());
}

// ---------------------------------------------------- PipelinedTraceReader

// The block sequence a reader hands out, boundaries included.
std::vector<std::vector<Event>> blocks_of(TraceReader& reader) {
  std::vector<std::vector<Event>> blocks;
  std::vector<Event> block;
  while (reader.next_block(block)) blocks.push_back(block);
  return blocks;
}

TEST(PipelinedTraceReaderTest, DeliversIdenticalEventsFromVectorSource) {
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "HashMap");
  auto trace = sim::record_trace(bench.program, 7, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());

  VectorTraceReader direct(*trace);
  const std::vector<std::vector<Event>> expected = blocks_of(direct);
  ASSERT_FALSE(expected.empty());

  // Same events in the same blocks: each decoded block crosses whole.
  VectorTraceReader source(*trace);
  PipelinedTraceReader piped(source, /*depth=*/4);
  EXPECT_EQ(blocks_of(piped), expected);
  std::vector<Event> block;
  EXPECT_FALSE(piped.next_block(block));  // end of stream stays ended
  EXPECT_TRUE(block.empty());
}

TEST(PipelinedTraceReaderTest, DeliversIdenticalEventsFromV3Stream) {
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "ArrayList");
  auto trace = sim::record_trace(bench.program, 3, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());
  const std::string v3 = trace_to_string(*trace, TraceFormat::kV3);

  std::istringstream direct_is{v3};
  StreamTraceReader direct(direct_is);
  const std::vector<std::vector<Event>> expected = blocks_of(direct);
  ASSERT_TRUE(direct.ok()) << direct.error();

  std::istringstream piped_is{v3};
  StreamTraceReader source(piped_is);
  PipelinedTraceReader piped(source, /*depth=*/2);
  EXPECT_EQ(blocks_of(piped), expected);
  EXPECT_TRUE(source.ok()) << source.error();
}

TEST(PipelinedTraceReaderTest, DetectionIsBitIdenticalThroughThePipeline) {
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "HashMap");
  auto trace = sim::record_trace(bench.program, 7, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());

  const std::string baseline = detection_fingerprint(detect(*trace));
  VectorTraceReader source(*trace);
  PipelinedTraceReader piped(source, /*depth=*/8);
  EXPECT_EQ(detection_fingerprint(detect_reader(piped)), baseline);
}

// A reader that yields a few blocks, then throws from the producer thread.
class ThrowingTraceReader final : public TraceReader {
 public:
  explicit ThrowingTraceReader(int good_blocks) : remaining_(good_blocks) {}
  bool next_block(std::vector<Event>& out) override {
    if (remaining_-- <= 0) throw std::runtime_error("decode exploded");
    out.assign(1, Event{});
    return true;
  }

 private:
  int remaining_;
};

// A reader of one-event blocks that counts how many the producer pulled.
class CountingTraceReader final : public TraceReader {
 public:
  explicit CountingTraceReader(int blocks) : remaining_(blocks) {}
  bool next_block(std::vector<Event>& out) override {
    out.clear();
    if (remaining_ == 0) return false;
    --remaining_;
    pulled_.fetch_add(1);
    out.assign(1, Event{});
    return true;
  }
  int pulled() const { return pulled_.load(); }

 private:
  int remaining_;
  std::atomic<int> pulled_{0};
};

TEST(PipelinedTraceReaderTest, StalledConsumerBoundsHowFarDecodeRunsAhead) {
  // The serve sidecar's per-client memory bound: while the consumer holds
  // off, the producer fills the queue and holds one more block — never
  // more, however long the consumer waits.
  constexpr int kDepth = 3;
  constexpr int kBlocks = 100;
  CountingTraceReader source(kBlocks);
  PipelinedTraceReader piped(source, kDepth);
  const auto settle_at = [&](int target) {
    for (int i = 0; i < 2000 && source.pulled() < target; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  settle_at(kDepth + 1);
  EXPECT_EQ(source.pulled(), kDepth + 1);

  // Each consumed block admits exactly one more pull.
  std::vector<Event> block;
  ASSERT_TRUE(piped.next_block(block));
  settle_at(kDepth + 2);
  EXPECT_EQ(source.pulled(), kDepth + 2);

  int delivered = 1;
  while (piped.next_block(block)) ++delivered;
  EXPECT_EQ(delivered, kBlocks);
  EXPECT_EQ(source.pulled(), kBlocks);
}

TEST(PipelinedTraceReaderTest, ProducerExceptionSurfacesOnConsumer) {
  ThrowingTraceReader source(/*good_blocks=*/3);
  PipelinedTraceReader piped(source, /*depth=*/2);
  std::vector<Event> block;
  std::size_t delivered = 0;
  EXPECT_THROW(
      {
        while (piped.next_block(block)) delivered += block.size();
      },
      std::runtime_error);
  EXPECT_EQ(delivered, 3u);  // everything decoded before the throw arrives
}

TEST(PipelinedTraceReaderTest, AbandonedProducerErrorIsCountedNotSwallowed) {
  // Regression: an in-flight producer exception during early destruction
  // used to vanish without a trace. It must land in the
  // trace.pipeline_abandoned_errors counter — and only when the consumer
  // never saw it; a delivered (rethrown) error is not "abandoned".
  obs::set_counters_enabled(true);
  const auto before = obs::CounterRegistry::instance().snapshot();
  {
    ThrowingTraceReader source(/*good_blocks=*/0);  // throws immediately
    PipelinedTraceReader piped(source, /*depth=*/2);
    // Destroyed without a single next_block(): the error is never delivered.
  }
  auto d = obs::delta(obs::CounterRegistry::instance().snapshot(), before);
  EXPECT_EQ(d.value("trace.pipeline_abandoned_errors"), 1u);

  // The delivered path: the consumer rethrow marks the error as seen, so
  // the abandoned counter must NOT move.
  const auto before2 = obs::CounterRegistry::instance().snapshot();
  {
    ThrowingTraceReader source(/*good_blocks=*/0);
    PipelinedTraceReader piped(source, /*depth=*/2);
    std::vector<Event> block;
    EXPECT_THROW(piped.next_block(block), std::runtime_error);
  }
  auto d2 = obs::delta(obs::CounterRegistry::instance().snapshot(), before2);
  EXPECT_EQ(d2.value("trace.pipeline_abandoned_errors"), 0u);
}

TEST(PipelinedTraceReaderTest, EarlyDestructionDoesNotHangOrLeak) {
  // The consumer abandons the stream mid-way; the destructor must close the
  // ring, unblock the producer, and join it.
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "HashMap");
  auto trace = sim::record_trace(bench.program, 7, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());
  VectorTraceReader source(*trace);
  {
    PipelinedTraceReader piped(source, /*depth=*/2);
    std::vector<Event> block;
    ASSERT_TRUE(piped.next_block(block));
  }  // destructor runs with blocks still queued and the producer possibly blocked
  SUCCEED();
}

TEST(ConvertTest, V2ToV3AndBackIsByteIdentical) {
  const auto suite = workloads::standard_suite();
  const workloads::Benchmark& bench =
      workloads::find_benchmark(suite, "ArrayList");
  auto trace = sim::record_trace(bench.program, 1, 20, bench.max_steps);
  ASSERT_TRUE(trace.has_value());

  const std::string v2 = trace_to_string(*trace, TraceFormat::kV2);
  auto decoded_v2 = trace_from_string(v2);
  ASSERT_TRUE(decoded_v2.has_value());
  const std::string v3 = trace_to_string(*decoded_v2, TraceFormat::kV3);
  auto decoded_v3 = trace_from_string(v3);
  ASSERT_TRUE(decoded_v3.has_value());
  EXPECT_EQ(trace_to_string(*decoded_v3, TraceFormat::kV2), v2);
  EXPECT_EQ(trace_checksum(*decoded_v3), trace_checksum(*trace));
  EXPECT_LE(v3.size() * 2, v2.size());  // the size win convert exists for
}

}  // namespace
}  // namespace wolf
