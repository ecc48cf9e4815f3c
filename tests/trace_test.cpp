// Tests for the trace layer: ids, execution indices, events, recording and
// serialization.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/str.hpp"
#include "testutil.hpp"
#include "trace/event.hpp"
#include "trace/exec_index.hpp"
#include "trace/ids.hpp"
#include "trace/recorder.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_reader.hpp"
#include "trace/wire.hpp"

namespace wolf {
namespace {

Event make_event(EventKind kind, ThreadId t, SiteId site = 0,
                 std::int32_t occ = 0, LockId lock = kInvalidLock,
                 ThreadId other = kInvalidThread) {
  Event e;
  e.kind = kind;
  e.thread = t;
  e.site = site;
  e.occurrence = occ;
  e.lock = lock;
  e.other = other;
  return e;
}

// ---------------------------------------------------------------- SiteTable

TEST(SiteTableTest, InternDeduplicates) {
  SiteTable sites;
  SiteId a = sites.intern("Foo.bar", 10);
  SiteId b = sites.intern("Foo.bar", 10);
  SiteId c = sites.intern("Foo.bar", 11);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(sites.size(), 2);
}

TEST(SiteTableTest, NameFormatsFunctionAndLine) {
  SiteTable sites;
  SiteId a = sites.intern("Foo.bar", 10);
  EXPECT_EQ(sites.name(a), "Foo.bar:10");
  EXPECT_EQ(sites.name(kInvalidSite), "<none>");
}

TEST(SiteTableTest, BadIdThrows) {
  SiteTable sites;
  EXPECT_THROW(sites.loc(0), CheckFailure);
}

TEST(SiteTableTest, InternAssignsDenseIdsInFirstSeenOrder) {
  // The hash-indexed intern must number sites exactly like the linear scan
  // it replaced: dense ids, in order of first appearance.
  SiteTable sites;
  EXPECT_EQ(sites.intern("A.a", 1), 0);
  EXPECT_EQ(sites.intern("B.b", 2), 1);
  EXPECT_EQ(sites.intern("A.a", 3), 2);   // same function, new line
  EXPECT_EQ(sites.intern("B.b", 2), 1);   // repeat hits the old id
  EXPECT_EQ(sites.intern("C.c", 1), 3);
  EXPECT_EQ(sites.intern("A.a", 1), 0);
  EXPECT_EQ(sites.size(), 4);
  EXPECT_EQ(sites.loc(2).function, "A.a");
  EXPECT_EQ(sites.loc(2).line, 3);
}

// ---------------------------------------------------------------- ExecIndex

TEST(ExecIndexTest, EqualityAndOrdering) {
  ExecIndex a{1, 5, 0};
  ExecIndex b{1, 5, 0};
  ExecIndex c{1, 5, 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
}

TEST(ExecIndexTest, HashDistinguishesFields) {
  ExecIndexHash hash;
  EXPECT_EQ(hash(ExecIndex{1, 2, 3}), hash(ExecIndex{1, 2, 3}));
  EXPECT_NE(hash(ExecIndex{1, 2, 3}), hash(ExecIndex{1, 3, 2}));
  EXPECT_NE(hash(ExecIndex{1, 2, 3}), hash(ExecIndex{2, 2, 3}));
}

TEST(ExecIndexTest, ToStringMentionsOccurrenceOnlyWhenNonZero) {
  EXPECT_EQ((ExecIndex{1, 2, 0}).to_string(), "t1@s2");
  EXPECT_EQ((ExecIndex{1, 2, 3}).to_string(), "t1@s2#3");
}

TEST(ExecIndexTest, Validity) {
  EXPECT_FALSE(ExecIndex{}.valid());
  EXPECT_TRUE((ExecIndex{0, 0, 0}).valid());
}

// ---------------------------------------------------------------- Trace

TEST(TraceTest, ThreadsCollectsActorsAndTargets) {
  Trace trace;
  trace.events.push_back(make_event(EventKind::kThreadBegin, 0));
  trace.events.push_back(
      make_event(EventKind::kThreadStart, 0, 1, 0, kInvalidLock, 2));
  auto threads = trace.threads();
  EXPECT_EQ(threads, (std::vector<ThreadId>{0, 2}));
  EXPECT_EQ(trace.max_thread_id(), 2);
}

TEST(TraceTest, EmptyTraceDefaults) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.max_thread_id(), -1);
  EXPECT_TRUE(trace.threads().empty());
}

TEST(EventTest, ToStringIsInformative) {
  Event e = make_event(EventKind::kLockAcquire, 3, 7, 1, 9);
  e.seq = 12;
  std::string s = e.to_string();
  EXPECT_NE(s.find("#12"), std::string::npos);
  EXPECT_NE(s.find("t3"), std::string::npos);
  EXPECT_NE(s.find("acquire"), std::string::npos);
  EXPECT_NE(s.find("lock=9"), std::string::npos);
}

// ---------------------------------------------------------------- Recorder

TEST(RecorderTest, AssignsMonotonicSequence) {
  TraceRecorder recorder;
  for (int i = 0; i < 5; ++i)
    recorder.on_event(make_event(EventKind::kThreadBegin, i));
  const Trace& trace = recorder.trace();
  ASSERT_EQ(trace.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(trace.events[i].seq, i);
}

TEST(RecorderTest, TakeResetsSequence) {
  TraceRecorder recorder;
  recorder.on_event(make_event(EventKind::kThreadBegin, 0));
  recorder.on_event(make_event(EventKind::kThreadEnd, 0));
  Trace first;
  const obs::CounterSnapshot counted =
      test::counter_delta([&] { first = recorder.take(); });
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(counted.value("trace.recorded_events"), 2u);
  recorder.on_event(make_event(EventKind::kThreadBegin, 1));
  EXPECT_EQ(recorder.trace().events[0].seq, 0u);
}

TEST(RecorderTest, NullSinkDiscards) {
  NullSink sink;
  sink.on_event(make_event(EventKind::kThreadBegin, 0));  // no crash
}

// ---------------------------------------------------------------- Serialize

Trace sample_trace() {
  Trace trace;
  std::uint64_t seq = 0;
  auto push = [&](Event e) {
    e.seq = seq++;
    trace.events.push_back(e);
  };
  push(make_event(EventKind::kThreadBegin, 0));
  push(make_event(EventKind::kThreadStart, 0, 1, 0, kInvalidLock, 1));
  push(make_event(EventKind::kThreadBegin, 1));
  push(make_event(EventKind::kLockAcquire, 1, 2, 0, 5));
  push(make_event(EventKind::kLockRelease, 1, 3, 0, 5));
  push(make_event(EventKind::kThreadEnd, 1));
  push(make_event(EventKind::kThreadJoin, 0, 4, 0, kInvalidLock, 1));
  push(make_event(EventKind::kThreadEnd, 0));
  return trace;
}

TEST(SerializeTest, RoundTripsExactly) {
  Trace original = sample_trace();
  std::string text = trace_to_string(original);
  std::string error;
  auto parsed = trace_from_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->events, original.events);
}

TEST(SerializeTest, HeaderIsRequired) {
  std::string error;
  EXPECT_EQ(trace_from_string("0 begin 0 0 0 -1 -1\n", &error), std::nullopt);
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(SerializeTest, MalformedLineReportsLineNumber) {
  std::string text = "# wolf-trace v1\n0 begin 0 0 0 -1 -1\nnot an event\n";
  std::string error;
  EXPECT_EQ(trace_from_string(text, &error), std::nullopt);
  EXPECT_NE(error.find("line 3"), std::string::npos);
}

TEST(SerializeTest, UnknownKindRejected) {
  std::string text = "# wolf-trace v1\n0 frobnicate 0 0 0 -1 -1\n";
  std::string error;
  EXPECT_EQ(trace_from_string(text, &error), std::nullopt);
  EXPECT_NE(error.find("frobnicate"), std::string::npos);
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  std::string text =
      "# wolf-trace v1\n\n# a comment\n0 begin 0 0 0 -1 -1\n";
  auto parsed = trace_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(SerializeTest, EmptyTraceRoundTrips) {
  Trace empty;
  auto parsed = trace_from_string(trace_to_string(empty));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

// ------------------------------------------------------------ v2 format ----

TEST(SerializeV2Test, DefaultFormatCarriesFooter) {
  std::string text = trace_to_string(sample_trace());
  EXPECT_NE(text.find("# wolf-trace v2"), std::string::npos);
  EXPECT_NE(text.find("# wolf-trace-end 8 "), std::string::npos);
}

TEST(SerializeV2Test, V1FormatStillWritesAndLoads) {
  Trace original = sample_trace();
  std::string text = trace_to_string(original, TraceFormat::kV1);
  EXPECT_NE(text.find("# wolf-trace v1"), std::string::npos);
  EXPECT_EQ(text.find("wolf-trace-end"), std::string::npos);
  auto parsed = trace_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events, original.events);
}

TEST(SerializeV2Test, MissingFooterRejected) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  lines.erase(lines.end() - 2);  // drop the footer, keep trailing blank
  std::string error;
  EXPECT_EQ(trace_from_string(join(lines, "\n"), &error), std::nullopt);
  EXPECT_NE(error.find("footer"), std::string::npos);
}

TEST(SerializeV2Test, TamperedEventFailsChecksum) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  // Event line 4 is "3 acquire 1 2 0 5 -1"; move the acquisition to lock 6.
  lines[4] = "3 acquire 1 2 0 6 -1";
  std::string error;
  EXPECT_EQ(trace_from_string(join(lines, "\n"), &error), std::nullopt);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos);
}

TEST(SerializeV2Test, CountMismatchRejected) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  lines.erase(lines.begin() + 8);  // drop the last event, keep the footer
  std::string error;
  EXPECT_EQ(trace_from_string(join(lines, "\n"), &error), std::nullopt);
  EXPECT_NE(error.find("count mismatch"), std::string::npos);
}

TEST(SerializeV2Test, EventAfterFooterRejected) {
  std::string text = trace_to_string(sample_trace());
  text += "8 begin 2 0 0 -1 -1\n";
  std::string error;
  EXPECT_EQ(trace_from_string(text, &error), std::nullopt);
  EXPECT_NE(error.find("after wolf-trace footer"), std::string::npos);
}

TEST(SerializeV2Test, NonMonotonicSeqRejected) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  std::swap(lines[3], lines[4]);
  std::string error;
  EXPECT_EQ(trace_from_string(join(lines, "\n"), &error), std::nullopt);
  EXPECT_NE(error.find("non-monotonic"), std::string::npos);
  EXPECT_NE(error.find("line 5"), std::string::npos);
}

// ----------------------------------------------- malformed-trace corpus ----
//
// Each damaged input goes through the strict reader (which must name the
// defect and its line) and through the salvaging reader (which must recover
// exactly the longest valid event prefix).

TEST(SalvageCorpusTest, TruncatedMidLine) {
  std::string text = trace_to_string(sample_trace());
  // Cut inside event line 6 (events 0..4 remain intact, no footer survives).
  std::size_t cut = text.find("5 end");
  ASSERT_NE(cut, std::string::npos);
  std::string damaged = text.substr(0, cut + 3);

  std::string error;
  EXPECT_EQ(trace_from_string(damaged, &error), std::nullopt);
  EXPECT_NE(error.find("line 7"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(damaged);
  EXPECT_EQ(report.version, 2);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), 5u);
  EXPECT_EQ(report.events_dropped, 1u);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("line 7"), std::string::npos);
  EXPECT_NE(report.summary().find("salvaged 5 event(s)"), std::string::npos);
}

TEST(SalvageCorpusTest, ReorderedSequenceNumbers) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  std::swap(lines[3], lines[4]);  // seq order becomes 0,1,3,2,...
  SalvageReport report = salvage_trace_from_string(join(lines, "\n"));
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), 3u);  // seq 0,1,3
  EXPECT_EQ(report.events_dropped, 5u);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("non-monotonic"), std::string::npos);
  EXPECT_NE(report.diagnostics[0].find("line 5"), std::string::npos);
}

TEST(SalvageCorpusTest, UnknownEventKind) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  lines[4] = "3 acquqire 1 2 0 5 -1";

  std::string error;
  EXPECT_EQ(trace_from_string(join(lines, "\n"), &error), std::nullopt);
  EXPECT_NE(error.find("acquqire"), std::string::npos);
  EXPECT_NE(error.find("line 5"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(join(lines, "\n"));
  EXPECT_EQ(report.trace.size(), 3u);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("acquqire"), std::string::npos);
}

TEST(SalvageCorpusTest, BadIntegerField) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  lines[2] = "1 start 0 xx 0 -1 1";

  std::string error;
  EXPECT_EQ(trace_from_string(join(lines, "\n"), &error), std::nullopt);
  EXPECT_NE(error.find("malformed event"), std::string::npos);
  EXPECT_NE(error.find("line 3"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(join(lines, "\n"));
  EXPECT_EQ(report.trace.size(), 1u);
  EXPECT_FALSE(report.complete);
}

TEST(SalvageCorpusTest, MissingHeaderStillSalvagesEvents) {
  std::vector<std::string> lines = split(trace_to_string(sample_trace()), '\n');
  lines.erase(lines.begin());  // header lost
  SalvageReport report = salvage_trace_from_string(join(lines, "\n"));
  EXPECT_EQ(report.version, 0);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), 8u);  // all events recovered
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("header"), std::string::npos);
}

TEST(SalvageCorpusTest, IntactTraceIsComplete) {
  SalvageReport report =
      salvage_trace_from_string(trace_to_string(sample_trace()));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.version, 2);
  EXPECT_EQ(report.trace.size(), 8u);
  EXPECT_EQ(report.events_dropped, 0u);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_NE(report.summary().find("complete"), std::string::npos);
}

TEST(SalvageCorpusTest, LockDisciplineViolationsAreNamedExactly) {
  // v1 carries no checksum, so a damaged field still parses; salvage must
  // cut at the violating event and say exactly what it dropped.
  struct Violation {
    const char* name;
    std::size_t event;  // the sample_trace() event that is damaged
    void (*damage)(Event&);
    const char* diagnostic;
  };
  const Violation violations[] = {
      {"negative thread id", 3, [](Event& e) { e.thread = -2; },
       "event 3 (seq 3): negative thread id -2; dropping it and the 4 "
       "event(s) after it"},
      {"negative child id", 1, [](Event& e) { e.other = -3; },
       "event 1 (seq 1): negative child thread id -3; dropping it and the 6 "
       "event(s) after it"},
      {"unheld release", 4, [](Event& e) { e.lock = 7; },
       "event 4 (seq 4): t1 releases lock 7 it does not hold; dropping it "
       "and the 3 event(s) after it"},
  };
  for (const Violation& v : violations) {
    SCOPED_TRACE(v.name);
    Trace trace = sample_trace();
    v.damage(trace.events[v.event]);
    const std::string text = trace_to_string(trace, TraceFormat::kV1);
    ASSERT_NE(trace_from_string(text), std::nullopt);  // well-formed v1
    SalvageReport report = salvage_trace_from_string(text);
    EXPECT_FALSE(report.complete);
    EXPECT_EQ(report.trace.size(), v.event);
    EXPECT_EQ(report.events_dropped, sample_trace().size() - v.event);
    EXPECT_EQ(report.diagnostics, std::vector<std::string>{v.diagnostic});
  }
}

// ------------------------------------------------------------ v3 format ----

// A dense trace spanning `blocks` full v3 blocks (wire::kBlockEvents each).
Trace block_trace(std::size_t blocks, std::size_t extra = 0) {
  Trace trace;
  const std::size_t n = blocks * wire::kBlockEvents + extra;
  for (std::size_t i = 0; i < n; ++i) {
    // Adjacent acquire/release pairs on the same (thread, lock): salvage
    // validates lock discipline, so any prefix must be consistent.
    Event e = make_event(
        (i & 1) == 0 ? EventKind::kLockAcquire : EventKind::kLockRelease,
        static_cast<ThreadId>((i / 2) % 3), static_cast<SiteId>(i % 11),
        static_cast<std::int32_t>(i / 11), static_cast<LockId>((i / 2) % 5));
    e.seq = i;
    trace.events.push_back(e);
  }
  return trace;
}

// Byte offset just past block `index`'s trailing checksum in v3 bytes.
// Walks the real framing, so it stays correct if the encoding evolves.
std::size_t end_of_block(const std::string& bytes, std::size_t index) {
  std::size_t off = sizeof wire::kMagicV3;
  for (std::size_t b = 0;; ++b) {
    EXPECT_EQ(bytes[off], wire::kBlockTag);
    ++off;
    auto varint = [&]() {
      std::uint64_t v = 0;
      for (int shift = 0;; shift += 7) {
        const auto c = static_cast<unsigned char>(bytes[off++]);
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0) return v;
      }
    };
    varint();  // event count
    const std::uint64_t payload = varint();
    off += static_cast<std::size_t>(payload) + 8;  // payload + checksum
    if (b == index) return off;
  }
}

TEST(SerializeV3Test, RoundTripsExactly) {
  Trace original = sample_trace();
  std::string bytes = trace_to_string(original, TraceFormat::kV3);
  EXPECT_EQ(bytes.compare(0, sizeof wire::kMagicV3, wire::kMagicV3,
                          sizeof wire::kMagicV3),
            0);
  std::string error;
  auto parsed = trace_from_string(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->events, original.events);
}

TEST(SerializeV3Test, EmptyTraceRoundTrips) {
  auto parsed = trace_from_string(trace_to_string(Trace{}, TraceFormat::kV3));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(SerializeV3Test, MultiBlockTraceRoundTripsExactly) {
  Trace original = block_trace(2, 17);
  auto parsed = trace_from_string(trace_to_string(original, TraceFormat::kV3));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events, original.events);
}

TEST(SerializeV3Test, SparseSequenceNumbersRoundTrip) {
  // Delta coding must not assume dense seqs (a salvaged source trace keeps
  // the survivors' original numbering).
  Trace original = sample_trace();
  for (std::size_t i = 0; i < original.events.size(); ++i)
    original.events[i].seq = 10 + 7 * i;
  auto parsed = trace_from_string(trace_to_string(original, TraceFormat::kV3));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->events, original.events);
}

TEST(SerializeV3Test, SmallerThanV2) {
  Trace trace = block_trace(1);
  const std::size_t v2 = trace_to_string(trace, TraceFormat::kV2).size();
  const std::size_t v3 = trace_to_string(trace, TraceFormat::kV3).size();
  EXPECT_LE(v3 * 2, v2);  // the advertised >= 2x size win
}

TEST(SerializeV3Test, ChecksumIdenticalAcrossFormats) {
  Trace trace = sample_trace();
  const std::string hex = wire::to_hex(trace_checksum(trace));
  // The v2 footer carries the checksum in hex; the v3 footer carries the
  // same value in binary.
  EXPECT_NE(trace_to_string(trace, TraceFormat::kV2).find(hex),
            std::string::npos);
  std::string bytes = trace_to_string(trace, TraceFormat::kV3);
  auto u64le_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
               bytes[at + static_cast<std::size_t>(i)]))
           << (8 * i);
    return v;
  };
  // The file ends with the block-index trailer (u64le section offset +
  // index magic); the 'E' footer's checksum is the 8 bytes right before
  // the index section, so an index-free file ends with it.
  ASSERT_EQ(bytes.compare(bytes.size() - 8, 8,
                          std::string(wire::kIndexMagic, 8)),
            0);
  const std::size_t index_offset =
      static_cast<std::size_t>(u64le_at(bytes.size() - 16));
  EXPECT_EQ(u64le_at(index_offset - 8), trace_checksum(trace));
}

// --------------------------------------------- v3 malformed-trace corpus ----

TEST(SalvageCorpusV3Test, BadMagicRejected) {
  std::string bytes = trace_to_string(sample_trace(), TraceFormat::kV3);
  bytes[3] ^= 0x20;  // damage the magic
  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("magic"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_EQ(report.version, 0);
  EXPECT_FALSE(report.complete);
  EXPECT_TRUE(report.trace.empty());
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("magic"), std::string::npos);
}

TEST(SalvageCorpusV3Test, CorruptBlockChecksumNamesTheBlock) {
  Trace original = block_trace(3);
  std::string bytes = trace_to_string(original, TraceFormat::kV3);
  // Flip one payload byte inside block 1.
  bytes[end_of_block(bytes, 0) + 20] ^= 0x01;

  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("block 1"), std::string::npos);

  // Salvage drops exactly block 1; blocks 0 and 2 survive.
  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_EQ(report.version, 3);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), 2 * wire::kBlockEvents);
  EXPECT_EQ(report.events_dropped, wire::kBlockEvents);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("block 1"), std::string::npos);
  for (std::size_t i = 0; i < wire::kBlockEvents; ++i) {
    EXPECT_EQ(report.trace.events[i].seq, i);
    EXPECT_EQ(report.trace.events[wire::kBlockEvents + i].seq,
              2 * wire::kBlockEvents + i);
  }
}

TEST(SalvageCorpusV3Test, CorruptStoredChecksumNamesTheBlock) {
  Trace original = block_trace(2);
  std::string bytes = trace_to_string(original, TraceFormat::kV3);
  bytes[end_of_block(bytes, 0) - 1] ^= 0xff;  // block 0's stored checksum
  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("block 0: checksum mismatch"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_EQ(report.trace.size(), wire::kBlockEvents);  // block 1 survives
  EXPECT_EQ(report.trace.events.front().seq, wire::kBlockEvents);
}

TEST(SalvageCorpusV3Test, CorruptFooterChecksumFailsTheTrace) {
  // Every block intact, one byte of the footer's whole-trace checksum
  // flipped: only the chain the reader computes beside each block's can
  // tell.
  Trace original = block_trace(3, 7);
  std::string bytes = trace_to_string(original, TraceFormat::kV3);
  std::uint64_t index_offset = 0;
  for (int i = 0; i < 8; ++i)
    index_offset |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                        bytes[bytes.size() - 16 + static_cast<std::size_t>(i)]))
                    << (8 * i);
  bytes[static_cast<std::size_t>(index_offset) - 3] ^= 0x10;

  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("trace checksum mismatch"), std::string::npos) << error;

  std::istringstream is(bytes);
  StreamTraceReader reader(is);
  std::vector<Event> block;
  std::size_t delivered = 0;
  while (reader.next_block(block)) delivered += block.size();
  EXPECT_EQ(delivered, original.size());
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("trace checksum mismatch"), std::string::npos)
      << reader.error();

  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.events, original.events);
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("trace checksum mismatch"),
            std::string::npos);
}

TEST(SalvageCorpusV3Test, TruncatedFooterDetected) {
  std::string bytes = trace_to_string(sample_trace(), TraceFormat::kV3);
  bytes.resize(bytes.size() - 4);  // cut inside the footer checksum
  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("footer"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), 8u);  // the events themselves survive
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("footer"), std::string::npos);
}

TEST(SalvageCorpusV3Test, MissingFooterDetected) {
  Trace original = block_trace(1);
  std::string bytes = trace_to_string(original, TraceFormat::kV3);
  bytes.resize(end_of_block(bytes, 0));  // clean cut after block 0
  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("missing wolf-trace v3 footer"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), wire::kBlockEvents);
}

TEST(SalvageCorpusV3Test, TruncatedPayloadDetected) {
  Trace original = block_trace(2);
  std::string bytes = trace_to_string(original, TraceFormat::kV3);
  bytes.resize(end_of_block(bytes, 1) - 30);  // cut inside block 1
  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("block 1"), std::string::npos);

  SalvageReport report = salvage_trace_from_string(bytes);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.trace.size(), wire::kBlockEvents);  // block 0 intact
  EXPECT_EQ(report.events_dropped, wire::kBlockEvents);
}

TEST(SalvageCorpusV3Test, DataAfterFooterRejected) {
  std::string bytes = trace_to_string(sample_trace(), TraceFormat::kV3);
  bytes.push_back('B');
  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("after wolf-trace v3 footer"), std::string::npos);
}

TEST(SalvageCorpusV3Test, IntactV3TraceIsComplete) {
  SalvageReport report = salvage_trace_from_string(
      trace_to_string(sample_trace(), TraceFormat::kV3));
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.version, 3);
  EXPECT_EQ(report.trace.size(), 8u);
  EXPECT_EQ(report.events_dropped, 0u);
  EXPECT_NE(report.summary().find("v3"), std::string::npos);
}

// ---------------------------------------------------- streaming reader ----

TEST(StreamTraceReaderTest, DeliversBlocksIncrementally) {
  Trace original = block_trace(2, 5);
  std::istringstream is{trace_to_string(original, TraceFormat::kV3)};
  StreamTraceReader reader(is, StreamTraceReader::Mode::kStrict);
  std::vector<Event> block;
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  while (reader.next_block(block)) {
    sizes.push_back(block.size());
    for (const Event& e : block) EXPECT_EQ(e.seq, total++);
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.version(), 3);
  EXPECT_EQ(total, original.events.size());
  EXPECT_EQ(sizes, (std::vector<std::size_t>{wire::kBlockEvents,
                                             wire::kBlockEvents, 5}));
}

TEST(StreamTraceReaderTest, TextStreamsInBlocksToo) {
  Trace original = block_trace(1, 3);
  std::istringstream is{trace_to_string(original, TraceFormat::kV2)};
  StreamTraceReader reader(is, StreamTraceReader::Mode::kStrict);
  std::vector<Event> block;
  std::size_t total = 0, calls = 0;
  while (reader.next_block(block)) {
    ++calls;
    total += block.size();
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.version(), 2);
  EXPECT_EQ(total, original.events.size());
  EXPECT_EQ(calls, 2u);
}

TEST(VectorTraceReaderTest, ChunksABorrowedTrace) {
  Trace trace = block_trace(1, 1);
  VectorTraceReader reader(trace);
  std::vector<Event> block;
  std::size_t total = 0;
  while (reader.next_block(block)) total += block.size();
  EXPECT_EQ(total, trace.events.size());
}

// ------------------------------------ v3 footer index + the path reader ----

// Writes trace bytes to a real file for the path constructor.
struct TraceFile {
  std::filesystem::path dir;
  std::string path;

  explicit TraceFile(const std::string& bytes, const char* name = "t.v3") {
    dir = std::filesystem::temp_directory_path() /
          ("wolf-trace-test-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    path = (dir / name).string();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ~TraceFile() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::vector<Event> drain(StreamTraceReader& reader) {
  std::vector<Event> all, block;
  while (reader.next_block(block))
    all.insert(all.end(), block.begin(), block.end());
  return all;
}

// Runs `check(reader, how)` on a fresh reader of `path` built through each
// constructor: over an opened binary std::ifstream, and from the path.
template <typename Check>
void for_each_constructor(const std::string& path,
                          StreamTraceReader::Mode mode, Check check) {
  {
    std::ifstream is(path, std::ios::binary);
    StreamTraceReader reader(is, mode);
    check(reader, "istream");
  }
  StreamTraceReader reader(path, mode);
  check(reader, "path");
}

TEST(TraceIndexTest, StreamWriterMatchesBatchWriterByteForByte) {
  Trace trace = block_trace(2, 7);
  for (TraceFormat format :
       {TraceFormat::kV1, TraceFormat::kV2, TraceFormat::kV3}) {
    std::ostringstream incremental;
    StreamTraceWriter writer(incremental, format);
    for (const Event& e : trace.events) writer.write(e);
    writer.finish();
    EXPECT_EQ(incremental.str(), trace_to_string(trace, format))
        << to_string(format);
  }
}

TEST(TraceIndexTest, IndexRoundTripsAcrossEveryDecodePath) {
  Trace trace = block_trace(5, 7);
  TraceFile file(trace_to_string(trace, TraceFormat::kV3));
  for_each_constructor(
      file.path, StreamTraceReader::Mode::kStrict,
      [&](StreamTraceReader& reader, const char* how) {
        EXPECT_EQ(drain(reader), trace.events) << how;
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_TRUE(reader.index_present()) << how;
      });
}

TEST(TraceIndexTest, UnindexedFileLoadsOnEveryPathToo) {
  Trace trace = block_trace(3, 1);
  TraceFile file(test::unindexed_v3(trace));
  for_each_constructor(
      file.path, StreamTraceReader::Mode::kStrict,
      [&](StreamTraceReader& reader, const char* how) {
        EXPECT_EQ(drain(reader), trace.events) << how;
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_FALSE(reader.index_present()) << how;
      });
}

TEST(TraceIndexTest, TextTraceThroughPathReaderFallsBackToBuffered) {
  Trace trace = sample_trace();
  TraceFile file(trace_to_string(trace, TraceFormat::kV2), "t.v2");
  for_each_constructor(
      file.path, StreamTraceReader::Mode::kStrict,
      [&](StreamTraceReader& reader, const char* how) {
        EXPECT_EQ(drain(reader), trace.events) << how;
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(reader.version(), 2) << how;
      });
}

TEST(TraceIndexTest, MissingFileReportsCleanly) {
  StreamTraceReader reader("/nonexistent-dir-for-wolf-tests/absent.v3",
                           StreamTraceReader::Mode::kStrict);
  std::vector<Event> block;
  EXPECT_FALSE(reader.next_block(block));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("cannot open"), std::string::npos);
}

TEST(TraceIndexTest, CorruptBlockSalvagesIdenticallyAtEveryJobsLevel) {
  // Block 2's payload, then each field of its header. A damaged payload
  // leaves the framing intact, so salvage skips the block and keeps the
  // ones after it; a damaged tag or header breaks the framing, so the scan
  // stops there. Either way both constructors must give the same answer,
  // in salvage and in strict mode.
  struct Damage {
    const char* name;
    std::size_t offset;  // from block 2's tag byte
    char value;          // XOR mask
    std::size_t events;  // events salvage delivers
    std::size_t dropped;
    const char* diagnostic;
  };
  const Trace trace = block_trace(4);
  const std::string clean = trace_to_string(trace, TraceFormat::kV3);
  const std::size_t block2 = end_of_block(clean, 1);
  ASSERT_EQ(clean[block2 + 1] & 0x80, 0x80) << "count varint is 2 bytes";
  const Damage damages[] = {
      {"payload", 20, 0x01, 3 * wire::kBlockEvents, wire::kBlockEvents,
       "block 2"},
      // The tag byte, the count varint's first byte (count -> 0) and the
      // payload-size varint's first byte (size -> below the minimum).
      {"tag", 0, 0x7f, 2 * wire::kBlockEvents, 0, "block tag (block 2)"},
      {"count", 1, static_cast<char>(0x80), 2 * wire::kBlockEvents, 0,
       "block 2: malformed header"},
      {"payload size", 3, static_cast<char>(0x80 | 0x7f),
       2 * wire::kBlockEvents, 0, "block 2: malformed header"},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    std::string bytes = clean;
    bytes[block2 + damage.offset] ^= damage.value;
    TraceFile file(bytes);

    std::vector<std::vector<Event>> events;
    std::vector<std::vector<std::string>> diags;
    std::vector<std::size_t> dropped;
    std::vector<std::string> errors;
    for_each_constructor(
        file.path, StreamTraceReader::Mode::kSalvage,
        [&](StreamTraceReader& reader, const char*) {
          events.push_back(drain(reader));
          diags.push_back(reader.diagnostics());
          dropped.push_back(reader.events_dropped());
          EXPECT_FALSE(reader.complete());
        });
    for_each_constructor(file.path, StreamTraceReader::Mode::kStrict,
                         [&](StreamTraceReader& strict, const char* how) {
                           drain(strict);
                           EXPECT_FALSE(strict.ok()) << how;
                           errors.push_back(strict.error());
                         });
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_EQ(events[i], events[0]) << "constructor " << i;
      EXPECT_EQ(diags[i], diags[0]) << "constructor " << i;
      EXPECT_EQ(dropped[i], dropped[0]) << "constructor " << i;
      EXPECT_EQ(errors[i], errors[0]) << "constructor " << i;
    }
    EXPECT_EQ(events[0].size(), damage.events);
    EXPECT_EQ(dropped[0], damage.dropped);
    ASSERT_FALSE(diags[0].empty());
    EXPECT_NE(diags[0][0].find(damage.diagnostic), std::string::npos)
        << diags[0][0];
    EXPECT_NE(errors[0].find("block 2"), std::string::npos) << errors[0];
  }
}

TEST(TraceIndexTest, TruncationAtEveryByteOffsetNeverPassesStrict) {
  Trace trace = block_trace(1, 3);
  const std::string bytes = trace_to_string(trace, TraceFormat::kV3);
  const std::string plain = test::unindexed_v3(trace);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    if (prefix == plain) {
      // The one self-delimiting prefix: cutting exactly after the 'E'
      // footer yields a complete, valid, index-free trace.
      EXPECT_NE(trace_from_string(prefix), std::nullopt);
      continue;
    }
    std::string error;
    EXPECT_EQ(trace_from_string(prefix, &error), std::nullopt)
        << "a " << cut << "-byte prefix must not load strict";
    EXPECT_FALSE(error.empty());
    // Salvage must never crash and never invent events.
    SalvageReport report = salvage_trace_from_string(prefix);
    EXPECT_FALSE(report.complete);
    EXPECT_LE(report.trace.size(), trace.events.size());
    for (std::size_t i = 0; i < report.trace.size(); ++i)
      EXPECT_EQ(report.trace.events[i], trace.events[i]);
  }
}

TEST(TraceIndexTest, TruncatedIndexFallsBackToSequentialLoad) {
  Trace trace = block_trace(2, 5);
  const std::string bytes = trace_to_string(trace, TraceFormat::kV3);
  const std::string plain = test::unindexed_v3(trace);
  // Every cut strictly inside the footer-index region (the bytes the
  // index-free encoding does not have) leaves the events and the 'E'
  // footer intact: salvage through either constructor must still deliver
  // the complete event list, with the damage named. (A cut at exactly
  // plain.size() is a complete unindexed trace, so start one byte past it.)
  for (std::size_t cut = plain.size() + 1; cut < bytes.size(); ++cut) {
    TraceFile file(bytes.substr(0, cut));
    for_each_constructor(
        file.path, StreamTraceReader::Mode::kSalvage,
        [&](StreamTraceReader& reader, const char* how) {
          EXPECT_EQ(drain(reader), trace.events) << how << " cut=" << cut;
          EXPECT_EQ(reader.events_dropped(), 0u);
          EXPECT_FALSE(reader.complete());
          ASSERT_FALSE(reader.diagnostics().empty());
          EXPECT_NE(reader.diagnostics()[0].find("footer"),
                    std::string::npos);
        });
  }
}

TEST(TraceIndexTest, CorruptIndexChecksumFallsBackAndIsNamed) {
  Trace trace = block_trace(1);
  std::string bytes = trace_to_string(trace, TraceFormat::kV3);
  // Flip a bit inside the index section (after the footer, before the
  // trailer) — the entry checksum must catch it.
  bytes[bytes.size() - wire::kIndexTrailerBytes - 4] ^= 0x01;
  TraceFile file(bytes);
  for_each_constructor(
      file.path, StreamTraceReader::Mode::kSalvage,
      [&](StreamTraceReader& reader, const char* how) {
        EXPECT_EQ(drain(reader), trace.events) << how;  // events still load
        EXPECT_FALSE(reader.complete());
      });

  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_NE(error.find("footer"), std::string::npos);
}

TEST(TraceIndexTest, DamagedTrailerOffsetIsRejectedByEveryReader) {
  // The trailer's section offset must point back at the index tag. Flip its
  // low byte: the string, istream and path readers all reject the file,
  // and salvage keeps every event but names the damage.
  const Trace trace = block_trace(2, 476);  // 1500 events
  std::string bytes = trace_to_string(trace, TraceFormat::kV3);
  bytes[bytes.size() - wire::kIndexTrailerBytes] ^= 0x01;
  TraceFile file(bytes);
  const std::string want =
      "malformed data after wolf-trace v3 footer (block index)";

  std::string error;
  EXPECT_EQ(trace_from_string(bytes, &error), std::nullopt);
  EXPECT_EQ(error, want);
  error.clear();
  {
    std::ifstream is(file.path, std::ios::binary);
    EXPECT_EQ(read_trace(is, &error), std::nullopt);
    EXPECT_EQ(error, want);
  }
  error.clear();
  EXPECT_EQ(read_trace(file.path, &error), std::nullopt);
  EXPECT_EQ(error, want);

  std::vector<SalvageReport> salvaged;
  salvaged.push_back(salvage_trace_from_string(bytes));
  {
    std::ifstream is(file.path, std::ios::binary);
    salvaged.push_back(read_trace_salvage(is));
  }
  salvaged.push_back(read_trace_salvage(file.path));
  for (const SalvageReport& report : salvaged) {
    EXPECT_EQ(report.trace.events, trace.events);
    EXPECT_FALSE(report.complete);
    EXPECT_EQ(report.events_dropped, 0u);
    EXPECT_EQ(report.diagnostics, std::vector<std::string>{want});
  }
}

}  // namespace
}  // namespace wolf
