// Cross-component property tests over randomly generated programs,
// validated against the exhaustive schedule explorer:
//
//   completeness — every deadlock reachable in ANY schedule corresponds to a
//                  detected cycle of a single recorded trace (branch-free
//                  programs execute all their operations in a completed run);
//   soundness    — every cycle the Pruner or the Generator rules out is
//                  unreachable;
//   consistency  — every cycle the Replayer reproduces is reachable, and a
//                  reproduced run's blocked sites equal the cycle signature;
//   determinism  — recording with the same seed yields the same trace;
//   round-trip   — randomized traces survive every serialization format
//                  exactly, and v3 salvage after truncation at any block
//                  boundary recovers precisely the intact whole blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/generator.hpp"
#include "core/pipeline.hpp"
#include "core/pruner.hpp"
#include "explore/explorer.hpp"
#include "testutil.hpp"
#include "trace/serialize.hpp"
#include "trace/wire.hpp"

namespace wolf {
namespace {

struct Case {
  sim::Program program;
  Trace trace;
  Detection detection;
  explore::ExploreResult explored;
};

// Builds the full analysis for one seed; nullopt when recording failed or
// the state space exceeded the budget (both are rare at this size).
std::optional<Case> build_case(int seed_index) {
  Rng rng(static_cast<std::uint64_t>(seed_index) * 2654435761ULL + 17);
  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(2));
  config.locks = 2 + static_cast<int>(rng.below(2));
  config.blocks_per_worker = 2;
  Case c{test::random_program(rng, config), {}, {}, {}};

  auto trace = sim::record_trace(c.program, rng(), 40);
  if (!trace.has_value()) return std::nullopt;
  c.trace = std::move(*trace);
  c.detection = detect(c.trace);

  explore::ExploreOptions options;
  options.max_states = 500000;
  c.explored = explore::explore(c.program, options);
  if (!c.explored.exhausted) return std::nullopt;
  return c;
}

class WolfPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(WolfPropertyTest, DetectorIsCompleteForReachableDeadlocks) {
  auto c = build_case(GetParam());
  if (!c) GTEST_SKIP() << "recording or exploration budget exceeded";

  std::set<DefectSignature> detected;
  for (const PotentialDeadlock& cycle : c->detection.cycles)
    detected.insert(signature_of(cycle, c->detection.dep));

  for (const auto& sig : c->explored.deadlock_signatures) {
    if (sig.empty()) continue;  // join stall, not a lock deadlock
    EXPECT_TRUE(detected.count(sig) != 0)
        << "reachable deadlock at signature size " << sig.size()
        << " was not detected";
  }
}

TEST_P(WolfPropertyTest, PrunerAndGeneratorAreSound) {
  auto c = build_case(GetParam());
  if (!c) GTEST_SKIP() << "recording or exploration budget exceeded";

  auto verdicts = prune(c->detection);
  for (std::size_t i = 0; i < c->detection.cycles.size(); ++i) {
    DefectSignature sig = signature_of(c->detection.cycles[i],
                                       c->detection.dep);
    if (is_false(verdicts[i])) {
      EXPECT_FALSE(c->explored.deadlock_reachable_at(sig))
          << "Pruner eliminated a reachable deadlock";
      continue;
    }
    GeneratorResult gen = generate(c->detection.cycles[i], c->detection.dep);
    if (!gen.feasible) {
      EXPECT_FALSE(c->explored.deadlock_reachable_at(sig))
          << "Generator eliminated a reachable deadlock";
    }
  }
}

TEST_P(WolfPropertyTest, ReproducedCyclesAreReachable) {
  auto c = build_case(GetParam());
  if (!c) GTEST_SKIP() << "recording or exploration budget exceeded";

  auto verdicts = prune(c->detection);
  for (std::size_t i = 0; i < c->detection.cycles.size(); ++i) {
    if (is_false(verdicts[i])) continue;
    GeneratorResult gen = generate(c->detection.cycles[i], c->detection.dep);
    if (!gen.feasible) continue;
    ReplayOptions options;
    options.attempts = 6;
    options.seed = static_cast<std::uint64_t>(GetParam()) + i;
    ReplayStats stats = replay(c->program, c->detection.cycles[i],
                               c->detection.dep, gen.gs, options);
    if (stats.reproduced()) {
      DefectSignature sig = signature_of(c->detection.cycles[i],
                                         c->detection.dep);
      EXPECT_TRUE(c->explored.deadlock_reachable_at(sig))
          << "Replayer 'reproduced' an unreachable deadlock";
    }
  }
}

TEST_P(WolfPropertyTest, RecordingIsDeterministicPerSeed) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  test::RandomProgramConfig config;
  config.workers = 2;
  sim::Program program = test::random_program(rng, config);
  const std::uint64_t seed = rng();
  auto t1 = sim::record_trace(program, seed, 40);
  auto t2 = sim::record_trace(program, seed, 40);
  ASSERT_EQ(t1.has_value(), t2.has_value());
  if (t1) {
    EXPECT_EQ(t1->events, t2->events);
  }
}

TEST_P(WolfPropertyTest, DsigmaStructuralInvariants) {
  auto c = build_case(GetParam());
  if (!c) GTEST_SKIP();
  for (const LockTuple& t : c->detection.dep.tuples) {
    // Context = lockset acquisitions plus the acquisition itself.
    EXPECT_EQ(t.context.size(), t.lockset.size() + 1);
    EXPECT_EQ(t.acquire_index().thread, t.thread);
    EXPECT_GE(t.tau, 1);
    // Lockset entries are unique (re-entrant acquisitions never re-enter).
    std::set<LockId> unique_locks(t.lockset.begin(), t.lockset.end());
    EXPECT_EQ(unique_locks.size(), t.lockset.size());
    // The acquired lock is never already held.
    EXPECT_FALSE(t.holds(t.lock));
  }
  // The log is in trace order, and it records each canonical tuple's own
  // acquisition at the tuple's trace position.
  const std::deque<Acquisition>& log = c->detection.dep.log;
  std::map<std::size_t, const Acquisition*> by_pos;
  for (std::size_t k = 0; k < log.size(); ++k) {
    if (k > 0) {
      EXPECT_LT(log[k - 1].pos, log[k].pos);
    }
    by_pos.emplace(log[k].pos, &log[k]);
  }
  for (const LockTuple& t : c->detection.dep.tuples) {
    auto it = by_pos.find(t.trace_pos);
    ASSERT_NE(it, by_pos.end()) << t.to_string();
    EXPECT_EQ(it->second->index(), t.acquire_index());
    EXPECT_EQ(it->second->lock, t.lock);
  }
}

TEST_P(WolfPropertyTest, FullPipelineNeverMisclassifiesOnRandomPrograms) {
  auto c = build_case(GetParam());
  if (!c) GTEST_SKIP();
  WolfOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) + 1;
  options.replay.attempts = 5;
  WolfReport report = analyze_trace(c->program, c->trace, options);
  for (const CycleReport& cycle : report.cycles) {
    DefectSignature sig = signature_of(
        report.detection.cycles[cycle.cycle_index], report.detection.dep);
    switch (cycle.classification) {
      case Classification::kFalseByPruner:
      case Classification::kFalseByGenerator:
        EXPECT_FALSE(c->explored.deadlock_reachable_at(sig));
        break;
      case Classification::kReproduced:
        EXPECT_TRUE(c->explored.deadlock_reachable_at(sig));
        break;
      case Classification::kUnknown:
        break;  // no claim made
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WolfPropertyTest, ::testing::Range(0, 30));

// --------------------------------------------------- serialization fuzzing

// A random but well-formed trace: strictly increasing seqs with random gaps
// (salvaged traces are sparse), random kinds and field values, sized to span
// `blocks` v3 blocks plus a random partial tail. Lock and thread references
// respect the discipline salvage validates (releases match a held lock,
// start/join name a real thread) so salvaging any prefix returns it whole.
Trace random_trace(Rng& rng, std::size_t blocks) {
  Trace trace;
  const std::size_t n = blocks * wire::kBlockEvents + rng.below(64);
  std::uint64_t seq = rng.below(8);
  std::unordered_map<ThreadId, std::vector<LockId>> held;
  for (std::size_t i = 0; i < n; ++i) {
    Event e;
    e.seq = seq;
    seq += 1 + rng.below(5);
    e.kind = static_cast<EventKind>(rng.below(6));
    e.thread = static_cast<ThreadId>(rng.below(64));
    e.site = rng.chance(0.1) ? kInvalidSite
                             : static_cast<SiteId>(rng.below(1000));
    e.occurrence = static_cast<std::int32_t>(rng.below(100000));
    e.lock = rng.chance(0.2) ? kInvalidLock
                             : static_cast<LockId>(rng.below(32));
    e.other = rng.chance(0.5) ? kInvalidThread
                              : static_cast<ThreadId>(rng.below(64));
    if (e.kind == EventKind::kThreadStart || e.kind == EventKind::kThreadJoin)
      e.other = static_cast<ThreadId>(rng.below(64));
    if (e.kind == EventKind::kLockAcquire) {
      if (e.lock == kInvalidLock) e.lock = static_cast<LockId>(rng.below(32));
      held[e.thread].push_back(e.lock);
    } else if (e.kind == EventKind::kLockRelease) {
      auto& stack = held[e.thread];
      if (stack.empty()) {
        e.kind = EventKind::kLockAcquire;
        if (e.lock == kInvalidLock) e.lock = static_cast<LockId>(rng.below(32));
        stack.push_back(e.lock);
      } else {
        const std::size_t pick = rng.below(stack.size());
        e.lock = stack[pick];
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    trace.events.push_back(e);
  }
  return trace;
}

class SerializationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationPropertyTest, RandomTraceRoundTripsInEveryFormat) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9ULL + 101);
  Trace original = random_trace(rng, rng.below(3));
  for (TraceFormat format :
       {TraceFormat::kV1, TraceFormat::kV2, TraceFormat::kV3}) {
    std::string error;
    auto parsed = trace_from_string(trace_to_string(original, format), &error);
    ASSERT_TRUE(parsed.has_value())
        << to_string(format) << " round-trip failed: " << error;
    EXPECT_EQ(parsed->events, original.events) << to_string(format);
  }
}

TEST_P(SerializationPropertyTest, ConversionPreservesChecksumAndEvents) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271ULL + 7);
  Trace original = random_trace(rng, 1);
  const std::uint64_t checksum = trace_checksum(original);
  // v2 -> v3 -> v2: what `wolf convert` does, at the library level.
  auto as_v3 = trace_from_string(trace_to_string(original, TraceFormat::kV2));
  ASSERT_TRUE(as_v3.has_value());
  auto back = trace_from_string(trace_to_string(*as_v3, TraceFormat::kV3));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->events, original.events);
  EXPECT_EQ(trace_checksum(*back), checksum);
}

TEST_P(SerializationPropertyTest, TruncationAtEveryBlockBoundary) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL + 9);
  Trace original = random_trace(rng, 2);  // 2 full blocks + partial tail
  const std::string bytes = trace_to_string(original, TraceFormat::kV3);

  // Walk the framing to find every block's end offset and event count.
  std::vector<std::size_t> block_end;
  std::vector<std::uint64_t> block_count;
  wire::ByteReader r(bytes);
  r.p += sizeof wire::kMagicV3;
  for (;;) {
    std::uint8_t tag = 0;
    ASSERT_TRUE(r.get_u8(tag));
    if (tag == static_cast<std::uint8_t>(wire::kFooterTag)) break;
    std::uint64_t count = 0, payload = 0;
    ASSERT_TRUE(r.get_varint(count));
    ASSERT_TRUE(r.get_varint(payload));
    r.p += payload + 8;
    block_count.push_back(count);
    block_end.push_back(
        bytes.size() - static_cast<std::size_t>(r.end - r.p));
  }

  // Truncating cleanly after block k keeps exactly blocks 0..k.
  std::uint64_t kept = 0;
  for (std::size_t k = 0; k < block_end.size(); ++k) {
    kept += block_count[k];
    const std::string cut = bytes.substr(0, block_end[k]);

    std::string error;
    EXPECT_EQ(trace_from_string(cut, &error), std::nullopt);
    EXPECT_NE(error.find("missing wolf-trace v3 footer"), std::string::npos);

    SalvageReport report = salvage_trace_from_string(cut);
    EXPECT_FALSE(report.complete);
    ASSERT_EQ(report.trace.size(), kept) << "truncated after block " << k;
    for (std::size_t i = 0; i < kept; ++i)
      EXPECT_EQ(report.trace.events[i], original.events[i]);
  }

  // Truncating mid-block additionally drops the ragged block.
  for (std::size_t k = 0; k < block_end.size(); ++k) {
    const std::size_t start = k == 0 ? sizeof wire::kMagicV3
                                     : block_end[k - 1];
    const std::size_t cut_at =
        start + 1 + rng.below(block_end[k] - start - 1);
    SalvageReport report = salvage_trace_from_string(bytes.substr(0, cut_at));
    EXPECT_FALSE(report.complete);
    std::uint64_t whole = 0;
    for (std::size_t j = 0; j < k; ++j) whole += block_count[j];
    EXPECT_EQ(report.trace.size(), whole) << "cut inside block " << k;
  }
}

// Exhaustive truncation: cut the serialized bytes at EVERY offset, in all
// three formats. Salvage must never crash, must return a prefix of the
// original events, and must either claim completeness honestly (v2/v3 carry
// footers, so only the untruncated buffer may claim complete; v1 has no
// footer, so any newline-boundary cut is indistinguishable from a complete
// file) or say what was dropped in a diagnostic.
TEST_P(SerializationPropertyTest, TruncationAtEveryByteOffset) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x2545f4914f6cdd1dULL + 3);
  // Small traces keep offsets * formats tractable (a few hundred KB of
  // salvage work per seed); block-boundary coverage for big traces is above.
  Trace original = random_trace(rng, 0);
  for (TraceFormat format :
       {TraceFormat::kV1, TraceFormat::kV2, TraceFormat::kV3}) {
    const std::string bytes = trace_to_string(original, format);
    const bool text = format != TraceFormat::kV3;
    // Indexed v3 = the unindexed encoding + a post-footer index section, so
    // the cut that removes exactly the index leaves a complete, valid,
    // index-free trace — the one prefix where claiming completeness is
    // honest (same carve-out as trace_test's index truncation suite).
    const std::size_t plain_size =
        format == TraceFormat::kV3 ? test::unindexed_v3(original).size()
                                   : bytes.size();
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      SalvageReport report = salvage_trace_from_string(bytes.substr(0, cut));
      ASSERT_LE(report.trace.size(), original.events.size())
          << to_string(format) << " cut at " << cut;
      // Prefix property. Text formats carry no per-event checksum, so a
      // line torn inside a trailing multi-digit field can still parse —
      // the FINAL salvaged event may be a torn variant of the original.
      // v3's block checksums close exactly that hole: every survivor is
      // bit-exact.
      const std::size_t exact = report.trace.size() == 0 ? 0
                                : text ? report.trace.size() - 1
                                       : report.trace.size();
      for (std::size_t i = 0; i < exact; ++i) {
        ASSERT_EQ(report.trace.events[i], original.events[i])
            << to_string(format) << " cut at " << cut
            << ": salvage returned a non-prefix";
      }
      if (text && report.trace.size() > 0) {
        // Even a torn final event keeps the original's seq prefix order.
        ASSERT_LE(report.trace.events.back().seq,
                  original.events[report.trace.size() - 1].seq)
            << to_string(format) << " cut at " << cut;
      }
      // Completeness claims. v2/v3 end with a footer the cut removed, so
      // any proper truncation must be reported incomplete. v1 has no
      // footer: a cut keeping only whole parseable lines is genuinely
      // indistinguishable from a complete file, and that is the documented
      // reason v2 grew one.
      // (A cut that removes only the footer's trailing newline leaves the
      // footer verifiable, so completeness is genuinely true there.)
      if (format != TraceFormat::kV1 &&
          bytes.compare(cut, std::string::npos, "\n") != 0 &&
          cut < bytes.size() && cut != plain_size) {
        ASSERT_FALSE(report.complete)
            << to_string(format) << " cut at " << cut
            << " claimed completeness without its footer";
      }
      // Anything detectably dropped must be named: the diagnostics point
      // at the torn line (text) or the damaged/missing block/footer (v3).
      if (report.trace.size() < original.events.size() && !report.complete) {
        ASSERT_FALSE(report.diagnostics.empty())
            << to_string(format) << " cut at " << cut
            << " dropped events without a diagnostic";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationPropertyTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace wolf
