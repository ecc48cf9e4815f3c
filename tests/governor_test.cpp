// Resource-governed online detection (core/governor.hpp) and its
// linear-time sound pre-filter (core/prefilter.hpp).
//
// The load-bearing properties:
//   * pre-filter soundness — whenever tuple-level enumeration finds a
//     cycle, the lock graph is suspicious (differentially, over random
//     programs); the refinements (single-thread SCCs, common guard locks)
//     only discharge windows that provably contain no cycle;
//   * governed ≡ batch — with no budget, no deadline and no faults, the
//     governed detector's final Detection matches batch detect() bit for
//     bit, at every window size;
//   * one Session contract — a session with nothing reading its windows
//     closes none and builds no pre-filter, and it poisons on a malformed
//     event and never throws from finish(), like a windowed one;
//   * honesty — eviction flips coverage_complete and marks the window
//     kShedding; a per-window detection fault degrades only that window
//     (finish() re-enumerates, coverage stays complete); a fault in the
//     final enumeration is reported as incomplete coverage, never as a
//     clean empty report;
//   * the degradation ladder is a pure function with hysteresis;
//   * live surfacing is exact — every distinct cycle is delivered once,
//     even when two cycles share their acquire sites and threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "core/governor.hpp"
#include "core/pipeline.hpp"
#include "core/prefilter.hpp"
#include "graph/digraph.hpp"
#include "robust/fault.hpp"
#include "testutil.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

namespace wolf {
namespace {

Event acquire(ThreadId t, LockId l, SiteId site, std::int32_t occ = 1) {
  Event e;
  e.kind = EventKind::kLockAcquire;
  e.thread = t;
  e.lock = l;
  e.site = site;
  e.occurrence = occ;
  return e;
}

Event release(ThreadId t, LockId l) {
  Event e;
  e.kind = EventKind::kLockRelease;
  e.thread = t;
  e.lock = l;
  return e;
}

// Classic two-thread AB/BA deadlock pattern, optionally guarded by a gate
// lock g held around both regions.
Trace ab_ba_trace(bool gated) {
  Trace trace;
  SiteId site = 1;
  auto region = [&](ThreadId t, LockId a, LockId b) {
    if (gated) trace.events.push_back(acquire(t, 5, site++));
    trace.events.push_back(acquire(t, a, site++));
    trace.events.push_back(acquire(t, b, site++));
    trace.events.push_back(release(t, b));
    trace.events.push_back(release(t, a));
    if (gated) trace.events.push_back(release(t, 5));
  };
  region(1, 10, 20);
  region(2, 20, 10);
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;
  return trace;
}

std::set<DefectSignature> signatures_of(const Detection& det) {
  std::set<DefectSignature> sigs;
  for (const PotentialDeadlock& cycle : det.cycles)
    sigs.insert(signature_of(cycle, det.dep));
  return sigs;
}

LockGraph graph_of(const Trace& trace) {
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(trace);
  for (const LockTuple& t : dep.tuples) g.on_tuple(t);
  return g;
}

// The locks of one dirty-SCC drain, in drain order.
std::vector<LockId> drain_locks(LockGraph& g) {
  std::vector<LockId> locks;
  for (int node : g.drain_dirty_suspicious_nodes())
    locks.push_back(g.lock_of(node));
  return locks;
}

// ------------------------------------------------------------- pre-filter

TEST(PrefilterTest, FlagsTheUngatedAbBaPattern) {
  LockGraph g = graph_of(ab_ba_trace(/*gated=*/false));
  EXPECT_TRUE(g.suspicious());
  EXPECT_GE(g.suspicious_scc_count(), 1u);
}

TEST(PrefilterTest, GateLockDischargesTheSccWithoutEnumeration) {
  // Both AB/BA regions run under gate lock 5: every edge of the {10,20}
  // SCC carries the gate in its guard intersection, so the lockset-
  // disjointness requirement can never be met — not suspicious.
  Trace gated = ab_ba_trace(/*gated=*/true);
  EXPECT_TRUE(detect(gated).cycles.empty());
  EXPECT_FALSE(graph_of(gated).suspicious());
}

TEST(PrefilterTest, SingleThreadCycleIsNotSuspicious) {
  // One thread acquiring in both orders creates the lock-graph cycle
  // 10 -> 20 -> 10, but a deadlock needs two distinct threads.
  Trace trace;
  SiteId site = 1;
  for (auto [a, b] : {std::pair<LockId, LockId>{10, 20}, {20, 10}}) {
    trace.events.push_back(acquire(1, a, site++));
    trace.events.push_back(acquire(1, b, site++));
    trace.events.push_back(release(1, b));
    trace.events.push_back(release(1, a));
  }
  EXPECT_FALSE(graph_of(trace).suspicious());
}

TEST(PrefilterTest, LocksetMaskCoversFourWordsAndDropsTheRest) {
  GuardMask low = lockset_mask({0, 3});
  EXPECT_EQ(low.w[0], (1ULL << 0) | (1ULL << 3));
  EXPECT_TRUE(low.any());
  // Lock 70 used to vanish from the old single-word mask; it now lands in
  // word 1 and can still discharge an SCC as a guard.
  GuardMask mid = lockset_mask({70});
  EXPECT_EQ(mid.w[1], 1ULL << 6);
  EXPECT_TRUE(mid.any());
  EXPECT_EQ(lockset_mask({255}).w[3], 1ULL << 63);
  // Locks >= GuardMask::kBits vanish: a vanished guard can only weaken the
  // common-guard refinement (more suspicious), never discharge an SCC.
  EXPECT_FALSE(lockset_mask({static_cast<LockId>(GuardMask::kBits)}).any());
  EXPECT_FALSE(lockset_mask({1000}).any());
}

TEST(PrefilterTest, GateLockAboveSixtyFourStillDischargesHundredLockTrace) {
  // 100 locks; the AB/BA pair is (90, 95) and the gate is lock 80 — all
  // beyond the old 64-bit mask. Touch locks 0..79 first so the interesting
  // ids really sit past word 0, then run both gated regions. The guard
  // refinement must discharge the SCC exactly as it does for small ids.
  Trace trace;
  SiteId site = 1;
  for (LockId l = 0; l < 80; ++l) {
    trace.events.push_back(acquire(1, l, site++));
    trace.events.push_back(release(1, l));
  }
  auto region = [&](ThreadId t, LockId a, LockId b) {
    trace.events.push_back(acquire(t, 80, site++));
    trace.events.push_back(acquire(t, a, site++));
    trace.events.push_back(acquire(t, b, site++));
    trace.events.push_back(release(t, b));
    trace.events.push_back(release(t, a));
    trace.events.push_back(release(t, 80));
  };
  region(1, 90, 95);
  region(2, 95, 90);
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;

  EXPECT_TRUE(detect(trace).cycles.empty());
  EXPECT_FALSE(graph_of(trace).suspicious());

  // Same trace without the gate: suspicious, and the detector agrees.
  Trace ungated;
  ungated.events.reserve(trace.events.size());
  for (const Event& e : trace.events)
    if (e.lock != 80) ungated.events.push_back(e);
  std::uint64_t reseq = 0;
  for (Event& e : ungated.events) e.seq = reseq++;
  EXPECT_FALSE(detect(ungated).cycles.empty());
  EXPECT_TRUE(graph_of(ungated).suspicious());
}

// Differential soundness over random programs: detector finds a cycle ⇒
// the pre-filter must have flagged the graph. (The converse may fail; that
// is the allowed direction.)
class PrefilterSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefilterSoundnessTest, NeverClearsATraceWithCycles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 23);
  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(3));
  config.locks = 2 + static_cast<int>(rng.below(3));
  sim::Program program = test::random_program(rng, config);
  auto trace = sim::record_trace(program, rng(), 40);
  if (!trace.has_value()) GTEST_SKIP() << "recording deadlocked";

  Detection det = detect(*trace);
  if (det.cycles.empty()) GTEST_SKIP() << "no cycles to witness";
  EXPECT_TRUE(graph_of(*trace).suspicious())
      << "pre-filter cleared a trace with " << det.cycles.size()
      << " enumerable cycle(s) — unsound";
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefilterSoundnessTest,
                         ::testing::Range(0, 40));

// --------------------------------------------------------------- governor

// A subscriber that ignores every cycle. Subscription is observation-only
// (LiveSubscriberSeesEveryCycleBeforeFinish), so attaching one makes a
// session with no budget or deadline close windows without changing its
// answer.
void ignore_cycle(const LiveCycle&) {}

// Feeds every event of `trace` to a Session opened from `cfg`, event by
// event, and finishes it.
Session::Verdict run_session(const Config& cfg, const Trace& trace) {
  Session session = Session::open(cfg);
  for (const Event& e : trace.events) session.feed(e);
  return session.finish();
}

// With no budget, no deadline and no faults, the governed session's final
// Detection must equal batch detection bit for bit at every window size.
void expect_governed_matches_batch(const Trace& trace,
                                   std::initializer_list<std::size_t> windows) {
  Detection expected = detect(trace);

  for (std::size_t window : windows) {
    Config cfg;
    cfg.window_events = window;
    cfg.on_cycle = ignore_cycle;
    const Session::Verdict v = run_session(cfg, trace);
    const Detection& got = v.detection;

    EXPECT_EQ(got.cycles.size(), expected.cycles.size()) << window;
    for (std::size_t i = 0;
         i < std::min(got.cycles.size(), expected.cycles.size()); ++i)
      EXPECT_EQ(got.cycles[i].tuple_idx, expected.cycles[i].tuple_idx);
    EXPECT_EQ(got.defects.size(), expected.defects.size());
    EXPECT_EQ(got.dep.tuples.size(), expected.dep.tuples.size());
    EXPECT_EQ(got.dep.log.size(), expected.dep.log.size());

    const GovernorVerdict& verdict = v.governor;
    EXPECT_TRUE(verdict.coverage_complete);
    EXPECT_EQ(verdict.tuples_evicted, 0u);
    EXPECT_EQ(verdict.windows, (trace.size() + window - 1) / window);
  }
}

TEST(GovernorTest, UnboundedWindowsMatchBatchBitForBit) {
  Rng rng(77);
  sim::Program program = test::random_program(rng);
  auto trace = sim::record_trace(program, 5, 40);
  ASSERT_TRUE(trace.has_value());
  expect_governed_matches_batch(*trace, {8, 1000, std::size_t{1} << 20});

  // AB/BA rings sprinkled through ordered filler on the same two locks.
  Trace sprinkled;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 400; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + (rep & 1));
    sprinkled.events.push_back(acquire(t, 10, site++));
    sprinkled.events.push_back(acquire(t, 20, site++));
    sprinkled.events.push_back(release(t, 20));
    sprinkled.events.push_back(release(t, 10));
    if (rep % 50 == 49)
      for (const Event& e : ab_ba_trace(false).events)
        sprinkled.events.push_back(e);
  }
  for (Event& e : sprinkled.events) e.seq = seq++;
  expect_governed_matches_batch(sprinkled, {16, 256});
}

TEST(GovernorTest, SuspiciousWindowsSurfaceCyclesBeforeFinish) {
  Trace trace = ab_ba_trace(false);
  Config cfg;
  cfg.window_events = 4;  // boundaries inside and after the pattern
  cfg.on_cycle = ignore_cycle;
  const Session::Verdict v = run_session(cfg, trace);
  ASSERT_FALSE(v.detection.cycles.empty());

  std::size_t surfaced = 0;
  bool any_suspicious = false;
  for (const WindowReport& w : v.windows) {
    surfaced += w.new_cycles;
    any_suspicious |= w.suspicious;
  }
  EXPECT_TRUE(any_suspicious);
  EXPECT_GE(surfaced, 1u);
}

TEST(GovernorTest, LogTrimIsLosslessForTheCycleSet) {
  // Repeat the AB/BA pattern many times: the log fills with duplicate
  // acquisitions that a trim may drop without changing the cycle set.
  LockDependencyBuilder builder;
  for (int rep = 0; rep < 50; ++rep)
    for (const Event& e : ab_ba_trace(false).events) builder.add(e);
  const std::size_t before = builder.acquisition_count();
  const std::size_t canonical = builder.pending().tuples.size();
  LockDependency full = builder.pending();

  const std::size_t removed = builder.trim_log(before / 2);
  EXPECT_EQ(removed, before - before / 2);
  EXPECT_EQ(builder.acquisition_count(), before - removed);
  EXPECT_EQ(builder.pending().tuples.size(), canonical);
  EXPECT_EQ(builder.trim_log(before), 0u);  // already under the cap

  Detection with_full = finish_detection(full, builder.clocks(), {});
  Detection trimmed =
      finish_detection(builder.pending(), builder.clocks(), {});
  EXPECT_EQ(signatures_of(with_full), signatures_of(trimmed));
  EXPECT_EQ(with_full.cycles.size(), trimmed.cycles.size());
}

TEST(GovernorTest, EvictOldestDropsFromTheFront) {
  LockDependencyBuilder builder;
  for (const Event& e : ab_ba_trace(false).events) builder.add(e);
  const std::size_t total = builder.pending().tuples.size();
  ASSERT_GE(total, 3u);
  const std::size_t first_kept =
      builder.pending().tuples[total - 2].trace_pos;
  EXPECT_EQ(builder.evict_oldest(2), total - 2);
  EXPECT_EQ(builder.pending().tuples.size(), 2u);
  EXPECT_EQ(builder.pending().tuples.front().trace_pos, first_kept);
  // The log loses every record older than the oldest retained tuple.
  ASSERT_FALSE(builder.pending().log.empty());
  EXPECT_EQ(builder.pending().log.front().pos, first_kept);
  EXPECT_EQ(builder.evict_oldest(10), 0u);  // already under the cap
}

TEST(GovernorTest, MemoryBudgetEvictionIsReportedHonestly) {
  // A long synthetic stream of distinct tuples (every acquisition has a
  // fresh site, so a log trim cannot help) against a 1 MiB budget.
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 40000; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + (rep & 1));
    trace.events.push_back(acquire(t, 10, site++));
    trace.events.push_back(acquire(t, 20, site++));
    trace.events.push_back(release(t, 20));
    trace.events.push_back(release(t, 10));
  }
  for (Event& e : trace.events) e.seq = seq++;

  Config cfg;
  cfg.memory_budget_mb = 1;
  cfg.window_events = 4096;
  const Session::Verdict v = run_session(cfg, trace);

  const GovernorVerdict& verdict = v.governor;
  EXPECT_GT(verdict.tuples_evicted, 0u);
  EXPECT_FALSE(verdict.coverage_complete);
  EXPECT_TRUE(verdict.degraded());
  EXPECT_FALSE(verdict.notes.empty());

  // The budget actually held: every post-governance window footprint is
  // under 1 MiB, and shedding windows are marked as such.
  std::size_t evicted = 0;
  for (const WindowReport& w : v.windows) {
    EXPECT_LE(w.store_bytes, cfg.memory_budget_mb << 20) << w.index;
    if (w.tuples_evicted > 0) {
      EXPECT_EQ(w.level, DetectionLevel::kShedding);
      EXPECT_TRUE(w.degraded());
    }
    evicted += w.tuples_evicted;
  }
  EXPECT_EQ(evicted, verdict.tuples_evicted);
}

TEST(GovernorTest, JobsWithMemoryBudgetIsSupported) {
  // Pins the Config contract (facade.cpp): jobs + memory_budget is a fully
  // supported combination, not a warning. The budget is enforced at window
  // boundaries on the ingesting thread.
  Config cfg;
  cfg.jobs = 4;
  cfg.memory_budget_mb = 1;
  for (const ConfigIssue& issue : cfg.validate()) {
    EXPECT_NE(issue.message.find("budget"), 0u);
    EXPECT_EQ(issue.message.find("memory"), std::string::npos)
        << "jobs+budget must not warn: " << issue.message;
  }

  // A stream hot enough to trip eviction under a 1 MiB budget: the budget
  // holds for every window.
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 10000; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + (rep & 1));
    trace.events.push_back(acquire(t, 10, site++));
    trace.events.push_back(acquire(t, 20, site++));
    trace.events.push_back(release(t, 20));
    trace.events.push_back(release(t, 10));
  }
  for (Event& e : trace.events) e.seq = seq++;

  cfg.window_events = 4096;
  cfg.jobs = 1;
  Session session = Session::open(cfg);
  VectorTraceReader reader(trace);
  session.ingest(reader);
  Session::Verdict v = session.finish();

  for (const WindowReport& w : v.windows)
    EXPECT_LE(w.store_bytes, cfg.memory_budget_mb << 20)
        << "window " << w.index;
  EXPECT_GT(v.governor.tuples_evicted, 0u) << "budget never engaged";
}

TEST(GovernorTest, PerWindowDetectionFaultIsContained) {
  Trace trace = ab_ba_trace(false);
  robust::FaultPlan fault;
  fault.detect_throw_window = 0;

  Config cfg;
  cfg.window_events = 4;
  cfg.on_cycle = ignore_cycle;
  cfg.fault = &fault;
  const Session::Verdict v = run_session(cfg, trace);

  const GovernorVerdict& verdict = v.governor;
  EXPECT_EQ(verdict.detection_faults, 1u);
  // finish() re-enumerated over everything retained: the fault cost window
  // 0 its early surfacing, not final coverage.
  EXPECT_TRUE(verdict.coverage_complete);
  EXPECT_FALSE(v.detection.cycles.empty());
  ASSERT_FALSE(v.windows.empty());
  EXPECT_FALSE(v.windows[0].note.empty());
  EXPECT_TRUE(v.windows[0].degraded());
}

TEST(GovernorTest, FinalEnumerationFaultIsIncompleteNotClean) {
  Trace trace = ab_ba_trace(false);
  Session governed = Session::open(Config{});
  for (const Event& e : trace.events) governed.feed(e);

  Session::Verdict v;
  {
    test::EnumerationFault fault;
    v = governed.finish();
  }

  const GovernorVerdict& verdict = v.governor;
  EXPECT_TRUE(v.detection.cycles.empty());
  // Nothing reads windows here (no budget, deadline or subscriber), so none
  // closes: the final enumeration is the only one, and its fault is the
  // one that loses coverage.
  EXPECT_EQ(verdict.detection_faults, 1u);
  EXPECT_FALSE(verdict.coverage_complete)
      << "an empty report after a failed final enumeration must not look "
         "like a clean bill of health";
}

// ------------------------------------------------ the one Session contract
//
// A Session whose config sets no budget, deadline, subscriber or live
// collector runs the same detector as a windowed one, minus the windows:
// the containment contract is the same.

TEST(SessionTest, UngovernedMalformedEventFinishesThePrefixIncomplete) {
  const Trace trace = ab_ba_trace(false);
  Config cfg;
  ASSERT_FALSE(cfg.governed());
  Session session = Session::open(cfg);
  for (const Event& e : trace.events) ASSERT_TRUE(session.feed(e));
  Event bad = release(1, 99);  // t1 never acquired lock 99
  bad.seq = trace.events.size();
  EXPECT_FALSE(session.feed(bad));
  EXPECT_TRUE(session.poisoned());
  // Later input is ignored, whole blocks included.
  EXPECT_FALSE(session.feed(trace.events));
  const Session::Verdict v = session.finish();

  const Detection prefix = detect(trace);
  ASSERT_FALSE(prefix.cycles.empty());
  ASSERT_EQ(v.detection.cycles.size(), prefix.cycles.size());
  for (std::size_t i = 0; i < prefix.cycles.size(); ++i)
    EXPECT_EQ(v.detection.cycles[i].tuple_idx, prefix.cycles[i].tuple_idx);
  EXPECT_FALSE(v.governed);
  EXPECT_FALSE(v.governor.coverage_complete);
  ASSERT_EQ(v.governor.notes.size(), 1u);
  EXPECT_NE(v.governor.notes[0].find("malformed event rejected"),
            std::string::npos)
      << v.governor.notes[0];
}

TEST(SessionTest, UngovernedFinalEnumerationFaultIsIncompleteNotThrown) {
  const Trace trace = ab_ba_trace(false);
  Session session = Session::open(Config{});
  VectorTraceReader reader(trace);
  session.ingest(reader);
  Session::Verdict v;
  {
    test::EnumerationFault fault;
    EXPECT_NO_THROW(v = session.finish());
  }
  EXPECT_TRUE(v.detection.cycles.empty());
  EXPECT_FALSE(v.governor.coverage_complete)
      << "an empty report after a failed final enumeration must not look "
         "like a clean bill of health";
  EXPECT_EQ(v.governor.detection_faults, 1u);
  EXPECT_TRUE(v.governor.degraded());
  ASSERT_FALSE(v.governor.notes.empty());
  EXPECT_NE(v.governor.notes[0].find("final detection fault"),
            std::string::npos)
      << v.governor.notes[0];
}

TEST(SessionTest, UngovernedRunClosesNoWindowsAndBuildsNoPrefilter) {
  // Long enough for several default-sized windows had any closed.
  Trace trace;
  std::uint64_t seq = 0;
  for (int rep = 0; rep < 40000; ++rep)
    for (Event e : ab_ba_trace(false).events) {
      e.seq = seq++;
      trace.events.push_back(e);
    }
  ASSERT_GT(trace.size(), 4 * Config{}.window_events);

  Session::Verdict v;
  std::size_t closed = 1;
  const obs::CounterSnapshot counters = test::counter_delta([&] {
    Session session = Session::open(Config{});
    VectorTraceReader reader(trace);
    session.ingest(reader);
    closed = session.windows_closed();
    v = session.finish();
  });
  EXPECT_EQ(counters.value("governor.windows"), 0u);
  EXPECT_EQ(counters.value("prefilter.edges"), 0u);
  EXPECT_EQ(closed, 0u);
  EXPECT_TRUE(v.windows.empty());
  EXPECT_EQ(v.governor.windows, 0u);
  EXPECT_TRUE(v.governor.coverage_complete);
  EXPECT_FALSE(v.governed);
  EXPECT_EQ(signatures_of(v.detection), signatures_of(detect(trace)));
}

// ---------------------------------------------- incremental SCC pre-filter

// A canonical tier of `tuples`, with an empty log.
LockDependency canonical_view(const std::vector<LockTuple>& tuples) {
  LockDependency dep;
  dep.tuples = tuples;
  return dep;
}

// The held→request lock edges of `tuples`.
std::set<std::pair<LockId, LockId>> lock_edges(
    const std::vector<LockTuple>& tuples) {
  std::set<std::pair<LockId, LockId>> edges;
  for (const LockTuple& t : tuples)
    for (LockId held : t.lockset) edges.emplace(held, t.lock);
  return edges;
}

// The lock edges of `dep`'s canonical tier.
std::set<std::pair<LockId, LockId>> canonical_edges(const LockDependency& dep) {
  return lock_edges(dep.tuples);
}

using Partition = std::set<std::vector<LockId>>;

// The SCC partition a fresh Tarjan finds over `edges`, in lock ids.
Partition oracle_partition(const std::set<std::pair<LockId, LockId>>& edges) {
  std::vector<LockId> locks;
  for (const auto& [from, to] : edges) {
    locks.push_back(from);
    locks.push_back(to);
  }
  std::sort(locks.begin(), locks.end());
  locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
  auto node = [&](LockId l) {
    return static_cast<Digraph::Node>(
        std::lower_bound(locks.begin(), locks.end(), l) - locks.begin());
  };
  Digraph graph(static_cast<int>(locks.size()));
  for (const auto& [from, to] : edges) graph.add_edge(node(from), node(to));
  Partition p;
  for (const std::vector<Digraph::Node>& comp :
       graph.strongly_connected_components()) {
    std::vector<LockId> members;
    for (Digraph::Node v : comp)
      members.push_back(locks[static_cast<std::size_t>(v)]);
    std::sort(members.begin(), members.end());
    p.insert(std::move(members));
  }
  return p;
}

// The partition the lock graph's live labels hold, in lock ids.
Partition label_partition(const LockGraph& g) {
  const DynamicScc& scc = g.scc();
  Partition p;
  for (std::size_t c = 0; c < scc.component_capacity(); ++c) {
    if (!scc.component_alive(static_cast<int>(c))) continue;
    std::vector<LockId> members;
    for (DynamicScc::Node v : scc.members(static_cast<int>(c)))
      members.push_back(g.lock_of(v));
    std::sort(members.begin(), members.end());
    p.insert(std::move(members));
  }
  return p;
}

// Random insert/evict interleavings through the LockGraph's tuple surface,
// with the differential oracle checked after EVERY step. Eviction leaves
// the graph alone, as the governor's does, and half the evictions rebuild
// it from the live tuples. The maintained decomposition must equal a fresh
// Tarjan over every edge fed since the last rebuild, and the verdict must
// stay sound versus a graph built from only the live tuples (the superset
// may only ever point toward "more suspicious").
class LockGraphMutationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LockGraphMutationFuzz, CondensationEqualsFreshTarjanAfterEveryStep) {
  Rng rng(0x10c6 + static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL);
  LockGraph g;
  std::vector<LockTuple> live;
  std::vector<LockTuple> fed;  // tuples the graph holds: since the last rebuild
  const int lock_universe = 3 + static_cast<int>(rng.below(5));
  SiteId next_site = 1;
  const int steps = 60;
  for (int s = 0; s < steps; ++s) {
    if (!live.empty() && rng.chance(0.4)) {
      const std::size_t pick = rng.below(live.size());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      if (rng.chance(0.5)) {
        g.rebuild(canonical_view(live));
        fed = live;
      }
    } else {
      LockTuple t;
      t.thread = static_cast<ThreadId>(1 + rng.below(3));
      t.lock = static_cast<LockId>(rng.below(
          static_cast<std::uint64_t>(lock_universe)));
      const std::size_t depth = 1 + rng.below(3);
      for (std::size_t d = 0; d < depth; ++d) {
        const LockId held = static_cast<LockId>(
            rng.below(static_cast<std::uint64_t>(lock_universe)));
        if (std::find(t.lockset.begin(), t.lockset.end(), held) !=
            t.lockset.end())
          continue;
        t.lockset.push_back(held);
        ExecIndex idx;
        idx.site = next_site++;
        idx.occurrence = 1;
        t.context.push_back(idx);
      }
      if (t.lockset.empty()) continue;
      ExecIndex idx;
      idx.site = next_site++;
      idx.occurrence = 1;
      t.context.push_back(idx);
      g.on_tuple(t);
      live.push_back(t);
      fed.push_back(std::move(t));
    }
    const std::set<std::pair<LockId, LockId>> edges = lock_edges(fed);
    ASSERT_EQ(g.edge_count(), edges.size())
        << "seed " << GetParam() << " step " << s;
    ASSERT_EQ(label_partition(g), oracle_partition(edges))
        << "seed " << GetParam() << " step " << s;

    // Soundness of the superset verdict: a graph built from exactly the
    // live tuples may only be LESS suspicious.
    LockGraph fresh;
    for (const LockTuple& t : live) fresh.on_tuple(t);
    if (fresh.suspicious()) {
      ASSERT_TRUE(g.suspicious())
          << "seed " << GetParam() << " step " << s
          << ": superset verdict cleared a live suspicious graph";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockGraphMutationFuzz,
                         ::testing::Range(0, 200));

TEST(PrefilterTest, DirtyDrainReturnsSuspiciousLocksExactlyOnce) {
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(ab_ba_trace(false));
  for (const LockTuple& t : dep.tuples) g.on_tuple(t);
  ASSERT_TRUE(g.has_dirty());
  std::vector<LockId> locks = drain_locks(g);
  std::set<LockId> lock_set(locks.begin(), locks.end());
  EXPECT_EQ(lock_set, (std::set<LockId>{10, 20}));
  // Caught up: nothing dirty, second drain is empty.
  EXPECT_FALSE(g.has_dirty());
  EXPECT_TRUE(drain_locks(g).empty());
  // A re-fed identical edge-bearing tuple still re-marks its component (it
  // could be a brand-new canonical tuple in a stable SCC). Tuples with an
  // empty lockset carry no edge and leave no mark.
  for (const LockTuple& t : dep.tuples)
    if (!t.lockset.empty()) {
      g.on_tuple(t);
      break;
    }
  EXPECT_TRUE(g.has_dirty());
}

TEST(PrefilterTest, ExpiryToZeroRefcountRemovesTheEdgeAndVerdict) {
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(ab_ba_trace(false));
  for (const LockTuple& t : dep.tuples) g.on_tuple(t);
  ASSERT_TRUE(g.suspicious());
  ASSERT_GT(g.edge_count(), 0u);
  // Every contributing tuple is evicted and the graph rebuilt from what is
  // left: the AB/BA SCC must dissolve, and its edges count as expired.
  std::vector<LockTuple> left;
  for (const LockTuple& t : dep.tuples)
    if (t.lockset.empty()) left.push_back(t);
  const std::size_t edges = g.edge_count();
  const obs::CounterSnapshot counters =
      test::counter_delta([&] { g.rebuild(canonical_view(left)); });
  EXPECT_EQ(counters.value("prefilter.edge_expiries"), edges);
  EXPECT_EQ(counters.value("prefilter.edges"), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.suspicious());
  EXPECT_EQ(g.suspicious_scc_count(), 0u);
}

// A suspicious ring through a merge, a rebuild after eviction and a
// re-merge: the count must follow the live components, so a label retired
// by a merge or a rebuild is never counted.
TEST(PrefilterTest, RetiredLabelsAreNeverCountedAcrossMergeSplitAndRemerge) {
  auto tuple = [](ThreadId thread, LockId held, LockId requested) {
    LockTuple t;
    t.thread = thread;
    t.lockset = {held};
    t.lock = requested;
    return t;
  };
  // Two AB/BA rings, {10, 20} and {30, 40}, and a bridge that joins them
  // into one component {10, 20, 30, 40}.
  const std::vector<LockTuple> ring_a = {tuple(1, 10, 20), tuple(2, 20, 10)};
  const std::vector<LockTuple> ring_b = {tuple(3, 30, 40), tuple(4, 40, 30)};
  const std::vector<LockTuple> bridge = {tuple(5, 20, 30), tuple(6, 40, 10)};
  LockGraph g;
  std::vector<LockTuple> live;
  auto feed = [&](const std::vector<LockTuple>& tuples) {
    for (const LockTuple& t : tuples) {
      g.on_tuple(t);
      live.push_back(t);
    }
  };
  // Evicts `tuples` and rebuilds the graph from the rest.
  auto expire = [&](const std::vector<LockTuple>& tuples) {
    for (const LockTuple& gone : tuples)
      live.erase(std::find_if(
          live.begin(), live.end(), [&](const LockTuple& t) {
            return t.thread == gone.thread && t.lock == gone.lock;
          }));
    g.rebuild(canonical_view(live));
  };
  auto check = [&g](std::size_t count, const char* step) {
    EXPECT_EQ(g.suspicious_scc_count(), count) << step;
    EXPECT_EQ(g.suspicious(), count > 0) << step;
  };

  feed(ring_a);
  feed(ring_b);
  check(2, "two rings");
  (void)g.drain_dirty_suspicious_nodes();

  feed(bridge);  // merge: one of the two ring labels is retired
  ASSERT_EQ(g.scc().component_count(), 1u);
  check(1, "merged");
  std::vector<LockId> drained = drain_locks(g);
  EXPECT_EQ(std::set<LockId>(drained.begin(), drained.end()),
            (std::set<LockId>{10, 20, 30, 40}));

  expire(bridge);  // the rebuild splits the rings apart
  check(2, "split by rebuild");
  EXPECT_EQ(g.scc().component_count(), 2u);
  (void)g.drain_dirty_suspicious_nodes();

  feed(bridge);  // re-merge retires a label again
  check(1, "re-merged");
  (void)g.drain_dirty_suspicious_nodes();

  expire(ring_b);  // {10, 20} and the singletons 30 and 40
  check(1, "ring b expired");
  EXPECT_EQ(g.scc().component_count(), 3u);
  expire(bridge);
  check(1, "bridge expired again");
  expire(ring_a);
  check(0, "everything expired");
}

// A rebuild replaces the superset graph with the retained view's: marks on
// retained locks carry over and drain, marks on evicted locks and the
// rebuild's own marks do not, and every verdict equals that of a graph
// built fresh from the retained tuples, stale refinements included.
TEST(PrefilterTest, RebuildCarriesMarksByLockAndMatchesAFreshGraph) {
  auto tuple = [](ThreadId thread, LockId held, LockId requested, SiteId site) {
    LockTuple t;
    t.thread = thread;
    t.lockset = {held};
    t.lock = requested;
    ExecIndex idx;
    idx.thread = thread;
    idx.site = site;
    t.context = {idx, idx};
    return t;
  };
  const LockTuple a1 = tuple(1, 10, 20, 1), a2 = tuple(2, 20, 10, 2);
  const LockTuple b1 = tuple(1, 30, 40, 3), b2 = tuple(2, 40, 30, 4);
  const LockTuple c1 = tuple(1, 50, 60, 5), c2 = tuple(2, 60, 50, 6);
  // {70, 80} is suspicious only through thread 2's tuple: once it is
  // evicted, one thread contributes every edge left.
  const LockTuple d1 = tuple(1, 70, 80, 7), d2 = tuple(2, 80, 70, 8),
                  d3 = tuple(1, 80, 70, 9);
  LockGraph g;
  for (const LockTuple& t : {a1, a2, b1, b2, c1, c2, d1, d2, d3}) g.on_tuple(t);
  ASSERT_EQ(g.suspicious_scc_count(), 4u);
  (void)g.drain_dirty_suspicious_nodes();

  // New canonical tuples on rings a and c mark their locks; then ring c and
  // d2 are evicted.
  const LockTuple a3 = tuple(3, 20, 10, 10), c3 = tuple(3, 60, 50, 11);
  g.on_tuple(a3);
  g.on_tuple(c3);
  const std::vector<LockTuple> retained = {a1, a2, b1, b2, d1, d3, a3};
  ASSERT_EQ(g.suspicious_scc_count(), 4u);  // the superset still holds c, d2

  g.rebuild(canonical_view(retained));
  LockGraph fresh;
  for (const LockTuple& t : retained) fresh.on_tuple(t);
  EXPECT_EQ(g.lock_count(), fresh.lock_count());
  EXPECT_EQ(g.edge_count(), fresh.edge_count());
  EXPECT_EQ(label_partition(g), label_partition(fresh));
  EXPECT_EQ(g.suspicious_scc_count(), fresh.suspicious_scc_count());
  EXPECT_EQ(g.suspicious_scc_count(), 2u);  // a and b; d is single-thread
  EXPECT_EQ(g.node_of(50), -1);
  EXPECT_EQ(g.node_of(60), -1);

  ASSERT_TRUE(g.has_dirty());
  const std::vector<LockId> drained = drain_locks(g);
  EXPECT_EQ(std::set<LockId>(drained.begin(), drained.end()),
            (std::set<LockId>{10, 20}));
  EXPECT_FALSE(g.has_dirty());
  EXPECT_TRUE(drain_locks(g).empty());
}

TEST(GovernorTest, LiveSubscriberSeesEveryCycleBeforeFinish) {
  Trace trace = ab_ba_trace(false);
  Config cfg;
  cfg.window_events = 4;

  struct Sighting {
    std::size_t window;
    std::size_t sequence;
    DefectSignature signature;
  };
  std::vector<Sighting> sightings;
  bool finished = false;
  cfg.on_cycle = [&](const LiveCycle& lc) {
    EXPECT_FALSE(finished) << "LiveCycle delivered after finish()";
    sightings.push_back(
        {lc.window, lc.sequence, signature_of(*lc.cycle, *lc.dep)});
  };
  Session subscribed = Session::open(cfg);
  for (const Event& e : trace.events) subscribed.feed(e);
  const Session::Verdict sub = subscribed.finish();
  const Detection& sub_det = sub.detection;
  finished = true;

  cfg.on_cycle = nullptr;
  const Session::Verdict plain = run_session(cfg, trace);
  const Detection& plain_det = plain.detection;

  // Every committed cycle was surfaced mid-run, in sequence order.
  ASSERT_FALSE(sub_det.cycles.empty());
  ASSERT_EQ(sightings.size(), sub_det.cycles.size());
  EXPECT_EQ(subscribed.cycles_surfaced_live(), sightings.size());
  std::set<DefectSignature> surfaced;
  for (std::size_t i = 0; i < sightings.size(); ++i) {
    EXPECT_EQ(sightings[i].sequence, i + 1);
    surfaced.insert(sightings[i].signature);
  }
  EXPECT_EQ(surfaced, signatures_of(sub_det));

  // Subscription is observation-only: finish() is identical.
  EXPECT_EQ(sub_det.cycles.size(), plain_det.cycles.size());
  for (std::size_t i = 0; i < sub_det.cycles.size(); ++i)
    EXPECT_EQ(sub_det.cycles[i].tuple_idx, plain_det.cycles[i].tuple_idx);
  EXPECT_EQ(signatures_of(sub_det), signatures_of(plain_det));
  EXPECT_EQ(sub.governor.coverage_complete,
            plain.governor.coverage_complete);
}

TEST(GovernorTest, ThrowingSubscriberIsContainedAsAWindowFault) {
  Trace trace = ab_ba_trace(false);
  Config cfg;
  cfg.window_events = 4;
  cfg.on_cycle = [](const LiveCycle&) {
    throw std::runtime_error("subscriber exploded");
  };
  const Session::Verdict v = run_session(cfg, trace);

  const GovernorVerdict& verdict = v.governor;
  EXPECT_GE(verdict.detection_faults, 1u);
  // finish() never delivers to the subscriber, so the authoritative pass
  // is untouched: full coverage, cycles present.
  EXPECT_TRUE(verdict.coverage_complete);
  EXPECT_FALSE(v.detection.cycles.empty());
}

TEST(GovernorTest, LiveSurfacingKeepsSameSiteCyclesOnOtherLocksApart) {
  // Two deadlocks from the same code: t1 takes 10→20 while t2 takes 20→10,
  // then the same four acquire sites run again over locks 30/40. The two
  // cycles share their site signature and their threads, yet batch
  // detection reports both — so live surfacing must deliver both.
  Trace trace;
  auto ab_ba_on = [&](LockId a, LockId b) {
    trace.events.push_back(acquire(1, a, 1));
    trace.events.push_back(acquire(1, b, 2));
    trace.events.push_back(release(1, b));
    trace.events.push_back(release(1, a));
    trace.events.push_back(acquire(2, b, 3));
    trace.events.push_back(acquire(2, a, 4));
    trace.events.push_back(release(2, a));
    trace.events.push_back(release(2, b));
  };
  ab_ba_on(10, 20);
  ab_ba_on(30, 40);
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;
  ASSERT_EQ(detect(trace).cycles.size(), 2u);

  Config cfg;
  cfg.window_events = 8;  // one window per deadlock
  cfg.live = true;
  Session session = Session::open(cfg);
  std::vector<SessionCycle> polled;
  for (const Event& e : trace.events) {
    session.feed(e);
    for (SessionCycle& c : session.poll()) polled.push_back(std::move(c));
  }
  const Session::Verdict v = session.finish();
  for (SessionCycle& c : session.poll()) polled.push_back(std::move(c));

  EXPECT_EQ(v.detection.cycles.size(), 2u);
  EXPECT_TRUE(v.governor.coverage_complete);
  ASSERT_EQ(polled.size(), 2u) << "a distinct cycle was taken as seen";
  EXPECT_EQ(session.cycles_surfaced_live(), 2u);
  EXPECT_EQ(polled[0].window, 0u);
  EXPECT_EQ(polled[1].window, 1u);
  EXPECT_NE(polled[0].description, polled[1].description);
}

// ------------------------------------------- canonical arrivals only
// The pre-filter and the by-lock index see a tuple only when it arrives as
// the first of its TupleKey: windows of duplicates dirty nothing, a log
// trim expires no lock-graph edge, and eviction expires only tuples the
// pre-filter counted — with every answer equal to batch detect().

// Cycle renderings of a detection, in order (tuple contents, not indices).
std::vector<std::string> cycle_strings(const Detection& det) {
  std::vector<std::string> out;
  for (const PotentialDeadlock& cycle : det.cycles)
    out.push_back(cycle.to_string(det.dep));
  return out;
}

// The canonical tier, rendered with each tuple's trace position.
std::vector<std::string> canonical_strings(const LockDependency& dep) {
  std::vector<std::string> out;
  for (const LockTuple& t : dep.tuples)
    out.push_back(t.to_string() + " @" + std::to_string(t.trace_pos));
  return out;
}

bool has_note(const GovernorVerdict& v, const std::string& text) {
  return std::any_of(v.notes.begin(), v.notes.end(), [&](const std::string& n) {
    return n.find(text) != std::string::npos;
  });
}

struct LiveRun {
  Session::Verdict verdict;
  std::vector<std::string> live;  // "window #sequence description"
  obs::CounterSnapshot counters;
};

LiveRun run_live_session(const Trace& trace, std::size_t budget_mb,
                         std::size_t window_events) {
  LiveRun run;
  run.counters = test::counter_delta([&] {
    Config cfg;
    cfg.memory_budget_mb = budget_mb;
    cfg.window_events = window_events;
    cfg.live = true;
    Session session = Session::open(cfg);
    for (const Event& e : trace.events) session.feed(e);
    run.verdict = session.finish();
    for (const SessionCycle& c : session.poll())
      run.live.push_back(std::to_string(c.window) + " #" +
                         std::to_string(c.sequence) + " " + c.description);
  });
  return run;
}

// Thread 1's inner acquisition at sites (1, 2) always takes lock 20, but
// its outer lock alternates between 10 and 30: every (1, {30}, 20) tuple is
// a duplicate of the first (1, {10}, 20), with another lockset. Thread 2
// closes the AB/BA ring on 10/20; thread 3 takes 20 → 30, which with a
// (1, {30}, 20) duplicate would close a second ring — one batch detection
// does not report, because enumeration runs over the canonical view.
Trace differing_lockset_trace(int reps) {
  Trace trace;
  auto nest = [&](ThreadId t, LockId outer, SiteId s1, LockId inner,
                  SiteId s2) {
    trace.events.push_back(acquire(t, outer, s1));
    trace.events.push_back(acquire(t, inner, s2));
    trace.events.push_back(release(t, inner));
    trace.events.push_back(release(t, outer));
  };
  for (int rep = 0; rep < reps; ++rep) {
    nest(1, rep % 2 == 0 ? 10 : 30, 1, 20, 2);
    nest(2, 20, 3, 10, 4);
    nest(3, 20, 5, 30, 6);
  }
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;
  return trace;
}

TEST(GovernorTest, RepeatedRingIsSuspiciousOnlyInTheWindowItArrives) {
  // One AB/BA ring per window, ten times: from the second window on, every
  // tuple is a duplicate, so no window but the first dirties the lock graph.
  const Trace ring = ab_ba_trace(false);
  Trace trace;
  for (int rep = 0; rep < 10; ++rep)
    trace.events.insert(trace.events.end(), ring.events.begin(),
                        ring.events.end());
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;

  const LiveRun run = run_live_session(trace, 0, ring.size());
  ASSERT_EQ(run.verdict.windows.size(), 10u);
  std::size_t suspicious = 0;
  for (const WindowReport& w : run.verdict.windows) suspicious += w.suspicious;
  EXPECT_EQ(suspicious, 1u);
  EXPECT_TRUE(run.verdict.windows[0].suspicious);
  EXPECT_EQ(run.verdict.governor.suspicious_windows, 1u);
  ASSERT_EQ(run.live.size(), 1u);
  EXPECT_EQ(run.live[0].rfind("0 #1 ", 0), 0u) << run.live[0];
  EXPECT_EQ(cycle_strings(run.verdict.detection), cycle_strings(detect(trace)));
  // Only the four canonical tuples were fed: two edges, 10→20 and 20→10.
  EXPECT_EQ(run.counters.value("prefilter.edges"), 2u);
}

TEST(GovernorTest, LogTrimExpiresNoLockGraphEdge) {
  const Trace trace = differing_lockset_trace(12000);  // ~1.7 MB of log
  const Detection batch = detect(trace);
  ASSERT_EQ(batch.cycles.size(), 1u) << "the duplicate closed a ring";

  const LiveRun budgeted = run_live_session(trace, 1, 4096);
  const GovernorVerdict& v = budgeted.verdict.governor;
  EXPECT_GT(v.tuples_compacted, 0u);
  EXPECT_EQ(v.tuples_evicted, 0u);
  EXPECT_TRUE(v.coverage_complete);
  EXPECT_TRUE(has_note(v, "trimmed the acquisition log"));
  // Duplicates never reached the lock graph, so dropping their records
  // expires nothing; the three canonical edges are 10→20, 20→10 and 20→30.
  EXPECT_EQ(budgeted.counters.value("prefilter.edge_expiries"), 0u);
  EXPECT_EQ(budgeted.counters.value("prefilter.edges"), 3u);
  EXPECT_LT(budgeted.verdict.detection.dep.log.size(), batch.dep.log.size());

  const LiveRun unbounded = run_live_session(trace, 0, 4096);
  EXPECT_EQ(unbounded.verdict.governor.tuples_compacted, 0u);
  EXPECT_FALSE(has_note(unbounded.verdict.governor, "trimmed"));
  EXPECT_EQ(budgeted.live, unbounded.live);
  EXPECT_EQ(budgeted.live.size(), 1u);
  EXPECT_EQ(cycle_strings(budgeted.verdict.detection), cycle_strings(batch));
  EXPECT_EQ(cycle_strings(unbounded.verdict.detection), cycle_strings(batch));
  EXPECT_EQ(canonical_strings(budgeted.verdict.detection.dep),
            canonical_strings(batch.dep));
  EXPECT_EQ(canonical_strings(unbounded.verdict.detection.dep),
            canonical_strings(batch.dep));
  EXPECT_EQ(unbounded.verdict.detection.dep.log.size(), batch.dep.log.size());
}

TEST(GovernorTest, DuplicateWithAnotherLocksetStillEqualsBatch) {
  const Trace trace = differing_lockset_trace(8);
  const Detection batch = detect(trace);
  ASSERT_EQ(batch.cycles.size(), 1u);
  for (std::size_t window : {std::size_t{1}, std::size_t{4}, std::size_t{12},
                             std::size_t{1} << 20}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const LiveRun run = run_live_session(trace, 0, window);
    EXPECT_EQ(cycle_strings(run.verdict.detection), cycle_strings(batch));
    for (std::size_t i = 0; i < batch.cycles.size(); ++i)
      EXPECT_EQ(run.verdict.detection.cycles[i].tuple_idx,
                batch.cycles[i].tuple_idx);
    EXPECT_EQ(canonical_strings(run.verdict.detection.dep),
              canonical_strings(batch.dep));
    EXPECT_EQ(run.verdict.detection.dep.log.size(), batch.dep.log.size());
    EXPECT_EQ(run.live.size(), batch.cycles.size());
    EXPECT_TRUE(run.verdict.governor.coverage_complete);
  }
}

TEST(GovernorTest, EvictionExpiresOnlyTuplesThePrefilterCounted) {
  // Fresh-lock filler forces eviction under a 1 MiB budget while the
  // differing-lockset duplicates keep arriving, so every governed window
  // holds duplicates when its budget check starts; the filler's fresh locks
  // keep doubling the lock graph, so eviction rebuilds it along the way.
  const Trace dups = differing_lockset_trace(20000);
  Trace trace;
  LockId lock = 100;
  SiteId site = 100;
  for (std::size_t i = 0; i < dups.events.size(); i += 12) {
    trace.events.insert(trace.events.end(), dups.events.begin() + i,
                        dups.events.begin() + i + 12);
    const ThreadId t = static_cast<ThreadId>(4 + (i / 12) % 2);
    trace.events.push_back(acquire(t, lock, site++));
    trace.events.push_back(acquire(t, lock + 1, site++));
    trace.events.push_back(release(t, lock + 1));
    trace.events.push_back(release(t, lock));
    lock += 2;
  }
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;

  // Feeds whole windows and finishes right after the first window that
  // moved `stop_at`, or at the end. The graph's edge count is always
  // prefilter.edges minus prefilter.edge_expiries: a rebuild counts every
  // old edge as an expiry and every re-inserted one as an edge.
  struct Stop {
    obs::CounterSnapshot counters;
    Session::Verdict verdict;
    std::size_t fed = 0;  // events fed before finish()
  };
  constexpr std::size_t kWindow = 4096;
  auto run_until = [&](const char* stop_at) {
    Stop stop;
    stop.counters = test::counter_delta([&] {
      Config cfg;
      cfg.memory_budget_mb = 1;
      cfg.window_events = kWindow;
      Session session = Session::open(cfg);
      const obs::CounterRegistry& registry = obs::CounterRegistry::instance();
      while (stop.fed < trace.size()) {
        const std::uint64_t before = registry.snapshot().value(stop_at);
        const std::size_t end = std::min(stop.fed + kWindow, trace.size());
        session.feed(std::vector<Event>(
            trace.events.begin() + static_cast<std::ptrdiff_t>(stop.fed),
            trace.events.begin() + static_cast<std::ptrdiff_t>(end)));
        stop.fed = end;
        if (registry.snapshot().value(stop_at) > before) break;
      }
      stop.verdict = session.finish();
    });
    return stop;
  };
  // The first eviction only sets the rebuild baseline, so the graph still
  // holds every edge fed so far: the prefix's canonical view's, since
  // nothing was evicted before it. Every retained canonical tuple's edges
  // must be among them. Had eviction promoted a duplicate the pre-filter
  // never saw (thread 1's 30→20 behind its canonical 10→20), its edge
  // would not be.
  const Stop evicted = run_until("governor.tuples_evicted");
  const GovernorVerdict& v = evicted.verdict.governor;
  ASSERT_GT(v.tuples_evicted, 0u);
  EXPECT_GT(v.tuples_compacted, 0u);
  EXPECT_FALSE(v.coverage_complete);
  EXPECT_EQ(v.detection_faults, 0u);
  EXPECT_EQ(evicted.counters.value("prefilter.edge_expiries"), 0u);
  Trace prefix;
  prefix.events.assign(
      trace.events.begin(),
      trace.events.begin() + static_cast<std::ptrdiff_t>(evicted.fed));
  const std::set<std::pair<LockId, LockId>> fed =
      canonical_edges(LockDependency::from_trace(prefix));
  const std::set<std::pair<LockId, LockId>> retained =
      canonical_edges(evicted.verdict.detection.dep);
  EXPECT_EQ(evicted.counters.value("prefilter.edges"), fed.size());
  EXPECT_TRUE(std::includes(fed.begin(), fed.end(), retained.begin(),
                            retained.end()));
  EXPECT_LT(retained.size(), fed.size()) << "the graph kept evicted edges";

  // Right after the first rebuild the graph is exactly the retained
  // canonical view's.
  const Stop rebuilt = run_until("prefilter.edge_expiries");
  ASSERT_GT(rebuilt.counters.value("prefilter.edge_expiries"), 0u)
      << "no rebuild";
  EXPECT_GT(rebuilt.verdict.governor.tuples_evicted, v.tuples_evicted);
  EXPECT_EQ(rebuilt.counters.value("prefilter.edges") -
                rebuilt.counters.value("prefilter.edge_expiries"),
            canonical_edges(rebuilt.verdict.detection.dep).size());
}

// ------------------------------------- budgeted classification vs batch
// Oracle 2 for a budget: a Session whose budget never trims classifies
// exactly like batch detect() — the same cycles, Pruner verdicts and Gs
// edge lists. One whose budget trims the acquisition log but evicts
// nothing keeps batch's cycles and Pruner verdicts (both read only the
// canonical tier and the clocks), says so in its verdict, and builds each
// Gs from a subset of batch's.

// A stress ring with a long tail of duplicate acquisitions: ~2.9 MB of log
// against a 1 MiB budget.
Trace stress_ring_trace() {
  test::LockShapeConfig stress;
  stress.ring_threads = 5;
  stress.ring_degree = 2;
  stress.ring_repeats = 6000;
  auto trace = sim::record_trace(test::lock_shape_program(stress), 2014, 60);
  return trace ? std::move(*trace) : Trace{};
}

// The 11-program suite at one seed, plus the stress ring.
std::vector<std::pair<std::string, Trace>> suite_and_stress_traces() {
  std::vector<std::pair<std::string, Trace>> out;
  for (const workloads::Benchmark& bench : workloads::standard_suite()) {
    auto trace = sim::record_trace(bench.program, 2014, 20, bench.max_steps);
    if (trace) out.emplace_back(bench.name, std::move(*trace));
  }
  out.emplace_back("stress-5x2", stress_ring_trace());
  return out;
}

Session::Verdict run_budgeted(const Trace& trace, std::size_t budget_mb,
                              std::size_t window_events) {
  Config cfg;
  cfg.memory_budget_mb = budget_mb;
  cfg.window_events = window_events;
  return run_session(cfg, trace);
}

TEST(GovernorTest, BudgetThatNeverTrimsClassifiesLikeBatch) {
  const auto traces = suite_and_stress_traces();
  ASSERT_EQ(traces.size(), 12u);
  std::size_t compared = 0;
  for (const auto& [name, trace] : traces) {
    SCOPED_TRACE(name);
    const Detection batch = detect(trace);
    const Session::Verdict v = run_budgeted(trace, 64, 256);
    const Detection& got = v.detection;
    EXPECT_EQ(v.governor.tuples_compacted, 0u);
    EXPECT_EQ(v.governor.tuples_evicted, 0u);
    EXPECT_TRUE(v.governor.coverage_complete);
    EXPECT_TRUE(v.governor.notes.empty());
    ASSERT_EQ(cycle_strings(got), cycle_strings(batch));
    EXPECT_EQ(got.dep.log.size(), batch.dep.log.size());
    const DependencyIndex got_index = DependencyIndex::build(got.dep);
    const DependencyIndex batch_index = DependencyIndex::build(batch.dep);
    for (std::size_t c = 0; c < batch.cycles.size(); ++c) {
      EXPECT_EQ(prune_cycle(got.cycles[c], got.dep, got.clocks),
                prune_cycle(batch.cycles[c], batch.dep, batch.clocks))
          << "cycle " << c;
      const GeneratorResult want =
          generate(batch.cycles[c], batch.dep, batch_index);
      const GeneratorResult have = generate(got.cycles[c], got.dep, got_index);
      EXPECT_EQ(have.gs.edges(), want.gs.edges()) << "cycle " << c;
      EXPECT_EQ(have.feasible, want.feasible) << "cycle " << c;
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
}

TEST(GovernorTest, BudgetThatTrimsButDoesNotEvictKeepsCyclesAndVerdicts) {
  const Trace trace = stress_ring_trace();
  const Detection batch = detect(trace);
  ASSERT_FALSE(batch.cycles.empty());
  const Session::Verdict v = run_budgeted(trace, 1, 4096);
  const Detection& got = v.detection;
  EXPECT_GT(v.governor.tuples_compacted, 0u);
  EXPECT_EQ(v.governor.tuples_evicted, 0u);
  EXPECT_TRUE(v.governor.coverage_complete);
  EXPECT_FALSE(v.governor.degraded());
  EXPECT_TRUE(has_note(v.governor, "Gs may be smaller than batch"));
  EXPECT_LT(got.dep.log.size(), batch.dep.log.size());
  for (const WindowReport& w : v.windows)
    EXPECT_LE(w.store_bytes, std::size_t{1} << 20) << "window " << w.index;

  ASSERT_EQ(cycle_strings(got), cycle_strings(batch));
  EXPECT_EQ(canonical_strings(got.dep), canonical_strings(batch.dep));
  const DependencyIndex got_index = DependencyIndex::build(got.dep);
  const DependencyIndex batch_index = DependencyIndex::build(batch.dep);
  std::size_t smaller = 0;
  for (std::size_t c = 0; c < batch.cycles.size(); ++c) {
    EXPECT_EQ(prune_cycle(got.cycles[c], got.dep, got.clocks),
              prune_cycle(batch.cycles[c], batch.dep, batch.clocks))
        << "cycle " << c;
    const int have =
        generate(got.cycles[c], got.dep, got_index).gs.vertex_count();
    const int want =
        generate(batch.cycles[c], batch.dep, batch_index).gs.vertex_count();
    EXPECT_LE(have, want) << "cycle " << c;
    smaller += have < want;
  }
  EXPECT_GT(smaller, 0u) << "the trim never reached a Gs";
}

// A budget bounds the lock graph's edges, not only its locks. In the
// transfer(a, b) shape (two fixed sites, any pair from a fixed set of
// locks) a tuple's TupleKey leaves out its held lock, so once eviction
// drops a key's tuple, the key's next arrival is a new canonical tuple
// that may bring a new a→b edge while the lock count stays put. Pairs are
// ordered (a < b), so the graph stays acyclic and no window enumerates.
TEST(GovernorTest, MemoryBudgetBoundsAFixedLockSetsEdges) {
  constexpr LockId kLocks = 512;
  constexpr std::uint64_t kThreads = 16;
  constexpr std::size_t kWindow = 4096;
  constexpr std::size_t kWindows = 120;
  Rng rng(2014);
  std::vector<Event> events;
  events.reserve(kWindow * kWindows);
  while (events.size() < kWindow * kWindows) {
    const auto t = static_cast<ThreadId>(1 + rng.below(kThreads));
    LockId a = static_cast<LockId>(rng.below(kLocks));
    LockId b = static_cast<LockId>(rng.below(kLocks));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    events.push_back(acquire(t, a, 1));
    events.push_back(acquire(t, b, 2));
    events.push_back(release(t, b));
    events.push_back(release(t, a));
  }
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;

  std::uint64_t most_edges = 0;
  Session::Verdict v;
  const obs::CounterSnapshot counters = test::counter_delta([&] {
    Config cfg;
    cfg.memory_budget_mb = 1;
    cfg.window_events = kWindow;
    Session session = Session::open(cfg);
    const obs::CounterRegistry& registry = obs::CounterRegistry::instance();
    const obs::CounterSnapshot start = registry.snapshot();
    for (std::size_t at = 0; at < events.size(); at += kWindow) {
      session.feed(std::vector<Event>(
          events.begin() + static_cast<std::ptrdiff_t>(at),
          events.begin() + static_cast<std::ptrdiff_t>(at + kWindow)));
      const obs::CounterSnapshot now = obs::delta(registry.snapshot(), start);
      most_edges =
          std::max(most_edges, now.value("prefilter.edges") -
                                   now.value("prefilter.edge_expiries"));
    }
    v = session.finish();
  });
  const std::size_t retained = canonical_edges(v.detection.dep).size();
  EXPECT_GT(v.governor.tuples_evicted, 0u);
  EXPECT_GT(counters.value("prefilter.edge_expiries"), 0u) << "never rebuilt";
  EXPECT_TRUE(v.detection.cycles.empty());
  // The graph's locks plus edges stay within twice the retained view's at
  // the last rebuild, plus one window's arrivals; 4x the retained edges
  // leaves room for the 512 locks and that window. Counting locks only, the
  // graph never rebuilds here and keeps every pair ever fed.
  EXPECT_LE(most_edges, 4 * retained)
      << "the graph kept " << most_edges << " edges for " << retained
      << " retained";
}

// This process's resident set (VmRSS), in KiB; 0 where /proc is absent.
long resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return 0;
}

// A memory budget bounds the lock graph, not only the tuple store: on a
// stream whose every nest takes fresh locks, the lock graph is rebuilt from
// the retained tuples each time it doubles, so resident memory stops
// growing once the store is full. A graph that kept every lock it had ever
// seen grew by about 1.2 MB per window of this stream.
TEST(GovernorTest, MemoryBudgetBoundsAFreshLockSession) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep freed memory resident";
#endif
  constexpr std::size_t kWindow = 8192;
  constexpr std::size_t kWindows = 100;
  // Each window opens with an AB/BA ring on a fresh lock pair, then fills
  // with ordered nests on fresh lock pairs.
  std::vector<Event> events;
  events.reserve(kWindow * kWindows);
  LockId next_lock = 1000;
  SiteId next_site = 1000;
  auto nest = [&](ThreadId t, LockId a, LockId b) {
    events.push_back(acquire(t, a, next_site++));
    events.push_back(acquire(t, b, next_site++));
    events.push_back(release(t, b));
    events.push_back(release(t, a));
  };
  for (std::size_t w = 0; w < kWindows; ++w) {
    const LockId ra = next_lock++, rb = next_lock++;
    nest(1, ra, rb);
    nest(2, rb, ra);
    for (std::size_t filler = 0; events.size() < (w + 1) * kWindow; ++filler) {
      const LockId la = next_lock++, lb = next_lock++;
      nest(static_cast<ThreadId>(3 + filler % 4), la, lb);
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;

  const long before_kb = resident_kb();
  Config cfg;
  cfg.memory_budget_mb = 1;
  cfg.window_events = kWindow;
  cfg.live = true;
  Session session = Session::open(cfg);
  std::size_t live = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    session.feed(events[i]);
    if ((i + 1) % kWindow == 0) live += session.poll().size();
  }
  // Signed, and clamped: the allocator may hand back memory that earlier
  // tests left resident, so VmRSS can end below the baseline.
  const long grown_kb = std::max(0L, resident_kb() - before_kb);
  const Session::Verdict v = session.finish();
  EXPECT_EQ(v.governor.windows, kWindows);
  EXPECT_GT(v.governor.tuples_evicted, 0u);
  EXPECT_EQ(live, kWindows);  // every window's ring surfaced as it closed
  EXPECT_LT(grown_kb, 32L * 1024L)
      << "VmRSS grew " << grown_kb << " KiB over " << kWindows << " windows";
}

// The every-window-churn shape: each window opens with an AB/BA ring on a
// fresh lock pair at fresh sites (a new cycle and a new SCC per window),
// then fills with ordered fresh lock pairs (every tuple canonical, so the
// store only grows and the dirty-SCC path sees one small SCC per window).
// Fed in blocks through a live Session with no budget, every final cycle
// must reach poll() before finish(), and the answer must be batch's.
TEST(GovernorTest, ChurnStreamPollsEveryCycleBeforeFinish) {
  constexpr std::size_t kWindow = 256;
  constexpr std::size_t kWindows = 16;
  Trace trace;
  LockId next_lock = 1000;
  SiteId next_site = 1000;
  auto nest = [&](ThreadId t, LockId a, SiteId sa, LockId b, SiteId sb) {
    trace.events.push_back(acquire(t, a, sa));
    trace.events.push_back(acquire(t, b, sb));
    trace.events.push_back(release(t, b));
    trace.events.push_back(release(t, a));
  };
  for (std::size_t w = 0; w < kWindows; ++w) {
    const LockId ra = next_lock++, rb = next_lock++;
    nest(1, ra, next_site, rb, next_site + 1);
    nest(2, rb, next_site + 2, ra, next_site + 3);
    next_site += 4;
    for (int filler = 0; trace.size() < (w + 1) * kWindow; ++filler) {
      const LockId la = next_lock++, lb = next_lock++;  // la < lb: no cycle
      nest(static_cast<ThreadId>(3 + filler % 4), la, next_site, lb,
           next_site + 1);
      next_site += 2;
    }
  }
  std::uint64_t seq = 0;
  for (Event& e : trace.events) e.seq = seq++;
  ASSERT_EQ(trace.size(), kWindows * kWindow);
  const Detection batch = detect(trace);
  ASSERT_EQ(batch.cycles.size(), kWindows);

  Config cfg;
  cfg.window_events = kWindow;
  cfg.live = true;
  Session session = Session::open(cfg);
  std::vector<std::string> polled;
  constexpr std::size_t kBlock = 64;
  for (std::size_t i = 0; i < trace.size(); i += kBlock) {
    session.feed(std::vector<Event>(
        trace.events.begin() + static_cast<std::ptrdiff_t>(i),
        trace.events.begin() + static_cast<std::ptrdiff_t>(i + kBlock)));
    for (SessionCycle& c : session.poll())
      polled.push_back(std::move(c.description));
  }
  const Session::Verdict v = session.finish();
  EXPECT_TRUE(session.poll().empty())
      << "a cycle reached poll() only after finish()";

  EXPECT_EQ(cycle_strings(v.detection), cycle_strings(batch));
  ASSERT_EQ(v.detection.cycles.size(), batch.cycles.size());
  for (std::size_t i = 0; i < batch.cycles.size(); ++i)
    EXPECT_EQ(v.detection.cycles[i].tuple_idx, batch.cycles[i].tuple_idx);
  std::vector<std::string> expected = cycle_strings(batch);
  std::sort(expected.begin(), expected.end());
  std::sort(polled.begin(), polled.end());
  EXPECT_EQ(polled, expected);
  EXPECT_EQ(v.windows.size(), kWindows);
  EXPECT_TRUE(v.governor.coverage_complete);
  EXPECT_EQ(v.governor.tuples_evicted, 0u);
}

TEST(PrefilterTest, UndrainedDirtyMarksAccumulateAcrossWindows) {
  // The governor's catch-up contract: a kPrefilterOnly window skips the
  // drain, so the marks must still be there — folded onto current labels —
  // when a later promoted window finally drains. Simulate three windows of
  // feeding without draining, then one drain must cover everything.
  LockGraph g;
  LockDependency dep = LockDependency::from_trace(ab_ba_trace(false));
  std::size_t fed = 0;
  for (const LockTuple& t : dep.tuples) {
    g.on_tuple(t);  // one "window" per tuple, never drained
    if (!t.lockset.empty()) {
      ++fed;
      ASSERT_TRUE(g.has_dirty()) << "mark lost after tuple " << fed;
    }
  }
  ASSERT_GE(fed, 2u);
  std::vector<LockId> locks = drain_locks(g);
  std::set<LockId> lock_set(locks.begin(), locks.end());
  EXPECT_EQ(lock_set, (std::set<LockId>{10, 20}));
  EXPECT_FALSE(g.has_dirty());
}

// ----------------------------------------------------- degradation ladder

TEST(LadderTest, NoDeadlineNeverMoves) {
  int streak = 0;
  EXPECT_EQ(next_rung(DetectionLevel::kFullScc, 1e9, 0, streak),
            DetectionLevel::kFullScc);
}

TEST(LadderTest, DemotesOnMissAndStopsAtPrefilterOnly) {
  int streak = 5;
  DetectionLevel level = DetectionLevel::kFullScc;
  level = next_rung(level, 0.2, 100, streak);  // 200ms > 100ms deadline
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly);
  EXPECT_EQ(streak, 0);
  level = next_rung(level, 0.2, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly)
      << "deadline pressure never reaches kShedding";
}

TEST(LadderTest, PromotesOnlyAfterTwoConsecutiveFastWindows) {
  int streak = 0;
  DetectionLevel level = DetectionLevel::kPrefilterOnly;
  level = next_rung(level, 0.01, 100, streak);  // fast #1
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly);
  // A merely-adequate window (over deadline/2) resets the streak.
  level = next_rung(level, 0.07, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly);
  level = next_rung(level, 0.01, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly)
      << "one fast window after a reset must not promote";
  level = next_rung(level, 0.01, 100, streak);  // fast #2 -> promote
  EXPECT_EQ(level, DetectionLevel::kFullScc);
  EXPECT_EQ(streak, 0);
  // kShedding marks a window, it is no rung: two fast windows promote it
  // to full enumeration like kPrefilterOnly.
  level = DetectionLevel::kShedding;
  level = next_rung(level, 0.01, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kPrefilterOnly);
  level = next_rung(level, 0.01, 100, streak);
  EXPECT_EQ(level, DetectionLevel::kFullScc);
}

TEST(LadderTest, DeadlinePressureDemotesARealRun) {
  // An effectively-zero deadline (1ms against per-window enumeration of a
  // growing store) must walk the ladder down; the verdict reports the
  // demotion without losing final coverage.
  Trace trace;
  std::uint64_t seq = 0;
  SiteId site = 1;
  for (int rep = 0; rep < 100; ++rep) {
    for (const Event& e : ab_ba_trace(false).events) {
      trace.events.push_back(e);
      trace.events.back().site =
          trace.events.back().site == kInvalidSite ? kInvalidSite : site++;
      trace.events.back().seq = seq++;
    }
  }
  Config cfg;
  cfg.window_events = 64;
  cfg.window_deadline_ms = 0;  // ungoverned reference
  const Detection expected = run_session(cfg, trace).detection;

  cfg.window_deadline_ms = 1;
  const Session::Verdict governed = run_session(cfg, trace);

  EXPECT_EQ(signatures_of(governed.detection), signatures_of(expected))
      << "ladder demotions must not change the final detection";
  EXPECT_TRUE(governed.governor.coverage_complete);
}

// ------------------------------------------------------------ end-to-end

TEST(GovernorTest, GovernedPipelineOnPaperWorkload) {
  workloads::Figure4 example = workloads::make_figure4();
  auto trace = sim::record_trace(example.program, 3, 40);
  ASSERT_TRUE(trace.has_value());

  Config cfg;
  cfg.jobs = 1;
  cfg.replay.attempts = 4;
  cfg.window_events = 16;
  cfg.live = true;

  Session session = Session::open(cfg);
  VectorTraceReader reader(*trace);
  WolfReport report =
      analyze_session(example.program, session, reader, cfg.wolf_options());
  EXPECT_TRUE(report.governed);
  EXPECT_GT(report.governor.windows, 0u);
  EXPECT_TRUE(report.governor.coverage_complete);

  WolfReport batch = analyze_trace(example.program, *trace, cfg.wolf_options());
  EXPECT_EQ(report.detection.cycles.size(), batch.detection.cycles.size());
  EXPECT_EQ(report.defects.size(), batch.defects.size());
}

}  // namespace
}  // namespace wolf
