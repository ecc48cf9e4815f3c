// Tests for potential-deadlock cycle enumeration: the cyclic-request
// condition, guard-lock suppression, distinct threads, k-way cycles,
// canonical deduplication, cycle-length caps, and defect grouping.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/detector.hpp"
#include "sim/scheduler.hpp"
#include "workloads/collections.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

struct Step {
  EventKind kind;
  ThreadId thread;
  SiteId site;
  LockId lock;
};

Trace trace_of(std::initializer_list<Step> steps) {
  Trace trace;
  std::uint64_t seq = 0;
  std::map<std::pair<ThreadId, SiteId>, std::int32_t> occ;
  for (const Step& s : steps) {
    Event e;
    e.seq = seq++;
    e.kind = s.kind;
    e.thread = s.thread;
    e.site = s.site;
    e.occurrence = occ[{s.thread, s.site}]++;
    e.lock = s.lock;
    trace.events.push_back(e);
  }
  return trace;
}

constexpr EventKind A = EventKind::kLockAcquire;
constexpr EventKind R = EventKind::kLockRelease;

// t0: 10 then 11 nested; t1: 11 then 10 nested — the canonical AB/BA.
Trace abba_trace() {
  return trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11}, {R, 0, 4, 10},
                   {A, 1, 5, 11}, {A, 1, 6, 10}, {R, 1, 7, 10},
                   {R, 1, 8, 11}});
}

TEST(DetectorTest, FindsTheAbbaCycle) {
  Detection det = detect(abba_trace());
  ASSERT_EQ(det.cycles.size(), 1u);
  const PotentialDeadlock& theta = det.cycles[0];
  ASSERT_EQ(theta.tuple_idx.size(), 2u);
  std::set<ThreadId> threads;
  for (std::size_t i : theta.tuple_idx)
    threads.insert(det.dep.tuples[i].thread);
  EXPECT_EQ(threads, (std::set<ThreadId>{0, 1}));
}

TEST(DetectorTest, ConsistentOrderHasNoCycle) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}, {A, 1, 5, 10}, {A, 1, 6, 11},
                          {R, 1, 7, 11}, {R, 1, 8, 10}});
  EXPECT_TRUE(detect(trace).cycles.empty());
}

TEST(DetectorTest, GuardLockSuppressesCycle) {
  // Both nested regions are protected by common lock 9 — no deadlock.
  Trace trace = trace_of(
      {{A, 0, 0, 9}, {A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
       {R, 0, 4, 10}, {R, 0, 5, 9},
       {A, 1, 6, 9}, {A, 1, 7, 11}, {A, 1, 8, 10}, {R, 1, 9, 10},
       {R, 1, 10, 11}, {R, 1, 11, 9}});
  EXPECT_TRUE(detect(trace).cycles.empty());
}

TEST(DetectorTest, SingleThreadNeverCycles) {
  // The same thread locks 10→11 and later 11→10: not a deadlock.
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}, {A, 0, 5, 11}, {A, 0, 6, 10},
                          {R, 0, 7, 10}, {R, 0, 8, 11}});
  EXPECT_TRUE(detect(trace).cycles.empty());
}

TEST(DetectorTest, ThreeWayCycleDetected) {
  // t0: 10→11, t1: 11→12, t2: 12→10.
  Trace trace = trace_of(
      {{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11}, {R, 0, 4, 10},
       {A, 1, 5, 11}, {A, 1, 6, 12}, {R, 1, 7, 12}, {R, 1, 8, 11},
       {A, 2, 9, 12}, {A, 2, 10, 10}, {R, 2, 11, 10}, {R, 2, 12, 12}});
  Detection det = detect(trace);
  ASSERT_EQ(det.cycles.size(), 1u);
  EXPECT_EQ(det.cycles[0].tuple_idx.size(), 3u);
}

TEST(DetectorTest, CycleLengthCapExcludesLongCycles) {
  Trace trace = trace_of(
      {{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11}, {R, 0, 4, 10},
       {A, 1, 5, 11}, {A, 1, 6, 12}, {R, 1, 7, 12}, {R, 1, 8, 11},
       {A, 2, 9, 12}, {A, 2, 10, 10}, {R, 2, 11, 10}, {R, 2, 12, 12}});
  DetectorOptions options;
  options.max_cycle_length = 2;
  EXPECT_TRUE(detect(trace, options).cycles.empty());
}

TEST(DetectorTest, PhilosophersRingHasExactlyOneFullCycle) {
  auto w = workloads::make_philosophers(5);
  auto trace = sim::record_trace(w.program, 3);
  ASSERT_TRUE(trace.has_value());
  DetectorOptions options;
  options.max_cycle_length = 5;
  Detection det = detect(*trace, options);
  ASSERT_EQ(det.cycles.size(), 1u);
  EXPECT_EQ(det.cycles[0].tuple_idx.size(), 5u);
}

TEST(DetectorTest, NoDuplicateCyclesUnderRotation) {
  Detection det = detect(abba_trace());
  ASSERT_EQ(det.cycles.size(), 1u);
  // The canonical rotation starts at the minimal thread id.
  EXPECT_EQ(det.dep.tuples[det.cycles[0].tuple_idx[0]].thread, 0);
}

TEST(DetectorTest, MultipleDistinctCyclesEnumerated) {
  // Two independent AB/BA pairs on disjoint locks between the same threads.
  Trace trace = trace_of(
      {{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11}, {R, 0, 4, 10},
       {A, 0, 5, 20}, {A, 0, 6, 21}, {R, 0, 7, 21}, {R, 0, 8, 20},
       {A, 1, 11, 11}, {A, 1, 12, 10}, {R, 1, 13, 10}, {R, 1, 14, 11},
       {A, 1, 15, 21}, {A, 1, 16, 20}, {R, 1, 17, 20}, {R, 1, 18, 21}});
  Detection det = detect(trace);
  EXPECT_EQ(det.cycles.size(), 2u);
  EXPECT_EQ(det.defects.size(), 2u);
}

TEST(DetectorTest, DefectGroupingCollapsesSameSignature) {
  // The same AB/BA source sites executed twice by each thread: several
  // cycles, one defect.
  Trace trace = trace_of(
      {{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11}, {R, 0, 4, 10},
       {A, 1, 5, 11}, {A, 1, 6, 10}, {R, 1, 7, 10}, {R, 1, 8, 11},
       {A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11}, {R, 0, 4, 10},
       {A, 1, 5, 11}, {A, 1, 6, 10}, {R, 1, 7, 10}, {R, 1, 8, 11}});
  Detection det = detect(trace);
  EXPECT_EQ(det.cycles.size(), 1u);  // deduplicated by context sites
  EXPECT_EQ(det.defects.size(), 1u);
}

TEST(DetectorTest, SignatureIsSortedSiteMultiset) {
  Detection det = detect(abba_trace());
  ASSERT_EQ(det.cycles.size(), 1u);
  DefectSignature sig = signature_of(det.cycles[0], det.dep);
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_LE(sig[0], sig[1]);
  EXPECT_EQ(sig, (DefectSignature{2, 6}));
}

TEST(DetectorTest, MaxCyclesCapStopsEnumeration) {
  auto w = workloads::make_collections_list("ArrayList");
  auto trace = sim::record_trace(w.program, 9);
  ASSERT_TRUE(trace.has_value());
  DetectorOptions options;
  options.max_cycles = 4;
  Detection det = detect(*trace, options);
  EXPECT_EQ(det.cycles.size(), 4u);
  EXPECT_TRUE(det.truncated);
  EXPECT_EQ(det.cycle_cap, 4u);

  // Without hitting the cap the detection reports itself complete.
  Detection full = detect(*trace);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.cycle_cap, 0u);
}

TEST(DetectorTest, Figure1PatternIsDetectedAsCycle) {
  auto fig = workloads::make_figure1();
  auto trace = sim::record_trace(fig.program, 1);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  ASSERT_EQ(det.cycles.size(), 1u);  // trace-agnostic detection reports it
  EXPECT_EQ(signature_of(det.cycles[0], det.dep),
            (DefectSignature{std::min(fig.s75, fig.s175),
                             std::max(fig.s75, fig.s175)}));
}

TEST(DetectorTest, Figure2HasFourCyclesThreeDefects) {
  auto fig = workloads::make_figure2();
  auto trace = sim::record_trace(fig.program, 21);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  EXPECT_EQ(det.cycles.size(), 4u);
  EXPECT_EQ(det.defects.size(), 3u);
}

TEST(DetectorTest, ReentrantAcquisitionsProduceNoExtraTuples) {
  auto fig = workloads::make_figure4();
  // Append a re-entrant region to t1 of a copy: a thread locking a lock it
  // already holds must add nothing to D_σ. Here we simply check the sim
  // substrate + detector on a small re-entrant program.
  sim::Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  ThreadId t = p.add_thread("main");
  SiteId s1 = p.site("outer", 1);
  SiteId s2 = p.site("inner", 2);
  p.lock(t, a, s1);
  p.lock(t, a, s2);  // re-entrant
  p.unlock(t, a, p.site("x", 3));
  p.unlock(t, a, p.site("y", 4));
  p.finalize();
  auto trace = sim::record_trace(p, 1);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  EXPECT_EQ(det.dep.log.size(), 1u);
  EXPECT_EQ(det.dep.tuples.size(), 1u);
  (void)fig;
}

}  // namespace
}  // namespace wolf
