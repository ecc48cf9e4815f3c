// Tests for D_σ reconstruction: lockset/context bookkeeping, re-entrancy,
// hand-over-hand release order, µ, deduplication and thread prefixes, and
// the builder's incremental canonical index against the first-occurrence
// rule under compaction, eviction, subset snapshots, take and clear.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/lock_dependency.hpp"
#include "core/online_sink.hpp"
#include "sim/scheduler.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

// Builds a trace from (kind, thread, site, lock) shorthand.
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

TEST(LockDependencyTest, SimpleNestedAcquisition) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 2u);

  const LockTuple& outer = dep.tuples[0];
  EXPECT_EQ(outer.thread, 0);
  EXPECT_TRUE(outer.lockset.empty());
  EXPECT_EQ(outer.lock, 10);
  ASSERT_EQ(outer.context.size(), 1u);
  EXPECT_EQ(outer.context[0].site, 1);

  const LockTuple& inner = dep.tuples[1];
  EXPECT_EQ(inner.lockset, std::vector<LockId>{10});
  EXPECT_EQ(inner.lock, 11);
  ASSERT_EQ(inner.context.size(), 2u);
  EXPECT_EQ(inner.context[0].site, 1);
  EXPECT_EQ(inner.context[1].site, 2);
}

TEST(LockDependencyTest, HandOverHandReleaseOrder) {
  // Acquire 10, acquire 11, release 10 (out of order), acquire 12.
  Trace trace = trace_of({{A, 0, 1, 10},
                          {A, 0, 2, 11},
                          {R, 0, 3, 10},
                          {A, 0, 4, 12},
                          {R, 0, 5, 12},
                          {R, 0, 6, 11}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 3u);
  const LockTuple& third = dep.tuples[2];
  EXPECT_EQ(third.lockset, std::vector<LockId>{11});
  EXPECT_EQ(third.lock, 12);
}

TEST(LockDependencyTest, ReleaseOfUnheldLockThrows) {
  Trace trace = trace_of({{R, 0, 1, 10}});
  EXPECT_THROW(LockDependency::from_trace(trace), CheckFailure);
}

TEST(LockDependencyTest, MuMapsLocksetAndAcquiredLock) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {A, 0, 3, 12},
                          {R, 0, 4, 12}, {R, 0, 5, 11}, {R, 0, 6, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  const LockTuple& deepest = dep.tuples[2];
  EXPECT_EQ(deepest.mu(10).site, 1);
  EXPECT_EQ(deepest.mu(11).site, 2);
  EXPECT_EQ(deepest.mu(12).site, 3);  // the acquired lock itself
  EXPECT_THROW(deepest.mu(99), CheckFailure);
}

TEST(LockDependencyTest, HoldsChecksLocksetOnly) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_TRUE(dep.tuples[1].holds(10));
  EXPECT_FALSE(dep.tuples[1].holds(11));  // the acquired lock is not "held"
  EXPECT_FALSE(dep.tuples[0].holds(10));
}

TEST(LockDependencyTest, DedupCollapsesRepeatedContexts) {
  // The same nested pattern executed twice: 4 tuples, 2 canonical.
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}, {A, 0, 1, 10}, {A, 0, 2, 11},
                          {R, 0, 3, 11}, {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_EQ(dep.tuples.size(), 4u);
  EXPECT_EQ(dep.unique.size(), 2u);
  // Canonical representatives are the first occurrences.
  EXPECT_EQ(dep.unique[0], 0u);
  EXPECT_EQ(dep.unique[1], 1u);
}

TEST(LockDependencyTest, DifferentContextSitesStayDistinct) {
  // Same (thread, lock) but acquired from different sites.
  Trace trace = trace_of({{A, 0, 1, 10}, {R, 0, 2, 10}, {A, 0, 7, 10},
                          {R, 0, 8, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_EQ(dep.unique.size(), 2u);
}

TEST(LockDependencyTest, ThreadPrefixRespectsPositionAndThread) {
  Trace trace = trace_of({{A, 0, 1, 10}, {R, 0, 2, 10}, {A, 1, 3, 11},
                          {A, 0, 4, 12}, {R, 0, 5, 12}, {R, 1, 6, 11}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 3u);
  // Prefix of thread 0 up to its second acquisition (trace position 3).
  auto prefix = dep.thread_prefix(0, 3);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(dep.tuples[prefix[0]].lock, 10);
  EXPECT_EQ(dep.tuples[prefix[1]].lock, 12);
  // Prefix cut before it.
  EXPECT_EQ(dep.thread_prefix(0, 2).size(), 1u);
  EXPECT_EQ(dep.thread_prefix(1, 2).size(), 1u);
}

TEST(LockDependencyTest, TimestampsComeFromClockTracker) {
  // start bumps the parent's τ between two acquisitions (Fig. 5's η2 vs η8).
  Trace trace;
  std::uint64_t seq = 0;
  auto push = [&](EventKind kind, ThreadId t, SiteId site, LockId lock,
                  ThreadId other) {
    Event e;
    e.seq = seq++;
    e.kind = kind;
    e.thread = t;
    e.site = site;
    e.lock = lock;
    e.other = other;
    trace.events.push_back(e);
  };
  push(EventKind::kThreadBegin, 0, kInvalidSite, kInvalidLock, kInvalidThread);
  push(A, 0, 1, 10, kInvalidThread);
  push(R, 0, 2, 10, kInvalidThread);
  push(EventKind::kThreadStart, 0, 3, kInvalidLock, 1);
  push(A, 0, 4, 10, kInvalidThread);
  push(R, 0, 5, 10, kInvalidThread);

  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.tuples.size(), 2u);
  EXPECT_EQ(dep.tuples[0].tau, 1);
  EXPECT_EQ(dep.tuples[1].tau, 2);
}

TEST(LockDependencyTest, OnlineSinkMatchesOfflineBuilder) {
  // The online instrumentation bookkeeping must agree exactly with the
  // offline reconstruction, on a real recorded workload.
  auto fig = workloads::make_figure4();
  auto trace = sim::record_trace(fig.program, 5);
  ASSERT_TRUE(trace.has_value());

  LockDependency offline = LockDependency::from_trace(*trace);
  OnlineAnalysisSink sink;
  for (const Event& e : trace->events) sink.on_event(e);
  LockDependency online = sink.take_dependency();

  ASSERT_EQ(online.tuples.size(), offline.tuples.size());
  for (std::size_t i = 0; i < online.tuples.size(); ++i) {
    EXPECT_EQ(online.tuples[i].thread, offline.tuples[i].thread);
    EXPECT_EQ(online.tuples[i].lock, offline.tuples[i].lock);
    EXPECT_EQ(online.tuples[i].lockset, offline.tuples[i].lockset);
    EXPECT_EQ(online.tuples[i].context, offline.tuples[i].context);
    EXPECT_EQ(online.tuples[i].tau, offline.tuples[i].tau);
  }
  EXPECT_EQ(online.unique, offline.unique);
}

// ---- the incremental canonical index against the first-occurrence rule ----

// The rule `unique` must obey at every point: the positions of the first
// retained tuple of each TupleKey, in order.
std::vector<std::size_t> first_occurrences(const std::vector<LockTuple>& tuples) {
  std::unordered_set<TupleKey, TupleKeyHash> seen;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < tuples.size(); ++i)
    if (seen.insert(key_of(tuples[i])).second) out.push_back(i);
  return out;
}

// What a retained tuple must be, built from the stream's own held-lock
// model rather than read back from the builder.
struct ExpectedTuple {
  std::size_t trace_pos;
  ThreadId thread;
  LockId lock;
  std::vector<LockId> lockset;
  std::vector<SiteId> sites;  // context sites, this acquisition's last
};

void expect_tuples(const std::vector<LockTuple>& got,
                   const std::vector<ExpectedTuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].trace_pos, want[i].trace_pos) << "tuple " << i;
    EXPECT_EQ(got[i].thread, want[i].thread) << "tuple " << i;
    EXPECT_EQ(got[i].lock, want[i].lock) << "tuple " << i;
    EXPECT_EQ(got[i].lockset, want[i].lockset) << "tuple " << i;
    EXPECT_EQ(key_of(got[i]).sites, want[i].sites) << "tuple " << i;
  }
}

TEST(LockDependencyTest, IncrementalUniqueMatchesFirstOccurrenceRule) {
  constexpr int kThreads = 3;
  constexpr int kLocks = 5;
  constexpr int kMaxDepth = 3;
  std::size_t steps_with_differing_locksets = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    LockDependencyBuilder builder;
    std::vector<ExpectedTuple> retained;
    // Per thread: held (lock, site) pairs in acquisition order.
    std::vector<std::vector<std::pair<LockId, SiteId>>> held(kThreads);
    std::size_t pos = 0;

    for (int step = 0; step < 600; ++step) {
      const auto t = static_cast<ThreadId>(rng.below(kThreads));
      auto& stack = held[static_cast<std::size_t>(t)];
      const std::uint64_t op = rng.below(100);
      if (op < 55 && stack.size() < kMaxDepth) {
        // Acquire a lock the thread does not hold from one of three sites
        // per depth, whichever lock it is: the same site signature acquires
        // different locks, so a duplicate's lockset can differ from its
        // canonical's.
        LockId lock;
        do {
          lock = static_cast<LockId>(rng.below(kLocks));
        } while (std::any_of(stack.begin(), stack.end(),
                             [&](const auto& h) { return h.first == lock; }));
        const auto site = static_cast<SiteId>(3 * stack.size() + rng.below(3));
        ExpectedTuple want{pos, t, lock, {}, {}};
        for (const auto& [l, s] : stack) {
          want.lockset.push_back(l);
          want.sites.push_back(s);
        }
        want.sites.push_back(site);
        Event e;
        e.seq = pos;
        e.kind = EventKind::kLockAcquire;
        e.thread = t;
        e.lock = lock;
        e.site = site;
        builder.add(e);
        retained.push_back(std::move(want));
        stack.emplace_back(lock, site);
        ++pos;
      } else if (op < 85 && !stack.empty()) {
        // Release any held lock, not only the innermost (hand-over-hand).
        const std::size_t victim = rng.below(stack.size());
        Event e;
        e.seq = pos;
        e.kind = EventKind::kLockRelease;
        e.thread = t;
        e.lock = stack[victim].first;
        e.site = 50;
        builder.add(e);
        stack.erase(stack.begin() + static_cast<std::ptrdiff_t>(victim));
        ++pos;
      } else if (op < 89) {
        const std::vector<std::size_t> canon =
            first_occurrences(builder.pending().tuples);
        std::vector<ExpectedTuple> kept;
        for (std::size_t i : canon) kept.push_back(retained[i]);
        EXPECT_EQ(builder.compact(), retained.size() - kept.size());
        retained = std::move(kept);
      } else if (op < 92) {
        const std::size_t max_tuples = rng.below(retained.size() + 1);
        const std::size_t evicted = retained.size() - max_tuples;
        EXPECT_EQ(builder.evict_oldest(max_tuples), evicted);
        retained.erase(retained.begin(),
                       retained.begin() + static_cast<std::ptrdiff_t>(evicted));
      } else if (op < 97) {
        // A lock-closed subset: every retained tuple of some request locks.
        std::set<LockId> locks;
        for (LockId l = 0; l < kLocks; ++l)
          if (rng.chance(0.5)) locks.insert(l);
        std::vector<std::size_t> indices;
        std::vector<LockTuple> expected;
        const auto& tuples = builder.pending().tuples;
        for (std::size_t i = 0; i < tuples.size(); ++i) {
          if (locks.count(tuples[i].lock) == 0) continue;
          indices.push_back(i);
          expected.push_back(tuples[i]);
        }
        const LockDependency sub = builder.snapshot_subset(indices);
        ASSERT_EQ(sub.tuples.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
          EXPECT_EQ(sub.tuples[i].trace_pos, expected[i].trace_pos);
        EXPECT_EQ(sub.unique, first_occurrences(expected));
      } else if (op < 99) {
        const LockDependency dep = builder.take_dependency();
        expect_tuples(dep.tuples, retained);
        EXPECT_EQ(dep.unique, first_occurrences(dep.tuples));
        retained.clear();  // held locks and the event position carry on
      } else {
        builder.clear();
        retained.clear();
        for (auto& h : held) h.clear();
        pos = 0;
      }

      const LockDependency& dep = builder.pending();
      expect_tuples(dep.tuples, retained);
      EXPECT_EQ(dep.unique, first_occurrences(dep.tuples));
      if (::testing::Test::HasFailure()) return;

      // Count the states where a duplicate holds other locks than its
      // canonical, so the test is known to cover them.
      std::unordered_map<TupleKey, const LockTuple*, TupleKeyHash> canonical_of;
      for (std::size_t u : dep.unique)
        canonical_of.emplace(key_of(dep.tuples[u]), &dep.tuples[u]);
      for (const LockTuple& tuple : dep.tuples)
        if (canonical_of.at(key_of(tuple))->lockset != tuple.lockset) {
          ++steps_with_differing_locksets;
          break;
        }
    }
  }
  EXPECT_GE(steps_with_differing_locksets, 100u);  // 163 with these seeds
}

TEST(LockDependencyTest, ToStringIsReadable) {
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  std::string s = dep.tuples[1].to_string();
  EXPECT_NE(s.find("t0"), std::string::npos);
  EXPECT_NE(s.find("l11"), std::string::npos);
}

}  // namespace
}  // namespace wolf
