// Tests for D_σ reconstruction: lockset/context bookkeeping, re-entrancy,
// hand-over-hand release order, µ, deduplication into the canonical tier
// beside the acquisition log, thread prefixes, and the builder's incremental
// canonical index against a first-occurrence model under log trims,
// eviction, subset snapshots, take and clear.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
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
  ASSERT_EQ(dep.log.size(), 2u);
  EXPECT_EQ(dep.log[1].thread, 0);
  EXPECT_EQ(dep.log[1].lock, 11);
  EXPECT_EQ(dep.log[1].site, 2);
  EXPECT_EQ(dep.log[1].pos, 1u);

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
  EXPECT_EQ(dep.log.size(), 3u);
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
  // The same nested pattern executed twice: 4 acquisitions, 2 canonical.
  Trace trace = trace_of({{A, 0, 1, 10}, {A, 0, 2, 11}, {R, 0, 3, 11},
                          {R, 0, 4, 10}, {A, 0, 1, 10}, {A, 0, 2, 11},
                          {R, 0, 3, 11}, {R, 0, 4, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_EQ(dep.log.size(), 4u);
  ASSERT_EQ(dep.tuples.size(), 2u);
  // Canonical representatives are the first occurrences.
  EXPECT_EQ(dep.tuples[0].trace_pos, 0u);
  EXPECT_EQ(dep.tuples[1].trace_pos, 1u);
  // The log keeps the duplicates, each with its own execution index.
  EXPECT_EQ(dep.log[3].pos, 5u);
  EXPECT_EQ(dep.log[3].index(), (ExecIndex{0, 2, 1}));
}

TEST(LockDependencyTest, DifferentContextSitesStayDistinct) {
  // Same (thread, lock) but acquired from different sites.
  Trace trace = trace_of({{A, 0, 1, 10}, {R, 0, 2, 10}, {A, 0, 7, 10},
                          {R, 0, 8, 10}});
  LockDependency dep = LockDependency::from_trace(trace);
  EXPECT_EQ(dep.tuples.size(), 2u);
  EXPECT_EQ(dep.log.size(), 2u);
}

TEST(LockDependencyTest, ThreadPrefixRespectsPositionAndThread) {
  Trace trace = trace_of({{A, 0, 1, 10}, {R, 0, 2, 10}, {A, 1, 3, 11},
                          {A, 0, 4, 12}, {R, 0, 5, 12}, {R, 1, 6, 11}});
  LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.log.size(), 3u);
  // Prefix of thread 0 up to its second acquisition (trace position 3).
  auto prefix = dep.thread_prefix(0, 3);
  ASSERT_EQ(prefix.size(), 2u);
  EXPECT_EQ(dep.log[prefix[0]].lock, 10);
  EXPECT_EQ(dep.log[prefix[1]].lock, 12);
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
    EXPECT_EQ(online.tuples[i].trace_pos, offline.tuples[i].trace_pos);
  }
  ASSERT_EQ(online.log.size(), offline.log.size());
  for (std::size_t i = 0; i < online.log.size(); ++i) {
    EXPECT_EQ(online.log[i].lock, offline.log[i].lock);
    EXPECT_EQ(online.log[i].index(), offline.log[i].index());
    EXPECT_EQ(online.log[i].pos, offline.log[i].pos);
  }
}

// ---- the incremental canonical index against the first-occurrence rule ----

// What a retained acquisition must be, built from the stream's own
// held-lock model rather than read back from the builder.
struct ExpectedTuple {
  std::size_t trace_pos;
  ThreadId thread;
  LockId lock;
  std::vector<LockId> lockset;
  std::vector<SiteId> sites;  // context sites, this acquisition's last

  bool same_key(const ExpectedTuple& o) const {
    return thread == o.thread && lock == o.lock && sites == o.sites;
  }
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

void expect_log(const std::deque<Acquisition>& got,
                const std::vector<ExpectedTuple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pos, want[i].trace_pos) << "record " << i;
    EXPECT_EQ(got[i].thread, want[i].thread) << "record " << i;
    EXPECT_EQ(got[i].lock, want[i].lock) << "record " << i;
    EXPECT_EQ(got[i].site, want[i].sites.back()) << "record " << i;
  }
}

// The canonical tier must hold, at every point, the first acquisition of
// each key since the key last left the tier (by eviction, take or clear),
// in arrival order; the log every acquisition not yet trimmed or evicted.
TEST(LockDependencyTest, IncrementalUniqueMatchesFirstOccurrenceRule) {
  constexpr int kThreads = 3;
  constexpr int kLocks = 5;
  constexpr int kMaxDepth = 3;
  std::size_t steps_with_differing_locksets = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    LockDependencyBuilder builder;
    std::vector<ExpectedTuple> canon;  // the canonical tier
    std::vector<ExpectedTuple> log;    // the acquisition log
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
        if (std::none_of(
                canon.begin(), canon.end(),
                [&](const ExpectedTuple& c) { return c.same_key(want); }))
          canon.push_back(want);
        log.push_back(std::move(want));
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
        const std::size_t max_records = rng.below(log.size() + 1);
        const std::size_t trimmed = log.size() - max_records;
        EXPECT_EQ(builder.trim_log(max_records), trimmed);
        log.erase(log.begin(),
                  log.begin() + static_cast<std::ptrdiff_t>(trimmed));
      } else if (op < 92) {
        const std::size_t max_tuples = rng.below(canon.size() + 1);
        const std::size_t evicted = canon.size() - max_tuples;
        EXPECT_EQ(builder.evict_oldest(max_tuples), evicted);
        canon.erase(canon.begin(),
                    canon.begin() + static_cast<std::ptrdiff_t>(evicted));
        if (evicted > 0) {
          const std::size_t oldest =
              canon.empty() ? pos : canon.front().trace_pos;
          std::erase_if(log, [&](const ExpectedTuple& r) {
            return r.trace_pos < oldest;
          });
        }
      } else if (op < 97) {
        // A lock-closed subset of canonical ordinals: every canonical tuple
        // of some request locks.
        std::set<LockId> locks;
        for (LockId l = 0; l < kLocks; ++l)
          if (rng.chance(0.5)) locks.insert(l);
        std::vector<std::size_t> ordinals;
        std::vector<ExpectedTuple> expected;
        for (std::size_t k = 0; k < canon.size(); ++k) {
          if (locks.count(canon[k].lock) == 0) continue;
          ordinals.push_back(k);
          expected.push_back(canon[k]);
        }
        const LockDependency sub = builder.snapshot_subset(ordinals);
        expect_tuples(sub.tuples, expected);
        EXPECT_TRUE(sub.log.empty());
      } else if (op < 99) {
        const LockDependency dep = builder.take_dependency();
        expect_tuples(dep.tuples, canon);
        expect_log(dep.log, log);
        canon.clear();  // held locks and the event position carry on
        log.clear();
      } else {
        builder.clear();
        canon.clear();
        log.clear();
        for (auto& h : held) h.clear();
        pos = 0;
      }

      const LockDependency& dep = builder.pending();
      expect_tuples(dep.tuples, canon);
      expect_log(dep.log, log);
      if (::testing::Test::HasFailure()) return;

      // Count the states where a logged duplicate holds other locks than
      // its canonical, so the test is known to cover them.
      for (const ExpectedTuple& r : log) {
        auto c = std::find_if(
            canon.begin(), canon.end(),
            [&](const ExpectedTuple& k) { return k.same_key(r); });
        if (c != canon.end() && c->lockset != r.lockset) {
          ++steps_with_differing_locksets;
          break;
        }
      }
    }
  }
  EXPECT_GE(steps_with_differing_locksets, 100u);
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
