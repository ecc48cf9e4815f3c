// Pins the whole pipeline to the paper's running example (Figures 4–7):
// the D_σ tuples of Fig. 5, the clock evolution of Fig. 6, the two detected
// cycles, the Pruner verdicts, the exact Gs edge set of Fig. 7(a), and the
// Replayer's deterministic reproduction of θ′2. The schedule space is also
// exhausted with the systematic explorer to prove θ′1 is unreachable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/deadlock_fuzzer.hpp"
#include "core/pipeline.hpp"
#include "explore/explorer.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

using workloads::Figure4;
using workloads::make_figure4;

class RunningExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = make_figure4();
    auto trace = sim::record_trace(fig_.program, /*seed=*/42);
    ASSERT_TRUE(trace.has_value()) << "no completed recording run";
    trace_ = std::move(*trace);
    detection_ = detect(trace_);
  }

  // Finds the unique tuple acquiring at `site`; fails the test if absent.
  const LockTuple& tuple_at(SiteId site) {
    for (const LockTuple& t : detection_.dep.tuples)
      if (t.acquire_index().site == site) return t;
    ADD_FAILURE() << "no tuple at site " << site;
    static LockTuple dummy;
    return dummy;
  }

  // The cycle whose deadlocking acquisitions sit at exactly `sites`.
  const PotentialDeadlock* cycle_at(std::vector<SiteId> sites) {
    std::sort(sites.begin(), sites.end());
    for (const PotentialDeadlock& c : detection_.cycles)
      if (signature_of(c, detection_.dep) == sites) return &c;
    return nullptr;
  }

  Figure4 fig_;
  Trace trace_;
  Detection detection_;
};

TEST_F(RunningExampleTest, DSigmaHasTheEightTuplesOfFigure5) {
  // Eight acquisitions, all canonical.
  EXPECT_EQ(detection_.dep.log.size(), 8u);
  EXPECT_EQ(detection_.dep.tuples.size(), 8u);

  // η1 = (1, {}, l1, {11}, 1)
  {
    const LockTuple& eta = tuple_at(fig_.s11);
    EXPECT_EQ(eta.thread, 0);
    EXPECT_TRUE(eta.lockset.empty());
    EXPECT_EQ(eta.lock, fig_.l1);
    ASSERT_EQ(eta.context.size(), 1u);
    EXPECT_EQ(eta.context[0].site, fig_.s11);
    EXPECT_EQ(eta.tau, 1);
  }
  // η2 = (1, {l1}, l2, {11,12}, 1)
  {
    const LockTuple& eta = tuple_at(fig_.s12);
    EXPECT_EQ(eta.thread, 0);
    ASSERT_EQ(eta.lockset.size(), 1u);
    EXPECT_EQ(eta.lockset[0], fig_.l1);
    EXPECT_EQ(eta.lock, fig_.l2);
    ASSERT_EQ(eta.context.size(), 2u);
    EXPECT_EQ(eta.context[0].site, fig_.s11);
    EXPECT_EQ(eta.context[1].site, fig_.s12);
    EXPECT_EQ(eta.tau, 1);
  }
  // η5 = (3, {l3,l2}, l1, {31,32,33}, 1)
  {
    const LockTuple& eta = tuple_at(fig_.s33);
    EXPECT_EQ(eta.thread, 2);
    ASSERT_EQ(eta.lockset.size(), 2u);
    EXPECT_EQ(eta.lockset[0], fig_.l3);
    EXPECT_EQ(eta.lockset[1], fig_.l2);
    EXPECT_EQ(eta.lock, fig_.l1);
    EXPECT_EQ(eta.tau, 1);
  }
  // η6 = (1, {}, l3, {16}, 2) — after t2.start() bumped τ1.
  {
    const LockTuple& eta = tuple_at(fig_.s16);
    EXPECT_EQ(eta.thread, 0);
    EXPECT_TRUE(eta.lockset.empty());
    EXPECT_EQ(eta.lock, fig_.l3);
    EXPECT_EQ(eta.tau, 2);
  }
  // η8 = (1, {l1}, l2, {18,19}, 2)
  {
    const LockTuple& eta = tuple_at(fig_.s19);
    EXPECT_EQ(eta.thread, 0);
    ASSERT_EQ(eta.lockset.size(), 1u);
    EXPECT_EQ(eta.lockset[0], fig_.l1);
    EXPECT_EQ(eta.lock, fig_.l2);
    ASSERT_EQ(eta.context.size(), 2u);
    EXPECT_EQ(eta.context[0].site, fig_.s18);
    EXPECT_EQ(eta.context[1].site, fig_.s19);
    EXPECT_EQ(eta.tau, 2);
  }
}

TEST_F(RunningExampleTest, ClocksMatchFigure6) {
  const ClockTracker& clocks = detection_.clocks;
  // τ at end: τ1 = 2 (one start), τ2 = 2 (one start), τ3 = 1.
  EXPECT_EQ(clocks.timestamp(0), 2);
  EXPECT_EQ(clocks.timestamp(1), 2);
  EXPECT_EQ(clocks.timestamp(2), 1);

  // V1 = <⊥, ⊥, ⊥>
  for (ThreadId u = 0; u < 3; ++u) {
    EXPECT_EQ(clocks.view(0, u).S, kTsBottom);
    EXPECT_EQ(clocks.view(0, u).J, kTsBottom);
  }
  // V2 = <(2,⊥), ⊥, ⊥>
  EXPECT_EQ(clocks.view(1, 0).S, 2);
  EXPECT_EQ(clocks.view(1, 0).J, kTsBottom);
  EXPECT_EQ(clocks.view(1, 1).S, kTsBottom);
  EXPECT_EQ(clocks.view(1, 2).S, kTsBottom);
  // V3 = <(2,⊥), (2,⊥), ⊥>
  EXPECT_EQ(clocks.view(2, 0).S, 2);
  EXPECT_EQ(clocks.view(2, 0).J, kTsBottom);
  EXPECT_EQ(clocks.view(2, 1).S, 2);
  EXPECT_EQ(clocks.view(2, 1).J, kTsBottom);
  EXPECT_EQ(clocks.view(2, 2).S, kTsBottom);
}

TEST_F(RunningExampleTest, DetectorFindsExactlyTheTwoCycles) {
  ASSERT_EQ(detection_.cycles.size(), 2u);
  EXPECT_NE(cycle_at({fig_.s12, fig_.s33}), nullptr);  // θ′1
  EXPECT_NE(cycle_at({fig_.s19, fig_.s33}), nullptr);  // θ′2
  EXPECT_EQ(detection_.defects.size(), 2u);
}

TEST_F(RunningExampleTest, PrunerEliminatesTheta1AndKeepsTheta2) {
  const PotentialDeadlock* theta1 = cycle_at({fig_.s12, fig_.s33});
  const PotentialDeadlock* theta2 = cycle_at({fig_.s19, fig_.s33});
  ASSERT_NE(theta1, nullptr);
  ASSERT_NE(theta2, nullptr);
  EXPECT_EQ(prune_cycle(*theta1, detection_.dep, detection_.clocks),
            PruneVerdict::kFalseNotStarted);
  EXPECT_EQ(prune_cycle(*theta2, detection_.dep, detection_.clocks),
            PruneVerdict::kUnknown);
}

TEST_F(RunningExampleTest, GsForTheta2MatchesFigure7a) {
  const PotentialDeadlock* theta2 = cycle_at({fig_.s19, fig_.s33});
  ASSERT_NE(theta2, nullptr);
  GeneratorResult gen = generate(*theta2, detection_.dep);
  EXPECT_TRUE(gen.feasible);
  EXPECT_EQ(gen.gs.vertex_count(), 8);

  using EdgeKey = std::tuple<SiteId, SiteId, GsEdgeKind>;
  std::set<EdgeKey> edges;
  for (const GsEdge& e : gen.gs.edges())
    edges.insert({e.from.site, e.to.site, e.kind});

  const std::set<EdgeKey> expected{
      // type-D
      {fig_.s18, fig_.s33, GsEdgeKind::kTypeD},
      {fig_.s32, fig_.s19, GsEdgeKind::kTypeD},
      // type-C
      {fig_.s16, fig_.s31, GsEdgeKind::kTypeC},
      {fig_.s12, fig_.s32, GsEdgeKind::kTypeC},
      {fig_.s11, fig_.s33, GsEdgeKind::kTypeC},
      // type-P
      {fig_.s11, fig_.s12, GsEdgeKind::kTypeP},
      {fig_.s12, fig_.s16, GsEdgeKind::kTypeP},
      {fig_.s16, fig_.s18, GsEdgeKind::kTypeP},
      {fig_.s18, fig_.s19, GsEdgeKind::kTypeP},
      {fig_.s31, fig_.s32, GsEdgeKind::kTypeP},
      {fig_.s32, fig_.s33, GsEdgeKind::kTypeP},
  };
  EXPECT_EQ(edges, expected);
}

TEST_F(RunningExampleTest, ReplayerReproducesTheta2Deterministically) {
  const PotentialDeadlock* theta2 = cycle_at({fig_.s19, fig_.s33});
  ASSERT_NE(theta2, nullptr);
  GeneratorResult gen = generate(*theta2, detection_.dep);
  ASSERT_TRUE(gen.feasible);

  ReplayOptions options;
  options.attempts = 25;
  options.stop_on_first_hit = false;
  options.seed = 7;
  ReplayStats stats =
      replay(fig_.program, *theta2, detection_.dep, gen.gs, options);
  EXPECT_EQ(stats.hits, stats.attempts) << "expected a hit rate of 1";
}

TEST_F(RunningExampleTest, ExplorerProvesTheta1UnreachableAndTheta2Reachable) {
  explore::ExploreResult result = explore::explore(fig_.program);
  ASSERT_TRUE(result.exhausted);
  std::vector<SiteId> theta1_sig{fig_.s12, fig_.s33};
  std::vector<SiteId> theta2_sig{fig_.s19, fig_.s33};
  std::sort(theta1_sig.begin(), theta1_sig.end());
  std::sort(theta2_sig.begin(), theta2_sig.end());
  EXPECT_FALSE(result.deadlock_reachable_at(theta1_sig));
  EXPECT_TRUE(result.deadlock_reachable_at(theta2_sig));
  // θ2 is the only reachable deadlock in the whole schedule space.
  EXPECT_EQ(result.deadlock_signatures.size(), 1u);
}

TEST_F(RunningExampleTest, FullPipelineClassifiesBothCycles) {
  WolfOptions options;
  options.seed = 11;
  options.replay.attempts = 10;
  WolfReport report = run_wolf(fig_.program, options);
  ASSERT_TRUE(report.trace_recorded);
  ASSERT_EQ(report.cycles.size(), 2u);
  EXPECT_EQ(report.count_cycles(Classification::kFalseByPruner), 1);
  EXPECT_EQ(report.count_cycles(Classification::kReproduced), 1);
  EXPECT_EQ(report.count_defects(Classification::kFalseByPruner), 1);
  EXPECT_EQ(report.count_defects(Classification::kReproduced), 1);
}

TEST_F(RunningExampleTest, DeadlockFuzzerCanAlsoReproduceTheta2) {
  // θ2 has no abstraction collisions, so the baseline should succeed at
  // least sometimes — the separation appears on Figure 9/2-style inputs.
  const PotentialDeadlock* theta2 = cycle_at({fig_.s19, fig_.s33});
  ASSERT_NE(theta2, nullptr);
  ReplayOptions options;
  options.attempts = 100;
  options.stop_on_first_hit = false;
  options.seed = 3;
  ReplayStats stats =
      baseline::fuzz(fig_.program, *theta2, detection_.dep, options);
  EXPECT_GT(stats.hits, 0);
}

}  // namespace
}  // namespace wolf
