// DynamicScc contract tests: the incremental decomposition must equal a
// fresh Tarjan (Digraph::strongly_connected_components over the same edges)
// after EVERY insertion, the maintained order must stay topological over
// the condensation, and dirty marks must map to live labels across merges
// (DESIGN.md §16).
#include "graph/dynamic_scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "support/rng.hpp"

namespace wolf {
namespace {

// DynamicScc with a Digraph mirror of every node and edge it is given; the
// mirror's Tarjan is the oracle.
class MirroredScc : public DynamicScc {
 public:
  Node add_node() {
    oracle_.add_node();
    return DynamicScc::add_node();
  }
  bool add_edge(Node u, Node v) {
    oracle_.add_edge(u, v);
    return DynamicScc::add_edge(u, v);
  }
  void clear() {
    oracle_ = Digraph{};
    DynamicScc::clear();
  }
  const Digraph& oracle() const { return oracle_; }

 private:
  Digraph oracle_;
};

using Partition = std::set<std::vector<DynamicScc::Node>>;

Partition partition_from_oracle(const MirroredScc& scc) {
  Partition p;
  for (std::vector<Digraph::Node> comp :
       scc.oracle().strongly_connected_components()) {
    std::sort(comp.begin(), comp.end());
    p.insert(std::move(comp));
  }
  return p;
}

Partition partition_from_labels(const DynamicScc& scc) {
  Partition p;
  for (std::size_t c = 0; c < scc.component_capacity(); ++c) {
    if (!scc.component_alive(static_cast<int>(c))) continue;
    std::vector<DynamicScc::Node> comp = scc.members(static_cast<int>(c));
    std::sort(comp.begin(), comp.end());
    p.insert(std::move(comp));
  }
  return p;
}

// The differential contract: the live labels partition the nodes exactly as
// the oracle does, and every node maps to a live label.
void expect_consistent(const MirroredScc& scc) {
  const Partition oracle = partition_from_oracle(scc);
  EXPECT_EQ(partition_from_labels(scc), oracle);
  EXPECT_EQ(scc.component_count(), oracle.size());
  for (const auto& comp : oracle)
    for (DynamicScc::Node v : comp)
      EXPECT_TRUE(scc.component_alive(scc.component_of(v)));
}

TEST(DynamicSccTest, SingletonsStartAlone) {
  MirroredScc scc;
  for (int i = 0; i < 5; ++i) scc.add_node();
  EXPECT_EQ(scc.component_count(), 5u);
  EXPECT_FALSE(scc.same_component(0, 4));
  expect_consistent(scc);
}

TEST(DynamicSccTest, ChainStaysAcyclicAndOrdered) {
  MirroredScc scc;
  for (int i = 0; i < 6; ++i) scc.add_node();
  // Insert in an order that forces reordering work (back-to-front).
  for (int i = 4; i >= 0; --i) EXPECT_FALSE(scc.add_edge(i, i + 1));
  EXPECT_EQ(scc.component_count(), 6u);
  for (int i = 0; i < 5; ++i)
    EXPECT_LT(scc.order_of(scc.component_of(i)),
              scc.order_of(scc.component_of(i + 1)));
  EXPECT_EQ(scc.merges(), 0u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, BackEdgeCollapsesThePath) {
  MirroredScc scc;
  for (int i = 0; i < 5; ++i) scc.add_node();
  for (int i = 0; i < 4; ++i) scc.add_edge(i, i + 1);
  EXPECT_TRUE(scc.add_edge(4, 0));  // closes 0→1→2→3→4→0
  EXPECT_EQ(scc.component_count(), 1u);
  EXPECT_TRUE(scc.same_component(0, 4));
  EXPECT_EQ(scc.merges(), 1u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, CollapseIsBoundedToThePath) {
  MirroredScc scc;
  for (int i = 0; i < 6; ++i) scc.add_node();
  // 0→1→2 and bystanders 3→4, 5 isolated; cycle only through 0..2.
  scc.add_edge(0, 1);
  scc.add_edge(1, 2);
  scc.add_edge(3, 4);
  EXPECT_TRUE(scc.add_edge(2, 0));
  EXPECT_EQ(scc.component_count(), 4u);  // {0,1,2}, {3}, {4}, {5}
  EXPECT_FALSE(scc.same_component(0, 3));
  expect_consistent(scc);
}

TEST(DynamicSccTest, CollapseKeepsBystanderEdgesForward) {
  // Positions follow creation: v=0, x=1, z=2, d=3, u=4. The back edge u→v
  // folds {v, x, u} and reorders only that range; d hangs off v, and the
  // bystander z sits inside the range with an edge z→d, so d must move up
  // past z, never down.
  MirroredScc scc;
  for (int i = 0; i < 5; ++i) scc.add_node();
  scc.add_edge(0, 1);
  scc.add_edge(1, 4);
  scc.add_edge(0, 3);
  scc.add_edge(2, 3);
  EXPECT_TRUE(scc.add_edge(4, 0));
  EXPECT_TRUE(scc.same_component(0, 4));
  EXPECT_LT(scc.order_of(scc.component_of(0)),
            scc.order_of(scc.component_of(3)));
  EXPECT_LT(scc.order_of(scc.component_of(2)),
            scc.order_of(scc.component_of(3)));
  expect_consistent(scc);
}

TEST(DynamicSccTest, SelfLoopDoesNotMerge) {
  MirroredScc scc;
  scc.add_node();
  scc.add_node();
  EXPECT_FALSE(scc.add_edge(0, 0));
  EXPECT_EQ(scc.component_count(), 2u);
  EXPECT_EQ(scc.merges(), 0u);
  expect_consistent(scc);
}

TEST(DynamicSccTest, DirtyMarksSurviveMergesAndMapToLiveLabels) {
  MirroredScc scc;
  for (int i = 0; i < 4; ++i) scc.add_node();
  (void)scc.drain_dirty();  // consume the add_node marks
  EXPECT_FALSE(scc.has_dirty());
  scc.mark_dirty(0);
  scc.add_edge(0, 1);
  scc.add_edge(1, 0);  // merge relabels node 0's component
  ASSERT_TRUE(scc.has_dirty());
  std::vector<int> dirty = scc.drain_dirty();
  // All marks (manual + merge-induced) fold onto the single live merged
  // label, delivered once.
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], scc.component_of(0));
  EXPECT_EQ(dirty[0], scc.component_of(1));
  EXPECT_FALSE(scc.has_dirty());
}

// drain_dirty() hands back each current dirty label exactly once, in the
// order its first mark was made, and dirty_components() is its
// non-clearing twin.
TEST(DynamicSccTest, DrainReturnsEachDirtyLabelOnceInFirstMarkOrder) {
  MirroredScc scc;
  constexpr int kNodes = 10000;
  std::vector<int> expected;
  for (int i = 0; i < kNodes; ++i)
    expected.push_back(scc.component_of(scc.add_node()));
  EXPECT_EQ(scc.dirty_components(), expected);
  EXPECT_EQ(scc.drain_dirty(), expected);
  EXPECT_TRUE(scc.drain_dirty().empty());
  // Order follows the marks, not the labels; repeated marks add nothing.
  for (int i = kNodes - 1; i >= 0; --i) {
    scc.mark_dirty(i);
    scc.mark_dirty(kNodes - 1);
  }
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(scc.drain_dirty(), expected);

  // Merge: 7 and 3 are marked first; closing 3 <-> 4 marks both members of
  // the merged component, which folds onto 3's first mark.
  scc.mark_dirty(7);
  scc.mark_dirty(3);
  scc.add_edge(3, 4);
  scc.add_edge(4, 3);
  ASSERT_TRUE(scc.same_component(3, 4));
  EXPECT_EQ(scc.drain_dirty(),
            (std::vector<int>{scc.component_of(7), scc.component_of(3)}));
  EXPECT_FALSE(scc.has_dirty());
  expect_consistent(scc);
}

TEST(DynamicSccTest, ClearResetsEverything) {
  MirroredScc scc;
  scc.add_node();
  scc.add_node();
  scc.add_edge(0, 1);
  scc.clear();
  EXPECT_EQ(scc.node_count(), 0u);
  EXPECT_EQ(scc.component_count(), 0u);
  EXPECT_FALSE(scc.has_dirty());
  scc.add_node();  // usable again
  EXPECT_EQ(scc.component_count(), 1u);
}

// Randomized differential campaign: inserts interleaved with clear() (the
// lock graph's rebuild), checked against the Tarjan oracle after EVERY
// mutation. Seeds beyond the first few are the regression net for
// order-maintenance corner cases (reorder vs collapse interactions).
class DynamicSccFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DynamicSccFuzz, MatchesFreshTarjanAfterEveryMutation) {
  Rng rng(0xD15Cu + static_cast<std::uint64_t>(GetParam()) * 7919u);
  MirroredScc scc;
  int nodes = 0;
  auto populate = [&] {
    nodes = 4 + static_cast<int>(rng.below(8));  // 4..11
    for (int i = 0; i < nodes; ++i) scc.add_node();
  };
  populate();
  std::vector<std::pair<int, int>> live_edges;
  const int steps = 120;
  for (int s = 0; s < steps; ++s) {
    if (rng.chance(0.05)) {
      scc.clear();
      live_edges.clear();
      EXPECT_EQ(scc.node_count(), 0u);
      EXPECT_FALSE(scc.has_dirty());
      populate();
    } else {
      const auto n = static_cast<std::size_t>(nodes);
      const int u = static_cast<int>(rng.below(n));
      const int v = static_cast<int>(rng.below(n));
      if (std::find(live_edges.begin(), live_edges.end(),
                    std::make_pair(u, v)) != live_edges.end())
        continue;  // caller contract: no parallel edges
      live_edges.emplace_back(u, v);
      scc.add_edge(u, v);
    }
    ASSERT_EQ(partition_from_labels(scc), partition_from_oracle(scc))
        << "seed " << GetParam() << " step " << s;
    // The maintained order stays topological over the condensation.
    for (auto [u, v] : live_edges) {
      const int cu = scc.component_of(u), cv = scc.component_of(v);
      if (cu == cv) continue;
      ASSERT_LT(scc.order_of(cu), scc.order_of(cv))
          << "seed " << GetParam() << " step " << s << " edge " << u << "->"
          << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSccFuzz, ::testing::Range(0, 60));

}  // namespace
}  // namespace wolf
