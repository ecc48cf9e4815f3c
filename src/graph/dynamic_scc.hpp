// Incremental SCC maintenance under edge insertions (DESIGN.md §16).
//
// The governed streaming detector consults the lock-level holds→requests
// digraph every window. Recomputing its SCC decomposition from scratch is
// cheap only while suspicious windows are rare; an adversarial stream that
// adds an edge every window turns the per-window Tarjan — and, far worse,
// the full tuple-store enumeration it gates — into a quadratic recompute
// loop. This class maintains the decomposition *as edges arrive*, so a
// window's cost is proportional to what the window touched:
//
//   * insertions — Pearce–Kelly topological-order maintenance on the
//     condensation ("A Dynamic Topological Sort Algorithm for Directed
//     Acyclic Graphs", JEA 2006; the bounded-discovery family of Bender et
//     al.): an edge u→v whose components already satisfy ord(u) < ord(v)
//     is O(1). Otherwise two searches bounded to the affected order range
//     [ord(v), ord(u)] either reorder the region (no cycle) or discover
//     the components on v→…→u paths and collapse them into one
//     condensation node (cycle); either way only the positions the
//     affected components held are reassigned, never the whole label
//     space. Components are explicit label sets merged smaller-into-larger,
//     so collapse is amortized O(n log n) relabels over the graph's
//     lifetime;
//   * no deletions — the graph only grows. Its one consumer (the lock-graph
//     pre-filter, core/prefilter.hpp) keeps the edges of evicted tuples,
//     which only overstates suspicion, and rebuilds it anew through
//     clear() when the graph has doubled;
//   * dirty tracking — node-granular marks, folded upward: any membership
//     change (merge, node creation) and any caller-reported touch leaves a
//     mark, and drain_dirty() maps the marks to their *current* components.
//     Consumers enumerate only tuples of dirty components.
//
// The differential tests check the label partition against
// Digraph::strongly_connected_components over the same edges after every
// insertion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wolf {

class DynamicScc {
 public:
  using Node = int;

  // Adds an isolated node (its own singleton component) and returns its id.
  Node add_node();
  std::size_t node_count() const { return out_.size(); }

  // Inserts the directed edge u -> v. The caller guarantees the edge is not
  // already present (parallel edges are the caller's bookkeeping).
  // Returns true when the insertion created a cycle and merged components.
  bool add_edge(Node u, Node v);

  // Component label of `v` — stable until a merge retires it.
  int component_of(Node v) const { return comp_[static_cast<std::size_t>(v)]; }
  bool same_component(Node u, Node v) const {
    return component_of(u) == component_of(v);
  }
  std::size_t component_count() const { return live_components_; }

  // Member nodes of a live component (unordered). `component_alive` is
  // false for labels retired by merges; `component_capacity` bounds the
  // label space for iteration.
  const std::vector<Node>& members(int comp) const {
    return members_[static_cast<std::size_t>(comp)];
  }
  bool component_alive(int comp) const;
  std::size_t component_capacity() const { return members_.size(); }

  // Topological position of a live component in the condensation: for every
  // cross-component edge u -> v, order_of(u's comp) < order_of(v's comp).
  std::int64_t order_of(int comp) const {
    return ord_[static_cast<std::size_t>(comp)];
  }

  // Marks `v` dirty without mutating the graph — the caller's hook for
  // "something about this node's tuples changed" (new contribution, guard
  // narrowing, a mark carried over a rebuild).
  void mark_dirty(Node v);
  // True when drain_dirty() would return anything.
  bool has_dirty() const { return !dirty_nodes_.empty(); }
  // The marked nodes, each once, in the order they were first marked.
  const std::vector<Node>& dirty_nodes() const { return dirty_nodes_; }
  // Current component labels carrying at least one dirty mark, each once, in
  // the order their first mark was made (merge-induced marks included).
  // Marks survive merges because they are stored per node and mapped
  // through the live labels here. Linear in the marked nodes: labels are
  // deduplicated by a per-label stamp, not a search.
  std::vector<int> dirty_components() const;
  // dirty_components(), then clears the dirty set.
  std::vector<int> drain_dirty();

  // Merges performed, surfaced for tests.
  std::size_t merges() const { return merges_; }

  void clear();

 private:
  // Condensation successors/predecessors of `comp` whose order lies in
  // [lo, hi], deduplicated via stamp_.
  void bounded_search(int comp, std::int64_t lo, std::int64_t hi, bool forward,
                      std::vector<int>& visited) const;

  std::vector<std::vector<Node>> out_;  // node-level adjacency (unique edges)
  std::vector<std::vector<Node>> in_;

  std::vector<int> comp_;                  // node -> component label
  std::vector<std::vector<Node>> members_; // label -> nodes ([] = retired)
  std::vector<std::int64_t> ord_;          // label -> topo position
  std::size_t live_components_ = 0;
  // Next free topological position: fresh nodes have no order constraints
  // yet and park after every existing position.
  std::int64_t next_ord_ = 0;
  std::size_t merges_ = 0;

  std::vector<Node> dirty_nodes_;
  std::vector<char> dirty_flag_;  // node -> marked?

  // Per-operation visited stamps over component labels (avoids clearing a
  // bool vector on every bounded search or dirty-label walk). Working state
  // only: no answer depends on their values between operations.
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t stamp_gen_ = 0;
};

}  // namespace wolf
