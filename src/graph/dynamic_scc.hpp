// Incremental SCC maintenance under edge insertions and deletions
// (ROADMAP item 2; DESIGN.md §16).
//
// The governed streaming detector consults the lock-level holds→requests
// digraph every window. Recomputing its SCC decomposition from scratch is
// cheap only while suspicious windows are rare; an adversarial stream that
// mutates an edge every window turns the per-window Tarjan — and, far
// worse, the full tuple-store enumeration it gates — into a quadratic
// recompute loop. This class maintains the decomposition *as the graph
// changes*, so a window's cost is proportional to what the window touched:
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
//     lifetime — no union-find deletion problem later;
//   * deletions — removing a cross-component edge cannot change any SCC or
//     invalidate the order: O(1). Removing an intra-component edge can
//     split the component; the split is *lazy and bounded*: the component
//     is queued, and the next structural operation re-runs Tarjan over
//     that component's members only (the affected condensation region).
//     A batch of expiries therefore costs one bounded rebuild per touched
//     component, not one per edge. Soundness is inherited from the same
//     Tarjan the batch path runs;
//   * dirty tracking — node-granular marks, folded upward: any membership
//     change (merge, split, node creation) and any caller-reported touch
//     leaves a mark, and drain_dirty() maps the marks to their *current*
//     components. Consumers enumerate only tuples of dirty components.
//
// Every query answers over the fully-applied mutation history (pending
// splits are flushed first), so `component_of` and the Tarjan oracle
// `tarjan_components()` always agree — the differential contract the fuzz
// tests assert after every mutation.
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
  // currently present (parallel edges are the caller's refcounting job).
  // Returns true when the insertion created a cycle and merged components.
  bool add_edge(Node u, Node v);

  // Removes the directed edge u -> v (which must be present). A deletion
  // inside a component queues that component for a lazy bounded rebuild;
  // cross-component deletions are O(1).
  void remove_edge(Node u, Node v);

  // Component label of `v` — stable until a merge or split relabels it.
  int component_of(Node v) const;
  bool same_component(Node u, Node v) const;
  std::size_t component_count() const;

  // Member nodes of a live component (unordered). `component_alive` is
  // false for labels retired by merges/splits; `component_capacity` bounds
  // the label space for iteration.
  const std::vector<Node>& members(int comp) const;
  bool component_alive(int comp) const;
  std::size_t component_capacity() const;

  // Topological position of a live component in the condensation: for every
  // cross-component edge u -> v, order_of(u's comp) < order_of(v's comp).
  std::int64_t order_of(int comp) const;

  // Marks `v` dirty without mutating the graph — the caller's hook for
  // "something about this node's tuples changed" (new contribution, guard
  // narrowing, contributor expiry).
  void mark_dirty(Node v);
  // True when drain_dirty() would return anything — including marks a queued
  // lazy split will add once flushed.
  bool has_dirty() const;
  // Current component labels carrying at least one dirty mark, each once, in
  // the order their first mark was made (split-induced marks included).
  // Marks survive merges and splits because they are stored per node and
  // mapped through the live labels here. Linear in the marked nodes: labels
  // are deduplicated by a per-label stamp, not a search.
  std::vector<int> dirty_components() const;
  // dirty_components(), then clears the dirty set.
  std::vector<int> drain_dirty();

  // Fresh Tarjan over the stored adjacency — the executable specification
  // the incremental state must match. Components come back as member lists
  // in reverse topological order. Used by the lazy rebuild (restricted to
  // one component) and by the differential fuzz tests (whole graph).
  std::vector<std::vector<Node>> tarjan_components() const;

  // Mutation statistics, surfaced for tests and bench diagnostics.
  std::size_t merges() const { return merges_; }
  std::size_t splits() const { return splits_; }
  std::size_t order_rebuilds() const { return order_rebuilds_; }

  void clear();

 private:
  // Applies queued split rebuilds; every public accessor funnels through
  // this so reads always see a consistent decomposition.
  void flush() const;
  void rebuild_component(int comp) const;
  void recompute_order() const;
  // Tarjan restricted to `nodes` (empty = all nodes), using only edges whose
  // endpoints are both in the set.
  std::vector<std::vector<Node>> tarjan_over(
      const std::vector<Node>& nodes) const;
  // Condensation successors/predecessors of `comp` whose order lies in
  // [lo, hi], deduplicated via stamp_.
  void bounded_search(int comp, std::int64_t lo, std::int64_t hi, bool forward,
                      std::vector<int>& visited) const;

  std::vector<std::vector<Node>> out_;  // node-level adjacency (unique edges)
  std::vector<std::vector<Node>> in_;

  // The decomposition. Everything mutable: deletions queue work that the
  // next (possibly const) read applies.
  mutable std::vector<int> comp_;                  // node -> component label
  mutable std::vector<std::vector<Node>> members_; // label -> nodes ([] = dead)
  mutable std::vector<std::int64_t> ord_;          // label -> topo position
  mutable std::size_t live_components_ = 0;

  mutable std::vector<int> pending_split_;         // labels queued for rebuild
  mutable std::vector<char> pending_flag_;         // label -> queued?

  mutable std::vector<Node> dirty_nodes_;
  mutable std::vector<char> dirty_flag_;           // node -> marked?

  // Per-operation visited stamps over component labels (avoids clearing a
  // bool vector on every bounded search or dirty-label walk).
  mutable std::vector<std::uint32_t> stamp_;
  mutable std::uint32_t stamp_gen_ = 0;

  // Next free topological position for components with no order constraints
  // yet (fresh nodes, split remainders before the order pass runs).
  mutable std::int64_t next_ord_ = 0;

  mutable std::size_t merges_ = 0;
  mutable std::size_t splits_ = 0;
  mutable std::size_t order_rebuilds_ = 0;

  int new_component_label() const;
};

}  // namespace wolf
