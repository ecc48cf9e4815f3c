// Linear-time sound deadlock pre-filter (PAPERS.md: Tunç, Mathur,
// Pavlogiannis, Viswanathan — "Sound Dynamic Deadlock Prediction in Linear
// Time"), adapted to D_σ tuples.
//
// The expensive part of online detection is tuple-level cycle enumeration.
// This module maintains a much coarser abstraction incrementally — a
// lock-level holds→requests digraph: when a tuple (t, L, ℓ, …) is added,
// every held lock h ∈ L gains an edge h → ℓ. Any potential deadlock
// θ = {η1 … ηn} of the detector induces a directed cycle
// lock(η1) → lock(η2) → … → lock(ηn) → lock(η1) here (ηi+1 holds lock(ηi)
// while requesting lock(ηi+1)), so:
//
//     lock graph has no "suspicious" SCC  ⇒  D_σ has no potential deadlock.
//
// The converse does not hold — the pre-filter may flag windows with no
// cycle — which is exactly the right direction for a *sound* cheap pass:
// enumeration is only skipped when skipping provably loses nothing.
//
// The governor feeds it canonical arrivals only: a tuple reaches on_tuple
// when it arrives as the first retained acquisition of its TupleKey.
// Enumeration searches exactly that canonical tier (LockDependency::tuples),
// and every edge of a canonical cycle's induced lock cycle is contributed by
// one of its canonical tuples, so the argument above holds for the graph of
// the canonical tier. A duplicate, whose lockset may differ from its
// canonical's, is only a log record and never part of an enumerated cycle,
// so leaving its edges out loses nothing. A log trim drops only records, so
// it never touches the graph.
//
// The graph is insert-only. Eviction leaves it alone, so between rebuilds
// it is a *superset* of the retained canonical view's graph: each of its
// SCCs contains the retained view's SCCs, and the extra edges can only
// make a component more suspicious, never hide a cycle. rebuild() replaces
// it with the retained view's graph exactly; the governor calls it once the
// graph's locks plus edges are twice what they were after the last
// rebuild, which bounds the graph by the retained store instead of by
// every lock and lock pair ever seen.
//
// Two refinements sharpen "suspicious" while preserving soundness:
//   * threads — each edge records which threads contributed it; a cycle
//     needs pairwise-distinct threads, so an SCC whose edges all come from
//     one single thread cannot contain one;
//   * guards — each edge records the intersection of the contributing
//     tuples' locksets (as a fixed 256-lock bitmask; locks beyond the mask
//     are conservatively ignored). If every edge of an SCC shares a common
//     held lock g, any cycle through the SCC would need two tuples both
//     holding g, violating lockset disjointness — the classic gate-lock
//     idiom is discharged without enumerating anything.
//
// The SCC decomposition is maintained *incrementally* (graph/dynamic_scc.hpp)
// instead of recomputed per query: edge insertions run Pearce–Kelly order
// maintenance with cycle collapse, and per-component verdicts are cached
// and re-evaluated only for components whose membership or edges changed.
// `drain_dirty_suspicious_nodes()` hands the governor exactly the locks
// whose component changed since the last drain — the dirty-SCC set that
// bounds per-window enumeration to tuples that could be involved in a new
// cycle. A window's pre-filter work is linear in what it dirtied: dirty
// labels are deduplicated by a per-label stamp, and the aggregate verdict
// walks a list of the suspicious labels (dropping retired ones) instead of
// the whole label space.
//
// Eviction keeps the refinements conservative rather than exact: an
// evicted contributor never re-widens an edge's guard intersection and
// never retracts multi_thread until the next rebuild. Both errors only make
// an SCC *more* suspicious, so soundness (no-cycle verdicts stay
// trustworthy) is preserved.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/lock_dependency.hpp"
#include "graph/dynamic_scc.hpp"
#include "trace/ids.hpp"

namespace wolf {

// Fixed-block lockset bitmask over the first kBits (= 256) lock ids. Locks
// with larger ids are dropped from the mask — conservative: a dropped guard
// can only make the filter *more* suspicious, never less sound. The old
// single-word mask saturated at 64 locks, which real traces exceed; four
// words cover every workload in this repo while keeping the per-edge AND
// branch-free.
struct GuardMask {
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kBits = kWords * 64;

  std::array<std::uint64_t, kWords> w{};

  static GuardMask all() {
    GuardMask m;
    m.w.fill(~0ULL);
    return m;
  }

  void set(std::size_t bit) {
    if (bit < kBits) w[bit / 64] |= 1ULL << (bit % 64);
  }

  GuardMask& operator&=(const GuardMask& o) {
    for (std::size_t i = 0; i < kWords; ++i) w[i] &= o.w[i];
    return *this;
  }

  bool any() const {
    std::uint64_t acc = 0;
    for (std::uint64_t word : w) acc |= word;
    return acc != 0;
  }
};

class LockGraph {
 public:
  // Folds one canonical D_σ tuple into the graph and returns its request
  // lock's node, or -1 for a tuple with an empty lockset (it adds no edge
  // and can close no cycle: every cycle member holds the previous member's
  // lock). Also marks the tuple's locks dirty: even when all its edges
  // exist already, the tuple itself is new and its cycles have not been
  // enumerated, so the consumer must revisit its component.
  int on_tuple(const LockTuple& tuple);

  // Replaces the graph with the one `dep`'s canonical tier induces (every
  // tuple of dep.tuples fed through on_tuple, in order) and evaluates every
  // component once. Pending dirty marks carry over by lock: a marked lock
  // that the view still names stays marked; every other mark is dropped,
  // since its tuples are gone. Every edge of the old graph counts as a
  // `prefilter.edge_expiries` and every edge of the new one as a
  // `prefilter.edges`, so the counters' difference stays edge_count().
  void rebuild(const LockDependency& dep);

  // Sound verdict over everything added so far: false guarantees that the
  // live tuples admit no potential-deadlock cycle. Re-evaluates only the
  // components marked dirty since the last query.
  bool suspicious() const;

  // Number of components currently flagged suspicious.
  std::size_t suspicious_scc_count() const;

  // Dirty-SCC drain for the governor: the lock nodes of every *suspicious*
  // component that changed (membership, edges, or a fed tuple) since the
  // last drain (lock_of maps them back). Clears the dirty set — benign
  // components' marks are consumed too, so a drain with an empty result
  // still means "caught up".
  std::vector<int> drain_dirty_suspicious_nodes();
  // True when a drain would observe any change since the last one.
  bool has_dirty() const;

  std::size_t lock_count() const { return locks_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  // The incremental decomposition, exposed read-only for the differential
  // fuzz tests (compared against Digraph::strongly_connected_components).
  const DynamicScc& scc() const { return scc_; }
  LockId lock_of(int node) const {
    return locks_[static_cast<std::size_t>(node)];
  }
  // The node of a lock some fed tuple named, or -1.
  int node_of(LockId lock) const;

  void clear();

 private:
  struct Edge {
    int to = -1;
    ThreadId first_thread = kInvalidThread;
    bool multi_thread = false;  // contributed by >= 2 distinct threads
    GuardMask guard_mask = GuardMask::all();  // AND of contributors' masks
  };

  int intern(LockId lock);
  // Refinement verdict for one live component over its internal edges.
  bool evaluate(int comp) const;
  // Re-evaluates every dirty component's cached verdict (without consuming
  // the dirty set — the governor still needs to drain it) and prunes the
  // suspicious list. Linear in the dirty nodes plus the suspicious labels.
  void refresh_verdicts() const;

  std::unordered_map<LockId, int> lock_ids_;  // LockId -> dense node
  std::vector<LockId> locks_;                 // dense node -> LockId
  // Adjacency: per node, edges keyed by target node (small vectors; lock
  // graphs are tiny compared to D_σ). Node ids coincide with scc_ node ids —
  // both are assigned densely at intern time.
  std::vector<std::vector<Edge>> out_;
  std::size_t edge_count_ = 0;

  DynamicScc scc_;

  // Per-component cached verdicts (label -> suspicious?), refreshed lazily
  // for dirty components only, and the live labels flagged suspicious, each
  // once; refresh_verdicts() drops benign and retired labels as it walks it.
  mutable std::vector<char> comp_suspicious_;
  mutable std::vector<int> suspicious_;
};

// Lockset bitmask over the first GuardMask::kBits lock ids; see GuardMask
// for the conservative-drop argument.
GuardMask lockset_mask(const std::vector<LockId>& lockset);

}  // namespace wolf
