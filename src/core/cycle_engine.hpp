// Scalable cycle enumeration over D_σ (DESIGN.md §12).
//
// One production engine produces the canonical cycle sequence of
// detector.hpp: the tuple-level holds→requests digraph is
// Tarjan-SCC-partitioned (graph/digraph), and DFS runs only from tuples in
// nontrivial SCCs, never leaving the start tuple's component: a cycle
// through η is itself a digraph cycle, hence confined to SCC(η), so acyclic
// regions of D_σ cost nothing. Memory follows the view, not the id space:
// lock ids map to a dense per-view index (the sorted distinct locks the
// view references), and lockset word-masks exist only for tuples in
// nontrivial SCCs, each spanning only the locks its component's tuples
// hold — at most nontrivial tuples × (their distinct held locks / 64 + 1)
// words, counted as `detector.mask_words`. Chain state is dense-id bitsets
// (thread word-mask, component lock word-mask) instead of hash sets.
// Enumeration never reads the clocks: Algorithm 2 runs once, afterwards,
// in the Pruner (core/pruner.hpp).
//
// enumerate_cycles_reference keeps the original iGoodLock-style DFS over
// every canonical tuple as the executable specification of the cycle order.
// It is a test oracle (cycle_engine_test), not a production path. The SCC
// restriction only skips subtrees that emit nothing, so the SCC engine's
// Detection is bit-identical to the reference's.
#pragma once

#include <cstddef>
#include <vector>

#include "core/detector.hpp"

namespace wolf {

struct EnumerationResult {
  std::vector<PotentialDeadlock> cycles;
  // True when enumeration stopped at DetectorOptions::max_cycles; more
  // cycles may exist beyond the ones returned.
  bool truncated = false;
};

// The reference enumerator, the specification enumerate_cycles_scc is
// tested against.
EnumerationResult enumerate_cycles_reference(const LockDependency& dep,
                                             const DetectorOptions& options);

// The SCC-partitioned engine; what detect() and every Session call. One
// serial search over the canonical tuple view dep.unique, bit-identical to
// the reference.
EnumerationResult enumerate_cycles_scc(const LockDependency& dep,
                                       const DetectorOptions& options);

}  // namespace wolf
