// Potential-deadlock cycle detection over D_σ — the iGoodLock-style base
// detector (§3.1) extended with the clock data of §3.2.
//
// A potential deadlock θ = {η1 … ηn} satisfies:
//   * lock(ηi) ∈ lockset(ηi+1) cyclically — each thread requests a lock held
//     by the next;
//   * lockset(ηi) ∩ lockset(ηj) = ∅ for i ≠ j — no guard lock protects the
//     cycle; and
//   * thread(ηi) pairwise distinct — each thread contributes one edge.
//
// Enumeration runs over the deduplicated tuple view; cycles are emitted in a
// canonical rotation (minimal thread id first) so each cycle appears once.
// Defects group cycles by the unordered multiset of deadlocking-acquisition
// source sites — the paper's §4.3 counting, under which a programmer fixes
// one source location once.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "clock/clock_tracker.hpp"
#include "core/lock_dependency.hpp"
#include "trace/event.hpp"
#include "trace/trace_reader.hpp"

namespace wolf {

struct PotentialDeadlock {
  // Indices into LockDependency::tuples, in cycle order: tuple i requests the
  // lock held by tuple (i+1) mod n.
  std::vector<std::size_t> tuple_idx;

  std::string to_string(const LockDependency& dep) const;
};

// Unordered source-location signature of a cycle's deadlocking acquisitions.
using DefectSignature = std::vector<SiteId>;  // sorted

DefectSignature signature_of(const PotentialDeadlock& cycle,
                             const LockDependency& dep);

struct Defect {
  DefectSignature signature;
  std::vector<std::size_t> cycle_idx;  // indices into Detection::cycles
};

// The detector section of wolf::Config (wolf.hpp).
struct DetectorOptions {
  int max_cycle_length = 5;  // threads per cycle
  // Safety valve for pathological traces; enumeration stops after this many
  // cycles (never hit by the workloads in this repo) and the Detection is
  // flagged truncated.
  std::size_t max_cycles = 100000;
};

struct Detection {
  LockDependency dep;
  ClockTracker clocks;  // final τ/V state of the recorded execution
  std::vector<PotentialDeadlock> cycles;
  std::vector<Defect> defects;
  // True when enumeration stopped at DetectorOptions::max_cycles — the
  // cycle and defect lists may be incomplete. cycle_cap records the cap
  // that was hit (0 when not truncated).
  bool truncated = false;
  std::size_t cycle_cap = 0;
};

// Full detection pass over a recorded trace: rebuilds D_σ + clocks,
// enumerates cycles, groups defects. Delegates to detect_reader over a
// VectorTraceReader, so the materialized and streaming paths are the same
// code and produce bit-identical Detections.
Detection detect(const Trace& trace, const DetectorOptions& options = {});

// Detection fed block-by-block from a TraceReader — e.g. a
// StreamTraceReader over a trace file — without ever materializing the
// whole event vector: D_σ and the clocks advance online (Algorithm 1
// order), then cycle enumeration and defect grouping run once over the
// complete relation. On a defective stream (reader.ok() false afterwards)
// the Detection reflects the events delivered before the failure; callers
// that need strictness must check the reader. A malformed event or an
// enumeration fault throws — this is the batch oracle; wolf::Session
// (wolf.hpp) is the containing, never-throwing online surface.
Detection detect_reader(TraceReader& reader,
                        const DetectorOptions& options = {});

// Shared back half of detect_reader and Session::finish (core/governor.hpp):
// enumerates cycles and groups defects over an already-built relation
// (`unique` must be current, as every relation LockDependencyBuilder hands
// out keeps it).
Detection finish_detection(LockDependency dep, ClockTracker clocks,
                           const DetectorOptions& options);

// Groups cycles into defects by signature, preserving first-seen order.
std::vector<Defect> group_defects(const std::vector<PotentialDeadlock>& cycles,
                                  const LockDependency& dep);

}  // namespace wolf
