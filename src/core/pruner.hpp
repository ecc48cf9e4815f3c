// Pruner — Algorithm 2.
//
// Uses the (S, J) vector clocks accumulated during detection to discard
// cycles whose threads provably cannot overlap at their deadlocking
// acquisitions:
//
//   * V_ti(tj).S > ηj.τ  — thread ti only begins executing after tj's
//     deadlocking acquisition has completed ("thread ti hasn't started"),
//     e.g. the Jigsaw ThreadCache pattern of Fig. 1 / cycle θ′1 of Fig. 4.
//   * V_ti(tj).J ≠ ⊥ ∧ V_ti(tj).J ≤ ηi.τ — tj was already joined when ti
//     made its deadlocking acquisition.
//
// Either condition on any ordered pair (ηi, ηj) of the cycle makes the
// deadlock infeasible for every schedule consistent with the observed
// start/join structure.
#pragma once

#include <string>
#include <vector>

#include "core/detector.hpp"

namespace wolf {

enum class PruneVerdict : std::uint8_t {
  kUnknown,          // the Pruner cannot rule the cycle out
  kFalseNotStarted,  // some ti starts only after ηj's acquisition
  kFalseJoined,      // some tj joined before ηi's acquisition
};

const char* to_string(PruneVerdict verdict);

inline bool is_false(PruneVerdict v) { return v != PruneVerdict::kUnknown; }

// Dense cache of the Pruner's per-thread-pair inputs, built once per
// detection and shared by batch prune() and the cycle engine's in-search
// clock pruning (DetectorOptions::clock_prune_during_search): the (S, J)
// view of every ordered thread pair is materialized into a flat matrix so
// per-cycle verdicts stop re-walking ClockTracker, and per-thread τ extrema
// over the canonical tuples give a thread-pair compatibility matrix —
// never_overlaps(ti, tj) is true when *no* acquisition of ti can overlap
// *any* acquisition of tj, letting the DFS reject a whole branch with one
// bit test before any per-tuple τ comparison.
class ClockPairMatrix {
 public:
  ClockPairMatrix() = default;
  // τ extrema are taken over the canonical tuples (dep.unique).
  ClockPairMatrix(const ClockTracker& clocks, const LockDependency& dep);

  // Cached clocks.view(t, u); (⊥,⊥) outside the observed thread range.
  const SJPair& view(ThreadId t, ThreadId u) const {
    static const SJPair kBottom{};
    if (!in_range(t) || !in_range(u)) return kBottom;
    return pairs_[index(t, u)];
  }

  // Algorithm 2's two conditions for the ordered tuple pair
  // (ηi of thread ti at τ tau_i, ηj of thread tj at τ tau_j).
  PruneVerdict pair_verdict(ThreadId ti, Timestamp tau_i, ThreadId tj,
                            Timestamp tau_j) const {
    const SJPair& v = view(ti, tj);
    if (v.S != kTsBottom && v.S > tau_j) return PruneVerdict::kFalseNotStarted;
    if (v.J != kTsBottom && v.J <= tau_i) return PruneVerdict::kFalseJoined;
    return PruneVerdict::kUnknown;
  }

  // True when either ordered condition holds for every canonical-tuple τ
  // combination of the pair — the pair can never appear together in a
  // surviving cycle, whatever tuples carry it.
  bool never_overlaps(ThreadId ti, ThreadId tj) const {
    if (!in_range(ti) || !in_range(tj)) return false;
    return never_[index(ti, tj)];
  }

 private:
  bool in_range(ThreadId t) const {
    return t >= 0 && t < static_cast<ThreadId>(threads_);
  }
  std::size_t index(ThreadId t, ThreadId u) const {
    return static_cast<std::size_t>(t) * threads_ +
           static_cast<std::size_t>(u);
  }

  std::size_t threads_ = 0;
  std::vector<SJPair> pairs_;  // threads_ × threads_, row-major
  std::vector<bool> never_;    // thread-pair compatibility matrix
};

// Verdict for a single cycle.
PruneVerdict prune_cycle(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const ClockTracker& clocks);

// The same verdict computed off the precomputed matrix — what prune() and
// the cycle engine use; bit-identical to the ClockTracker overload.
PruneVerdict prune_cycle(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const ClockPairMatrix& matrix);

// Verdicts for every cycle of a detection, aligned with Detection::cycles.
// Builds one ClockPairMatrix and reuses it across cycles.
std::vector<PruneVerdict> prune(const Detection& detection);

}  // namespace wolf
