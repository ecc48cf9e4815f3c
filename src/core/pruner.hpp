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
//
// This is the one copy of Algorithm 2. As in the paper's Fig. 3 it runs
// once, between detection and the Generator: cycle enumeration never
// consults the clocks, so every detected cycle reaches this verdict.
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

// Verdict for a single cycle.
PruneVerdict prune_cycle(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const ClockTracker& clocks);

// Verdicts for every cycle of a detection, aligned with Detection::cycles.
std::vector<PruneVerdict> prune(const Detection& detection);

}  // namespace wolf
