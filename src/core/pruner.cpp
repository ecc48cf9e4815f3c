#include "core/pruner.hpp"

#include "obs/counters.hpp"

namespace wolf {

namespace {
const obs::Counter kCyclesIn("pruner.cycles_in");
const obs::Counter kCyclesKilled("pruner.cycles_killed");
}  // namespace

const char* to_string(PruneVerdict verdict) {
  switch (verdict) {
    case PruneVerdict::kUnknown:
      return "unknown";
    case PruneVerdict::kFalseNotStarted:
      return "false(not-started)";
    case PruneVerdict::kFalseJoined:
      return "false(joined)";
  }
  return "?";
}

PruneVerdict prune_cycle(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const ClockTracker& clocks) {
  kCyclesIn.add();
  for (std::size_t i : cycle.tuple_idx) {
    for (std::size_t j : cycle.tuple_idx) {
      if (i == j) continue;
      const LockTuple& eta_i = dep.tuples[i];
      const LockTuple& eta_j = dep.tuples[j];
      const SJPair& view = clocks.view(eta_i.thread, eta_j.thread);
      // Thread ti begins only after tj's deadlocking acquisition: every tj
      // operation with timestamp < S completes before ti's first
      // instruction, so tj cannot still be blocked inside that acquisition
      // while ti runs.
      if (view.S != kTsBottom && view.S > eta_j.tau) {
        kCyclesKilled.add();
        return PruneVerdict::kFalseNotStarted;
      }
      // Thread tj had already been joined (transitively) by the time ti
      // reached timestamp J; ti's acquisition at τ >= J cannot overlap tj.
      if (view.J != kTsBottom && view.J <= eta_i.tau) {
        kCyclesKilled.add();
        return PruneVerdict::kFalseJoined;
      }
    }
  }
  return PruneVerdict::kUnknown;
}

std::vector<PruneVerdict> prune(const Detection& detection) {
  std::vector<PruneVerdict> verdicts;
  verdicts.reserve(detection.cycles.size());
  for (const PotentialDeadlock& cycle : detection.cycles)
    verdicts.push_back(prune_cycle(cycle, detection.dep, detection.clocks));
  return verdicts;
}

}  // namespace wolf
