#include "core/pruner.hpp"

#include <algorithm>

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

ClockPairMatrix::ClockPairMatrix(const ClockTracker& clocks,
                                 const LockDependency& dep) {
  ThreadId max_thread = clocks.max_thread();
  for (std::size_t u : dep.unique)
    max_thread = std::max(max_thread, dep.tuples[u].thread);
  if (max_thread < 0) return;
  threads_ = static_cast<std::size_t>(max_thread) + 1;
  pairs_.resize(threads_ * threads_);
  never_.assign(threads_ * threads_, false);

  for (std::size_t t = 0; t < threads_; ++t)
    for (std::size_t u = 0; u < threads_; ++u)
      pairs_[t * threads_ + u] = clocks.view(static_cast<ThreadId>(t),
                                             static_cast<ThreadId>(u));

  // τ extrema of each thread's canonical tuples. A pair never overlaps when
  // one of Algorithm 2's conditions holds at the worst-case τ combination —
  // then it holds for every tuple pair the threads could contribute.
  std::vector<Timestamp> min_tau(threads_, 0), max_tau(threads_, 0);
  std::vector<bool> has_tuple(threads_, false);
  for (std::size_t u : dep.unique) {
    const LockTuple& t = dep.tuples[u];
    const auto tid = static_cast<std::size_t>(t.thread);
    if (!has_tuple[tid]) {
      has_tuple[tid] = true;
      min_tau[tid] = max_tau[tid] = t.tau;
    } else {
      min_tau[tid] = std::min(min_tau[tid], t.tau);
      max_tau[tid] = std::max(max_tau[tid], t.tau);
    }
  }
  for (std::size_t ti = 0; ti < threads_; ++ti) {
    if (!has_tuple[ti]) continue;
    for (std::size_t tj = 0; tj < threads_; ++tj) {
      if (ti == tj || !has_tuple[tj]) continue;
      const SJPair& v = pairs_[ti * threads_ + tj];
      never_[ti * threads_ + tj] =
          (v.S != kTsBottom && v.S > max_tau[tj]) ||
          (v.J != kTsBottom && v.J <= min_tau[ti]);
    }
  }
}

PruneVerdict prune_cycle(const PotentialDeadlock& cycle,
                         const LockDependency& dep,
                         const ClockPairMatrix& matrix) {
  kCyclesIn.add();
  for (std::size_t i : cycle.tuple_idx) {
    for (std::size_t j : cycle.tuple_idx) {
      if (i == j) continue;
      const LockTuple& eta_i = dep.tuples[i];
      const LockTuple& eta_j = dep.tuples[j];
      PruneVerdict v = matrix.pair_verdict(eta_i.thread, eta_i.tau,
                                           eta_j.thread, eta_j.tau);
      if (is_false(v)) {
        kCyclesKilled.add();
        return v;
      }
    }
  }
  return PruneVerdict::kUnknown;
}

std::vector<PruneVerdict> prune(const Detection& detection) {
  const ClockPairMatrix matrix(detection.clocks, detection.dep);
  std::vector<PruneVerdict> verdicts;
  verdicts.reserve(detection.cycles.size());
  for (const PotentialDeadlock& cycle : detection.cycles)
    verdicts.push_back(prune_cycle(cycle, detection.dep, matrix));
  return verdicts;
}

}  // namespace wolf
