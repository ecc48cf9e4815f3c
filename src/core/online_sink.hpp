// Online detection bookkeeping, as the paper's instrumentation performs it:
// D_σ tuples and the τ/V clock state are maintained *during* execution
// (Algorithm 1), not reconstructed afterwards. Attach an OnlineAnalysisSink
// to a substrate to pay the true detection-instrumentation cost at runtime —
// this is what the Table-1 slowdown column measures — and to have detection
// results available the moment the program exits.
#pragma once

#include "clock/clock_tracker.hpp"
#include "core/lock_dependency.hpp"
#include "trace/recorder.hpp"

namespace wolf {

// A thin TraceSink adapter over LockDependencyBuilder — the same incremental
// engine the offline and streaming paths use, so the online relation is the
// one a post-mortem rebuild of the same event stream would produce.
class OnlineAnalysisSink final : public TraceSink {
 public:
  void on_event(Event e) override { builder_.add(e); }

  // Returns the accumulated relation, canonical tier and acquisition log
  // (the builder keeps both as events arrive); leaves the sink reusable
  // after clear().
  LockDependency take_dependency() { return builder_.take_dependency(); }
  const ClockTracker& clocks() const { return builder_.clocks(); }
  std::size_t acquisition_count() const {
    return builder_.acquisition_count();
  }
  void clear() { builder_.clear(); }

 private:
  LockDependencyBuilder builder_;
};

}  // namespace wolf
