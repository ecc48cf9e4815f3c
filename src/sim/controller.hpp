// ScheduleController — the online hook interface through which replay tools
// steer an execution.
//
// Both substrates consult the controller at every top-level lock acquisition
// *attempt* and report completed acquisitions and other events back to it.
// The paper's Replayer (Algorithm 4) and the DeadlockFuzzer baseline are both
// implemented as ScheduleControllers, which is what lets one implementation
// drive virtual threads (sim) and OS threads (rt) identically.
#pragma once

#include <vector>

#include "support/rng.hpp"
#include "trace/event.hpp"
#include "trace/exec_index.hpp"
#include "trace/ids.hpp"

namespace wolf::sim {

class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  // Called before thread `t` performs the top-level acquisition of `lock` at
  // dynamic instruction `idx`. Returning true pauses the thread; the
  // substrate will ask again once the controller releases it.
  virtual bool before_lock(ThreadId t, const ExecIndex& idx, LockId lock) {
    (void)t;
    (void)idx;
    (void)lock;
    return false;
  }

  // Full instrumentation event stream (acquisitions, releases, start/join,
  // begin/end), in global order. kLockAcquire is reported right after the
  // acquisition succeeds.
  virtual void on_event(const Event& e) { (void)e; }

  // Threads the controller wants unpaused now. Called by the substrate after
  // every controller-visible transition; returned ids that are not currently
  // paused are ignored. Releases must follow from before_lock/on_event
  // calls: sim::run's no-progress rule relies on a controller that has seen
  // no new event releasing nothing.
  virtual std::vector<ThreadId> take_released() { return {}; }

  // No runnable thread remains but `paused` is non-empty (Algorithm 4 lines
  // 5–7): pick one to force-release. Default: uniformly random.
  virtual ThreadId force_release(const std::vector<ThreadId>& paused,
                                 Rng& rng) {
    return paused[rng.index(paused)];
  }
};

}  // namespace wolf::sim
