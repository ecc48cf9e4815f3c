#include "clock/clock_tracker.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace wolf {

void ClockTracker::ensure(ThreadId t) {
  WOLF_CHECK_MSG(t >= 0, "negative thread id " << t);
  WOLF_CHECK_MSG(t < kThreadIdBound, "thread id " << t
                                         << " is not below the bound "
                                         << kThreadIdBound);
  if (static_cast<std::size_t>(t) >= tau_.size()) {
    tau_.resize(static_cast<std::size_t>(t) + 1, kTsBottom);
    clocks_.resize(static_cast<std::size_t>(t) + 1);
  }
}

void ClockTracker::on_thread_begin(ThreadId t) {
  ensure(t);
  auto& tau = tau_[static_cast<std::size_t>(t)];
  if (tau == kTsBottom) tau = 1;
}

void ClockTracker::on_start(ThreadId parent, ThreadId child) {
  ensure(parent);
  ensure(child);
  on_thread_begin(parent);

  // τ_p ← τ_p + 1 ; τ_c ← 1
  Timestamp& tau_p = tau_[static_cast<std::size_t>(parent)];
  Timestamp& tau_c = tau_[static_cast<std::size_t>(child)];
  tau_p += 1;
  tau_c = 1;

  VectorClock& vp = clocks_[static_cast<std::size_t>(parent)];
  VectorClock& vc = clocks_[static_cast<std::size_t>(child)];
  const ThreadId known = static_cast<ThreadId>(tau_.size());
  for (ThreadId i = 0; i < known; ++i) {
    // Threads that can no longer overlap with the parent (because of some
    // join observed by the parent, possibly transitively) can never overlap
    // with the child either: every child instruction has timestamp >= 1.
    if (vp.at(i).J != kTsBottom) vc.mutable_at(i).J = tau_c;
    if (i == parent) {
      // Everything the parent did before this start (timestamp < τ_p)
      // happens before the child's first instruction.
      vc.mutable_at(parent).S = tau_p;
    } else {
      // Operations already in the past for the parent are in the past for
      // the child too.
      vc.mutable_at(i).S = vp.at(i).S;
    }
  }
}

void ClockTracker::on_join(ThreadId parent, ThreadId child) {
  ensure(parent);
  ensure(child);
  on_thread_begin(parent);

  Timestamp& tau_p = tau_[static_cast<std::size_t>(parent)];
  tau_p += 1;

  VectorClock& vp = clocks_[static_cast<std::size_t>(parent)];
  const VectorClock& vc = clocks_[static_cast<std::size_t>(child)];
  const ThreadId known = static_cast<ThreadId>(tau_.size());
  for (ThreadId i = 0; i < known; ++i) {
    // The joined child — and transitively every thread the child had already
    // observed as joined — can no longer overlap with the parent from
    // timestamp τ_p onward.
    if (i == child ||
        (vc.at(i).J != kTsBottom && vp.at(i).J == kTsBottom)) {
      vp.mutable_at(i).J = tau_p;
    }
  }
}

void ClockTracker::apply(const Event& e) {
  switch (e.kind) {
    case EventKind::kThreadBegin:
      on_thread_begin(e.thread);
      break;
    case EventKind::kThreadStart:
      on_start(e.thread, e.other);
      break;
    case EventKind::kThreadJoin:
      on_join(e.thread, e.other);
      break;
    case EventKind::kThreadEnd:
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
      // Timestamps are unaffected; make sure the acting thread is known so
      // detectors can query its τ.
      on_thread_begin(e.thread);
      break;
  }
}

ClockTracker ClockTracker::from_trace(const Trace& trace) {
  ClockTracker tracker;
  for (const Event& e : trace.events) tracker.apply(e);
  return tracker;
}

}  // namespace wolf
