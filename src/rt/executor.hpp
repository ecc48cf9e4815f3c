// Real OS-thread execution substrate.
//
// Executes the same sim::Program scripts over std::thread with an
// instrumented re-entrant monitor per lock — the analogue of running the
// Soot-instrumented Java program on a JVM. It emits the identical event
// stream, consults the identical ScheduleController interface, and returns
// the same RunResult type as the virtual-thread scheduler, so WOLF's
// Replayer and the DeadlockFuzzer baseline drive genuine OS threads without
// modification.
//
// Deadlock handling: a wait-for graph is maintained at every blocking
// acquisition; the thread that closes a cycle records the deadlock and
// aborts the run (all blocked/paused threads are woken and unwind), so a
// reproduced deadlock terminates the trial instead of hanging the process —
// the paper's "execution deadlocked at the exact location" check followed by
// a clean in-process recovery for the next trial.
//
// Concurrency design: one global monitor mutex guards all bookkeeping
// (lock states, wait-for graph, controller calls, trace recording, flags);
// Compute ops spin outside it. The "nothing is runnable but paused threads
// remain" rule of Algorithm 4 is evaluated synchronously whenever a thread
// is about to block, so cycles the wait-for graph can see never need a
// monitor thread.
//
// Deadline handling: the synchronous rule only covers stalls the graph can
// see. A livelocked trial, an injected fault, or a genuinely-hung thread is
// covered by the optional wall-clock watchdog (ExecutorOptions::deadline_ms):
// a monitor thread arms when the run starts and, if the deadline expires
// first, aborts the trial exactly like a diagnosed deadlock — every thread
// is woken and unwinds — but the run reports RunOutcome::kTimeout. A wedged
// trial can therefore never hang the process.
#pragma once

#include <cstdint>

#include "robust/retry.hpp"
#include "sim/controller.hpp"
#include "sim/program.hpp"
#include "sim/scheduler.hpp"  // RunResult / BlockedAt / RunOutcome
#include "trace/recorder.hpp"

namespace wolf::robust {
struct FaultPlan;
}

namespace wolf::rt {

// The executor section of wolf::Config (Config::executor, wolf.hpp);
// Config::executor_options() folds the shared scalars into a copy.
struct ExecutorOptions {
  TraceSink* sink = nullptr;                 // trace recording (optional)
  sim::ScheduleController* controller = nullptr;  // replay steering (optional)
  // When false, event emission, controller consultation and occurrence
  // bookkeeping are skipped — the "uninstrumented program" baseline of the
  // paper's slowdown measurements. Wait-for-graph deadlock detection stays
  // on so a deadlocking run still terminates.
  bool instrument = true;
  std::uint64_t seed = 1;     // randomness for forced releases
  int compute_spin = 64;      // busy-work iterations per Compute unit
  // Wall-clock watchdog: > 0 arms a monitor that aborts the trial after this
  // many milliseconds (RunOutcome::kTimeout); 0 disables it.
  std::int64_t deadline_ms = 0;
  // Injected faults (robust/fault.hpp): wall-clock thread delays and dropped
  // force-releases. nullptr = no faults. Not owned.
  const robust::FaultPlan* fault = nullptr;
};

// Runs the program to completion, deadlock, or abort; joins all threads
// before returning.
sim::RunResult execute(const sim::Program& program,
                       const ExecutorOptions& options = {});

// Records an OS-thread trace (retrying deadlocked or timed-out runs like
// sim::record_trace). retry.attempt_deadline_ms arms the watchdog per
// attempt, so one hung recording run cannot wedge the batch.
std::optional<Trace> record_trace_rt(const sim::Program& program,
                                     std::uint64_t seed,
                                     const robust::RetryPolicy& retry);

// Convenience: retry up to `max_attempts` times, no backoff, no deadline.
std::optional<Trace> record_trace_rt(const sim::Program& program,
                                     std::uint64_t seed,
                                     int max_attempts = 20);

}  // namespace wolf::rt
