// Deterministic virtual-thread scheduler.
//
// Executes a sim::Program one operation at a time under an arbitrary
// scheduling policy, emitting the instrumentation event stream to a
// TraceSink and consulting an optional ScheduleController at lock
// acquisitions — i.e. it plays the role of the JVM + instrumentation in the
// paper's tool chain, with the scheduler choice made explicit (Algorithm 1's
// "tp ← a random thread from Enabled").
//
// Lock semantics are re-entrant (Java monitors). A wait-for cycle is
// diagnosed the moment it forms; the run then stops with RunOutcome::kDeadlock
// and the cycle's blocked positions, which is how the Replayer decides
// whether the execution "deadlocked at the exact location" (Algorithm 4
// line 33).
//
// A livelock ends early too. Every shared-state change (lock, unlock, start,
// join, flag write, thread begin/exit, pause, release, injected delay) bumps
// a progress epoch, and a thread that takes the same backward jump twice in
// one epoch is *spinning*: its loop changes nothing another thread could see,
// so only another thread can end it. When every enabled thread spins, run()
// force-releases a paused thread (Algorithm 4 lines 5–7) or, with nothing
// paused, stops at once with RunOutcome::kStepLimit instead of spinning to
// max_steps (DESIGN.md §6).
//
// Scheduler objects are copyable: the systematic explorer forks mid-run
// states to enumerate schedules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "robust/retry.hpp"
#include "sim/controller.hpp"
#include "sim/policy.hpp"
#include "sim/program.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"

namespace wolf::robust {
struct FaultPlan;
}

namespace wolf::sim {

enum class ThreadStatus : std::uint8_t {
  kNotStarted,
  kEnabled,
  kBlockedOnLock,
  kBlockedOnJoin,
  kPaused,      // held by the ScheduleController
  kTerminated,
};

struct BlockedAt {
  ThreadId thread = kInvalidThread;
  ExecIndex index;           // dynamic instruction of the blocked acquisition
  LockId lock = kInvalidLock;

  friend bool operator==(const BlockedAt&, const BlockedAt&) = default;
};

enum class RunOutcome : std::uint8_t {
  kCompleted,  // every thread terminated
  kDeadlock,   // wait-for cycle (or a start/join stall with nothing runnable)
  kStepLimit,  // max_steps exhausted, or a livelock: every enabled thread
               // spins and nothing is paused (ends at once, not at the cap)
  kTimeout,    // wall-clock watchdog fired (rt) or a fault-injected stall
               // wedged the run (sim); the trial was aborted, not hung
};

struct RunResult {
  RunOutcome outcome = RunOutcome::kCompleted;
  // The lock wait-for cycle that was diagnosed (empty for join stalls).
  std::vector<BlockedAt> deadlock_cycle;
  // Every thread blocked on a lock when the run ended.
  std::vector<BlockedAt> all_blocked;
  std::uint64_t steps = 0;

  bool deadlocked() const { return outcome == RunOutcome::kDeadlock; }
};

struct SchedulerOptions {
  std::uint64_t max_steps = 2'000'000;
  TraceSink* sink = nullptr;                 // may be nullptr
  ScheduleController* controller = nullptr;  // may be nullptr
  // Injected faults (robust/fault.hpp): per-thread step delays and dropped
  // force-releases. nullptr = no faults. Not owned.
  const robust::FaultPlan* fault = nullptr;
};

class Scheduler {
 public:
  Scheduler(const Program& program, SchedulerOptions options);

  // --- stepping interface (used by run() and by the explorer) ---

  // Fills `out` (cleared first) with the threads eligible to execute right
  // now, ascending ids. The run loop reuses one buffer for every step.
  void enabled_threads(std::vector<ThreadId>& out) const;
  std::vector<ThreadId> paused_threads() const;

  // True when thread `t` took the same backward jump twice with no
  // shared-state change in between. Its loop reads only state that no step
  // of a spinning thread can change, so it repeats until another thread
  // changes that state.
  bool spinning(ThreadId t) const;

  // Executes one operation (or one blocked/paused attempt) of an enabled
  // thread.
  void step(ThreadId t);

  // Moves a controller-paused thread back to the enabled set. When
  // `bypass_controller` is set the thread's pending acquisition will not
  // re-consult the controller (forced release, Algorithm 4 lines 5–7).
  void release_paused(ThreadId t, bool bypass_controller);

  // True when no further step can change anything: all threads terminated,
  // or a deadlock has been diagnosed.
  bool finished() const;
  bool deadlock_diagnosed() const { return deadlock_diagnosed_; }
  bool all_terminated() const;

  std::uint64_t steps_executed() const { return steps_; }
  std::uint64_t max_steps() const { return options_.max_steps; }
  ScheduleController* controller() const { return options_.controller; }
  // True when an injected fault swallows Algorithm-4 force-releases; the run
  // loop then ends a wedged run with RunOutcome::kTimeout instead of looping.
  bool fault_drops_force_releases() const;

  // Applies all pending controller releases (take_released()).
  void drain_releases() { drain_controller_releases(); }

  // Builds the result for the current (finished or aborted) state.
  RunResult result() const;

  ThreadStatus status(ThreadId t) const;
  int pc(ThreadId t) const;
  int flag_value(int flag) const;

  // Structural fingerprint of the scheduler state (thread pcs/statuses, lock
  // ownership, flags). Two states with equal hashes are treated as identical
  // by the explorer; the hash ignores trace/controller and spin bookkeeping,
  // so it is only meaningful for controller-free exploration.
  std::uint64_t state_hash() const;

  const Program& program() const { return *program_; }

 private:
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  struct ThreadState {
    ThreadStatus status = ThreadStatus::kNotStarted;
    int pc = 0;
    bool begun = false;  // kThreadBegin emitted
    // Locks currently held (top-level), in acquisition order, with
    // re-entrancy depth.
    std::vector<std::pair<LockId, int>> held;
    LockId waiting_lock = kInvalidLock;    // kBlockedOnLock
    ThreadId waiting_join = kInvalidThread;  // kBlockedOnJoin
    // Occurrence bookkeeping for the op at `pending_pc` (stable across
    // repeated attempts of the same acquisition).
    int pending_pc = -1;
    std::int32_t pending_occ = 0;
    bool bypass_controller = false;
    // Per-site dynamic occurrence counters.
    std::vector<std::int32_t> site_counts;
    // Spin bookkeeping: the pc of the last backward jump taken and the
    // progress epoch it was taken in, and the epoch in which that jump was
    // taken again (the thread spins while that epoch is current).
    int loop_pc = -1;
    std::uint64_t loop_epoch = 0;
    std::uint64_t spin_epoch = kNoEpoch;
  };

  struct LockState {
    ThreadId owner = kInvalidThread;
    int depth = 0;
  };

  void emit(Event e);
  void ensure_begun(ThreadId t);
  std::int32_t occurrence_for(ThreadId t, int pc, SiteId site);
  void terminate_thread(ThreadId t);
  // Moves `t` to `target`, noting a backward jump for spin detection.
  void take_jump(ThreadId t, int from_pc, int target);
  void wake_lock_waiters(LockId lock);
  void drain_controller_releases();
  // Checks for a wait-for cycle through `t` (which just blocked); fills
  // deadlock state when found.
  void check_wait_cycle(ThreadId t);
  BlockedAt blocked_at(ThreadId t) const;

  const Program* program_;
  SchedulerOptions options_;
  std::vector<ThreadState> threads_;
  std::vector<LockState> locks_;
  std::vector<int> flags_;
  std::uint64_t steps_ = 0;
  // Bumped by every shared-state change; see spinning().
  std::uint64_t progress_epoch_ = 0;
  std::size_t terminated_ = 0;
  bool deadlock_diagnosed_ = false;
  std::vector<BlockedAt> deadlock_cycle_;
  // Remaining injected-stall budget per FaultPlan delay entry (copyable so
  // the explorer can fork mid-run states).
  std::vector<int> fault_delay_left_;
};

// Policy-driven run loop, including the controller release protocol.
RunResult run(Scheduler& scheduler, SchedulePolicy& policy, Rng& rng);

// Convenience: build a scheduler and run the program once.
RunResult run_program(const Program& program, SchedulePolicy& policy, Rng& rng,
                      SchedulerOptions options = {});

// One random recording run: executes the program under RandomPolicy with the
// given seed, recording the trace. Retries with derived seeds if the run
// deadlocks (detection needs completed executions) under `retry`; returns
// nullopt if every attempt deadlocked.
std::optional<Trace> record_trace(const Program& program, std::uint64_t seed,
                                  const robust::RetryPolicy& retry,
                                  std::uint64_t max_steps = 2'000'000);

// Convenience: retry up to `max_attempts` times with no backoff.
std::optional<Trace> record_trace(const Program& program, std::uint64_t seed,
                                  int max_attempts = 20,
                                  std::uint64_t max_steps = 2'000'000);

}  // namespace wolf::sim
