// Replayer — Algorithm 4.
//
// Re-executes the program on the same input, steering only the cycle's
// threads so that every dependency of the synchronization dependency graph
// Gs is satisfied. Implemented as a sim::ScheduleController so the identical
// logic drives both the virtual-thread scheduler and the OS-thread runtime:
//
//   * before a monitored thread's acquisition at execution index v: if v is
//     a Gs vertex with a cross-thread in-edge, the thread is paused;
//   * when an acquisition at v completes: every vertex that reaches v is
//     retired (this also handles instructions skipped by divergent control
//     flow) and then v itself, after which paused threads whose vertices
//     lost their last cross-thread in-edge are released;
//   * if nothing is runnable but paused threads remain, the substrate
//     force-releases one at random (Algorithm 4 lines 5–7).
//
// A trial is a *hit* when the re-execution deadlocks with acquisitions
// blocked at the same source locations as the potential deadlock (§4.2's hit
// definition).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/detector.hpp"
#include "core/generator.hpp"
#include "robust/retry.hpp"
#include "sim/controller.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace wolf {

class ReplayController final : public sim::ScheduleController {
 public:
  // `gs` is copied: each trial consumes its own graph.
  ReplayController(SyncDependencyGraph gs, std::set<ThreadId> monitored);

  bool before_lock(ThreadId t, const ExecIndex& idx, LockId lock) override;
  void on_event(const Event& e) override;
  std::vector<ThreadId> take_released() override;
  ThreadId force_release(const std::vector<ThreadId>& paused,
                         Rng& rng) override;

 private:
  void retire_ancestors(Digraph::Node v);
  void retire_vertex(Digraph::Node v);
  void scan_blocked();

  SyncDependencyGraph gs_;
  std::set<ThreadId> monitored_;
  // Algorithm 4's BlockedInstr: paused thread → the Gs vertex it waits on.
  std::map<ThreadId, Digraph::Node> blocked_instr_;
  std::vector<ThreadId> released_;
};

enum class ReplayOutcome : std::uint8_t {
  kReproduced,     // deadlocked at the exact source locations
  kOtherDeadlock,  // deadlocked, but elsewhere
  kNoDeadlock,     // ran to completion
  kStepLimit,      // aborted (step budget)
  kTimeout,        // aborted (wall-clock watchdog or injected stall)
};

const char* to_string(ReplayOutcome outcome);

struct ReplayTrial {
  ReplayOutcome outcome = ReplayOutcome::kNoDeadlock;
  sim::RunResult run;
};

// The source-location multiset a reproduction must block at.
std::vector<SiteId> expected_sites(const PotentialDeadlock& cycle,
                                   const LockDependency& dep);

// Classifies a finished run against the expected sites.
ReplayOutcome classify_run(const sim::RunResult& run,
                           const std::vector<SiteId>& expected);

// One replay trial of `cycle` on `program` under seed `seed`.
ReplayTrial replay_once(const sim::Program& program,
                        const PotentialDeadlock& cycle,
                        const LockDependency& dep,
                        const SyncDependencyGraph& gs, std::uint64_t seed,
                        std::uint64_t max_steps = 2'000'000,
                        const robust::FaultPlan* fault = nullptr);

// The replay section of wolf::Config (Config::replay, wolf.hpp); also what
// replay() and the rt and baseline trial series take directly.
struct ReplayOptions {
  int attempts = 5;              // the paper's "pre-determined number"
  bool stop_on_first_hit = true;  // false for hit-rate measurements
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 2'000'000;
  // Inter-trial backoff and per-trial wall-clock deadline (consumed by the
  // rt substrate's watchdog); retry.max_attempts is overridden by `attempts`.
  robust::RetryPolicy retry;
  // Injected faults forwarded to the substrate (drills and tests). Not owned.
  const robust::FaultPlan* fault = nullptr;
};

struct ReplayStats {
  int attempts = 0;
  int hits = 0;
  int other_deadlocks = 0;
  int no_deadlocks = 0;
  int step_limits = 0;
  int timeouts = 0;

  bool reproduced() const { return hits > 0; }
  double hit_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(hits) / attempts;
  }
};

// Folds one finished trial into the stats (incrementing `attempts`); shared
// by every trial series (sim replay, rt replay, the fuzzer baseline).
void record_outcome(ReplayStats& stats, ReplayOutcome outcome);

// The one trial loop behind every series (replay(), baseline::fuzz(),
// rt::replay_rt() and rt::fuzz_rt()): `once(seed)` runs one trial and
// returns its ReplayTrial. Seeds come from one chain started at
// options.seed, the retry policy paces the attempts, and the series stops
// at the first hit when options.stop_on_first_hit. A template, so the sim
// path calls its trial directly.
template <typename Trial>
ReplayStats run_trials(const ReplayOptions& options, Trial&& once) {
  ReplayStats stats;
  Rng seeds(options.seed);
  robust::RetryPolicy policy = options.retry;
  policy.max_attempts = options.attempts;
  robust::RetryState attempts(policy, options.seed);
  while (attempts.next_attempt()) {
    record_outcome(stats, once(seeds()).outcome);
    if (stats.hits > 0 && options.stop_on_first_hit) break;
  }
  return stats;
}

ReplayStats replay(const sim::Program& program, const PotentialDeadlock& cycle,
                   const LockDependency& dep, const SyncDependencyGraph& gs,
                   const ReplayOptions& options);

}  // namespace wolf
