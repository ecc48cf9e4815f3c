#include "rt/replay_rt.hpp"

#include <set>

#include "rt/executor.hpp"

namespace wolf::rt {

ReplayTrial replay_once_rt(const sim::Program& program,
                           const PotentialDeadlock& cycle,
                           const LockDependency& dep,
                           const SyncDependencyGraph& gs, std::uint64_t seed,
                           std::int64_t deadline_ms,
                           const robust::FaultPlan* fault) {
  std::set<ThreadId> monitored;
  for (std::size_t i : cycle.tuple_idx)
    monitored.insert(dep.tuples[i].thread);
  ReplayController controller(gs, std::move(monitored));

  ExecutorOptions options;
  options.controller = &controller;
  options.seed = seed;
  options.deadline_ms = deadline_ms;
  options.fault = fault;

  ReplayTrial trial;
  trial.run = execute(program, options);
  trial.outcome = classify_run(trial.run, expected_sites(cycle, dep));
  return trial;
}

ReplayTrial fuzz_once_rt(const sim::Program& program,
                         const PotentialDeadlock& cycle,
                         const LockDependency& dep, std::uint64_t seed,
                         std::int64_t deadline_ms,
                         const robust::FaultPlan* fault) {
  baseline::DeadlockFuzzerController controller(
      program, baseline::df_targets(program, cycle, dep));

  ExecutorOptions options;
  options.controller = &controller;
  options.seed = seed;
  options.deadline_ms = deadline_ms;
  options.fault = fault;

  ReplayTrial trial;
  trial.run = execute(program, options);
  trial.outcome = classify_run(trial.run, expected_sites(cycle, dep));
  return trial;
}

ReplayStats replay_rt(const sim::Program& program,
                      const PotentialDeadlock& cycle,
                      const LockDependency& dep,
                      const SyncDependencyGraph& gs,
                      const ReplayOptions& options) {
  return run_trials(options, [&](std::uint64_t seed) {
    return replay_once_rt(program, cycle, dep, gs, seed,
                          options.retry.attempt_deadline_ms, options.fault);
  });
}

ReplayStats fuzz_rt(const sim::Program& program, const PotentialDeadlock& cycle,
                    const LockDependency& dep, const ReplayOptions& options) {
  return run_trials(options, [&](std::uint64_t seed) {
    return fuzz_once_rt(program, cycle, dep, seed,
                        options.retry.attempt_deadline_ms, options.fault);
  });
}

}  // namespace wolf::rt
