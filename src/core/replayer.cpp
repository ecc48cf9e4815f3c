#include "core/replayer.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "robust/fault.hpp"
#include "support/check.hpp"

namespace wolf {

namespace {
const obs::Counter kPauses("replayer.pauses");
const obs::Counter kEnables("replayer.enables");
const obs::Counter kForcedReleases("replayer.forced_releases");
const obs::Counter kTrials("replayer.trials");
const obs::Counter kTimeouts("replayer.timeouts");
const obs::Counter kConfirmations("replayer.confirmations");
}  // namespace

ReplayController::ReplayController(SyncDependencyGraph gs,
                                   std::set<ThreadId> monitored)
    : gs_(std::move(gs)), monitored_(std::move(monitored)) {}

bool ReplayController::before_lock(ThreadId t, const ExecIndex& idx,
                                   LockId lock) {
  (void)lock;
  if (monitored_.count(t) == 0) return false;
  auto v = gs_.find(idx);
  if (!v.has_value()) return false;
  if (gs_.has_cross_thread_in_edge(*v)) {
    kPauses.add();
    blocked_instr_[t] = *v;
    return true;  // pause until the dependency is discharged
  }
  // Acquisition permitted: everything ordered before v has either executed
  // or been skipped (Algorithm 4 lines 22–23).
  retire_ancestors(*v);
  scan_blocked();
  return false;
}

void ReplayController::retire_ancestors(Digraph::Node v) {
  if (!gs_.graph().alive(v)) return;
  for (Digraph::Node u : gs_.graph().ancestors(v)) gs_.remove_vertex(u);
}

void ReplayController::retire_vertex(Digraph::Node v) {
  gs_.remove_vertex(v);
}

void ReplayController::scan_blocked() {
  for (auto it = blocked_instr_.begin(); it != blocked_instr_.end();) {
    Digraph::Node a = it->second;
    if (!gs_.graph().alive(a) || !gs_.has_cross_thread_in_edge(a)) {
      released_.push_back(it->first);
      it = blocked_instr_.erase(it);
    } else {
      ++it;
    }
  }
}

void ReplayController::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kLockAcquire: {
      if (monitored_.count(e.thread) == 0) break;
      auto v = gs_.find(e.index());
      if (!v.has_value()) break;
      // Bypassed (force-released) threads skip before_lock, so ancestors may
      // still be present; retire them along with v.
      retire_ancestors(*v);
      retire_vertex(*v);
      scan_blocked();
      break;
    }
    case EventKind::kThreadEnd: {
      if (monitored_.count(e.thread) == 0) break;
      // The thread terminated without reaching some of its Gs vertices
      // (divergent control flow): those acquisitions will never happen, so
      // drop them to let the remaining threads make progress.
      std::vector<Digraph::Node> stale;
      for (Digraph::Node n : gs_.graph().nodes())
        if (gs_.vertex(n).thread == e.thread) stale.push_back(n);
      for (Digraph::Node n : stale) gs_.remove_vertex(n);
      if (!stale.empty()) scan_blocked();
      break;
    }
    default:
      break;
  }
}

std::vector<ThreadId> ReplayController::take_released() {
  std::vector<ThreadId> out;
  out.swap(released_);
  kEnables.add(out.size());
  return out;
}

ThreadId ReplayController::force_release(const std::vector<ThreadId>& paused,
                                         Rng& rng) {
  kForcedReleases.add();
  ThreadId victim = paused[rng.index(paused)];
  blocked_instr_.erase(victim);
  return victim;
}

const char* to_string(ReplayOutcome outcome) {
  switch (outcome) {
    case ReplayOutcome::kReproduced:
      return "reproduced";
    case ReplayOutcome::kOtherDeadlock:
      return "other-deadlock";
    case ReplayOutcome::kNoDeadlock:
      return "no-deadlock";
    case ReplayOutcome::kStepLimit:
      return "step-limit";
    case ReplayOutcome::kTimeout:
      return "timeout";
  }
  return "?";
}

std::vector<SiteId> expected_sites(const PotentialDeadlock& cycle,
                                   const LockDependency& dep) {
  std::vector<SiteId> sites;
  sites.reserve(cycle.tuple_idx.size());
  for (std::size_t i : cycle.tuple_idx)
    sites.push_back(dep.tuples[i].acquire_index().site);
  std::sort(sites.begin(), sites.end());
  return sites;
}

ReplayOutcome classify_run(const sim::RunResult& run,
                           const std::vector<SiteId>& expected) {
  switch (run.outcome) {
    case sim::RunOutcome::kCompleted:
      return ReplayOutcome::kNoDeadlock;
    case sim::RunOutcome::kStepLimit:
      return ReplayOutcome::kStepLimit;
    case sim::RunOutcome::kTimeout:
      return ReplayOutcome::kTimeout;
    case sim::RunOutcome::kDeadlock:
      break;
  }
  // Hit: the blocked acquisitions of the diagnosed cycle sit at the same
  // source locations as the potential deadlock (§4.2).
  std::vector<SiteId> observed;
  observed.reserve(run.deadlock_cycle.size());
  for (const sim::BlockedAt& b : run.deadlock_cycle)
    observed.push_back(b.index.site);
  std::sort(observed.begin(), observed.end());
  return observed == expected ? ReplayOutcome::kReproduced
                              : ReplayOutcome::kOtherDeadlock;
}

ReplayTrial replay_once(const sim::Program& program,
                        const PotentialDeadlock& cycle,
                        const LockDependency& dep,
                        const SyncDependencyGraph& gs, std::uint64_t seed,
                        std::uint64_t max_steps,
                        const robust::FaultPlan* fault) {
  std::set<ThreadId> monitored;
  for (std::size_t i : cycle.tuple_idx)
    monitored.insert(dep.tuples[i].thread);

  ReplayController controller(gs, std::move(monitored));
  sim::SchedulerOptions options;
  options.controller = &controller;
  options.max_steps = max_steps;
  options.fault = fault;

  sim::RandomPolicy policy;
  Rng rng(seed);
  ReplayTrial trial;
  trial.run = sim::run_program(program, policy, rng, options);
  trial.outcome = classify_run(trial.run, expected_sites(cycle, dep));
  return trial;
}

void record_outcome(ReplayStats& stats, ReplayOutcome outcome) {
  ++stats.attempts;
  kTrials.add();
  if (outcome == ReplayOutcome::kTimeout) kTimeouts.add();
  if (outcome == ReplayOutcome::kReproduced) kConfirmations.add();
  switch (outcome) {
    case ReplayOutcome::kReproduced:
      ++stats.hits;
      break;
    case ReplayOutcome::kOtherDeadlock:
      ++stats.other_deadlocks;
      break;
    case ReplayOutcome::kNoDeadlock:
      ++stats.no_deadlocks;
      break;
    case ReplayOutcome::kStepLimit:
      ++stats.step_limits;
      break;
    case ReplayOutcome::kTimeout:
      ++stats.timeouts;
      break;
  }
}

ReplayStats replay(const sim::Program& program, const PotentialDeadlock& cycle,
                   const LockDependency& dep, const SyncDependencyGraph& gs,
                   const ReplayOptions& options) {
  return run_trials(options, [&](std::uint64_t seed) {
    return replay_once(program, cycle, dep, gs, seed, options.max_steps,
                       options.fault);
  });
}

}  // namespace wolf
