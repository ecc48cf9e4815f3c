#include "baseline/deadlock_fuzzer.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace wolf::baseline {

std::vector<SiteId> thread_abstraction(const sim::Program& program,
                                       ThreadId t) {
  std::vector<SiteId> chain;
  ThreadId cur = t;
  while (cur != kInvalidThread) {
    const sim::ThreadDecl& decl = program.thread(cur);
    if (decl.create_site != kInvalidSite) chain.push_back(decl.create_site);
    cur = decl.parent;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::vector<DfTarget> df_targets(const sim::Program& program,
                                 const PotentialDeadlock& cycle,
                                 const LockDependency& dep) {
  std::vector<DfTarget> targets;
  targets.reserve(cycle.tuple_idx.size());
  for (std::size_t i : cycle.tuple_idx) {
    const LockTuple& eta = dep.tuples[i];
    DfTarget target;
    target.thread_abstraction = thread_abstraction(program, eta.thread);
    target.acquire_site = eta.acquire_index().site;
    target.lock_alloc_site = program.lock_decl(eta.lock).alloc_site;
    targets.push_back(std::move(target));
  }
  return targets;
}

DeadlockFuzzerController::DeadlockFuzzerController(
    const sim::Program& program, std::vector<DfTarget> targets)
    : program_(&program), targets_(std::move(targets)) {
  filled_.assign(targets_.size(), false);
}

const std::vector<SiteId>& DeadlockFuzzerController::abstraction(
    ThreadId t) const {
  auto it = abstraction_cache_.find(t);
  if (it == abstraction_cache_.end())
    it = abstraction_cache_
             .emplace(t, thread_abstraction(*program_, t))
             .first;
  return it->second;
}

bool DeadlockFuzzerController::matches(const DfTarget& target, ThreadId t,
                                       SiteId site, LockId lock) const {
  if (site != target.acquire_site) return false;
  if (program_->lock_decl(lock).alloc_site != target.lock_alloc_site)
    return false;
  return abstraction(t) == target.thread_abstraction;
}

bool DeadlockFuzzerController::before_lock(ThreadId t, const ExecIndex& idx,
                                           LockId lock) {
  if (released_all_) return false;
  if (paused_.count(t) != 0) return false;  // re-attempt after force release

  // A thread is trapped when it is the first to occupy a still-unfilled
  // cycle position matching its abstraction. Because abstraction collisions
  // make several dynamic acquisitions look identical, the *wrong* thread or
  // the wrong occurrence routinely claims a position — the unreliability the
  // paper demonstrates with Fig. 9.
  bool filled_one = false;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    if (filled_[i]) continue;
    if (!matches(targets_[i], t, idx.site, lock)) continue;
    filled_[i] = true;
    filled_one = true;
    break;
  }
  if (!filled_one) return false;

  if (std::all_of(filled_.begin(), filled_.end(),
                  [](bool b) { return b; })) {
    // Every position is occupied: resume the whole pack and let the blocked
    // acquisitions race into the (hoped-for) deadlock. The thread completing
    // the set proceeds directly.
    released_all_ = true;
    released_.insert(released_.end(), paused_.begin(), paused_.end());
    paused_.clear();
    return false;
  }
  paused_.insert(t);
  return true;
}

std::vector<ThreadId> DeadlockFuzzerController::take_released() {
  std::vector<ThreadId> out;
  out.swap(released_);
  return out;
}

ThreadId DeadlockFuzzerController::force_release(
    const std::vector<ThreadId>& paused, Rng& rng) {
  ThreadId victim = paused[rng.index(paused)];
  paused_.erase(victim);
  // The corresponding target stays filled even though the pause was undone —
  // DeadlockFuzzer does not track which thread occupied which position, one
  // of the sources of its unreliability.
  return victim;
}

ReplayTrial fuzz_once(const sim::Program& program,
                      const PotentialDeadlock& cycle,
                      const LockDependency& dep, std::uint64_t seed,
                      std::uint64_t max_steps) {
  DeadlockFuzzerController controller(program, df_targets(program, cycle, dep));
  sim::SchedulerOptions options;
  options.controller = &controller;
  options.max_steps = max_steps;

  sim::RandomPolicy policy;
  Rng rng(seed);
  ReplayTrial trial;
  trial.run = sim::run_program(program, policy, rng, options);
  trial.outcome = classify_run(trial.run, expected_sites(cycle, dep));
  return trial;
}

ReplayStats fuzz(const sim::Program& program, const PotentialDeadlock& cycle,
                 const LockDependency& dep, const ReplayOptions& options) {
  return run_trials(options, [&](std::uint64_t seed) {
    return fuzz_once(program, cycle, dep, seed, options.max_steps);
  });
}

}  // namespace wolf::baseline
