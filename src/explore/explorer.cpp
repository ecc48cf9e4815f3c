#include "explore/explorer.hpp"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "sim/scheduler.hpp"

namespace wolf::explore {

namespace {

std::vector<SiteId> cycle_signature(const sim::RunResult& result) {
  std::vector<SiteId> sig;
  sig.reserve(result.deadlock_cycle.size());
  for (const sim::BlockedAt& b : result.deadlock_cycle)
    sig.push_back(b.index.site);
  std::sort(sig.begin(), sig.end());
  return sig;
}

}  // namespace

ExploreResult explore(const sim::Program& program,
                      const ExploreOptions& options) {
  ExploreResult result;
  std::unordered_set<std::uint64_t> visited;

  sim::SchedulerOptions sched_options;
  sched_options.max_steps = ~0ULL;  // depth is bounded by state memoization

  std::vector<sim::Scheduler> stack;
  stack.emplace_back(program, sched_options);
  visited.insert(stack.back().state_hash());
  result.states = 1;

  bool budget_hit = false;
  std::vector<ThreadId> enabled;
  while (!stack.empty()) {
    sim::Scheduler state = std::move(stack.back());
    stack.pop_back();

    if (state.deadlock_diagnosed()) {
      ++result.deadlock_states;
      result.deadlock_signatures.insert(cycle_signature(state.result()));
      continue;
    }
    if (state.all_terminated()) {
      ++result.completed_states;
      continue;
    }
    state.enabled_threads(enabled);
    if (enabled.empty()) {
      // Stall (start/join wait with nothing runnable): terminal, counts as a
      // deadlock state with an empty lock signature.
      ++result.deadlock_states;
      result.deadlock_signatures.insert({});
      continue;
    }
    for (ThreadId t : enabled) {
      if (result.states >= options.max_states) {
        budget_hit = true;
        break;
      }
      sim::Scheduler child = state;  // fork
      child.step(t);
      ++result.transitions;
      if (visited.insert(child.state_hash()).second) {
        ++result.states;
        stack.push_back(std::move(child));
      }
    }
    if (budget_hit) break;
  }
  result.exhausted = !budget_hit;
  return result;
}

}  // namespace wolf::explore
