#include "wolf.hpp"

#include <limits>
#include <sstream>

#include "robust/fault.hpp"

namespace wolf {

namespace {

ConfigIssue fatal_issue(const std::string& message) {
  return ConfigIssue{true, message};
}

ConfigIssue warning(const std::string& message) {
  return ConfigIssue{false, message};
}

}  // namespace

std::vector<ConfigIssue> Config::validate() const {
  std::vector<ConfigIssue> issues;

  // Fatal: an exploded run would crash or degenerate into a no-op.
  if (jobs < 0) issues.push_back(fatal_issue("jobs must be >= 0"));
  if (deadline_ms < 0)
    issues.push_back(fatal_issue("deadline_ms must be >= 0"));
  if (runs <= 0) issues.push_back(fatal_issue("runs must be >= 1"));
  if (record_attempts <= 0)
    issues.push_back(fatal_issue("record_attempts must be >= 1"));
  if (max_steps == 0) issues.push_back(fatal_issue("max_steps must be >= 1"));
  if (detector.max_cycle_length < 2)
    issues.push_back(
        fatal_issue("detector.max_cycle_length must be >= 2 (a deadlock "
                    "needs at least two threads)"));
  if (detector.max_cycles == 0)
    issues.push_back(fatal_issue("detector.max_cycles must be >= 1"));
  if (replay.attempts <= 0)
    issues.push_back(fatal_issue("replay.attempts must be >= 1"));
  if (window_events == 0)
    issues.push_back(
        fatal_issue("window_events must be >= 1 (the governed detector "
                    "cannot close zero-event windows)"));
  if (window_deadline_ms < 0)
    issues.push_back(fatal_issue("window_deadline_ms must be >= 0"));
  // The governor enforces the budget in bytes (memory_budget_mb << 20).
  if (memory_budget_mb > std::numeric_limits<std::size_t>::max() >> 20)
    issues.push_back(
        fatal_issue("memory_budget_mb must be < 2^44 (its byte count must "
                    "fit in size_t)"));

  // Conflicts: legal, but one of the two settings silently wins. Non-fatal
  // so existing invocations keep working; callers surface these as warnings.
  if (!enable_pruner && detector.clock_prune_during_search) {
    issues.push_back(
        warning("enable_pruner=false is contradicted by "
                "detector.clock_prune_during_search, which applies the same "
                "(S,J) clock cut during enumeration — the ablation will not "
                "see the pruned cycles"));
  }
  if (deadline_ms != 0 && replay.retry.attempt_deadline_ms != 0 &&
      replay.retry.attempt_deadline_ms != deadline_ms) {
    issues.push_back(
        warning("both deadline_ms and replay.retry.attempt_deadline_ms are "
                "set; the shared deadline_ms wins"));
  }
  // A fault plan that stalls or wedges execution needs a retry budget (and
  // ideally a deadline) to absorb the faulted attempts; with attempts=1 the
  // first injected fault is the final answer.
  if (fault != nullptr && fault->faults_execution()) {
    if (record_attempts <= 1 || replay.attempts <= 1) {
      issues.push_back(
          warning("fault plan injects execution faults but the retry budget "
                  "is a single attempt (record_attempts/replay.attempts); "
                  "the first fault will be terminal — raise --retry to let "
                  "the pipeline absorb injected faults"));
    }
    if (fault->drop_force_releases && deadline_ms == 0 &&
        executor.deadline_ms == 0) {
      issues.push_back(
          warning("fault plan drops force-releases but no deadline is set; "
                  "a wedged rt run can only be ended by the watchdog — set "
                  "deadline_ms"));
    }
  }
  return issues;
}

WolfOptions Config::wolf_options() const {
  WolfOptions o;
  o.seed = seed;
  o.detector = detector;
  o.replay = replay;
  o.record_attempts = record_attempts;
  o.max_steps = max_steps;
  o.enable_pruner = enable_pruner;
  o.enable_generator_check = enable_generator_check;
  o.fault = fault;
  // Shared scalars override the section fields they shadow.
  o.jobs = jobs;
  o.replay.seed = seed;
  if (deadline_ms != 0) o.replay.retry.attempt_deadline_ms = deadline_ms;
  return o;
}

MultiRunOptions Config::multi_options() const {
  MultiRunOptions o;
  o.runs = runs;
  o.seed = seed;
  o.jobs = jobs;
  o.wolf = wolf_options();
  return o;
}

baseline::DfOptions Config::df_options() const {
  baseline::DfOptions o;
  o.seed = seed;
  o.detector = detector;
  o.replay = replay;
  o.record_attempts = record_attempts;
  o.max_steps = max_steps;
  // The baseline is the serial algorithm of the DeadlockFuzzer paper; it
  // has no jobs knob, so only the seed and deadline fold in.
  o.replay.seed = seed;
  if (deadline_ms != 0) o.replay.retry.attempt_deadline_ms = deadline_ms;
  return o;
}

rt::ExecutorOptions Config::executor_options() const {
  rt::ExecutorOptions o = executor;
  o.seed = seed;
  if (deadline_ms != 0) o.deadline_ms = deadline_ms;
  o.fault = fault != nullptr ? fault : executor.fault;
  return o;
}

}  // namespace wolf
