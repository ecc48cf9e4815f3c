// Tests for the fault-tolerance layer: retry/backoff policy, fault-plan
// parsing, the rt executor's wall-clock watchdog, injected stalls and dropped
// force-releases on both substrates, trace salvage, and per-cycle error
// isolation in the pipeline.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "core/replayer.hpp"
#include "robust/fault.hpp"
#include "robust/retry.hpp"
#include "rt/executor.hpp"
#include "sim/scheduler.hpp"
#include "trace/serialize.hpp"
#include "workloads/collections.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

using robust::FaultPlan;
using robust::RetryPolicy;
using robust::RetryState;

// ---------------------------------------------------------------- retry ----

TEST(RetryPolicyTest, BackoffScheduleWithoutJitter) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 40;
  Rng rng(1);
  EXPECT_EQ(robust::backoff_before_attempt(policy, 0, rng), 0);
  EXPECT_EQ(robust::backoff_before_attempt(policy, 1, rng), 10);
  EXPECT_EQ(robust::backoff_before_attempt(policy, 2, rng), 20);
  EXPECT_EQ(robust::backoff_before_attempt(policy, 3, rng), 40);
  EXPECT_EQ(robust::backoff_before_attempt(policy, 4, rng), 40);  // clamped
}

TEST(RetryPolicyTest, ZeroInitialBackoffNeverSleeps) {
  RetryPolicy policy;  // initial_backoff_ms = 0
  Rng rng(1);
  for (int attempt = 0; attempt < 6; ++attempt)
    EXPECT_EQ(robust::backoff_before_attempt(policy, attempt, rng), 0);
}

TEST(RetryPolicyTest, JitterStaysWithinBounds) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 100;
  policy.max_backoff_ms = 1000;
  policy.jitter = 0.5;
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::int64_t b = robust::backoff_before_attempt(policy, 1, rng);
    EXPECT_GE(b, 50);
    EXPECT_LE(b, 150);
  }
}

TEST(RetryStateTest, RunsExactlyMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryState state(policy, 42);
  int attempts = 0;
  while (state.next_attempt()) ++attempts;
  EXPECT_EQ(attempts, 5);
  EXPECT_EQ(state.total_backoff_ms(), 0);  // zero backoff: no sleeping
}

TEST(RetryStateTest, ZeroMaxAttemptsNeverStarts) {
  RetryPolicy policy;
  policy.max_attempts = 0;
  RetryState state(policy, 42);
  EXPECT_FALSE(state.next_attempt());
}

// ----------------------------------------------------------- fault plan ----

TEST(FaultPlanTest, ParsesFullSpec) {
  std::string error;
  auto plan = robust::parse_fault_plan(
      "delay:t=1,op=2,ms=5000,steps=3;drop-releases;classify-throw=0;"
      "truncate=0.9;garble=2",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->delays.size(), 1u);
  EXPECT_EQ(plan->delays[0].thread, 1);
  EXPECT_EQ(plan->delays[0].at_op, 2);
  EXPECT_EQ(plan->delays[0].wall_ms, 5000);
  EXPECT_EQ(plan->delays[0].steps, 3);
  EXPECT_TRUE(plan->drop_force_releases);
  EXPECT_EQ(plan->classify_throw_cycle, 0);
  EXPECT_DOUBLE_EQ(plan->truncate_fraction, 0.9);
  EXPECT_EQ(plan->garble_line, 2);
  EXPECT_TRUE(plan->corrupts_trace());
  ASSERT_NE(plan->find_delay(1, 2), nullptr);
  EXPECT_EQ(plan->find_delay(1, 3), nullptr);
  EXPECT_EQ(plan->find_delay(0, 2), nullptr);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(robust::parse_fault_plan("frobnicate", &error).has_value());
  EXPECT_NE(error.find("unknown fault clause"), std::string::npos);
  EXPECT_FALSE(robust::parse_fault_plan("delay:op=2", &error).has_value());
  EXPECT_NE(error.find("t=<thread>"), std::string::npos);
  EXPECT_FALSE(robust::parse_fault_plan("truncate=1.5", &error).has_value());
  EXPECT_FALSE(robust::parse_fault_plan("garble=x", &error).has_value());
}

TEST(FaultPlanTest, ParsesByteLevelAndDetectionClauses) {
  std::string error;
  auto plan = robust::parse_fault_plan(
      "tear=4096;bitflip=3;detect-throw-window=2", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  EXPECT_EQ(plan->io_tear_after, 4096);
  EXPECT_EQ(plan->bitflip_count, 3);
  EXPECT_EQ(plan->detect_throw_window, 2);
  EXPECT_TRUE(plan->corrupts_trace());
  EXPECT_FALSE(plan->faults_execution());

  EXPECT_FALSE(robust::parse_fault_plan("tear=-1", &error).has_value());
  EXPECT_FALSE(robust::parse_fault_plan("bitflip=x", &error).has_value());
  EXPECT_FALSE(
      robust::parse_fault_plan("detect-throw-window=", &error).has_value());
}

TEST(FaultPlanTest, CorruptTraceBytesIsDeterministicInTheSeed) {
  FaultPlan plan;
  plan.bitflip_count = 4;
  const std::string bytes(256, 'x');
  const std::string a = robust::corrupt_trace_bytes(bytes, plan, 7);
  const std::string b = robust::corrupt_trace_bytes(bytes, plan, 7);
  const std::string c = robust::corrupt_trace_bytes(bytes, plan, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, bytes);
  EXPECT_NE(a, c);
  // Flips change bits in place; the size never moves without a tear.
  EXPECT_EQ(a.size(), bytes.size());

  FaultPlan torn = plan;
  torn.io_tear_after = 100;
  EXPECT_EQ(robust::corrupt_trace_bytes(bytes, torn, 7).size(), 100u);
}

TEST(FaultPlanTest, V3ChecksumCatchesASingleBitFlip) {
  // A flipped payload bit in a binary trace must never survive into the
  // salvaged events: the block checksum rejects the whole block, and the
  // diagnostic names it.
  workloads::CollectionsWorkload w = workloads::make_collections_map("HashMap");
  auto trace = sim::record_trace(w.program, 11, 40);
  ASSERT_TRUE(trace.has_value());
  const std::string bytes = trace_to_string(*trace, TraceFormat::kV3);

  FaultPlan plan;
  plan.bitflip_count = 1;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const std::string flipped = robust::corrupt_trace_bytes(bytes, plan, seed);
    if (flipped == bytes) continue;  // flip landed on its own XOR twin
    SalvageReport report = salvage_trace_from_string(flipped);
    if (report.complete) {
      // The flip hit framing the reader rejects wholesale (magic/header);
      // completeness may only be claimed with every event intact.
      EXPECT_EQ(report.trace.events, trace->events) << "seed " << seed;
      continue;
    }
    // Every salvaged event is bit-exact: damaged blocks are dropped whole,
    // never silently altered.
    ASSERT_LE(report.trace.size(), trace->size());
    std::size_t matched = 0;
    for (const Event& e : report.trace.events) {
      while (matched < trace->size() && !(trace->events[matched] == e))
        ++matched;
      ASSERT_LT(matched, trace->size())
          << "seed " << seed << ": salvage produced an event the original "
          << "trace never contained";
      ++matched;
    }
  }
}

TEST(FaultPlanTest, CorruptTraceTextGarblesAndTruncates) {
  FaultPlan plan;
  plan.garble_line = 1;
  std::string text = "line0\nline1\nline2\n";
  std::string garbled = robust::corrupt_trace_text(text, plan);
  EXPECT_NE(garbled.find("corrupted by fault injection"), std::string::npos);
  EXPECT_NE(garbled.find("line0"), std::string::npos);
  EXPECT_EQ(garbled.find("line1"), std::string::npos);

  FaultPlan cut;
  cut.truncate_fraction = 0.5;
  std::string truncated = robust::corrupt_trace_text(text, cut);
  EXPECT_EQ(truncated.size(), text.size() / 2);
}

// ------------------------------------------------------------- watchdog ----

// main starts t1 and joins it; t1 is a single compute op.
sim::Program make_start_join_program() {
  sim::Program p;
  p.name = "start-join";
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  p.start(main, t1, p.site("main.start", 1));
  p.join(main, t1, p.site("main.join", 2));
  p.compute(t1, p.site("t1.work", 1));
  p.finalize();
  return p;
}

TEST(WatchdogTest, TimesOutHungRtTrial) {
  sim::Program p = make_start_join_program();
  FaultPlan fault;
  fault.delays.push_back({/*thread=*/1, /*at_op=*/0, /*wall_ms=*/60'000,
                          /*steps=*/0});

  rt::ExecutorOptions options;
  options.deadline_ms = 250;
  options.fault = &fault;

  auto begin = std::chrono::steady_clock::now();
  sim::RunResult result = rt::execute(p, options);
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - begin)
                        .count();

  // Without the watchdog this run sleeps 60 s; the trial must instead be
  // aborted near the 250 ms deadline, well before the injected stall ends.
  EXPECT_EQ(result.outcome, sim::RunOutcome::kTimeout);
  EXPECT_LT(elapsed_ms, 30'000);
}

TEST(WatchdogTest, CompletedRunIsNotFlaggedByDeadline) {
  sim::Program p = make_start_join_program();
  rt::ExecutorOptions options;
  options.deadline_ms = 60'000;
  sim::RunResult result = rt::execute(p, options);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kCompleted);
}

// Pauses thread 1 at every top-level acquisition and never releases it.
class AlwaysPauseThread1 final : public sim::ScheduleController {
 public:
  bool before_lock(ThreadId t, const ExecIndex&, LockId) override {
    return t == 1;
  }
};

// main starts/joins t1; t1 takes and drops one lock.
sim::Program make_one_lock_program() {
  sim::Program p;
  p.name = "one-lock";
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  LockId l = p.add_lock("L", p.site("alloc", 1));
  p.start(main, t1, p.site("main.start", 1));
  p.join(main, t1, p.site("main.join", 2));
  p.lock(t1, l, p.site("t1.lock", 1));
  p.unlock(t1, l, p.site("t1.unlock", 2));
  p.finalize();
  return p;
}

TEST(WatchdogTest, DroppedForceReleaseTimesOutOnRt) {
  sim::Program p = make_one_lock_program();
  AlwaysPauseThread1 controller;
  FaultPlan fault;
  fault.drop_force_releases = true;

  rt::ExecutorOptions options;
  options.controller = &controller;
  options.fault = &fault;
  options.deadline_ms = 250;

  sim::RunResult result = rt::execute(p, options);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kTimeout);
}

TEST(FaultSimTest, DroppedForceReleaseTimesOutOnSim) {
  sim::Program p = make_one_lock_program();
  AlwaysPauseThread1 controller;
  FaultPlan fault;
  fault.drop_force_releases = true;

  sim::SchedulerOptions options;
  options.controller = &controller;
  options.fault = &fault;

  sim::RandomPolicy policy;
  Rng rng(3);
  sim::RunResult result = sim::run_program(p, policy, rng, options);
  // Virtual time: the wedge is diagnosed immediately, no wall clock involved.
  EXPECT_EQ(result.outcome, sim::RunOutcome::kTimeout);
}

TEST(FaultSimTest, StepDelayConsumesStepsThenCompletes) {
  sim::Program p = make_start_join_program();
  sim::RandomPolicy policy;

  Rng rng_plain(5);
  sim::RunResult plain = sim::run_program(p, policy, rng_plain, {});
  ASSERT_EQ(plain.outcome, sim::RunOutcome::kCompleted);

  FaultPlan fault;
  fault.delays.push_back({/*thread=*/1, /*at_op=*/0, /*wall_ms=*/0,
                          /*steps=*/25});
  sim::SchedulerOptions options;
  options.fault = &fault;
  Rng rng_fault(5);
  sim::RunResult stalled = sim::run_program(p, policy, rng_fault, options);
  EXPECT_EQ(stalled.outcome, sim::RunOutcome::kCompleted);
  EXPECT_GE(stalled.steps, plain.steps + 25);
}

// ------------------------------------------------------------- salvage ----

TEST(SalvageTest, TruncatedTraceStillDetectsSeededCycle) {
  auto fig = workloads::make_figure4();
  auto trace = sim::record_trace(fig.program, 5);
  ASSERT_TRUE(trace.has_value());
  Detection full = detect(*trace);
  ASSERT_GE(full.cycles.size(), 1u);

  FaultPlan fault;
  fault.truncate_fraction = 0.9;  // crash-style mid-line cut, footer lost
  std::string damaged =
      robust::corrupt_trace_text(trace_to_string(*trace), fault);

  // The strict reader must reject the damaged text...
  std::string error;
  EXPECT_FALSE(trace_from_string(damaged, &error).has_value());

  // ...while salvage recovers a prefix that still contains the cycle.
  SalvageReport salvaged = salvage_trace_from_string(damaged);
  EXPECT_FALSE(salvaged.complete);
  EXPECT_FALSE(salvaged.diagnostics.empty());
  EXPECT_LT(salvaged.trace.size(), trace->size());
  Detection partial = detect(salvaged.trace);
  EXPECT_GE(partial.cycles.size(), 1u);
}

// ---------------------------------------------------- per-cycle isolation ----

TEST(IsolationTest, ThrowingClassificationDegradesOnlyThatCycle) {
  auto w = workloads::make_collections_map("HashMap", 2);
  FaultPlan fault;
  fault.classify_throw_cycle = 0;

  WolfOptions options;
  options.seed = 11;
  options.replay.attempts = 10;
  options.fault = &fault;
  WolfReport report = run_wolf(w.program, options);
  ASSERT_TRUE(report.trace_recorded);
  ASSERT_GE(report.cycles.size(), 2u);

  // The injected cycle is degraded with the reason recorded...
  EXPECT_EQ(report.cycles[0].classification, Classification::kUnknown);
  ASSERT_TRUE(report.cycles[0].degraded());
  EXPECT_NE(report.cycles[0].failure_reason.find("fault injection"),
            std::string::npos);

  // ...while the others classify normally, including at least one
  // reproduction.
  bool any_normal = false;
  for (std::size_t c = 1; c < report.cycles.size(); ++c) {
    EXPECT_FALSE(report.cycles[c].degraded());
    if (report.cycles[c].classification != Classification::kUnknown)
      any_normal = true;
  }
  EXPECT_TRUE(any_normal);
  EXPECT_GE(report.count_cycles(Classification::kReproduced), 1);

  // The summary surfaces the degradation.
  EXPECT_NE(report.summary(w.program.sites()).find("degraded"),
            std::string::npos);
}

TEST(IsolationTest, ClassifyRunMapsTimeoutOutcome) {
  sim::RunResult run;
  run.outcome = sim::RunOutcome::kTimeout;
  EXPECT_EQ(classify_run(run, {}), ReplayOutcome::kTimeout);
  EXPECT_STREQ(to_string(ReplayOutcome::kTimeout), "timeout");

  ReplayStats stats;
  record_outcome(stats, ReplayOutcome::kTimeout);
  record_outcome(stats, ReplayOutcome::kNoDeadlock);
  EXPECT_EQ(stats.attempts, 2);
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.no_deadlocks, 1);
  EXPECT_FALSE(stats.reproduced());
}

}  // namespace
}  // namespace wolf
