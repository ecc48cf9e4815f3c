// Tests for the OS-thread substrate: trace structure vs the virtual-thread
// scheduler, deadlock detection + in-process recovery, replay and fuzzing on
// real threads, and the uninstrumented mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/detector.hpp"
#include "core/generator.hpp"
#include "rt/executor.hpp"
#include "rt/replay_rt.hpp"
#include "workloads/cache4j.hpp"
#include "workloads/collections.hpp"
#include "workloads/paper_examples.hpp"

namespace wolf {
namespace {

TEST(RtExecutorTest, CompletesDeadlockFreeProgram) {
  sim::Program p = workloads::make_cache4j();
  sim::RunResult result = rt::execute(p);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kCompleted);
}

TEST(RtExecutorTest, RecordsWellFormedTrace) {
  sim::Program p = workloads::make_cache4j();
  auto trace = rt::record_trace_rt(p, 7);
  ASSERT_TRUE(trace.has_value());

  std::map<ThreadId, bool> begun;
  std::map<std::pair<ThreadId, LockId>, int> depth;
  for (std::size_t i = 0; i < trace->events.size(); ++i) {
    const Event& e = trace->events[i];
    EXPECT_EQ(e.seq, i);  // dense and in emission order
    if (e.kind == EventKind::kThreadBegin) {
      EXPECT_FALSE(begun[e.thread]);
      begun[e.thread] = true;
    } else {
      EXPECT_TRUE(begun[e.thread]);
    }
    if (e.kind == EventKind::kLockAcquire)
      ++depth[std::make_pair(e.thread, e.lock)];
    if (e.kind == EventKind::kLockRelease)
      --depth[std::make_pair(e.thread, e.lock)];
  }
  for (const auto& [key, d] : depth) EXPECT_EQ(d, 0);
}

TEST(RtExecutorTest, TraceTupleMultisetMatchesSimSubstrate) {
  // Same program, same instrumentation: the D_σ tuples (which are schedule-
  // independent for branch-free programs) must agree across substrates.
  auto fig = workloads::make_figure4();
  auto sim_trace = sim::record_trace(fig.program, 5);
  auto rt_trace = rt::record_trace_rt(fig.program, 5);
  ASSERT_TRUE(sim_trace.has_value());
  ASSERT_TRUE(rt_trace.has_value());

  auto tuple_keys = [](const Trace& trace) {
    LockDependency dep = LockDependency::from_trace(trace);
    std::multiset<std::string> keys;
    for (const LockTuple& t : dep.tuples) keys.insert(t.to_string());
    return keys;
  };
  EXPECT_EQ(tuple_keys(*sim_trace), tuple_keys(*rt_trace));
}

TEST(RtExecutorTest, DetectsAndRecoversFromRealDeadlock) {
  // AB/BA with no padding: the OS-thread race deadlocks some of the time;
  // drive it with the replayer to make it deterministic instead of flaky.
  auto w = workloads::make_collections_list("ArrayList");
  auto trace = rt::record_trace_rt(w.program, 17);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  ASSERT_EQ(det.cycles.size(), 9u);

  GeneratorResult gen = generate(det.cycles[0], det.dep);
  ASSERT_TRUE(gen.feasible);
  ReplayOptions options;
  options.attempts = 10;
  options.seed = 3;
  ReplayStats stats =
      rt::replay_rt(w.program, det.cycles[0], det.dep, gen.gs, options);
  EXPECT_TRUE(stats.reproduced());
}

TEST(RtExecutorTest, RtDetectionMatchesSimDetection) {
  auto w = workloads::make_collections_map("HashMap");
  auto rt_trace = rt::record_trace_rt(w.program, 23);
  ASSERT_TRUE(rt_trace.has_value());
  Detection det = detect(*rt_trace);
  EXPECT_EQ(det.cycles.size(), 4u);
  EXPECT_EQ(det.defects.size(), 3u);
}

TEST(RtExecutorTest, FuzzerRunsOnRealThreads) {
  auto fig = workloads::make_figure9();
  auto trace = rt::record_trace_rt(fig.program, 17);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  ASSERT_FALSE(det.cycles.empty());
  // Any outcome is acceptable; the trial must terminate and be classified.
  ReplayTrial trial =
      rt::fuzz_once_rt(fig.program, det.cycles[0], det.dep, 5);
  EXPECT_NE(trial.outcome, ReplayOutcome::kStepLimit);
}

TEST(RtExecutorTest, UninstrumentedModeEmitsNothing) {
  sim::Program p = workloads::make_cache4j();
  TraceRecorder recorder;
  rt::ExecutorOptions options;
  options.instrument = false;
  options.sink = &recorder;
  sim::RunResult result = rt::execute(p, options);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kCompleted);
  EXPECT_TRUE(recorder.trace().empty());
}

TEST(RtExecutorTest, UninstrumentedDeadlockStillDetected) {
  // Wait-for-graph detection stays on without instrumentation, so a
  // deadlocking program cannot hang the process. Use a deterministic
  // deadlock: both threads start, each takes its first lock, gated by flags
  // so the interleaving is forced.
  sim::Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  LockId b = p.add_lock("B", p.site("alloc", 2));
  int fa = p.add_flag();
  int fb = p.add_flag();
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  ThreadId t2 = p.add_thread("t2");

  p.lock(t1, a, p.site("t1.a", 1));
  p.set_flag(t1, fa, 1, p.site("t1.sig", 2));
  int spin1 = p.compute(t1, p.site("t1.spin", 3));
  p.jump_if_flag(t1, fb, 0, spin1, p.site("t1.wait", 4));
  p.lock(t1, b, p.site("t1.b", 5));
  p.unlock(t1, b, p.site("t1.ub", 6));
  p.unlock(t1, a, p.site("t1.ua", 7));

  p.lock(t2, b, p.site("t2.b", 1));
  p.set_flag(t2, fb, 1, p.site("t2.sig", 2));
  int spin2 = p.compute(t2, p.site("t2.spin", 3));
  p.jump_if_flag(t2, fa, 0, spin2, p.site("t2.wait", 4));
  p.lock(t2, a, p.site("t2.a", 5));
  p.unlock(t2, a, p.site("t2.ua", 6));
  p.unlock(t2, b, p.site("t2.ub", 7));

  p.start(main, t1, p.site("spawn", 1));
  p.start(main, t2, p.site("spawn", 2));
  p.join(main, t1, p.site("join", 3));
  p.join(main, t2, p.site("join", 4));
  p.finalize();

  rt::ExecutorOptions options;
  options.instrument = false;
  sim::RunResult result = rt::execute(p, options);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kDeadlock);
  EXPECT_EQ(result.deadlock_cycle.size(), 2u);
}

TEST(RtExecutorTest, ManyThreadsStress) {
  workloads::Cache4jConfig config;
  config.writers = 6;
  config.readers = 6;
  config.ops_per_thread = 30;
  sim::Program p = workloads::make_cache4j(config);
  for (int round = 0; round < 3; ++round) {
    TraceRecorder recorder;
    rt::ExecutorOptions options;
    options.sink = &recorder;
    options.seed = static_cast<std::uint64_t>(round);
    sim::RunResult result = rt::execute(p, options);
    EXPECT_EQ(result.outcome, sim::RunOutcome::kCompleted);
    EXPECT_GT(recorder.trace().size(), 100u);
  }
}

TEST(RtExecutorTest, RepeatedTrialsAreIndependent) {
  // Back-to-back deadlock + recovery cycles must not leak state between
  // executions (each execute() builds a fresh Executor).
  auto fig = workloads::make_figure9();
  auto trace = rt::record_trace_rt(fig.program, 17);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  std::vector<SiteId> wanted{det.cycles[0].tuple_idx.size() >= 2
                                 ? signature_of(det.cycles[0], det.dep)[0]
                                 : kInvalidSite};
  GeneratorResult gen = generate(det.cycles[0], det.dep);
  if (!gen.feasible) GTEST_SKIP();
  for (int i = 0; i < 5; ++i) {
    ReplayTrial trial = rt::replay_once_rt(fig.program, det.cycles[0],
                                           det.dep, gen.gs,
                                           static_cast<std::uint64_t>(i));
    EXPECT_NE(trial.outcome, ReplayOutcome::kStepLimit);
  }
}

}  // namespace
}  // namespace wolf
