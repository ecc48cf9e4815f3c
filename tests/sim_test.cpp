// Tests for the virtual-thread scheduler: program validation, lock
// semantics (re-entrancy, blocking, waking), start/join, flags and jumps,
// wait-for-cycle diagnosis, determinism, controller interaction, the step
// limit, and the no-progress rule that ends spins early.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/detector.hpp"
#include "core/generator.hpp"
#include "core/pruner.hpp"
#include "core/replayer.hpp"
#include "obs/counters.hpp"
#include "robust/fault.hpp"
#include "sim/scheduler.hpp"
#include "support/check.hpp"
#include "wolf.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

namespace wolf {
namespace {

using sim::OpCode;
using sim::Program;
using sim::RunOutcome;
using sim::RunResult;
using sim::Scheduler;
using sim::SchedulerOptions;
using sim::ThreadStatus;

// ---------------------------------------------------------------- Program

TEST(ProgramTest, FinalizeRejectsUnstartedThread) {
  Program p;
  p.add_thread("main");
  p.add_thread("orphan");
  EXPECT_THROW(p.finalize(), CheckFailure);
}

TEST(ProgramTest, FinalizeRejectsDoubleStart) {
  Program p;
  ThreadId main = p.add_thread("main");
  ThreadId child = p.add_thread("child");
  SiteId s = p.site("spawn", 1);
  p.start(main, child, s);
  p.start(main, child, s);
  EXPECT_THROW(p.finalize(), CheckFailure);
}

TEST(ProgramTest, FinalizeRejectsBadLock) {
  Program p;
  ThreadId main = p.add_thread("main");
  sim::Op op;
  op.code = OpCode::kLock;
  op.lock = 7;  // no such lock
  op.site = p.site("bad", 1);
  p.emit(main, op);
  EXPECT_THROW(p.finalize(), CheckFailure);
}

TEST(ProgramTest, FinalizeRejectsBadJumpTarget) {
  Program p;
  ThreadId main = p.add_thread("main");
  p.jump(main, 99, p.site("jump", 1));
  EXPECT_THROW(p.finalize(), CheckFailure);
}

TEST(ProgramTest, FinalizeDerivesParentAndCreateSite) {
  Program p;
  ThreadId main = p.add_thread("main");
  ThreadId child = p.add_thread("child");
  SiteId s = p.site("spawn", 1);
  p.start(main, child, s);
  p.join(main, child, p.site("join", 1));
  p.finalize();
  EXPECT_EQ(p.thread(child).parent, main);
  EXPECT_EQ(p.thread(child).create_site, s);
  EXPECT_EQ(p.thread(main).parent, kInvalidThread);
}

TEST(ProgramTest, PatchJumpValidatesOpKind) {
  Program p;
  ThreadId main = p.add_thread("main");
  p.compute(main, p.site("c", 1));
  EXPECT_THROW(p.patch_jump(main, 0, 0), CheckFailure);
}

// ---------------------------------------------------------------- Scheduler

Program two_thread_abba() {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  LockId b = p.add_lock("B", p.site("alloc", 2));
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  ThreadId t2 = p.add_thread("t2");
  p.lock(t1, a, p.site("t1.a", 1));
  p.lock(t1, b, p.site("t1.b", 2));
  p.unlock(t1, b, p.site("t1.ub", 3));
  p.unlock(t1, a, p.site("t1.ua", 4));
  p.lock(t2, b, p.site("t2.b", 1));
  p.lock(t2, a, p.site("t2.a", 2));
  p.unlock(t2, a, p.site("t2.ua", 3));
  p.unlock(t2, b, p.site("t2.ub", 4));
  p.start(main, t1, p.site("spawn", 1));
  p.start(main, t2, p.site("spawn", 1));
  p.join(main, t1, p.site("join", 1));
  p.join(main, t2, p.site("join", 1));
  p.finalize();
  return p;
}

TEST(SchedulerTest, RunsSingleThreadToCompletion) {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  ThreadId main = p.add_thread("main");
  p.lock(main, a, p.site("l", 1));
  p.compute(main, p.site("c", 2));
  p.unlock(main, a, p.site("u", 3));
  p.finalize();

  sim::RoundRobinPolicy policy;
  Rng rng(1);
  RunResult result = sim::run_program(p, policy, rng);
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

TEST(SchedulerTest, EmitsWellFormedTrace) {
  Program p = two_thread_abba();
  auto trace = sim::record_trace(p, 3);
  ASSERT_TRUE(trace.has_value());
  // Begin precedes every other event of a thread; acquire/release balance.
  std::map<ThreadId, bool> begun;
  std::map<std::pair<ThreadId, LockId>, int> depth;
  for (const Event& e : trace->events) {
    if (e.kind == EventKind::kThreadBegin) {
      EXPECT_FALSE(begun[e.thread]);
      begun[e.thread] = true;
    } else {
      EXPECT_TRUE(begun[e.thread]) << e.to_string();
    }
    if (e.kind == EventKind::kLockAcquire)
      ++depth[std::make_pair(e.thread, e.lock)];
    if (e.kind == EventKind::kLockRelease) {
      int& d = depth[std::make_pair(e.thread, e.lock)];
      --d;
      EXPECT_GE(d, 0);
    }
  }
  for (const auto& [key, d] : depth) EXPECT_EQ(d, 0);
}

TEST(SchedulerTest, SameSeedSameTrace) {
  Program p = two_thread_abba();
  auto t1 = sim::record_trace(p, 12345);
  auto t2 = sim::record_trace(p, 12345);
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t1->events, t2->events);
}

TEST(SchedulerTest, DeadlockDiagnosedWithCycleDetails) {
  Program p = two_thread_abba();
  // Force the deadlock with a fixed interleaving: t1 locks A, t2 locks B,
  // then both block.
  SchedulerOptions options;
  Scheduler sched(p, options);
  // main: spawn t1, spawn t2 (threads 1 and 2 become enabled).
  sched.step(0);
  sched.step(0);
  sched.step(1);  // t1 locks A
  sched.step(2);  // t2 locks B
  sched.step(1);  // t1 blocks on B
  EXPECT_FALSE(sched.deadlock_diagnosed());
  sched.step(2);  // t2 blocks on A -> cycle
  EXPECT_TRUE(sched.deadlock_diagnosed());
  RunResult result = sched.result();
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlock);
  ASSERT_EQ(result.deadlock_cycle.size(), 2u);
  std::set<ThreadId> blocked;
  for (const auto& b : result.deadlock_cycle) blocked.insert(b.thread);
  EXPECT_EQ(blocked, (std::set<ThreadId>{1, 2}));
  EXPECT_EQ(result.all_blocked.size(), 2u);
}

TEST(SchedulerTest, BlockedThreadWakesOnRelease) {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  p.lock(main, a, p.site("m.l", 1));
  p.start(main, t1, p.site("m.s", 2));
  p.compute(main, p.site("m.c", 3));
  p.unlock(main, a, p.site("m.u", 4));
  p.join(main, t1, p.site("m.j", 5));
  p.lock(t1, a, p.site("t1.l", 1));
  p.unlock(t1, a, p.site("t1.u", 2));
  p.finalize();

  Scheduler sched(p, {});
  sched.step(0);  // main locks A
  sched.step(0);  // main starts t1
  sched.step(1);  // t1 blocks on A
  EXPECT_EQ(sched.status(1), ThreadStatus::kBlockedOnLock);
  sched.step(0);  // compute
  sched.step(0);  // unlock -> t1 wakes
  EXPECT_EQ(sched.status(1), ThreadStatus::kEnabled);
  std::vector<ThreadId> enabled;
  while (!sched.finished()) {
    sched.enabled_threads(enabled);
    ASSERT_FALSE(enabled.empty());
    sched.step(enabled.front());
  }
  EXPECT_TRUE(sched.all_terminated());
}

TEST(SchedulerTest, ReentrantLockNeverBlocksAndEmitsOnce) {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  ThreadId main = p.add_thread("main");
  p.lock(main, a, p.site("outer", 1));
  p.lock(main, a, p.site("inner", 2));
  p.unlock(main, a, p.site("iu", 3));
  p.unlock(main, a, p.site("ou", 4));
  p.finalize();

  TraceRecorder recorder;
  SchedulerOptions options;
  options.sink = &recorder;
  sim::RoundRobinPolicy policy;
  Rng rng(1);
  RunResult result = sim::run_program(p, policy, rng, options);
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  int acquires = 0, releases = 0;
  for (const Event& e : recorder.trace().events) {
    acquires += e.kind == EventKind::kLockAcquire;
    releases += e.kind == EventKind::kLockRelease;
  }
  EXPECT_EQ(acquires, 1);
  EXPECT_EQ(releases, 1);
}

TEST(SchedulerTest, UnlockingUnownedLockThrows) {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  ThreadId main = p.add_thread("main");
  p.unlock(main, a, p.site("u", 1));
  p.finalize();
  Scheduler sched(p, {});
  EXPECT_THROW(sched.step(0), CheckFailure);
}

TEST(SchedulerTest, TerminatingWhileHoldingLockThrows) {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  ThreadId main = p.add_thread("main");
  p.lock(main, a, p.site("l", 1));
  p.finalize();
  Scheduler sched(p, {});
  EXPECT_THROW(sched.step(0), CheckFailure);
}

TEST(SchedulerTest, FlagsAndJumpsImplementLoops) {
  Program p;
  int flag = p.add_flag();
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  // t1 spins until the flag is set.
  int loop = p.compute(t1, p.site("spin", 1));
  p.jump_if_flag(t1, flag, 0, loop, p.site("check", 2));
  // main sets it after starting t1.
  p.start(main, t1, p.site("spawn", 1));
  p.compute(main, p.site("pad", 2));
  p.set_flag(main, flag, 1, p.site("set", 3));
  p.join(main, t1, p.site("join", 4));
  p.finalize();

  sim::RandomPolicy policy;
  Rng rng(9);
  RunResult result = sim::run_program(p, policy, rng);
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

// The two spin-rule counters, read around `body`.
struct SpinCounts {
  std::uint64_t force_releases = 0;
  std::uint64_t livelock_stops = 0;
};

template <class Body>
SpinCounts count_spin_rule(Body&& body) {
  obs::set_counters_enabled(true);
  const obs::CounterSnapshot before =
      obs::CounterRegistry::instance().snapshot();
  body();
  const obs::CounterSnapshot d =
      obs::delta(obs::CounterRegistry::instance().snapshot(), before);
  obs::set_counters_enabled(false);
  return {d.value("sim.spin_force_releases"), d.value("sim.livelock_stops")};
}

TEST(SchedulerTest, StepLimitReported) {
  // A loop that writes a flag every iteration makes progress, so only the
  // cap ends it. A bare spin with nothing paused is a livelock: the run
  // ends as soon as the spin is certain, whatever the cap.
  struct Case {
    bool writes_flag;
    std::uint64_t max_steps;
    std::uint64_t want_steps_at_most;
    std::uint64_t want_livelock_stops;
  };
  for (const Case& c : {Case{true, 100, 100, 0}, Case{false, 100, 8, 1},
                        Case{false, 1'000'000, 8, 1}}) {
    Program p;
    ThreadId main = p.add_thread("main");
    int flag = p.add_flag();
    int loop = p.compute(main, p.site("spin", 1));
    if (c.writes_flag) p.set_flag(main, flag, 1, p.site("set", 2));
    p.jump(main, loop, p.site("again", 3));
    p.finalize();

    SchedulerOptions options;
    options.max_steps = c.max_steps;
    sim::RoundRobinPolicy policy;
    Rng rng(1);
    RunResult result;
    const SpinCounts counts = count_spin_rule(
        [&] { result = sim::run_program(p, policy, rng, options); });
    SCOPED_TRACE(testing::Message() << "writes_flag=" << c.writes_flag
                                    << " max_steps=" << c.max_steps);
    EXPECT_EQ(result.outcome, RunOutcome::kStepLimit);
    EXPECT_LE(result.steps, c.want_steps_at_most);
    if (c.writes_flag) {
      EXPECT_EQ(result.steps, c.max_steps);
    }
    EXPECT_EQ(counts.livelock_stops, c.want_livelock_stops);
    EXPECT_EQ(counts.force_releases, 0u);
  }
}

// Pauses `victim` at its first top-level acquisition and never releases it:
// only a forced release lets it run again.
class PauseFirstLock final : public sim::ScheduleController {
 public:
  explicit PauseFirstLock(ThreadId victim) : victim_(victim) {}
  bool before_lock(ThreadId t, const ExecIndex&, LockId) override {
    if (t != victim_ || paused_once_) return false;
    paused_once_ = true;
    return true;
  }
  ThreadId force_release(const std::vector<ThreadId>& paused,
                         Rng& rng) override {
    ++forced_;
    return ScheduleController::force_release(paused, rng);
  }
  int forced() const { return forced_; }

 private:
  ThreadId victim_;
  bool paused_once_ = false;
  int forced_ = 0;
};

// main (thread 0) starts a writer (thread 1: lock A; flag = 1; unlock A)
// and a reader (thread 2) that loops until the flag is set. The reader's
// loop body locks and unlocks B when `body_locks`, else it only computes.
constexpr ThreadId kWriter = 1;

Program flag_handoff(bool body_locks) {
  Program p;
  LockId a = p.add_lock("A", p.site("alloc", 1));
  LockId b = p.add_lock("B", p.site("alloc", 2));
  int flag = p.add_flag();
  ThreadId main = p.add_thread("main");
  ThreadId w = p.add_thread("writer");
  ThreadId r = p.add_thread("reader");
  p.lock(w, a, p.site("w.lock", 1));
  p.set_flag(w, flag, 1, p.site("w.set", 2));
  p.unlock(w, a, p.site("w.unlock", 3));
  int loop;
  if (body_locks) {
    loop = p.lock(r, b, p.site("r.lock", 1));
    p.unlock(r, b, p.site("r.unlock", 2));
  } else {
    loop = p.compute(r, p.site("r.poll", 1));
  }
  p.jump_if_flag(r, flag, 0, loop, p.site("r.check", 3));
  p.start(main, w, p.site("spawn", 1));
  p.start(main, r, p.site("spawn", 2));
  p.join(main, w, p.site("join", 3));
  p.join(main, r, p.site("join", 4));
  p.finalize();
  WOLF_CHECK(w == kWriter);
  return p;
}

TEST(SchedulerTest, SpinOnPausedWriterForceReleasesTheWriter) {
  // The reader busy-waits on a flag only the paused writer can set. It
  // stays enabled, so "no thread is enabled" never holds; the spin rule
  // force-releases the writer instead of spinning to the cap. When an
  // injected fault drops force-releases, the same spin ends as kTimeout.
  Program p = flag_handoff(/*body_locks=*/false);
  robust::FaultPlan drop;
  drop.drop_force_releases = true;
  const robust::FaultPlan* const faults[] = {nullptr, &drop};
  for (const robust::FaultPlan* fault : faults) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      PauseFirstLock controller(kWriter);
      SchedulerOptions options;
      options.controller = &controller;
      options.fault = fault;
      options.max_steps = 1'000'000;
      sim::RandomPolicy policy;
      Rng rng(seed);
      RunResult result;
      const SpinCounts counts = count_spin_rule(
          [&] { result = sim::run_program(p, policy, rng, options); });
      SCOPED_TRACE(testing::Message() << "seed " << seed << " drop "
                                      << (fault != nullptr));
      EXPECT_LT(result.steps, 100u);
      EXPECT_EQ(counts.livelock_stops, 0u);
      if (fault == nullptr) {
        EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
        EXPECT_EQ(controller.forced(), 1);
        EXPECT_EQ(counts.force_releases, 1u);
      } else {
        EXPECT_EQ(result.outcome, RunOutcome::kTimeout);
        EXPECT_EQ(controller.forced(), 0);
        EXPECT_EQ(counts.force_releases, 0u);
      }
    }
  }
}

TEST(SchedulerTest, LockingLoopIsNeverSpinning) {
  // The reader's loop locks and unlocks every iteration: shared state the
  // controller sees changes, so the loop is progress, never a spin, and
  // the paused writer stays paused until the cap.
  Program p = flag_handoff(/*body_locks=*/true);
  PauseFirstLock controller(kWriter);
  SchedulerOptions options;
  options.controller = &controller;
  options.max_steps = 20'000;
  Scheduler sched(p, options);
  sim::RandomPolicy policy;
  Rng rng(5);
  std::vector<ThreadId> enabled;
  const SpinCounts counts = count_spin_rule([&] {
    while (!sched.finished() && sched.steps_executed() < 5'000) {
      sched.drain_releases();
      sched.enabled_threads(enabled);
      ASSERT_FALSE(enabled.empty());
      for (ThreadId t : enabled) ASSERT_FALSE(sched.spinning(t)) << t;
      sched.step(policy.pick(enabled, rng));
    }
    RunResult result = sim::run(sched, policy, rng);
    EXPECT_EQ(result.outcome, RunOutcome::kStepLimit);
    EXPECT_EQ(result.steps, options.max_steps);
  });
  EXPECT_EQ(controller.forced(), 0);
  EXPECT_EQ(sched.status(kWriter), ThreadStatus::kPaused);
  EXPECT_EQ(counts.force_releases, 0u);
  EXPECT_EQ(counts.livelock_stops, 0u);
}

// Wraps the Replayer's controller and, each time the spin rule fires,
// checks that the rule was exact: a copy of the scheduler stepped
// round-robin for another 10^4 steps emits no event and changes no thread
// status or flag.
class SpinOracle final : public sim::ScheduleController {
 public:
  explicit SpinOracle(sim::ScheduleController& inner) : inner_(inner) {}
  void attach(const Scheduler* sched) { sched_ = sched; }

  bool before_lock(ThreadId t, const ExecIndex& idx, LockId lock) override {
    if (checking_) {
      ++copy_events_;
      return false;
    }
    return inner_.before_lock(t, idx, lock);
  }
  void on_event(const Event& e) override {
    if (checking_) {
      ++copy_events_;
      return;
    }
    inner_.on_event(e);
  }
  std::vector<ThreadId> take_released() override {
    return checking_ ? std::vector<ThreadId>{} : inner_.take_released();
  }
  ThreadId force_release(const std::vector<ThreadId>& paused,
                         Rng& rng) override {
    sched_->enabled_threads(enabled_);
    if (!enabled_.empty()) check(*sched_);  // fired by the spin rule
    return inner_.force_release(paused, rng);
  }

  // Called for a run the rule ended early, and for every forced release
  // the rule made.
  void check(const Scheduler& fired) {
    ++checks_;
    Scheduler copy = fired;
    const Program& p = copy.program();
    std::vector<ThreadStatus> statuses;
    for (ThreadId t = 0; t < p.thread_count(); ++t)
      statuses.push_back(copy.status(t));
    std::vector<int> flags;
    for (int f = 0; f < p.flag_count(); ++f)
      flags.push_back(copy.flag_value(f));

    checking_ = true;
    copy_events_ = 0;
    sim::RoundRobinPolicy round_robin;
    Rng unused(0);
    std::vector<ThreadId> enabled;
    for (int i = 0; i < 10'000 && !copy.finished(); ++i) {
      copy.enabled_threads(enabled);
      ASSERT_FALSE(enabled.empty());
      copy.step(round_robin.pick(enabled, unused));
    }
    checking_ = false;

    EXPECT_EQ(copy_events_, 0);
    EXPECT_FALSE(copy.finished());
    for (ThreadId t = 0; t < p.thread_count(); ++t)
      EXPECT_EQ(copy.status(t), statuses[static_cast<std::size_t>(t)]) << t;
    for (int f = 0; f < p.flag_count(); ++f)
      EXPECT_EQ(copy.flag_value(f), flags[static_cast<std::size_t>(f)]) << f;
  }
  int checks() const { return checks_; }

 private:
  sim::ScheduleController& inner_;
  const Scheduler* sched_ = nullptr;
  std::vector<ThreadId> enabled_;
  bool checking_ = false;
  int copy_events_ = 0;
  int checks_ = 0;
};

TEST(SchedulerTest, SpinRuleIsExactOnTheSuitesReplayTrials) {
  // The suite's replay trials as the pipeline runs them (seed 2014, six
  // attempts, the replay seed chain), each driven through SpinOracle.
  int jigsaw_checks = 0, total_checks = 0, trials = 0;
  for (const workloads::Benchmark& b : workloads::standard_suite()) {
    Config cfg;
    cfg.jobs = 1;
    cfg.replay.attempts = 6;
    cfg.max_steps = b.max_steps;
    const WolfOptions o = cfg.wolf_options();
    auto trace = sim::record_trace(b.program, o.seed, o.record_attempts,
                                   o.max_steps);
    ASSERT_TRUE(trace.has_value()) << b.name;
    const Detection det = detect(*trace, o.detector);
    const DependencyIndex index = DependencyIndex::build(det.dep);
    std::uint64_t replay_seed = mix64(o.seed ^ 0x57a7e5ULL);
    for (const PotentialDeadlock& cycle : det.cycles) {
      if (is_false(prune_cycle(cycle, det.dep, det.clocks))) continue;
      const GeneratorResult gen = generate(cycle, det.dep, index);
      if (!gen.feasible) continue;
      replay_seed = mix64(replay_seed);
      Rng seeds(replay_seed);
      std::set<ThreadId> monitored;
      for (std::size_t i : cycle.tuple_idx)
        monitored.insert(det.dep.tuples[i].thread);
      for (int attempt = 0; attempt < o.replay.attempts; ++attempt) {
        const std::uint64_t seed = seeds();
        ReplayController replayer(gen.gs, monitored);
        SpinOracle oracle(replayer);
        SchedulerOptions options;
        options.controller = &oracle;
        options.max_steps = o.max_steps;
        Scheduler sched(b.program, options);
        oracle.attach(&sched);
        sim::RandomPolicy policy;
        Rng rng(seed);
        const RunResult run = sim::run(sched, policy, rng);
        if (run.outcome == RunOutcome::kStepLimit && run.steps < o.max_steps)
          oracle.check(sched);  // a livelock stop
        SCOPED_TRACE(testing::Message() << b.name << " trial " << trials);
        EXPECT_LT(run.steps, o.max_steps);

        // The oracle's loop is replay_once's.
        const ReplayTrial same =
            replay_once(b.program, cycle, det.dep, gen.gs, seed, o.max_steps);
        const ReplayOutcome outcome =
            classify_run(run, expected_sites(cycle, det.dep));
        EXPECT_EQ(same.outcome, outcome);
        EXPECT_EQ(same.run.steps, run.steps);

        ++trials;
        total_checks += oracle.checks();
        if (b.name == "Jigsaw") jigsaw_checks += oracle.checks();
        if (outcome == ReplayOutcome::kReproduced) break;
      }
    }
  }
  RecordProperty("trials", trials);
  RecordProperty("spin_rule_checks", total_checks);
  RecordProperty("jigsaw_spin_rule_checks", jigsaw_checks);
  EXPECT_GT(trials, 0);
  EXPECT_GT(jigsaw_checks, 0);
}

TEST(SchedulerTest, JoinStallWithoutLockCycleIsDeadlock) {
  // Two threads joining each other: no lock cycle, but nothing can run.
  Program p;
  ThreadId main = p.add_thread("main");
  ThreadId t1 = p.add_thread("t1");
  ThreadId t2 = p.add_thread("t2");
  p.join(t1, t2, p.site("t1.join", 1));
  p.join(t2, t1, p.site("t2.join", 1));
  p.start(main, t1, p.site("spawn", 1));
  p.start(main, t2, p.site("spawn", 2));
  p.join(main, t1, p.site("join", 3));
  p.finalize();

  sim::RandomPolicy policy;
  Rng rng(4);
  RunResult result = sim::run_program(p, policy, rng);
  EXPECT_EQ(result.outcome, RunOutcome::kDeadlock);
  EXPECT_TRUE(result.deadlock_cycle.empty());
}

TEST(SchedulerTest, StateHashDistinguishesProgress) {
  Program p = two_thread_abba();
  Scheduler a(p, {});
  Scheduler b(p, {});
  EXPECT_EQ(a.state_hash(), b.state_hash());
  a.step(0);
  EXPECT_NE(a.state_hash(), b.state_hash());
  b.step(0);
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

TEST(SchedulerTest, CopiedSchedulerDivergesIndependently) {
  Program p = two_thread_abba();
  Scheduler a(p, {});
  a.step(0);
  a.step(0);
  Scheduler fork = a;  // explorer-style branch
  a.step(1);
  EXPECT_NE(a.pc(1), fork.pc(1));
  fork.step(2);
  EXPECT_EQ(fork.pc(1), 0);
}

// Controller interaction: a controller that pauses the first acquisition of
// a given thread until another thread has acquired once.
class OneShotPause final : public sim::ScheduleController {
 public:
  explicit OneShotPause(ThreadId victim) : victim_(victim) {}
  bool before_lock(ThreadId t, const ExecIndex&, LockId) override {
    if (t == victim_ && !released_once_) {
      paused_ = true;
      return true;
    }
    return false;
  }
  void on_event(const Event& e) override {
    if (e.kind == EventKind::kLockAcquire && e.thread != victim_ && paused_) {
      released_once_ = true;
      release_ = true;
    }
  }
  std::vector<ThreadId> take_released() override {
    if (!release_) return {};
    release_ = false;
    return {victim_};
  }

 private:
  ThreadId victim_;
  bool paused_ = false;
  bool released_once_ = false;
  bool release_ = false;
};

TEST(SchedulerTest, ControllerPauseAndReleaseRoundTrip) {
  Program p = two_thread_abba();
  OneShotPause controller(1);
  SchedulerOptions options;
  options.controller = &controller;
  sim::RandomPolicy policy;
  Rng rng(8);
  Scheduler sched(p, options);
  RunResult result = sim::run(sched, policy, rng);
  // The run must finish one way or the other; pausing t1 until t2 acquired
  // makes the AB/BA deadlock very likely but scheduling may avoid it.
  EXPECT_NE(result.outcome, RunOutcome::kStepLimit);
}

TEST(SchedulerTest, AllPausedForceReleasesOne) {
  // A controller that pauses every first acquisition forever; the run-loop
  // must force-release threads rather than wedge.
  class PauseAll final : public sim::ScheduleController {
   public:
    bool before_lock(ThreadId, const ExecIndex&, LockId) override {
      return true;
    }
  };
  Program p = two_thread_abba();
  PauseAll controller;
  SchedulerOptions options;
  options.controller = &controller;
  sim::RandomPolicy policy;
  Rng rng(8);
  RunResult result = sim::run_program(p, policy, rng, options);
  EXPECT_NE(result.outcome, RunOutcome::kStepLimit);
}

TEST(SchedulerTest, Figure4RunsToCompletionOrDiagnosedDeadlock) {
  auto fig = workloads::make_figure4();
  int completed = 0, deadlocked = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    sim::RandomPolicy policy;
    Rng rng(seed);
    RunResult result = sim::run_program(fig.program, policy, rng);
    completed += result.outcome == RunOutcome::kCompleted;
    deadlocked += result.outcome == RunOutcome::kDeadlock;
  }
  EXPECT_EQ(completed + deadlocked, 30);
  EXPECT_GT(completed, 0);  // θ2 is timing-dependent
}

}  // namespace
}  // namespace wolf
