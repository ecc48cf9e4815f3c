#include "sim/scheduler.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "robust/fault.hpp"
#include "support/check.hpp"

namespace wolf::sim {

namespace {
// Forced releases made because every enabled thread spins, and runs ended
// early because every enabled thread spins with nothing paused.
const obs::Counter kSpinForceReleases("sim.spin_force_releases");
const obs::Counter kLivelockStops("sim.livelock_stops");
}  // namespace

Scheduler::Scheduler(const Program& program, SchedulerOptions options)
    : program_(&program), options_(options) {
  WOLF_CHECK_MSG(program.finalized(), "program must be finalized before run");
  threads_.resize(static_cast<std::size_t>(program.thread_count()));
  locks_.resize(static_cast<std::size_t>(program.lock_count()));
  flags_.assign(static_cast<std::size_t>(program.flag_count()), 0);
  for (auto& ts : threads_)
    ts.site_counts.assign(static_cast<std::size_t>(program.sites().size()), 0);
  if (options_.fault != nullptr)
    for (const auto& delay : options_.fault->delays)
      fault_delay_left_.push_back(delay.steps);
  // Thread 0 is the root and is immediately runnable.
  threads_[0].status = ThreadStatus::kEnabled;
}

bool Scheduler::fault_drops_force_releases() const {
  return options_.fault != nullptr && options_.fault->drop_force_releases;
}

void Scheduler::emit(Event e) {
  if (options_.sink != nullptr) options_.sink->on_event(e);
  if (options_.controller != nullptr) options_.controller->on_event(e);
}

void Scheduler::ensure_begun(ThreadId t) {
  auto& ts = threads_[static_cast<std::size_t>(t)];
  if (ts.begun) return;
  ts.begun = true;
  ++progress_epoch_;
  Event e;
  e.kind = EventKind::kThreadBegin;
  e.thread = t;
  emit(e);
}

std::int32_t Scheduler::occurrence_for(ThreadId t, int pc, SiteId site) {
  auto& ts = threads_[static_cast<std::size_t>(t)];
  if (ts.pending_pc == pc) return ts.pending_occ;
  ts.pending_pc = pc;
  ts.bypass_controller = false;
  std::int32_t& count = ts.site_counts[static_cast<std::size_t>(site)];
  ts.pending_occ = count++;
  return ts.pending_occ;
}

void Scheduler::enabled_threads(std::vector<ThreadId>& out) const {
  out.clear();
  for (ThreadId t = 0; t < static_cast<ThreadId>(threads_.size()); ++t)
    if (threads_[static_cast<std::size_t>(t)].status == ThreadStatus::kEnabled)
      out.push_back(t);
}

std::vector<ThreadId> Scheduler::paused_threads() const {
  std::vector<ThreadId> out;
  for (ThreadId t = 0; t < static_cast<ThreadId>(threads_.size()); ++t)
    if (threads_[static_cast<std::size_t>(t)].status == ThreadStatus::kPaused)
      out.push_back(t);
  return out;
}

bool Scheduler::spinning(ThreadId t) const {
  WOLF_CHECK(t >= 0 && static_cast<std::size_t>(t) < threads_.size());
  return threads_[static_cast<std::size_t>(t)].spin_epoch == progress_epoch_;
}

ThreadStatus Scheduler::status(ThreadId t) const {
  WOLF_CHECK(t >= 0 && static_cast<std::size_t>(t) < threads_.size());
  return threads_[static_cast<std::size_t>(t)].status;
}

int Scheduler::pc(ThreadId t) const {
  WOLF_CHECK(t >= 0 && static_cast<std::size_t>(t) < threads_.size());
  return threads_[static_cast<std::size_t>(t)].pc;
}

int Scheduler::flag_value(int flag) const {
  WOLF_CHECK(flag >= 0 && static_cast<std::size_t>(flag) < flags_.size());
  return flags_[static_cast<std::size_t>(flag)];
}

bool Scheduler::all_terminated() const {
  return terminated_ == threads_.size();
}

bool Scheduler::finished() const {
  return deadlock_diagnosed_ || all_terminated();
}

void Scheduler::terminate_thread(ThreadId t) {
  auto& ts = threads_[static_cast<std::size_t>(t)];
  WOLF_CHECK_MSG(ts.held.empty(),
                 "thread " << t << " terminated holding "
                           << ts.held.size() << " lock(s)");
  ts.status = ThreadStatus::kTerminated;
  ++terminated_;
  ++progress_epoch_;
  Event e;
  e.kind = EventKind::kThreadEnd;
  e.thread = t;
  emit(e);
  // Wake joiners.
  for (ThreadId w = 0; w < static_cast<ThreadId>(threads_.size()); ++w) {
    auto& ws = threads_[static_cast<std::size_t>(w)];
    if (ws.status == ThreadStatus::kBlockedOnJoin && ws.waiting_join == t) {
      ws.status = ThreadStatus::kEnabled;
      ws.waiting_join = kInvalidThread;
    }
  }
}

void Scheduler::wake_lock_waiters(LockId lock) {
  for (ThreadId w = 0; w < static_cast<ThreadId>(threads_.size()); ++w) {
    auto& ws = threads_[static_cast<std::size_t>(w)];
    if (ws.status == ThreadStatus::kBlockedOnLock && ws.waiting_lock == lock) {
      ws.status = ThreadStatus::kEnabled;
      ws.waiting_lock = kInvalidLock;
    }
  }
}

void Scheduler::drain_controller_releases() {
  if (options_.controller == nullptr) return;
  for (ThreadId t : options_.controller->take_released()) {
    if (t >= 0 && static_cast<std::size_t>(t) < threads_.size() &&
        threads_[static_cast<std::size_t>(t)].status == ThreadStatus::kPaused) {
      release_paused(t, /*bypass_controller=*/false);
    }
  }
}

void Scheduler::release_paused(ThreadId t, bool bypass_controller) {
  auto& ts = threads_[static_cast<std::size_t>(t)];
  WOLF_CHECK_MSG(ts.status == ThreadStatus::kPaused,
                 "thread " << t << " is not paused");
  ts.status = ThreadStatus::kEnabled;
  if (bypass_controller) ts.bypass_controller = true;
  ++progress_epoch_;
}

void Scheduler::take_jump(ThreadId t, int from_pc, int target) {
  auto& ts = threads_[static_cast<std::size_t>(t)];
  // The second take of one backward jump in one epoch: the path between the
  // takes changed no shared state, so with that state unchanged it repeats.
  if (target <= from_pc) {
    if (ts.loop_pc == from_pc && ts.loop_epoch == progress_epoch_) {
      ts.spin_epoch = progress_epoch_;
    } else {
      ts.loop_pc = from_pc;
      ts.loop_epoch = progress_epoch_;
    }
  }
  ts.pc = target;
  ts.pending_pc = -1;
  ts.bypass_controller = false;
  if (ts.pc >= static_cast<int>(program_->thread(t).ops.size()))
    terminate_thread(t);
}

BlockedAt Scheduler::blocked_at(ThreadId t) const {
  const auto& ts = threads_[static_cast<std::size_t>(t)];
  const Op& op =
      program_->thread(t).ops[static_cast<std::size_t>(ts.pc)];
  BlockedAt b;
  b.thread = t;
  b.index = ExecIndex{t, op.site, ts.pending_occ};
  b.lock = ts.waiting_lock;
  return b;
}

void Scheduler::check_wait_cycle(ThreadId t) {
  // Each thread waits on at most one lock, so the wait-for graph restricted
  // to lock waits is a partial function; follow the chain from t.
  std::vector<ThreadId> chain;
  ThreadId cur = t;
  while (true) {
    const auto& ts = threads_[static_cast<std::size_t>(cur)];
    if (ts.status != ThreadStatus::kBlockedOnLock) return;
    chain.push_back(cur);
    ThreadId owner =
        locks_[static_cast<std::size_t>(ts.waiting_lock)].owner;
    if (owner == kInvalidThread) return;  // lock was released meanwhile
    if (owner == t) break;                // cycle closed back at t
    if (std::find(chain.begin(), chain.end(), owner) != chain.end())
      return;  // cycle exists but does not include t; it was (or will be)
               // diagnosed when its own members blocked
    cur = owner;
  }
  deadlock_diagnosed_ = true;
  deadlock_cycle_.clear();
  for (ThreadId c : chain) deadlock_cycle_.push_back(blocked_at(c));
}

void Scheduler::step(ThreadId t) {
  WOLF_CHECK(!finished());
  auto& ts = threads_[static_cast<std::size_t>(t)];
  WOLF_CHECK_MSG(ts.status == ThreadStatus::kEnabled,
                 "thread " << t << " is not enabled");
  ++steps_;
  ensure_begun(t);

  const auto& ops = program_->thread(t).ops;
  if (ts.pc >= static_cast<int>(ops.size())) {
    terminate_thread(t);
    return;
  }
  // Injected stall: the step is consumed without progress while the delay
  // budget for this (thread, pc) lasts — a virtual-time slow thread.
  if (options_.fault != nullptr) {
    for (std::size_t i = 0; i < options_.fault->delays.size(); ++i) {
      const auto& delay = options_.fault->delays[i];
      if (delay.thread == t && delay.at_op == ts.pc &&
          fault_delay_left_[i] > 0) {
        --fault_delay_left_[i];
        ++progress_epoch_;
        return;
      }
    }
  }
  const Op& op = ops[static_cast<std::size_t>(ts.pc)];
  const int cur_pc = ts.pc;
  // Lock, unlock, start, join and flag steps change (or may change) shared
  // state: a lock owner or depth, a thread status, a pause, a flag.
  if (op.code != OpCode::kCompute && op.code != OpCode::kJumpIfFlag &&
      op.code != OpCode::kJump)
    ++progress_epoch_;

  auto advance = [&] {
    ts.pc = cur_pc + 1;
    ts.pending_pc = -1;
    ts.bypass_controller = false;
    if (ts.pc >= static_cast<int>(ops.size())) terminate_thread(t);
  };

  switch (op.code) {
    case OpCode::kLock: {
      auto& lock = locks_[static_cast<std::size_t>(op.lock)];
      if (lock.owner == t) {
        // Re-entrant acquisition: no event, no controller involvement.
        ++lock.depth;
        advance();
        break;
      }
      const std::int32_t occ = occurrence_for(t, cur_pc, op.site);
      const ExecIndex idx{t, op.site, occ};
      if (options_.controller != nullptr && !ts.bypass_controller &&
          options_.controller->before_lock(t, idx, op.lock)) {
        ts.status = ThreadStatus::kPaused;
        drain_controller_releases();
        break;
      }
      if (lock.owner != kInvalidThread) {
        ts.status = ThreadStatus::kBlockedOnLock;
        ts.waiting_lock = op.lock;
        check_wait_cycle(t);
        break;
      }
      lock.owner = t;
      lock.depth = 1;
      ts.held.emplace_back(op.lock, 1);
      Event e;
      e.kind = EventKind::kLockAcquire;
      e.thread = t;
      e.site = op.site;
      e.occurrence = occ;
      e.lock = op.lock;
      emit(e);
      advance();
      drain_controller_releases();
      break;
    }
    case OpCode::kUnlock: {
      auto& lock = locks_[static_cast<std::size_t>(op.lock)];
      WOLF_CHECK_MSG(lock.owner == t, "thread " << t << " unlocks lock "
                                                << op.lock
                                                << " it does not own");
      if (--lock.depth > 0) {
        advance();
        break;
      }
      lock.owner = kInvalidThread;
      auto it = std::find_if(ts.held.begin(), ts.held.end(),
                             [&](const auto& h) { return h.first == op.lock; });
      WOLF_CHECK(it != ts.held.end());
      ts.held.erase(it);
      Event e;
      e.kind = EventKind::kLockRelease;
      e.thread = t;
      e.site = op.site;
      e.occurrence = occurrence_for(t, cur_pc, op.site);
      e.lock = op.lock;
      emit(e);
      advance();
      wake_lock_waiters(op.lock);
      drain_controller_releases();
      break;
    }
    case OpCode::kStart: {
      auto& child = threads_[static_cast<std::size_t>(op.target_thread)];
      WOLF_CHECK_MSG(child.status == ThreadStatus::kNotStarted,
                     "thread " << op.target_thread << " already started");
      child.status = ThreadStatus::kEnabled;
      Event e;
      e.kind = EventKind::kThreadStart;
      e.thread = t;
      e.site = op.site;
      e.occurrence = occurrence_for(t, cur_pc, op.site);
      e.other = op.target_thread;
      emit(e);
      advance();
      break;
    }
    case OpCode::kJoin: {
      // Joining a thread that has not even started yet simply waits: the
      // start must happen elsewhere (finalize() guarantees it exists).
      auto& child = threads_[static_cast<std::size_t>(op.target_thread)];
      if (child.status != ThreadStatus::kTerminated) {
        ts.status = ThreadStatus::kBlockedOnJoin;
        ts.waiting_join = op.target_thread;
        break;
      }
      Event e;
      e.kind = EventKind::kThreadJoin;
      e.thread = t;
      e.site = op.site;
      e.occurrence = occurrence_for(t, cur_pc, op.site);
      e.other = op.target_thread;
      emit(e);
      advance();
      break;
    }
    case OpCode::kCompute:
      advance();
      break;
    case OpCode::kSetFlag:
      flags_[static_cast<std::size_t>(op.flag)] = op.value;
      advance();
      break;
    case OpCode::kJumpIfFlag:
      if (flags_[static_cast<std::size_t>(op.flag)] == op.value) {
        take_jump(t, cur_pc, op.target_pc);
      } else {
        advance();
      }
      break;
    case OpCode::kJump:
      take_jump(t, cur_pc, op.target_pc);
      break;
  }
}

RunResult Scheduler::result() const {
  RunResult r;
  r.steps = steps_;
  if (all_terminated()) {
    r.outcome = RunOutcome::kCompleted;
  } else if (deadlock_diagnosed_) {
    r.outcome = RunOutcome::kDeadlock;
    r.deadlock_cycle = deadlock_cycle_;
  } else {
    // Caller decides between a stall (join deadlock) and a step-limit abort;
    // default to deadlock when nothing is runnable.
    bool any_runnable = false;
    for (const auto& ts : threads_)
      if (ts.status == ThreadStatus::kEnabled ||
          ts.status == ThreadStatus::kPaused)
        any_runnable = true;
    r.outcome = any_runnable ? RunOutcome::kStepLimit : RunOutcome::kDeadlock;
  }
  for (ThreadId t = 0; t < static_cast<ThreadId>(threads_.size()); ++t)
    if (threads_[static_cast<std::size_t>(t)].status ==
        ThreadStatus::kBlockedOnLock)
      r.all_blocked.push_back(blocked_at(t));
  return r;
}

std::uint64_t Scheduler::state_hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= mix64(v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  for (const auto& ts : threads_) {
    mix(static_cast<std::uint64_t>(ts.status));
    mix(static_cast<std::uint64_t>(ts.pc));
    mix(static_cast<std::uint64_t>(ts.waiting_lock + 1));
    mix(static_cast<std::uint64_t>(ts.waiting_join + 1));
    for (const auto& [lock, depth] : ts.held) {
      mix(static_cast<std::uint64_t>(lock));
      mix(static_cast<std::uint64_t>(depth));
    }
    mix(0xabcdefULL);
  }
  for (const auto& ls : locks_) {
    mix(static_cast<std::uint64_t>(ls.owner + 1));
    mix(static_cast<std::uint64_t>(ls.depth));
  }
  for (int f : flags_) mix(static_cast<std::uint64_t>(f));
  return h;
}

RunResult run(Scheduler& scheduler, SchedulePolicy& policy, Rng& rng) {
  bool fault_stalled = false;
  std::vector<ThreadId> enabled;
  while (!scheduler.finished() &&
         scheduler.steps_executed() < scheduler.max_steps()) {
    // Apply any releases the controller granted since the last step.
    scheduler.drain_releases();
    scheduler.enabled_threads(enabled);
    // No thread can make progress when none is enabled, or when every
    // enabled one spins: their loops change no shared state, so only a
    // paused thread could end them (DESIGN.md §6).
    const bool livelock =
        !enabled.empty() &&
        std::all_of(enabled.begin(), enabled.end(),
                    [&](ThreadId t) { return scheduler.spinning(t); });
    if (enabled.empty() || livelock) {
      auto paused = scheduler.paused_threads();
      if (paused.empty()) {
        // A stall ends as a deadlock; a livelock, whose spinners are still
        // enabled, as kStepLimit.
        if (livelock) kLivelockStops.add();
        break;
      }
      // Injected fault: the force-release that would unwedge the run is
      // dropped. On real threads this run would hang until the watchdog
      // fires; in virtual time we end the trial immediately as a timeout.
      if (scheduler.fault_drops_force_releases()) {
        fault_stalled = true;
        break;
      }
      // Algorithm 4, lines 5–7: move a paused thread back to Enabled. The
      // controller may bias the choice; the default picks randomly.
      ThreadId victim =
          scheduler.controller() != nullptr
              ? scheduler.controller()->force_release(paused, rng)
              : paused[rng.index(paused)];
      if (livelock) kSpinForceReleases.add();
      scheduler.release_paused(victim, /*bypass_controller=*/true);
      continue;
    }
    ThreadId t = policy.pick(enabled, rng);
    scheduler.step(t);
  }
  RunResult result = scheduler.result();
  if (fault_stalled) result.outcome = RunOutcome::kTimeout;
  return result;
}

RunResult run_program(const Program& program, SchedulePolicy& policy, Rng& rng,
                      SchedulerOptions options) {
  Scheduler scheduler(program, options);
  return run(scheduler, policy, rng);
}

std::optional<Trace> record_trace(const Program& program, std::uint64_t seed,
                                  const robust::RetryPolicy& retry,
                                  std::uint64_t max_steps) {
  Rng rng(seed);
  robust::RetryState attempts(retry, seed);
  while (attempts.next_attempt()) {
    TraceRecorder recorder;
    SchedulerOptions options;
    options.sink = &recorder;
    options.max_steps = max_steps;
    RandomPolicy policy;
    Rng run_rng = rng.fork();
    RunResult result = run_program(program, policy, run_rng, options);
    if (result.outcome == RunOutcome::kCompleted) return recorder.take();
  }
  return std::nullopt;
}

std::optional<Trace> record_trace(const Program& program, std::uint64_t seed,
                                  int max_attempts, std::uint64_t max_steps) {
  robust::RetryPolicy retry;
  retry.max_attempts = max_attempts;
  return record_trace(program, seed, retry, max_steps);
}

}  // namespace wolf::sim
