#include "rt/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "robust/fault.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wolf::rt {

namespace {

const obs::Counter kRuns("rt.runs");
// Force-releases and watchdog firings depend on wall-clock races in the
// real-thread substrate, so they are excluded from byte-stable reports.
const obs::Counter kForcedReleases("rt.forced_releases", /*stable=*/false);
const obs::Counter kWatchdogTimeouts("rt.watchdog_timeouts",
                                     /*stable=*/false);

// Thrown inside worker threads when the run is torn down after a diagnosed
// deadlock; unwinds the interpreter so std::thread::join succeeds.
struct AbortRun {};

class Executor {
 public:
  Executor(const sim::Program& program, const ExecutorOptions& options)
      : program_(program), options_(options), rng_(options.seed) {
    WOLF_CHECK_MSG(program.finalized(), "program must be finalized");
    locks_.resize(static_cast<std::size_t>(program.lock_count()));
    threads_.resize(static_cast<std::size_t>(program.thread_count()));
    flags_.assign(static_cast<std::size_t>(program.flag_count()), 0);
    for (auto& ts : threads_)
      ts.site_counts.assign(static_cast<std::size_t>(program.sites().size()),
                            0);
  }

  sim::RunResult run() {
    {
      std::unique_lock<std::mutex> lk(mu_);
      spawn_locked(0);
    }
    std::thread watchdog;
    if (options_.deadline_ms > 0)
      watchdog = std::thread([this] { watchdog_main(); });
    join_all();
    if (watchdog.joinable()) {
      {
        std::unique_lock<std::mutex> lk(watch_mu_);
        run_done_ = true;
      }
      watch_cv_.notify_all();
      watchdog.join();
    }
    std::unique_lock<std::mutex> lk(mu_);
    sim::RunResult result;
    if (deadlock_) {
      result.outcome = sim::RunOutcome::kDeadlock;
      result.deadlock_cycle = deadlock_cycle_;
      result.all_blocked = all_blocked_;
    } else if (timed_out_) {
      result.outcome = sim::RunOutcome::kTimeout;
      result.all_blocked = all_blocked_;
    } else {
      result.outcome = sim::RunOutcome::kCompleted;
    }
    return result;
  }

 private:
  enum class St : std::uint8_t {
    kNotStarted,
    kRunnable,
    kBlockedOnLock,
    kBlockedOnJoin,
    kPaused,
    kTerminated,
  };

  struct LockState {
    ThreadId owner = kInvalidThread;
    int depth = 0;
  };

  struct ThreadState {
    St st = St::kNotStarted;
    LockId waiting_lock = kInvalidLock;
    ThreadId waiting_join = kInvalidThread;
    std::vector<std::pair<LockId, int>> held;
    std::vector<std::int32_t> site_counts;
    int pending_pc = -1;
    std::int32_t pending_occ = 0;
    bool bypass_controller = false;
    std::thread os_thread;
  };

  // ---- everything below requires mu_ unless stated otherwise ----

  void emit_locked(Event e) {
    if (!options_.instrument) return;
    if (options_.sink != nullptr) options_.sink->on_event(e);
    if (options_.controller != nullptr) options_.controller->on_event(e);
  }

  void spawn_locked(ThreadId t) {
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    WOLF_CHECK(ts.st == St::kNotStarted);
    ts.st = St::kRunnable;
    ts.os_thread = std::thread([this, t] { thread_main(t); });
  }

  std::int32_t occurrence_locked(ThreadId t, int pc, SiteId site) {
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    if (ts.pending_pc == pc) return ts.pending_occ;
    ts.pending_pc = pc;
    ts.bypass_controller = false;
    ts.pending_occ = ts.site_counts[static_cast<std::size_t>(site)]++;
    return ts.pending_occ;
  }

  void drain_releases_locked() {
    if (!options_.instrument || options_.controller == nullptr) return;
    for (ThreadId t : options_.controller->take_released()) {
      if (t < 0 || static_cast<std::size_t>(t) >= threads_.size()) continue;
      ThreadState& ts = threads_[static_cast<std::size_t>(t)];
      if (ts.st == St::kPaused) {
        ts.st = St::kRunnable;
        cv_.notify_all();
      }
    }
  }

  sim::BlockedAt blocked_at_locked(ThreadId t) const {
    const ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    const sim::Op& op =
        program_.thread(t).ops[static_cast<std::size_t>(ts.pending_pc)];
    sim::BlockedAt b;
    b.thread = t;
    b.index = ExecIndex{t, op.site, ts.pending_occ};
    b.lock = ts.waiting_lock;
    return b;
  }

  // Follows the lock wait-for chain from `t`; on a cycle through t, records
  // the deadlock and tears the run down. Returns true when aborting.
  bool check_cycle_locked(ThreadId t) {
    std::vector<ThreadId> chain;
    ThreadId cur = t;
    while (true) {
      const ThreadState& ts = threads_[static_cast<std::size_t>(cur)];
      if (ts.st != St::kBlockedOnLock) return false;
      chain.push_back(cur);
      ThreadId owner =
          locks_[static_cast<std::size_t>(ts.waiting_lock)].owner;
      if (owner == kInvalidThread) return false;
      if (owner == t) break;
      if (std::find(chain.begin(), chain.end(), owner) != chain.end())
        return false;
      cur = owner;
    }
    deadlock_ = true;
    for (ThreadId c : chain) deadlock_cycle_.push_back(blocked_at_locked(c));
    abort_locked();
    return true;
  }

  void abort_locked() {
    for (ThreadId t = 0; t < static_cast<ThreadId>(threads_.size()); ++t)
      if (threads_[static_cast<std::size_t>(t)].st == St::kBlockedOnLock)
        all_blocked_.push_back(blocked_at_locked(t));
    aborted_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  // Called just after `t` moved into a blocked/paused state: if nothing is
  // runnable any more, either force-release a paused thread (Algorithm 4
  // lines 5–7) or declare the run stuck.
  void resolve_stall_locked() {
    bool any_runnable = false;
    std::vector<ThreadId> paused;
    for (ThreadId t = 0; t < static_cast<ThreadId>(threads_.size()); ++t) {
      const ThreadState& ts = threads_[static_cast<std::size_t>(t)];
      switch (ts.st) {
        case St::kRunnable:
          any_runnable = true;
          break;
        case St::kBlockedOnLock:
          // A thread whose awaited lock is already free has been notified
          // and will run as soon as it leaves cv_.wait — it only *looks*
          // blocked from here.
          if (locks_[static_cast<std::size_t>(ts.waiting_lock)].owner ==
              kInvalidThread)
            any_runnable = true;
          break;
        case St::kBlockedOnJoin:
          if (threads_[static_cast<std::size_t>(ts.waiting_join)].st ==
              St::kTerminated)
            any_runnable = true;
          break;
        case St::kPaused:
          paused.push_back(t);
          break;
        case St::kNotStarted:
        case St::kTerminated:
          break;
      }
    }
    if (any_runnable) return;
    if (!paused.empty()) {
      // Injected fault: the force-release that would unwedge the run is
      // dropped, leaving every thread waiting. Only the watchdog (or a
      // controller release) can now end the trial.
      if (options_.fault != nullptr && options_.fault->drop_force_releases)
        return;
      kForcedReleases.add();
      ThreadId victim =
          options_.controller != nullptr
              ? options_.controller->force_release(paused, rng_)
              : paused[rng_.index(paused)];
      ThreadState& vs = threads_[static_cast<std::size_t>(victim)];
      vs.st = St::kRunnable;
      vs.bypass_controller = true;
      cv_.notify_all();
      return;
    }
    // Everything is blocked and nothing can be released: a stall that the
    // lock-cycle check did not classify (e.g. a join/lock mixture).
    if (!deadlock_) {
      deadlock_ = true;
      abort_locked();
    }
  }

  void check_abort() {
    if (aborted_.load(std::memory_order_relaxed)) throw AbortRun{};
  }

  // ---- the watchdog (runs on its own thread when deadline_ms > 0) ----

  // Sleeps until the run finishes or the deadline expires; on expiry the
  // trial is torn down exactly like a diagnosed deadlock (all threads are
  // woken and unwind) but reports kTimeout.
  void watchdog_main() {
    {
      std::unique_lock<std::mutex> lk(watch_mu_);
      if (watch_cv_.wait_for(lk,
                             std::chrono::milliseconds(options_.deadline_ms),
                             [&] { return run_done_; }))
        return;
    }
    std::unique_lock<std::mutex> lk(mu_);
    if (deadlock_) return;  // already being torn down with a better diagnosis
    bool all_done = true;
    for (const ThreadState& ts : threads_)
      if (ts.st != St::kTerminated && ts.st != St::kNotStarted) {
        all_done = false;
        break;
      }
    if (all_done) return;  // natural completion raced the deadline
    kWatchdogTimeouts.add();
    timed_out_ = true;
    abort_locked();
  }

  // Injected wall-clock stall (FaultPlan): holds the thread outside all
  // bookkeeping states — other threads still see it as runnable — but stays
  // abort-interruptible so the watchdog can always end the trial.
  void fault_delay(ThreadId t, int pc) {
    if (options_.fault == nullptr) return;
    const robust::FaultPlan::Delay* delay = options_.fault->find_delay(t, pc);
    if (delay == nullptr || delay->wall_ms <= 0) return;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(delay->wall_ms),
                 [&] { return aborted_.load(std::memory_order_relaxed); });
    check_abort();
  }

  // ---- the per-thread interpreter (owns no locks on entry) ----

  void thread_main(ThreadId t) {
    try {
      interpret(t);
    } catch (const AbortRun&) {
      std::unique_lock<std::mutex> lk(mu_);
      // Drop any monitors still held so bookkeeping stays consistent; the
      // run is over, so waiters are released only to observe the abort.
      ThreadState& ts = threads_[static_cast<std::size_t>(t)];
      for (const auto& [lock, depth] : ts.held) {
        (void)depth;
        locks_[static_cast<std::size_t>(lock)].owner = kInvalidThread;
        locks_[static_cast<std::size_t>(lock)].depth = 0;
      }
      ts.held.clear();
      ts.st = St::kTerminated;
      cv_.notify_all();
    }
  }

  void interpret(ThreadId t) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      Event e;
      e.kind = EventKind::kThreadBegin;
      e.thread = t;
      emit_locked(e);
    }
    const auto& ops = program_.thread(t).ops;
    int pc = 0;
    while (pc < static_cast<int>(ops.size())) {
      check_abort();
      fault_delay(t, pc);
      const sim::Op& op = ops[static_cast<std::size_t>(pc)];
      switch (op.code) {
        case sim::OpCode::kLock:
          do_lock(t, pc, op);
          ++pc;
          break;
        case sim::OpCode::kUnlock:
          do_unlock(t, pc, op);
          ++pc;
          break;
        case sim::OpCode::kStart:
          do_start(t, pc, op);
          ++pc;
          break;
        case sim::OpCode::kJoin:
          do_join(t, pc, op);
          ++pc;
          break;
        case sim::OpCode::kCompute:
          do_compute(op);
          ++pc;
          break;
        case sim::OpCode::kSetFlag: {
          std::unique_lock<std::mutex> lk(mu_);
          flags_[static_cast<std::size_t>(op.flag)] = op.value;
          ++pc;
          break;
        }
        case sim::OpCode::kJumpIfFlag: {
          std::unique_lock<std::mutex> lk(mu_);
          pc = flags_[static_cast<std::size_t>(op.flag)] == op.value
                   ? op.target_pc
                   : pc + 1;
          break;
        }
        case sim::OpCode::kJump:
          pc = op.target_pc;
          break;
      }
    }
    std::unique_lock<std::mutex> lk(mu_);
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    WOLF_CHECK_MSG(ts.held.empty(),
                   "rt thread " << t << " terminated holding locks");
    ts.st = St::kTerminated;
    Event e;
    e.kind = EventKind::kThreadEnd;
    e.thread = t;
    emit_locked(e);
    cv_.notify_all();
  }

  void do_lock(ThreadId t, int pc, const sim::Op& op) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    LockState& lock = locks_[static_cast<std::size_t>(op.lock)];
    while (true) {
      check_abort();
      if (lock.owner == t) {  // re-entrant
        ++lock.depth;
        ts.pending_pc = -1;
        ts.bypass_controller = false;
        return;
      }
      const std::int32_t occ = occurrence_locked(t, pc, op.site);
      const ExecIndex idx{t, op.site, occ};
      if (options_.instrument && options_.controller != nullptr &&
          !ts.bypass_controller &&
          options_.controller->before_lock(t, idx, op.lock)) {
        ts.st = St::kPaused;
        drain_releases_locked();
        resolve_stall_locked();
        cv_.wait(lk, [&] {
          return ts.st != St::kPaused ||
                 aborted_.load(std::memory_order_relaxed);
        });
        continue;
      }
      if (lock.owner != kInvalidThread) {
        ts.st = St::kBlockedOnLock;
        ts.waiting_lock = op.lock;
        if (check_cycle_locked(t)) throw AbortRun{};
        resolve_stall_locked();
        cv_.wait(lk, [&] {
          return locks_[static_cast<std::size_t>(op.lock)].owner ==
                     kInvalidThread ||
                 aborted_.load(std::memory_order_relaxed);
        });
        ts.st = St::kRunnable;
        ts.waiting_lock = kInvalidLock;
        continue;
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
      emit_locked(e);
      ts.pending_pc = -1;
      ts.bypass_controller = false;
      drain_releases_locked();
      return;
    }
  }

  void do_unlock(ThreadId t, int pc, const sim::Op& op) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    LockState& lock = locks_[static_cast<std::size_t>(op.lock)];
    WOLF_CHECK_MSG(lock.owner == t,
                   "rt thread " << t << " unlocks lock it does not own");
    if (--lock.depth > 0) return;
    lock.owner = kInvalidThread;
    auto it = std::find_if(ts.held.begin(), ts.held.end(),
                           [&](const auto& h) { return h.first == op.lock; });
    WOLF_CHECK(it != ts.held.end());
    ts.held.erase(it);
    Event e;
    e.kind = EventKind::kLockRelease;
    e.thread = t;
    e.site = op.site;
    e.occurrence = occurrence_locked(t, pc, op.site);
    e.lock = op.lock;
    ts.pending_pc = -1;
    emit_locked(e);
    drain_releases_locked();
    cv_.notify_all();
  }

  void do_start(ThreadId t, int pc, const sim::Op& op) {
    std::unique_lock<std::mutex> lk(mu_);
    Event e;
    e.kind = EventKind::kThreadStart;
    e.thread = t;
    e.site = op.site;
    e.occurrence = occurrence_locked(t, pc, op.site);
    e.other = op.target_thread;
    emit_locked(e);
    threads_[static_cast<std::size_t>(t)].pending_pc = -1;
    spawn_locked(op.target_thread);
  }

  void do_join(ThreadId t, int pc, const sim::Op& op) {
    std::unique_lock<std::mutex> lk(mu_);
    ThreadState& ts = threads_[static_cast<std::size_t>(t)];
    ThreadState& child = threads_[static_cast<std::size_t>(op.target_thread)];
    if (child.st != St::kTerminated) {
      ts.st = St::kBlockedOnJoin;
      ts.waiting_join = op.target_thread;
      resolve_stall_locked();
      cv_.wait(lk, [&] {
        return child.st == St::kTerminated ||
               aborted_.load(std::memory_order_relaxed);
      });
      check_abort();
      ts.st = St::kRunnable;
      ts.waiting_join = kInvalidThread;
    }
    Event e;
    e.kind = EventKind::kThreadJoin;
    e.thread = t;
    e.site = op.site;
    e.occurrence = occurrence_locked(t, pc, op.site);
    e.other = op.target_thread;
    emit_locked(e);
    ts.pending_pc = -1;
  }

  void do_compute(const sim::Op& op) {
    // Busy work outside the monitor; polls the abort flag so a torn-down run
    // cannot spin forever.
    std::uint64_t acc = 0x2545f4914f6cdd1dULL;
    const long iters =
        static_cast<long>(op.units) * options_.compute_spin;
    for (long i = 0; i < iters; ++i) {
      acc ^= acc << 13;
      acc ^= acc >> 7;
      acc ^= acc << 17;
      if ((i & 1023) == 0 && aborted_.load(std::memory_order_relaxed))
        throw AbortRun{};
    }
    sink_.store(acc, std::memory_order_relaxed);
  }

  void join_all() {
    // Threads spawn other threads, so keep scanning until every started
    // os_thread has been joined.
    while (true) {
      std::thread to_join;
      {
        std::unique_lock<std::mutex> lk(mu_);
        for (auto& ts : threads_) {
          if (ts.os_thread.joinable()) {
            to_join = std::move(ts.os_thread);
            break;
          }
        }
      }
      if (!to_join.joinable()) break;
      to_join.join();
    }
  }

  const sim::Program& program_;
  ExecutorOptions options_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<LockState> locks_;
  std::vector<ThreadState> threads_;
  std::vector<int> flags_;
  std::atomic<bool> aborted_{false};
  bool deadlock_ = false;
  bool timed_out_ = false;
  std::vector<sim::BlockedAt> deadlock_cycle_;
  std::vector<sim::BlockedAt> all_blocked_;
  // Watchdog rendezvous; separate from mu_ so the monitor never contends
  // with the interpreter's hot path.
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  bool run_done_ = false;
  Rng rng_;
  std::atomic<std::uint64_t> sink_{0};
};

}  // namespace

sim::RunResult execute(const sim::Program& program,
                       const ExecutorOptions& options) {
  kRuns.add();
  Executor executor(program, options);
  return executor.run();
}

std::optional<Trace> record_trace_rt(const sim::Program& program,
                                     std::uint64_t seed,
                                     const robust::RetryPolicy& retry) {
  Rng rng(seed);
  robust::RetryState attempts(retry, seed);
  while (attempts.next_attempt()) {
    // Every emission runs under the executor's monitor (emit_locked), which
    // is the serialization TraceRecorder requires; take() runs after
    // execute() has joined every worker.
    TraceRecorder recorder;
    ExecutorOptions options;
    options.sink = &recorder;
    options.seed = rng();
    options.deadline_ms = retry.attempt_deadline_ms;
    sim::RunResult result = execute(program, options);
    if (result.outcome == sim::RunOutcome::kCompleted) return recorder.take();
  }
  return std::nullopt;
}

std::optional<Trace> record_trace_rt(const sim::Program& program,
                                     std::uint64_t seed, int max_attempts) {
  robust::RetryPolicy retry;
  retry.max_attempts = max_attempts;
  return record_trace_rt(program, seed, retry);
}

}  // namespace wolf::rt
