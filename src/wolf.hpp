// wolf.hpp — the single public entry point to the WOLF library.
//
// Library users include this header instead of the seven per-stage ones and
// configure everything through wolf::Config: one struct with the shared
// scalars every stage reads (seed, jobs, deadline) plus the historical
// option structs nested as sections. validate() reports misconfigurations
// before a run burns time on them; the *_options() exploders produce the
// per-stage structs the pipeline entry points take, with the shared scalars
// folded in (a shared scalar always wins over the section field it shadows).
//
// The per-stage structs are the section types, so their fields map as:
//
//   WolfOptions::seed            -> Config::seed
//   WolfOptions::jobs            -> Config::jobs
//   DetectorOptions::*           -> Config::detector.*
//   ReplayOptions::*             -> Config::replay.*
//   ReplayOptions::retry.attempt_deadline_ms -> Config::deadline_ms
//   MultiRunOptions::runs        -> Config::runs
//   rt::ExecutorOptions::*       -> Config::executor.*
//   ReportWriterOptions::*       -> Config::report.*
//   DfOptions::*                 -> df_options() (derived from the above)
// Online analysis has exactly one public entry point: wolf::Session
// (declared below), opened from a Config (DESIGN.md §18). The governor's
// fields (memory_budget_mb, window_events, window_deadline_ms, on_cycle,
// live) are Config fields, read by the session as they are.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baseline/df_pipeline.hpp"
#include "core/metrics.hpp"
#include "core/multi.hpp"
#include "core/pipeline.hpp"
#include "core/report_writer.hpp"
#include "rt/executor.hpp"

namespace wolf {

// One finding from Config::validate(). Fatal issues make the configuration
// unusable (an exploded run would crash or silently do nothing); non-fatal
// ones flag conflicting settings where one silently wins (e.g. deadline_ms
// overriding a different replay.retry.attempt_deadline_ms).
struct ConfigIssue {
  bool fatal = false;
  std::string message;
};

struct Config {
  // ---- shared scalars, read by every stage ------------------------------
  std::uint64_t seed = 2014;
  // Parallelism of classification and multi-run: 0 = hardware
  // concurrency, 1 = the serial pipeline. Reports are identical at every
  // level. Overrides the per-run jobs split. Trace decode and cycle
  // enumeration (batch, window and final) are serial and do not read it.
  int jobs = 0;
  // Per-trial wall-clock budget in ms (0 = unlimited). Arms the rt watchdog
  // and the recording retry deadline. Overrides replay.retry and
  // executor.deadline_ms.
  std::int64_t deadline_ms = 0;

  // ---- stage sections (the historical option structs) -------------------
  DetectorOptions detector;
  ReplayOptions replay;
  rt::ExecutorOptions executor;
  ReportWriterOptions report;

  // ---- pipeline scalars (historical WolfOptions fields) -----------------
  int record_attempts = 20;
  std::uint64_t max_steps = 2'000'000;
  bool enable_pruner = true;
  bool enable_generator_check = true;
  const robust::FaultPlan* fault = nullptr;  // not owned

  // ---- multi-run section ------------------------------------------------
  int runs = 5;

  // ---- resource governance (core/governor.hpp) --------------------------
  // Tuple-store budget of a Session, in MiB (0 = unbounded). Setting this,
  // window_deadline_ms, on_cycle or live makes the session close windows.
  std::size_t memory_budget_mb = 0;
  // Events per detection window of a windowed Session.
  std::size_t window_events = 65536;
  // Per-window detection deadline in ms (0 = no deadline; the degradation
  // ladder never demotes).
  std::int64_t window_deadline_ms = 0;
  // Live cycle surfacing: called once per first-sighted cycle at window
  // granularity (`wolf analyze --live`). It never changes the final result.
  CycleSubscriber on_cycle;
  // Pull-mode live surfacing: Session::poll() returns the cycles first
  // sighted since the last poll. Composes with on_cycle and, like it,
  // never changes what finish() returns. The serve sidecar runs sessions
  // with live = true.
  bool live = false;

  // True when a Session opened from this config closes windows: something
  // reads them — a budget to enforce, a deadline to keep, or a live
  // subscriber or poll() collector to feed. Otherwise the session only
  // builds D_σ until finish().
  bool governed() const {
    return memory_budget_mb != 0 || window_deadline_ms != 0 ||
           static_cast<bool>(on_cycle) || live;
  }

  // Checks the configuration for fatal errors and conflicting settings.
  // Empty result = clean. Callers decide how to surface non-fatal issues.
  std::vector<ConfigIssue> validate() const;
  bool fatal() const {
    for (const ConfigIssue& issue : validate())
      if (issue.fatal) return true;
    return false;
  }

  // Exploders: per-stage option structs with the shared scalars folded in.
  WolfOptions wolf_options() const;
  MultiRunOptions multi_options() const;
  baseline::DfOptions df_options() const;
  rt::ExecutorOptions executor_options() const;
};

// One cycle surfaced between two Session::poll() calls — an owned copy of a
// LiveCycle delivery (safe to keep; nothing borrows detection state).
struct SessionCycle {
  std::size_t window = 0;    // WindowReport::index that surfaced it
  std::size_t sequence = 0;  // 1-based first-sighting sequence number
  std::string description;   // PotentialDeadlock::to_string rendering
};

// The one online-analysis entry point: open → feed → poll → finish.
//
// Session is the single lifecycle the CLI, the serve sidecar, the pipeline,
// and the tests all share:
//
//   Session s = Session::open(config);          // throws on fatal config
//   while (reader.next_block(block)) {
//     s.feed(block);
//     for (const SessionCycle& c : s.poll()) ...;  // live cycles, if any
//   }
//   Session::Verdict v = s.finish();            // authoritative, final
//
// Session is the engine: its implementation (core/governor.cpp) is the
// governor of core/governor.hpp and reads this Config directly. It pays
// for windows only when something reads them (Config::governed(): a
// budget, a window deadline, or a live subscriber or collector); otherwise
// it builds D_σ as events arrive and enumerates once at finish(), the
// cost of batch detect(). Every session keeps the containment contract an
// always-on service needs: a malformed event *poisons* the session (feed
// returns false, ingestion stops, the verdict is honestly incomplete)
// instead of propagating out of feed, and finish() never throws.
// Everything a Session does runs on the calling thread; Config::jobs does
// not reach it.
//
// A Session is single-owner state, not a thread-safe object: feed, poll and
// finish must be externally serialized (the serve sidecar gives each
// session its own thread).
class Session {
 public:
  // Everything finish() knows, in one struct. `detection` is authoritative;
  // `governor.coverage_complete` is the honesty bit (true iff the detection
  // provably equals batch analysis of the same event stream). `governed`
  // is Config::governed() of the opening config; `windows` is empty when
  // it is false.
  struct Verdict {
    Detection detection;
    std::vector<WindowReport> windows;
    GovernorVerdict governor;
    bool governed = false;
  };

  // Builds a session from a validated Config (throws std::invalid_argument
  // listing the fatal issues otherwise). Live cycles are collected for
  // poll() iff config.live; Config::on_cycle still fires push-mode either
  // way.
  static Session open(const Config& config);

  Session(Session&& other) noexcept;
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  // Ingestion. Returns true while the session is healthy; false once it is
  // poisoned (a malformed event fired a builder invariant) — from then on
  // events are discarded and finish() reports an incomplete verdict over
  // the consistent prefix. Never throws on bad input.
  bool feed(const Event& e);
  bool feed(const std::vector<Event>& events);

  // Drains a TraceReader through feed(), block by block, on the calling
  // thread. Keeps draining after poisoning (the reader is left at
  // end-of-stream either way, so stream diagnostics stay meaningful).
  void ingest(TraceReader& reader);

  // Cycles first sighted since the last poll(), in surfacing order. Always
  // empty unless the session was opened with Config::live. Cheap when
  // empty.
  std::vector<SessionCycle> poll();

  // Observation (valid any time).
  bool poisoned() const;
  std::size_t events_seen() const;
  std::size_t windows_closed() const;
  DetectionLevel level() const;
  std::size_t cycles_surfaced_live() const;

  // Closes the trailing window (if windowed), runs the authoritative
  // enumeration and returns everything. Final: feed() after finish() is an
  // error (asserts in debug builds, no-op otherwise). Never throws: a
  // detection fault yields an empty detection and an honest incomplete
  // verdict.
  Verdict finish();

 private:
  Session();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Facade entry points — the pipeline functions, taking Config directly.
inline WolfReport run(const sim::Program& program, const Config& config) {
  return run_wolf(program, config.wolf_options());
}
inline WolfReport analyze(const sim::Program& program, const Trace& trace,
                          const Config& config) {
  return analyze_trace(program, trace, config.wolf_options());
}
inline MultiRunReport run_multi(const sim::Program& program,
                                const Config& config) {
  return run_wolf_multi(program, config.multi_options());
}
inline baseline::DfReport run_baseline(const sim::Program& program,
                                       const Config& config) {
  return baseline::run_deadlock_fuzzer(program, config.df_options());
}

}  // namespace wolf
