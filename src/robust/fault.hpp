// Fault injection for the execution substrates and the analysis pipeline.
//
// Robustness machinery is only trustworthy when its degradation paths are
// exercised. FaultPlan describes deliberate faults that the sim scheduler,
// the rt executor and the pipeline honor when a plan is plugged into their
// options:
//
//   * thread delays — thread `thread` stalls before its op at pc `at_op`:
//     `wall_ms` of abort-interruptible wall-clock stall on the rt substrate
//     (re-applied on every visit of the pc), `steps` scheduler steps consumed
//     without progress on the sim substrate (a one-shot budget);
//   * dropped force-releases — the Algorithm-4 "nothing runnable, release a
//     paused thread" escape hatch is swallowed, so a steered run wedges; the
//     rt watchdog (ExecutorOptions::deadline_ms) or the sim fault-stall rule
//     then ends the trial with RunOutcome::kTimeout;
//   * throwing classification — the pipeline's prune/generate stage throws
//     while classifying the given cycle index, exercising per-cycle
//     isolation;
//   * trace corruption — corrupt_trace_text() truncates and/or garbles
//     serialized trace text, exercising the salvaging reader.
//
// Used by tests and the CLI's --fault flag to prove the watchdog, retry,
// salvage and isolation paths actually engage.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/ids.hpp"

namespace wolf::robust {

struct FaultPlan {
  struct Delay {
    ThreadId thread = kInvalidThread;
    int at_op = 0;             // pc within the thread's op list
    std::int64_t wall_ms = 0;  // rt executor stall (abort-interruptible)
    int steps = 0;             // sim scheduler steps consumed without progress
  };
  std::vector<Delay> delays;

  // Swallow force-releases (Algorithm 4 lines 5–7). Only a watchdog deadline
  // (rt) or the scheduler's fault-stall rule (sim) can then end a wedged run.
  bool drop_force_releases = false;

  // The pipeline's classification throws while classifying this cycle
  // index.
  int classify_throw_cycle = -1;

  // The governed detector throws while running this window's detection
  // (< 0 disables) — exercises per-window fault containment
  // (core/governor.hpp).
  int detect_throw_window = -1;

  // corrupt_trace_text(): keep only this fraction of the serialized
  // characters (< 0 disables; mid-line cuts model a crashed recorder).
  double truncate_fraction = -1.0;
  // corrupt_trace_text(): overwrite this 0-based line with garbage
  // (< 0 disables).
  int garble_line = -1;

  // corrupt_trace_bytes(): torn write — keep only the first N bytes of the
  // serialized output (< 0 disables). Unlike truncate_fraction this is an
  // absolute byte offset, so tests can place the tear anywhere, including
  // mid-record in a binary v3 block. Also the kill point of
  // support::atomic_write_file: a tear during a governed `wolf record`
  // aborts before the rename, leaving any previous file intact.
  std::int64_t io_tear_after = -1;
  // corrupt_trace_bytes(): flip one bit in each of N pseudo-randomly chosen
  // bytes (0 disables) — the fault the v3 per-block checksums exist to
  // catch.
  int bitflip_count = 0;

  const Delay* find_delay(ThreadId thread, int pc) const;
  bool corrupts_trace() const {
    return truncate_fraction >= 0.0 || garble_line >= 0 ||
           io_tear_after >= 0 || bitflip_count > 0;
  }
  // True when any clause targets execution (as opposed to trace bytes or
  // the analysis pipeline) — Config::validate() warns when these are set
  // without a retry budget to absorb them.
  bool faults_execution() const {
    return !delays.empty() || drop_force_releases;
  }
};

// Parses a CLI fault spec: ';'-separated clauses of
//   delay:t=<tid>,op=<pc>,ms=<wall_ms>,steps=<steps>   (ms/steps optional)
//   drop-releases
//   classify-throw=<cycle>
//   detect-throw-window=<window>
//   truncate=<fraction>
//   garble=<line>
//   tear=<bytes>
//   bitflip=<count>
// e.g. "delay:t=1,op=0,ms=5000;drop-releases". Returns nullopt and fills
// *error on a malformed spec.
std::optional<FaultPlan> parse_fault_plan(const std::string& spec,
                                          std::string* error = nullptr);

// Applies the plan's trace corruptions (garble first, then truncation) to
// serialized trace text.
std::string corrupt_trace_text(std::string text, const FaultPlan& plan);

// Byte-level trace corruption, format-agnostic (works on binary v3 as well
// as text): bit flips first (at positions derived deterministically from
// `seed`), then the torn write. text-level clauses (garble/truncate) are
// NOT applied here — callers on a text format compose both.
std::string corrupt_trace_bytes(std::string bytes, const FaultPlan& plan,
                                std::uint64_t seed = 0);

}  // namespace wolf::robust
