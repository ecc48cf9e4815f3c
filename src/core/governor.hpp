// Resource-governed online detection (DESIGN.md §14) — the engine of
// wolf::Session. Session::Impl (core/governor.cpp) is the governor: it reads
// the session's Config directly; this header holds the types its reports
// are made of.
//
// Events stream into the same LockDependencyBuilder batch detect() uses, and
// finish() enumerates the whole retained store once. What a window boundary
// adds is paid for only when something reads it: a memory budget to
// enforce, a window deadline to keep, or a live subscriber or poll()
// collector to feed (Config::governed()). Without one, the session only
// builds D_σ — batch detect() over a stream — and finish() runs the one
// enumeration. With one, ingestion is chopped into fixed-size
// event windows, and at every window boundary the governor
//
//   1. consults the linear-time sound pre-filter (core/prefilter.hpp) — the
//      expensive tuple-level cycle enumeration fires only on windows the
//      lock graph flags as suspicious, and only at ladder rungs that allow
//      it. The builder keeps D_σ's canonical view at insert, and only
//      canonical arrivals (the first retained tuple of each TupleKey) reach
//      the lock graph, so a window in which only duplicates arrived dirties
//      nothing and is not suspicious;
//   2. enforces the memory budget on the tuple store: first *compaction*
//      (dropping non-canonical duplicate tuples — lossless for cycle
//      enumeration, which runs over the canonical view, and invisible to
//      the lock graph, which never saw them), then, only if the budget is
//      still exceeded, *aging* (evicting the oldest tuples — lossy, and
//      therefore reported);
//   3. drives the degradation ladder off the window's detection latency:
//
//          kFullScc → kClockPruned → kPrefilterOnly   (deadline pressure)
//                                      kShedding      (memory pressure)
//
//      A window that blows its deadline demotes the rung; two consecutive
//      comfortably-fast windows promote it back (hysteresis). kClockPruned
//      folds the Pruner's clock cut into the per-window search — cheaper,
//      and principled: the cycles it skips are exactly the ones the Pruner
//      would prove infeasible. kPrefilterOnly stops per-window enumeration
//      entirely; windows are still flagged. kShedding is not a rung the
//      deadline reaches — it marks windows where aging evicted tuples.
//
// Honesty contract (the same one --max-cycles truncation already honors):
// every downgrade is surfaced. Each window produces a WindowReport; the
// run produces a GovernorVerdict whose coverage_complete is true iff the
// final Detection provably equals what batch analysis of the same event
// stream would produce — no eviction, no malformed event, no detection
// fault. Per-window enumeration faults (injected or real) degrade only
// that window's early surfacing; finish() re-enumerates over everything
// retained, so they do not lose final coverage. A fault *in* finish() does,
// and flips coverage_complete; finish() never throws.
//
// Per-window enumeration is *incremental* (DESIGN.md §16): the pre-filter
// maintains its SCC decomposition under canonical arrival and eviction
// (graph/dynamic_scc.hpp), and a window enumerates only the canonical
// tuples whose request lock lies in a *dirty* suspicious SCC — one whose
// membership, edges, or fed tuples changed since the last enumerating
// window — through LockDependencyBuilder::snapshot_subset. finish()
// enumerates the whole retained store, so batch detect() over the same
// events is the oracle the window path is tested against. Windows also
// surface each first-sighted cycle, the moment it is found, to poll()'s
// list and then to Config::on_cycle.
//
// Everything runs on the ingesting thread (DESIGN.md §17): a suspicious
// window's dirty components are enumerated as one combined subset with
// Config::detector, by the same serial engine batch detect() runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/detector.hpp"

namespace wolf {

// The degradation ladder, cheapest-last. Numeric order is demotion order.
enum class DetectionLevel : std::uint8_t {
  kFullScc = 0,        // suspicious windows get full cycle enumeration
  kClockPruned = 1,    // enumeration with the in-search clock cut
  kPrefilterOnly = 2,  // windows only flagged; enumeration deferred
  kShedding = 3,       // memory pressure: oldest tuples evicted (lossy)
};
const char* to_string(DetectionLevel level);

// One cycle surfaced mid-run by per-window enumeration, delivered to the
// subscriber at window granularity on its *first* sighting (finish() never
// re-delivers). The pointers borrow the window's transient detection state
// and are valid only for the duration of the callback — copy what you keep.
struct LiveCycle {
  std::size_t window = 0;    // WindowReport::index that surfaced it
  std::size_t sequence = 0;  // 1-based count of cycles surfaced so far
  const PotentialDeadlock* cycle = nullptr;
  // The enumerated subset, canonical tuples only; cycle->tuple_idx indexes
  // its tuples, not the session's store.
  const LockDependency* dep = nullptr;
};

// Subscription must be observation-only: finish() returns byte-identical
// results whether or not a subscriber is attached. A throwing subscriber is
// contained like any per-window detection fault (that window degrades; the
// final enumeration still covers everything retained).
using CycleSubscriber = std::function<void(const LiveCycle&)>;

// What happened in one window — the structured, honestly-reported verdict
// of the degradation machinery.
struct WindowReport {
  std::size_t index = 0;
  std::size_t events = 0;       // events ingested in this window
  std::size_t tuples_live = 0;  // tuples retained after governance
  std::size_t store_bytes = 0;  // approx store footprint after governance
  DetectionLevel level = DetectionLevel::kFullScc;  // rung the window ran at
  // A canonical tuple arrived or expired since the last drain (or earlier
  // marks are still queued) and the lock graph has a suspicious SCC. A
  // window of duplicates only is never suspicious.
  bool suspicious = false;
  std::size_t new_cycles = 0;   // cycles first surfaced in this window
  std::size_t tuples_compacted = 0;
  std::size_t tuples_evicted = 0;  // > 0 ⇒ lossy (level == kShedding)
  double detect_seconds = 0;    // detection latency of this window
  std::string note;             // fault/failure detail; empty when clean

  bool degraded() const {
    return level != DetectionLevel::kFullScc || tuples_evicted > 0 ||
           !note.empty();
  }
};

// Run-level roll-up. coverage_complete is the load-bearing bit: when true,
// the final Detection covers exactly what batch analysis would.
struct GovernorVerdict {
  bool coverage_complete = true;
  std::size_t windows = 0;
  std::size_t suspicious_windows = 0;
  std::size_t degraded_windows = 0;
  std::size_t tuples_compacted = 0;
  std::size_t tuples_evicted = 0;
  std::size_t detection_faults = 0;
  DetectionLevel final_level = DetectionLevel::kFullScc;
  std::vector<std::string> notes;  // one per fault/degradation event (capped)

  bool degraded() const { return degraded_windows > 0 || !coverage_complete; }
  std::string summary() const;  // one human-readable line
};

// Pure ladder-transition rule, exposed for deterministic tests: given the
// current rung, one window's detection latency and the deadline, returns
// the next rung and updates the promote-hysteresis streak (demote resets
// it; promotion requires two consecutive windows under half the deadline).
DetectionLevel next_rung(DetectionLevel current, double detect_seconds,
                         std::int64_t deadline_ms, int& fast_streak);

// Approximate heap footprint of one stored tuple (vector capacities
// included) — the unit of the governor's memory accounting.
std::size_t tuple_bytes(const LockTuple& tuple);

}  // namespace wolf
