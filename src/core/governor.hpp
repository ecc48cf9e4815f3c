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
//      it. The builder keeps D_σ's canonical tier at insert, and only
//      canonical arrivals (the first retained acquisition of each TupleKey)
//      reach the lock graph, so a window in which only duplicates arrived
//      dirties nothing and is not suspicious;
//   2. enforces the memory budget on the store — canonical tuples plus the
//      24-byte acquisition log: first a *log trim* (dropping the oldest log
//      records — lossless for the cycle set, which only the canonical tier
//      carries, and invisible to the lock graph, but the Generator's Gs may
//      then be smaller than batch's, so the first trim is noted in the
//      verdict), then, only if the canonical tier alone exceeds the budget,
//      *aging* (evicting the oldest canonical tuples and every log record
//      older than the oldest retained one — lossy, and therefore reported);
//   3. drives the degradation ladder off the window's detection latency:
//
//          kFullScc ↔ kPrefilterOnly   (deadline pressure)
//                     kShedding        (memory pressure)
//
//      A window that blows its deadline demotes the rung; two consecutive
//      comfortably-fast windows promote it back (hysteresis). kPrefilterOnly
//      stops per-window enumeration entirely; windows are still flagged by
//      the linear-time pre-filter, and the next enumerating window catches
//      up on their marks. kShedding is not a rung the deadline reaches — it
//      marks windows where aging evicted tuples.
//
// Honesty contract (the same one --max-cycles truncation already honors):
// every downgrade is surfaced. Each window produces a WindowReport; the
// run produces a GovernorVerdict whose coverage_complete is true iff the
// final cycle set and canonical tier provably equal what batch analysis of
// the same event stream would produce — no eviction, no malformed event, no
// detection fault. A log trim keeps both, so it leaves coverage complete;
// its verdict note says that Gs may be smaller than batch's. Per-window
// enumeration faults (injected or real) degrade only that window's early
// surfacing; finish() re-enumerates over everything retained, so they do
// not lose final coverage. A fault *in* finish() does, and flips
// coverage_complete; finish() never throws.
//
// Per-window enumeration is *incremental* (DESIGN.md §16): the pre-filter
// maintains its SCC decomposition as canonical tuples arrive
// (graph/dynamic_scc.hpp), and a window enumerates only the canonical
// tuples whose request lock lies in a *dirty* suspicious SCC — one whose
// membership, edges, or fed tuples changed since the last enumerating
// window — through LockDependencyBuilder::snapshot_subset. Eviction leaves
// the lock graph alone (a superset of the retained view's graph is still
// sound), and once the graph's locks plus edges have doubled since its
// last rebuild, it is rebuilt from the retained canonical tuples, so a
// memory budget bounds the lock graph as well as the tuple store. finish()
// enumerates the whole retained store, so batch detect() over the same
// events is the oracle the window path is tested against. Windows also
// surface each first-sighted cycle, the moment it is found, to poll()'s
// list and then to Config::on_cycle.
//
// Everything runs on the ingesting thread (DESIGN.md §17): a suspicious
// window's dirty components are enumerated as one combined subset with
// Config::detector, by the same serial engine batch detect() runs. Windows
// only enumerate; pruning and defect grouping run on finish()'s Detection.
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
  kPrefilterOnly = 1,  // windows only flagged; enumeration deferred
  kShedding = 2,       // memory pressure: oldest tuples evicted (lossy)
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
  std::size_t tuples_live = 0;  // log records retained after governance
  // Approx store footprint after governance: canonical tuples plus log
  // records.
  std::size_t store_bytes = 0;
  DetectionLevel level = DetectionLevel::kFullScc;  // rung the window ran at
  // A canonical tuple arrived since the last drain (or earlier marks are
  // still queued) and the lock graph has a suspicious SCC. A window of
  // duplicates only is never suspicious.
  bool suspicious = false;
  std::size_t new_cycles = 0;   // cycles first surfaced in this window
  // Log records trimmed (the field keeps its historical name, as does the
  // WOLFSERVE/1 verdict key).
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
// the final cycle set and canonical tier equal batch's. tuples_compacted
// counts log records trimmed; once it is nonzero, Gs may be smaller than
// batch's.
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

// Approximate heap footprint of one canonical tuple (vector capacities
// included); with sizeof(Acquisition) per log record, the unit of the
// governor's memory accounting.
std::size_t tuple_bytes(const LockTuple& tuple);

}  // namespace wolf
