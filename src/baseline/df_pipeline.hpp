// End-to-end DeadlockFuzzer pipeline: base (trace-agnostic) iGoodLock
// detection followed by randomized reproduction of every cycle. This is the
// comparator column of Tables 1–2 and Figures 8/10. DeadlockFuzzer has no
// Pruner/Generator, so every non-reproduced cycle stays unknown.
#pragma once

#include <cstdint>
#include <vector>

#include "baseline/deadlock_fuzzer.hpp"
#include "core/pipeline.hpp"
#include "obs/report.hpp"

namespace wolf::baseline {

// What wolf::Config::df_options() (wolf.hpp) derives from Config's shared
// sections: the options run_deadlock_fuzzer takes.
struct DfOptions {
  std::uint64_t seed = 1;
  DetectorOptions detector;
  ReplayOptions replay;
  int record_attempts = 20;
  std::uint64_t max_steps = 2'000'000;
};

struct DfCycleReport {
  std::size_t cycle_index = 0;
  Classification classification = Classification::kUnknown;
  ReplayStats stats;
};

struct DfReport {
  bool trace_recorded = false;
  Detection detection;
  std::vector<DfCycleReport> cycles;
  std::vector<DefectReport> defects;
  PhaseTimings timings;
  // Raw span tree (phase/record|detect|replay + per-cycle cycle/replay)
  // that `timings` is computed from; feeds collect_metrics below.
  std::vector<obs::SpanRecord> spans;

  int count_cycles(Classification c) const;
  int count_defects(Classification c) const;
};

DfReport run_deadlock_fuzzer(const sim::Program& program,
                             const DfOptions& options);

// Variant operating on a pre-recorded trace (shared-trace comparisons).
DfReport analyze_trace_df(const sim::Program& program, const Trace& trace,
                          const DfOptions& options);

// Span tree + per-cycle funnel of a finished baseline run, as the shared
// obs::RunMetrics shape (tool = "df"). Counters are left empty: the caller
// owns the registry snapshot/delta around the run.
obs::RunMetrics collect_metrics(const DfReport& report);

}  // namespace wolf::baseline
