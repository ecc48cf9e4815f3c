// Multi-input / multi-schedule analysis — the mitigation §4.4 proposes for
// the incomplete-trace limitation: "Integrate WOLF with … automatic test
// input generators and effective schedule explorers."
//
// Runs the full pipeline over several recorded executions (different seeds
// standing in for different test inputs / schedules) and merges the per-run
// classifications per source-location defect. Merging takes the *most
// alarming* verdict: a defect reproduced on any run is real; a defect that
// is false on one path may still be unknown or real on another (the Fig. 4
// caveat about eliminating θ1 when t3 could be started differently), so
// false verdicts never override.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"

namespace wolf {

// What wolf::Config::multi_options() (wolf.hpp) produces: the options
// run_wolf_multi takes.
struct MultiRunOptions {
  int runs = 5;
  std::uint64_t seed = 1;  // run i uses a seed derived from this
  // Total parallelism budget (0 = hardware concurrency). Whole-pipeline runs
  // execute concurrently, up to min(jobs, runs) at a time; any leftover
  // budget is spent inside each run's classification phases (wolf.jobs is
  // overridden accordingly). Results are identical at every jobs level:
  // per-run seeds depend only on the run index, and runs are merged in run
  // order after all have finished.
  int jobs = 1;
  WolfOptions wolf;
};

struct MergedDefect {
  DefectSignature signature;
  Classification classification = Classification::kUnknown;
  int runs_detected = 0;   // in how many runs the defect was detected
  int first_seen_run = 0;  // index of the first run that detected it
};

struct MultiRunReport {
  std::vector<WolfReport> runs;
  std::vector<MergedDefect> defects;  // union over runs, first-seen order

  int count(Classification c) const;
};

// True iff `a` should override `b` when merging (more alarming verdict).
bool overrides(Classification a, Classification b);

MultiRunReport run_wolf_multi(const sim::Program& program,
                              const MultiRunOptions& options);

}  // namespace wolf
