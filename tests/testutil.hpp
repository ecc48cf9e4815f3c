// Shared helpers for the WOLF test suite, most importantly a generator of
// random well-formed programs used by the property tests: every lock region
// is well nested, control flow is branch-free (so a completed trace covers
// every operation — the premise under which the detector is complete), and
// every operation gets a unique source site (so deadlock signatures identify
// operations exactly).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "sim/program.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace wolf::test {

struct RandomProgramConfig {
  int workers = 3;         // worker threads (thread 0 is always main)
  int locks = 3;
  int blocks_per_worker = 3;  // top-level lock regions per worker
  int max_nesting = 3;
  double nest_probability = 0.55;
  // Probability that a worker is started by the previous worker instead of
  // main, and that main joins a worker before starting the next one — both
  // create the start/join orderings the Pruner reasons about.
  double chained_start_probability = 0.3;
  double early_join_probability = 0.2;
};

// Builds a random program; deterministic in `rng`.
sim::Program random_program(Rng& rng, const RandomProgramConfig& config = {});

// The shapes cycle-enumeration cost depends on, as one start/join program
// (thread 0 is main, which starts and joins every other thread):
//   * layered — each of `layered_threads` threads takes `layered_pairs`
//     nested pairs of `layered_locks` globally ordered locks, outer before
//     inner: many tuples, an acyclic D_σ, no cycle;
//   * ring — `ring_threads` threads on a ring of as many locks, thread i
//     nesting lock i → lock (i+d) mod n for d in 1..ring_degree: one
//     nontrivial SCC carrying many cycles;
//   * generations — the ring is run by this many thread generations, and
//     main joins each before it starts the next, so every cycle across two
//     generations is infeasible by Algorithm 2.
// Ring thread i of generation g is named "gen<g>-<i>".
struct LockShapeConfig {
  int layered_threads = 0;
  int layered_locks = 0;
  int layered_pairs = 0;  // nested pairs per layered thread
  int ring_threads = 0;
  int ring_degree = 1;
  int generations = 1;
};

sim::Program lock_shape_program(const LockShapeConfig& config);

// Sorted site multiset of a run's deadlock cycle.
std::vector<SiteId> deadlock_signature(const sim::RunResult& result);

// `trace` as a v3 file without the footer block index. The writer always
// appends the index, so this cuts its bytes at the index-section offset
// that the 16-byte trailer names, leaving a valid index-free trace.
std::string unindexed_v3(const Trace& trace);

// Counter deltas across `run()`, with counter collection on for its
// duration (the registry is process-wide and monotonic).
template <class Run>
obs::CounterSnapshot counter_delta(Run run) {
  obs::CounterRegistry& registry = obs::CounterRegistry::instance();
  const bool was_enabled = obs::counters_enabled();
  obs::set_counters_enabled(true);
  const obs::CounterSnapshot before = registry.snapshot();
  run();
  const obs::CounterSnapshot after = registry.snapshot();
  obs::set_counters_enabled(was_enabled);
  return obs::delta(after, before);
}

// While in scope, every cycle enumeration that has a start tuple throws: the
// engine ticks progress after each start, and this installs a throwing
// progress writer with heartbeats on at a 0 ms interval. The destructor
// restores the defaults (off, 500 ms, stderr).
class EnumerationFault {
 public:
  EnumerationFault() {
    obs::set_progress_writer(&throw_line);
    obs::set_progress_interval_ms(0);
    obs::set_progress_enabled(true);
  }
  ~EnumerationFault() {
    obs::set_progress_enabled(false);
    obs::set_progress_interval_ms(500);
    obs::set_progress_writer(nullptr);
  }
  EnumerationFault(const EnumerationFault&) = delete;
  EnumerationFault& operator=(const EnumerationFault&) = delete;

 private:
  static void throw_line(const char* line) {
    throw std::runtime_error(std::string("injected enumeration fault at ") +
                             line);
  }
};

}  // namespace wolf::test
