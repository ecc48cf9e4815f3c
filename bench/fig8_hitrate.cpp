// Reproduces Figure 8: the hit rate of reproducing each potential deadlock,
// averaged over N replay runs per deadlock (the paper uses 100), for WOLF's
// Gs-driven Replayer vs the randomized DeadlockFuzzer baseline.
//
// A "hit" is a re-execution that deadlocks with acquisitions blocked at the
// same source locations as the potential deadlock (§4.2). Hit rates are
// averaged over the replayable cycles of each benchmark (those that survive
// the Pruner and Generator — the paper replays only reported potential
// deadlocks); every replayable cycle is measured, and benchmarks with none
// (cache4j) are omitted like in the figure.
#include <cstdio>
#include <iostream>

#include "baseline/deadlock_fuzzer.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"
#include "suite_runner.hpp"

using namespace wolf;

int main(int argc, char** argv) {
  Flags flags;
  flags.define_int("seed", 2014, "seed");
  flags.define_int("runs", 100, "replay runs per potential deadlock");
  if (!flags.parse(argc, argv)) return 1;

  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int runs = static_cast<int>(flags.get_int("runs"));

  std::cout << "Figure 8 — hit rate over " << runs
            << " runs per potential deadlock (WOLF vs DeadlockFuzzer)\n";
  TextTable table(
      {"Benchmark", "Cycles measured", "WOLF hit rate", "DF hit rate"});

  for (const workloads::Benchmark& bench : workloads::standard_suite()) {
    auto trace = sim::record_trace(bench.program, seed, 50, bench.max_steps);
    if (!trace.has_value()) continue;
    Detection detection = detect(*trace);
    auto verdicts = prune(detection);

    double wolf_sum = 0, df_sum = 0;
    int measured = 0;
    for (std::size_t c = 0; c < detection.cycles.size(); ++c) {
      if (is_false(verdicts[c])) continue;
      GeneratorResult gen = generate(detection.cycles[c], detection.dep);
      if (!gen.feasible) continue;

      ReplayOptions options;
      options.attempts = runs;
      options.stop_on_first_hit = false;
      options.seed = mix64(seed + c);
      options.max_steps = bench.max_steps;

      ReplayStats wolf_stats = replay(bench.program, detection.cycles[c],
                                      detection.dep, gen.gs, options);
      ReplayStats df_stats = baseline::fuzz(bench.program,
                                            detection.cycles[c],
                                            detection.dep, options);
      wolf_sum += wolf_stats.hit_rate();
      df_sum += df_stats.hit_rate();
      ++measured;
    }
    if (measured == 0) continue;  // nothing replayable (e.g. cache4j)
    table.add_row({bench.name, std::to_string(measured),
                   TextTable::num(wolf_sum / measured, 2),
                   TextTable::num(df_sum / measured, 2)});
  }
  table.render(std::cout);
  std::cout << "\npaper: WOLF above DF on every benchmark; DF near zero on\n"
               "the abstraction-colliding Collections deadlocks (Fig. 9).\n";
  return 0;
}
