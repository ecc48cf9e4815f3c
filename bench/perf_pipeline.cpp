// perf_pipeline — benchmark-gated perf harness for the parallel analysis
// engine (DESIGN.md §10).
//
// Runs the post-trace pipeline (detect → prune → generate → replay) over a
// set of workloads twice — once serial (--jobs 1) and once parallel — and
// emits machine-readable BENCH_pipeline.json with wall-clock and aggregate
// CPU seconds per phase, cycles/sec, and the classification-phase speedup,
// so the perf trajectory is tracked from PR 2 onward. The harness fails
// (exit 1) if the parallel classification is not byte-identical to serial:
// speed is only counted when the answer is the same.
//
// Workloads: a slice of the paper suite plus a synthetic many-cycle stress
// program (a ring of k locks where each thread chains into its `degree`
// successors, giving O(k·degree) conflicting lock pairs and hundreds of
// enumerable cycles — detection and classification load far beyond what the
// paper benchmarks produce).
//
// A third pass re-runs the parallel configuration with the observability
// layer armed (counters on, RunMetrics collected and serialized, exactly
// what --metrics-out does) and gates its overhead: the run fails if obs
// costs more than max(5% of the un-instrumented wall time, a 50 ms noise
// floor), or if instrumentation perturbs any classification.
// --metrics-out=<file> additionally writes the stress workload's metrics
// JSON for CI to archive.
//
//   perf_pipeline [--quick] [--jobs=N] [--out=BENCH_pipeline.json]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "support/flags.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "workloads/collections.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

using namespace wolf;

namespace {

// Synthetic many-cycle stress workload. Threads t_0 … t_{k-1} share a ring
// of k locks; thread i acquires (l_i, l_{(i+d) mod k}) for every chain
// degree d in 1..degree. Any cyclic chain of forward hops that wraps the
// ring within the detector's cycle-length cap closes a potential deadlock,
// so the cycle count grows combinatorially with k and degree while each
// individual critical section stays tiny (recording completes easily).
sim::Program make_stress(int threads, int degree) {
  sim::Program p;
  p.name = "stress-" + std::to_string(threads) + "x" + std::to_string(degree);

  std::vector<LockId> ring;
  for (int i = 0; i < threads; ++i)
    ring.push_back(p.add_lock("ring-" + std::to_string(i),
                              p.site("Stress.ring", i)));

  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  for (int i = 0; i < threads; ++i)
    workers.push_back(p.add_thread("worker-" + std::to_string(i)));

  for (int i = 0; i < threads; ++i) {
    ThreadId t = workers[static_cast<std::size_t>(i)];
    for (int d = 1; d <= degree; ++d) {
      const int j = (i + d) % threads;
      const int tag = i * 100 + d;
      p.lock(t, ring[static_cast<std::size_t>(i)], p.site("Stress.outer", tag));
      p.lock(t, ring[static_cast<std::size_t>(j)], p.site("Stress.inner", tag));
      p.unlock(t, ring[static_cast<std::size_t>(j)],
               p.site("Stress.innerExit", tag));
      p.unlock(t, ring[static_cast<std::size_t>(i)],
               p.site("Stress.outerExit", tag));
      p.compute(t, p.site("Stress.pause", tag));
    }
  }

  SiteId spawn = p.site("Stress.spawn", 1);
  SiteId joinsite = p.site("Stress.join", 2);
  for (ThreadId t : workers) p.start(main, t, spawn);
  for (ThreadId t : workers) p.join(main, t, joinsite);

  p.finalize();
  return p;
}

// Everything classification-level a report asserts, in cycle order: if two
// runs agree on this string, they told the user the same thing.
std::string classification_fingerprint(const WolfReport& report) {
  std::ostringstream os;
  for (const CycleReport& c : report.cycles) {
    os << c.cycle_index << ':' << to_string(c.classification) << ':'
       << static_cast<int>(c.prune_verdict) << ':' << c.gs_vertices << ':'
       << c.replay_stats.attempts << ',' << c.replay_stats.hits << ','
       << c.replay_stats.other_deadlocks << ',' << c.replay_stats.no_deadlocks
       << ',' << c.replay_stats.step_limits << ',' << c.replay_stats.timeouts
       << ':' << c.failure_reason << '\n';
  }
  for (const DefectReport& d : report.defects) {
    os << "defect:";
    for (SiteId s : d.signature) os << s << ',';
    os << to_string(d.classification);
    for (std::size_t c : d.cycle_indices) os << ':' << c;
    os << '\n';
  }
  return os.str();
}

struct PhaseSample {
  double feasibility_wall = 0;
  double replay_wall = 0;
  double classify_wall = 0;
  double classify_cpu = 0;
  double prune_cpu = 0;
  double generate_cpu = 0;
  double replay_cpu = 0;
  double total_wall = 0;
  double cycles_per_second = 0;

  static PhaseSample of(const WolfReport& report, double total_wall) {
    PhaseSample s;
    s.feasibility_wall = report.timings.feasibility_wall_seconds;
    s.replay_wall = report.timings.replay_wall_seconds;
    s.classify_wall = report.timings.classify_wall_seconds();
    s.classify_cpu = report.timings.classify_cpu_seconds();
    s.prune_cpu = report.timings.prune_seconds;
    s.generate_cpu = report.timings.generate_seconds;
    s.replay_cpu = report.timings.replay_seconds;
    s.total_wall = total_wall;
    if (s.classify_wall > 0)
      s.cycles_per_second =
          static_cast<double>(report.cycles.size()) / s.classify_wall;
    return s;
  }

  void to_json(std::ostream& os, const std::string& indent) const {
    os << indent << "\"feasibility_wall_seconds\": " << feasibility_wall
       << ",\n"
       << indent << "\"replay_wall_seconds\": " << replay_wall << ",\n"
       << indent << "\"classify_wall_seconds\": " << classify_wall << ",\n"
       << indent << "\"classify_cpu_seconds\": " << classify_cpu << ",\n"
       << indent << "\"prune_cpu_seconds\": " << prune_cpu << ",\n"
       << indent << "\"generate_cpu_seconds\": " << generate_cpu << ",\n"
       << indent << "\"replay_cpu_seconds\": " << replay_cpu << ",\n"
       << indent << "\"total_wall_seconds\": " << total_wall << ",\n"
       << indent << "\"cycles_per_second\": " << cycles_per_second << '\n';
  }
};

struct WorkloadResult {
  std::string name;
  std::size_t events = 0;
  std::size_t tuples = 0;
  std::size_t cycles = 0;
  std::size_t defects = 0;
  double detect_seconds = 0;
  PhaseSample serial;
  PhaseSample parallel;
  PhaseSample obs;  // parallel again, with counters + metrics collection on
  bool identical = false;
  bool obs_identical = false;
  double speedup = 0;  // serial classify wall / parallel classify wall
  std::string metrics_json;  // full RunMetrics of the obs pass
};

WorkloadResult measure(const std::string& name, const sim::Program& program,
                       int jobs, int attempts, std::uint64_t seed,
                       std::uint64_t max_steps) {
  WorkloadResult result;
  result.name = name;

  robust::RetryPolicy record_retry;
  record_retry.max_attempts = 60;
  auto trace = sim::record_trace(program, seed, record_retry, max_steps);
  if (!trace.has_value()) {
    std::cerr << name << ": every recording run deadlocked; skipping\n";
    return result;
  }
  result.events = trace->size();

  WolfOptions options;
  options.seed = seed;
  options.replay.attempts = attempts;
  options.max_steps = max_steps;

  std::string fingerprints[2];
  for (int pass = 0; pass < 2; ++pass) {
    options.jobs = pass == 0 ? 1 : jobs;
    Stopwatch watch;
    WolfReport report = analyze_trace(program, *trace, options);
    const double total_wall = watch.seconds();
    fingerprints[pass] = classification_fingerprint(report);
    (pass == 0 ? result.serial : result.parallel) =
        PhaseSample::of(report, total_wall);
    if (pass == 0) {
      result.tuples = report.detection.dep.log.size();
      result.cycles = report.cycles.size();
      result.defects = report.defects.size();
      result.detect_seconds = report.timings.detect_seconds;
    }
  }
  result.identical = fingerprints[0] == fingerprints[1];
  if (result.parallel.classify_wall > 0)
    result.speedup = result.serial.classify_wall / result.parallel.classify_wall;

  // Pass 3 — the parallel configuration again with obs armed: counters
  // enabled, RunMetrics assembled and serialized, as --metrics-out would.
  // The serialization is inside the timed region on purpose: the gate
  // covers everything a user pays for.
  {
    options.jobs = jobs;
    obs::set_counters_enabled(true);
    obs::CounterSnapshot before = obs::CounterRegistry::instance().snapshot();
    Stopwatch watch;
    WolfReport report = analyze_trace(program, *trace, options);
    obs::RunMetrics metrics = collect_metrics(report);
    metrics.counters =
        obs::delta(obs::CounterRegistry::instance().snapshot(), before);
    result.metrics_json = obs::to_json(metrics);
    result.obs = PhaseSample::of(report, watch.seconds());
    obs::set_counters_enabled(false);
    result.obs_identical =
        classification_fingerprint(report) == fingerprints[0];
  }
  return result;
}

void write_json(std::ostream& os, const std::vector<WorkloadResult>& results,
                bool quick, int jobs) {
  os << "{\n"
     << "  \"bench\": \"perf_pipeline\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"hardware_concurrency\": " << ThreadPool::hardware_jobs() << ",\n"
     << "  \"jobs\": " << jobs << ",\n"
     << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"events\": " << r.events << ",\n"
       << "      \"tuples\": " << r.tuples << ",\n"
       << "      \"cycles\": " << r.cycles << ",\n"
       << "      \"defects\": " << r.defects << ",\n"
       << "      \"detect_seconds\": " << r.detect_seconds << ",\n"
       << "      \"serial\": {\n";
    r.serial.to_json(os, "        ");
    os << "      },\n"
       << "      \"parallel\": {\n";
    r.parallel.to_json(os, "        ");
    os << "      },\n"
       << "      \"obs\": {\n";
    r.obs.to_json(os, "        ");
    os << "      },\n"
       << "      \"classification_identical\": "
       << (r.identical ? "true" : "false") << ",\n"
       << "      \"obs_identical\": " << (r.obs_identical ? "true" : "false")
       << ",\n"
       << "      \"obs_overhead_seconds\": "
       << (r.obs.total_wall - r.parallel.total_wall) << ",\n"
       << "      \"classify_wall_speedup\": " << r.speedup << '\n'
       << "    }" << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_bool("quick", false, "CI smoke mode: fewer workloads, fewer "
                                    "replay attempts");
  flags.define_int("jobs", 0,
                   "parallel jobs to compare against serial "
                   "(0 = hardware concurrency, min 4 for the comparison)");
  flags.define_int("seed", 2014, "seed");
  // Note: cycles only close when the ring wraps within the detector's
  // 5-thread cycle cap, i.e. threads <= 5 * degree.
  flags.define_int("stress-threads", 0,
                   "stress ring size (0 = 8 quick / 16 full)");
  flags.define_int("stress-degree", 0,
                   "stress chain degree (0 = 2 quick / 4 full)");
  flags.define_string("out", "BENCH_pipeline.json", "JSON output path");
  flags.define_string("metrics-out", "",
                      "also write the stress workload's RunMetrics JSON "
                      "(the obs pass) to this path");
  if (!flags.parse(argc, argv)) return 1;

  const bool quick = flags.get_bool("quick");
  // The classification-speedup gate assumes >= 4-way parallelism; keep the
  // comparison honest on small CI machines by never comparing below that.
  int jobs = static_cast<int>(flags.get_int("jobs"));
  if (jobs <= 0) jobs = std::max(4, ThreadPool::hardware_jobs());
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const int attempts = quick ? 3 : 6;
  int stress_threads = static_cast<int>(flags.get_int("stress-threads"));
  if (stress_threads <= 0) stress_threads = quick ? 8 : 16;
  int stress_degree = static_cast<int>(flags.get_int("stress-degree"));
  if (stress_degree <= 0) stress_degree = quick ? 2 : 4;

  std::vector<WorkloadResult> results;

  std::vector<std::string> suite_names =
      quick ? std::vector<std::string>{"ArrayList", "HashMap"}
            : std::vector<std::string>{"ArrayList", "Stack", "HashMap",
                                       "TreeMap", "WeakHashMap"};
  const auto suite = workloads::standard_suite();
  for (const std::string& name : suite_names) {
    const workloads::Benchmark& b = workloads::find_benchmark(suite, name);
    results.push_back(
        measure(name, b.program, jobs, attempts, seed, b.max_steps));
  }

  sim::Program stress = make_stress(stress_threads, stress_degree);
  results.push_back(
      measure(stress.name, stress, jobs, attempts, seed, 4'000'000));

  TextTable table({"Workload", "Cycles", "Classify wall (1j)",
                   "Classify wall (" + std::to_string(jobs) + "j)", "Speedup",
                   "Obs wall", "Cycles/s", "Identical"});
  for (const WorkloadResult& r : results)
    table.add_row({r.name, std::to_string(r.cycles),
                   TextTable::num(r.serial.classify_wall * 1e3, 1) + " ms",
                   TextTable::num(r.parallel.classify_wall * 1e3, 1) + " ms",
                   TextTable::num(r.speedup, 2) + "x",
                   TextTable::num(r.obs.total_wall * 1e3, 1) + " ms",
                   TextTable::num(r.parallel.cycles_per_second, 0),
                   r.identical && r.obs_identical ? "yes" : "NO"});
  table.render(std::cout);

  const std::string out = flags.get_string("out");
  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  write_json(os, results, quick, jobs);
  std::cout << "\nwrote " << out << " (hardware concurrency "
            << ThreadPool::hardware_jobs() << ", compared jobs=1 vs jobs="
            << jobs << ")\n";

  const std::string metrics_out = flags.get_string("metrics-out");
  if (!metrics_out.empty() && !results.empty()) {
    std::ofstream ms(metrics_out);
    if (!ms) {
      std::cerr << "cannot write " << metrics_out << '\n';
      return 1;
    }
    ms << results.back().metrics_json;
    std::cout << "wrote " << metrics_out << '\n';
  }

  bool all_identical = true;
  for (const WorkloadResult& r : results)
    all_identical &= r.identical && r.obs_identical;
  if (!all_identical) {
    std::cerr << "FAIL: parallel or instrumented classification diverged "
                 "from serial\n";
    return 1;
  }

  // Observability overhead gate: the instrumented pass may cost at most 5%
  // of the un-instrumented wall time, with a 50 ms floor so timer noise on
  // the sub-second quick runs cannot flake the gate.
  double base_wall = 0, obs_wall = 0;
  for (const WorkloadResult& r : results) {
    base_wall += r.parallel.total_wall;
    obs_wall += r.obs.total_wall;
  }
  const double allowed = std::max(0.05 * base_wall, 0.05);
  std::cout << "obs overhead: " << (obs_wall - base_wall) * 1e3 << " ms over "
            << base_wall * 1e3 << " ms base (allowed " << allowed * 1e3
            << " ms)\n";
  if (obs_wall - base_wall > allowed) {
    std::cerr << "FAIL: observability overhead exceeds the 5% gate\n";
    return 1;
  }
  return 0;
}
