// perf_detect — benchmark-gated perf harness for cycle enumeration
// (DESIGN.md §12).
//
// Builds synthetic lock-dependency workloads spanning the shapes that matter
// for enumeration cost, records one trace per workload, and times the
// enumeration step alone (D_σ construction and clock tracking are paid once,
// outside the timed region) for:
//
//   reference        — the test-oracle DFS over every canonical tuple;
//   scc              — the SCC-partitioned bitset engine;
//   scc+clock-cut    — the scc engine with the Pruner's test folded into
//                      the search.
//
// Workloads:
//   ring     — k threads on a ring of k locks, chain degree d: one big
//              nontrivial SCC, combinatorially many cycles (enumeration-bound
//              in the cyclic region itself);
//   layered  — globally ordered lock pairs: a large acyclic D_σ with zero
//              cycles. The reference DFS still chains from every tuple up
//              to the length cap; the SCC engine proves every
//              component trivial and does no search at all;
//   mixed    — the layered DAG with a small ring embedded: the largest
//              workload, and the honest speedup gate (cycles exist, but
//              almost all tuples are acyclic noise);
//   phased   — two thread generations separated by a join barrier sharing
//              one ring: every cross-generation cycle is infeasible, so the
//              in-search clock cut has real branches to kill.
//
// Emits BENCH_detect.json (with hardware_concurrency recorded). Exits 1 if
// the scc cycle sequence diverges from the reference, or the clock-cut
// enumeration differs from the batch-pruned survivors: speed only counts
// when the answer is identical.
//
//   perf_detect [--quick] [--out=BENCH_detect.json]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
#include "core/pruner.hpp"
#include "robust/retry.hpp"
#include "sim/scheduler.hpp"
#include "support/flags.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

using namespace wolf;

namespace {

// k threads on a ring of k locks; thread i acquires (l_i, l_{(i+d) mod k})
// for d in 1..degree (same shape as perf_pipeline's stress workload).
void add_ring(sim::Program& p, int threads, int degree, const char* tag,
              ThreadId main, std::vector<ThreadId>& workers) {
  std::vector<LockId> ring;
  for (int i = 0; i < threads; ++i)
    ring.push_back(p.add_lock(std::string(tag) + "-lock-" + std::to_string(i),
                              p.site(std::string(tag) + ".ring", i)));
  std::vector<ThreadId> ts;
  for (int i = 0; i < threads; ++i)
    ts.push_back(p.add_thread(std::string(tag) + "-" + std::to_string(i)));
  for (int i = 0; i < threads; ++i) {
    ThreadId t = ts[static_cast<std::size_t>(i)];
    for (int d = 1; d <= degree; ++d) {
      const int j = (i + d) % threads;
      const int site_tag = i * 100 + d;
      p.lock(t, ring[static_cast<std::size_t>(i)],
             p.site(std::string(tag) + ".outer", site_tag));
      p.lock(t, ring[static_cast<std::size_t>(j)],
             p.site(std::string(tag) + ".inner", site_tag));
      p.unlock(t, ring[static_cast<std::size_t>(j)],
               p.site(std::string(tag) + ".innerX", site_tag));
      p.unlock(t, ring[static_cast<std::size_t>(i)],
               p.site(std::string(tag) + ".outerX", site_tag));
      p.compute(t, p.site(std::string(tag) + ".pause", site_tag));
    }
  }
  (void)main;
  workers.insert(workers.end(), ts.begin(), ts.end());
}

// Globally ordered nested pairs: thread t acquires (l_a, l_b) with a < b
// only, so the tuple digraph is a DAG — many tuples, zero cycles.
void add_layered(sim::Program& p, int threads, int locks, int pairs_per_thread,
                 std::vector<ThreadId>& workers) {
  std::vector<LockId> order;
  for (int i = 0; i < locks; ++i)
    order.push_back(
        p.add_lock("layer-lock-" + std::to_string(i), p.site("Layer.lock", i)));
  for (int t = 0; t < threads; ++t) {
    ThreadId tid = p.add_thread("layer-" + std::to_string(t));
    workers.push_back(tid);
    for (int k = 0; k < pairs_per_thread; ++k) {
      // Deterministic spread of ordered pairs across the lock ladder.
      const int a = (t * 7 + k * 3) % (locks - 1);
      const int b = a + 1 + (t + k) % (locks - 1 - a);
      const int site_tag = t * 1000 + k;
      p.lock(tid, order[static_cast<std::size_t>(a)],
             p.site("Layer.outer", site_tag));
      p.lock(tid, order[static_cast<std::size_t>(b)],
             p.site("Layer.inner", site_tag));
      p.unlock(tid, order[static_cast<std::size_t>(b)],
               p.site("Layer.innerX", site_tag));
      p.unlock(tid, order[static_cast<std::size_t>(a)],
               p.site("Layer.outerX", site_tag));
    }
  }
}

void start_join_all(sim::Program& p, ThreadId main,
                    const std::vector<ThreadId>& workers) {
  SiteId spawn = p.site("Main.spawn", 1);
  SiteId joinsite = p.site("Main.join", 2);
  for (ThreadId t : workers) p.start(main, t, spawn);
  for (ThreadId t : workers) p.join(main, t, joinsite);
}

sim::Program make_ring(int threads, int degree) {
  sim::Program p;
  p.name = "ring-" + std::to_string(threads) + "x" + std::to_string(degree);
  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  add_ring(p, threads, degree, "Ring", main, workers);
  start_join_all(p, main, workers);
  p.finalize();
  return p;
}

sim::Program make_layered(int threads, int locks, int pairs) {
  sim::Program p;
  p.name = "layered-" + std::to_string(threads) + "t" + std::to_string(locks) +
           "l";
  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  add_layered(p, threads, locks, pairs, workers);
  start_join_all(p, main, workers);
  p.finalize();
  return p;
}

sim::Program make_mixed(int layer_threads, int locks, int pairs,
                        int ring_threads, int ring_degree) {
  sim::Program p;
  p.name = "mixed-" + std::to_string(layer_threads) + "t+" +
           std::to_string(ring_threads) + "ring";
  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  add_layered(p, layer_threads, locks, pairs, workers);
  add_ring(p, ring_threads, ring_degree, "Ring", main, workers);
  start_join_all(p, main, workers);
  p.finalize();
  return p;
}

// Two generations on the same ring, separated by a join barrier: every
// cross-generation cycle is infeasible by Algorithm 2.
sim::Program make_phased(int threads_per_gen, int degree) {
  sim::Program p;
  p.name = "phased-2x" + std::to_string(threads_per_gen);
  ThreadId main = p.add_thread("main");

  std::vector<LockId> ring;
  for (int i = 0; i < threads_per_gen; ++i)
    ring.push_back(
        p.add_lock("phase-lock-" + std::to_string(i), p.site("Phase.lock", i)));

  SiteId spawn = p.site("Phase.spawn", 1);
  SiteId joinsite = p.site("Phase.join", 2);
  for (int gen = 0; gen < 2; ++gen) {
    std::vector<ThreadId> ts;
    for (int i = 0; i < threads_per_gen; ++i)
      ts.push_back(p.add_thread("gen" + std::to_string(gen) + "-" +
                                std::to_string(i)));
    for (int i = 0; i < threads_per_gen; ++i) {
      ThreadId t = ts[static_cast<std::size_t>(i)];
      for (int d = 1; d <= degree; ++d) {
        const int j = (i + d) % threads_per_gen;
        const int site_tag = gen * 10000 + i * 100 + d;
        p.lock(t, ring[static_cast<std::size_t>(i)],
               p.site("Phase.outer", site_tag));
        p.lock(t, ring[static_cast<std::size_t>(j)],
               p.site("Phase.inner", site_tag));
        p.unlock(t, ring[static_cast<std::size_t>(j)],
                 p.site("Phase.innerX", site_tag));
        p.unlock(t, ring[static_cast<std::size_t>(i)],
                 p.site("Phase.outerX", site_tag));
      }
    }
    // The barrier: generation gen is fully joined before gen+1 starts.
    for (ThreadId t : ts) p.start(main, t, spawn);
    for (ThreadId t : ts) p.join(main, t, joinsite);
  }
  p.finalize();
  return p;
}

std::string cycles_fingerprint(const std::vector<PotentialDeadlock>& cycles) {
  std::ostringstream os;
  for (const PotentialDeadlock& c : cycles) {
    for (std::size_t idx : c.tuple_idx) os << idx << ',';
    os << ';';
  }
  return os.str();
}

struct EngineSample {
  double seconds = 0;  // best-of-reps enumeration wall clock
  std::size_t cycles = 0;
  double cycles_per_second = 0;
  std::string fingerprint;
};

// Best-of-`reps` timing of one enumeration call.
template <class Enumerate>
EngineSample time_engine(Enumerate enumerate, int reps) {
  EngineSample sample;
  sample.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    EnumerationResult result = enumerate();
    sample.seconds = std::min(sample.seconds, watch.seconds());
    if (rep == 0) {
      sample.cycles = result.cycles.size();
      sample.fingerprint = cycles_fingerprint(result.cycles);
    }
  }
  if (sample.seconds > 0)
    sample.cycles_per_second =
        static_cast<double>(sample.cycles) / sample.seconds;
  return sample;
}

struct WorkloadResult {
  std::string name;
  std::size_t events = 0;
  std::size_t tuples = 0;     // canonical
  std::size_t cycles = 0;     // full enumeration
  EngineSample reference;
  EngineSample scc;
  EngineSample clock_cut;
  std::size_t surviving_cycles = 0;  // batch-pruner survivors
  double speedup_scc = 0;      // reference / scc
  bool identical = false;      // ref == scc, clock cut == survivors
};

WorkloadResult measure(const sim::Program& program, int reps,
                       std::uint64_t seed) {
  WorkloadResult r;
  r.name = program.name;

  robust::RetryPolicy retry;
  retry.max_attempts = 60;
  auto trace = sim::record_trace(program, seed, retry, 8'000'000);
  if (!trace.has_value()) {
    std::cerr << r.name << ": every recording run deadlocked; skipping\n";
    return r;
  }
  r.events = trace->size();

  // Build D_σ and the clocks once; only enumeration is timed.
  Detection det = detect(*trace);
  r.tuples = det.dep.unique.size();

  DetectorOptions options;
  const auto time_scc = [&](const ClockTracker* clocks) {
    return time_engine(
        [&] { return enumerate_cycles_scc(det.dep, options, clocks); }, reps);
  };
  r.reference = time_engine(
      [&] { return enumerate_cycles_reference(det.dep, options); }, reps);
  r.scc = time_scc(nullptr);

  options.clock_prune_during_search = true;
  r.clock_cut = time_scc(&det.clocks);

  r.cycles = r.reference.cycles;
  if (r.scc.seconds > 0) r.speedup_scc = r.reference.seconds / r.scc.seconds;

  // The correctness gates: the scc engine emits the reference's canonical
  // sequence; clock-cut enumeration == the batch pruner's survivors.
  const std::vector<PruneVerdict> verdicts = prune(det);
  std::vector<PotentialDeadlock> survivors;
  for (std::size_t i = 0; i < det.cycles.size(); ++i)
    if (!is_false(verdicts[i])) survivors.push_back(det.cycles[i]);
  r.surviving_cycles = survivors.size();
  r.identical = r.reference.fingerprint == r.scc.fingerprint &&
                r.clock_cut.fingerprint == cycles_fingerprint(survivors);
  return r;
}

void sample_json(std::ostream& os, const char* key, const EngineSample& s,
                 const char* trail) {
  os << "      \"" << key << "\": {\"seconds\": " << s.seconds
     << ", \"cycles\": " << s.cycles
     << ", \"cycles_per_second\": " << s.cycles_per_second << "}" << trail
     << '\n';
}

void write_json(std::ostream& os, const std::vector<WorkloadResult>& results,
                bool quick) {
  os << "{\n"
     << "  \"bench\": \"perf_detect\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"hardware_concurrency\": " << ThreadPool::hardware_jobs() << ",\n"
     << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    os << "    {\n"
       << "      \"name\": \"" << r.name << "\",\n"
       << "      \"events\": " << r.events << ",\n"
       << "      \"canonical_tuples\": " << r.tuples << ",\n"
       << "      \"cycles\": " << r.cycles << ",\n"
       << "      \"surviving_cycles\": " << r.surviving_cycles << ",\n";
    sample_json(os, "reference", r.reference, ",");
    sample_json(os, "scc", r.scc, ",");
    sample_json(os, "scc_clock_cut", r.clock_cut, ",");
    os << "      \"speedup_scc_vs_reference\": " << r.speedup_scc << ",\n"
       << "      \"identical\": " << (r.identical ? "true" : "false") << '\n'
       << "    }" << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_bool("quick", false,
                    "CI smoke mode: smaller workloads, fewer reps");
  flags.define_int("seed", 2014, "seed");
  flags.define_int("reps", 0, "timing repetitions (0 = 3 quick / 5 full)");
  flags.define_string("out", "BENCH_detect.json", "JSON output path");
  if (!flags.parse(argc, argv)) return 1;

  const bool quick = flags.get_bool("quick");
  int reps = static_cast<int>(flags.get_int("reps"));
  if (reps <= 0) reps = quick ? 3 : 5;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::vector<sim::Program> programs;
  if (quick) {
    programs.push_back(make_ring(8, 2));
    programs.push_back(make_layered(16, 20, 6));
    programs.push_back(make_mixed(16, 20, 6, 5, 2));
    programs.push_back(make_phased(4, 2));
  } else {
    programs.push_back(make_ring(12, 3));
    programs.push_back(make_layered(40, 48, 12));
    programs.push_back(make_mixed(40, 48, 12, 6, 2));
    programs.push_back(make_phased(6, 2));
  }

  std::vector<WorkloadResult> results;
  for (const sim::Program& program : programs)
    results.push_back(measure(program, reps, seed));

  TextTable table({"Workload", "Tuples", "Cycles", "Reference", "SCC",
                   "SCC/ref", "Clock-cut", "Identical"});
  for (const WorkloadResult& r : results)
    table.add_row({r.name, std::to_string(r.tuples), std::to_string(r.cycles),
                   TextTable::num(r.reference.seconds * 1e3, 2) + " ms",
                   TextTable::num(r.scc.seconds * 1e3, 2) + " ms",
                   TextTable::num(r.speedup_scc, 1) + "x",
                   TextTable::num(r.clock_cut.seconds * 1e3, 2) + " ms",
                   r.identical ? "yes" : "NO"});
  table.render(std::cout);

  const std::string out = flags.get_string("out");
  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  write_json(os, results, quick);
  std::cout << "\nwrote " << out << '\n';

  bool all_identical = true;
  for (const WorkloadResult& r : results) all_identical &= r.identical;
  if (!all_identical) {
    std::cerr << "FAIL: engine outputs diverged\n";
    return 1;
  }
  return 0;
}
