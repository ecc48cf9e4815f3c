// wolfbench — the repo's end-to-end and per-layer benchmark (README.md in
// this directory lists the workloads, metrics and gates).
//
//   wolfbench --workload classify|ingest|churn|serve --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// A run sets its inputs up several times, computes the oracle answers, then
// repeats untraced passes for --seconds, timing a fixed host reference
// kernel before each. Times and rates are reported as the mean of the
// faster half of their samples, scaled to a host of nominal speed by the
// reference's median (measure.hpp); other metrics as medians. Every pass of
// every workload runs in a forked child, so it starts from a cold heap the
// way a fresh `wolf` process does and its VmHWM growth is its own. --trace 1 adds
// one traced pass that records spans around the benchmark's own calls into
// each layer and reports the per-layer metrics instead. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/generator.hpp"
#include "core/lock_dependency.hpp"
#include "core/pruner.hpp"
#include "core/replayer.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "robust/retry.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"
#include "workloads/suite.hpp"

using namespace wolf;
using perfbench::SpanLog;

namespace {

// ---- metric catalogue ------------------------------------------------------

// How a metric's samples over a run become the reported value, all times
// and rates scaled to a host of nominal speed (measure.hpp: host_scale):
// set-up time is the median of the set-ups; pass times and rates are the
// mean of the faster half of the passes (fast_half_mean); anything else is
// the plain median.
enum class Kind { kSetup, kTime, kRate, kOther };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind = Kind::kOther;
};

// End-to-end metrics: printed by every --trace 0 run, for every workload.
// README.md gives each one's definition per workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", Kind::kSetup},
    {"wall_s", "s", Kind::kTime},
    {"cycles_per_s", "cycles/s", Kind::kRate},
    {"ingest_mev_s", "Mev/s", Kind::kRate},
    {"peak_rss_mb", "MB"},
};

// The metrics each workload is built to move; the human summary shows only
// these. Churn's finish_s is reported there but not in the result line: on
// ingest, finish is a ~40 ms tail whose run-to-run spread reaches the
// largest bound a gated metric may have.
constexpr MetricDef kFinish = {"finish_s", "s", Kind::kTime};
const std::map<std::string, std::vector<MetricDef>> kHeadline = {
    {"classify",
     {kEndToEnd[0], kEndToEnd[1], kEndToEnd[2], kEndToEnd[4]}},
    {"ingest", {kEndToEnd[0], kEndToEnd[1], kEndToEnd[3], kEndToEnd[4]}},
    {"churn",
     {kEndToEnd[0], kEndToEnd[1], kEndToEnd[3], kFinish, kEndToEnd[4]}},
    {"serve", {kEndToEnd[0], kEndToEnd[1], kEndToEnd[3], kEndToEnd[4]}},
};

// Per-layer metrics: printed by every --trace 1 run, 0 where the workload
// does not exercise the layer.
constexpr MetricDef kPerLayer[] = {
    {"core.replay_s", "s"},
    {"core.replay.trials", "count"},
    {"core.replay.hit_ratio", "ratio"},
    {"core.replay.step_limit_trials", "count"},
    {"sim.steps", "count"},
    {"sim.ns_per_step", "ns"},
    {"sim.record_s", "s"},
    {"core.detect_s", "s"},
    {"core.prune_s", "s"},
    {"core.prune.rejected_ratio", "ratio"},
    {"core.generate_s", "s"},
    {"core.generate.rejected_ratio", "ratio"},
    {"core.generate.gs_vertices_mean", "vertices"},
    {"trace.decode_s", "s"},
    {"trace.decode_mb_s", "MB/s"},
    {"trace.blocks", "count"},
    {"core.build_s", "s"},
    {"core.governor.windows", "count"},
    {"core.governor.window_detect_s", "s"},
    {"core.governor.window_p50_ms", "ms"},
    {"core.governor.window_tail_ms", "ms"},
    {"core.governor.window_tail_pct", "%"},
    {"core.governor.useful_window_ratio", "ratio"},
    {"core.governor.tuples_compacted", "count"},
    {"core.governor.peak_store_mb", "MB"},
    {"proc.minor_faults", "count"},
    {"core.session.finish_s", "s"},
    {"core.session.live_cycles", "count"},
    {"core.session.live_latency_ms", "ms"},
    {"serve.hello_ms", "ms"},
    {"serve.session_s", "s"},
    {"serve.session.ingest_s", "s"},
    {"serve.session.finish_s", "s"},
    {"serve.session.window_p99_ms", "ms"},
    {"trace_overhead_ratio", "ratio"},
    {"host.cpus_available", "cpus"},
    {"host.calibration_s", "s"},
    {"host.calibration_drift_ratio", "ratio"},
    {"host.reference_s", "s"},
};

using Values = std::map<std::string, double>;

// ---- one pass, run in a forked child ---------------------------------------

// What a pass reports back to the parent. `ops` / `failed_ops` count the
// workload's operations (cycles for classify, passes for ingest and churn,
// sessions for serve); `fingerprint` carries answers the parent compares
// across passes.
struct PassResult {
  Values values;
  std::string fingerprint;
  std::uint64_t ops = 1;
  std::uint64_t failed_ops = 0;
  std::vector<std::string> failures;
};

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string encode(const PassResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << "ops " << r.ops << '\n' << "failed_ops " << r.failed_ops << '\n';
  for (const auto& [k, v] : r.values) os << "v " << k << ' ' << v << '\n';
  for (const std::string& f : r.failures) os << "fail " << f << '\n';
  os << "fp " << r.fingerprint.size() << '\n' << r.fingerprint;
  return os.str();
}

PassResult decode(const std::string& text) {
  PassResult r;
  r.ops = 0;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "ops") {
      fields >> r.ops;
    } else if (tag == "failed_ops") {
      fields >> r.failed_ops;
    } else if (tag == "v") {
      std::string key;
      double value = 0;
      fields >> key >> value;
      r.values[key] = value;
    } else if (tag == "fail") {
      r.failures.push_back(line.substr(5));
    } else if (tag == "fp") {
      // A byte count, then that many bytes of fingerprint.
      std::size_t size = 0;
      fields >> size;
      r.fingerprint.resize(size);
      is.read(r.fingerprint.data(), static_cast<std::streamsize>(size));
      r.fingerprint.resize(static_cast<std::size_t>(is.gcount()));
    }
  }
  return r;
}

// Runs `pass` in a forked child and returns what it reported. The parent
// must be single-threaded here (every setup thread is joined by now). A
// child that dies or reports nothing yields a failed result.
PassResult run_forked(const std::function<PassResult()>& pass) {
  std::cout.flush();
  std::cerr.flush();
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      write_all(fds[1], encode(pass()));
    } catch (const std::exception& e) {
      PassResult failed;
      failed.failed_ops = failed.ops;
      failed.failures.push_back(std::string("pass threw: ") + e.what());
      write_all(fds[1], encode(failed));
      code = 1;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  PassResult r = decode(text);
  if (r.ops == 0 || !WIFEXITED(status)) {
    r.ops = std::max<std::uint64_t>(r.ops, 1);
    r.failed_ops = r.ops;
    r.failures.push_back("pass process ended abnormally (status " +
                         std::to_string(status) + ")");
  }
  return r;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) * 1e-9;
}

// Final cycles rendered one per line and sorted, so governed and batch
// detections compare independently of enumeration order.
std::vector<std::string> cycle_lines(const Detection& d) {
  std::vector<std::string> out;
  out.reserve(d.cycles.size());
  for (const PotentialDeadlock& c : d.cycles) out.push_back(c.to_string(d.dep));
  std::sort(out.begin(), out.end());
  return out;
}

// Self time, in seconds, of the spans named `name` recorded so far.
double self_time(const SpanLog& log, const std::string& name) {
  const std::vector<perfbench::SpanRecord> spans = log.snapshot();
  return perfbench::total_self_seconds(spans, perfbench::self_seconds(spans),
                                       name);
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

// ---- workloads ---------------------------------------------------------------

struct RunContext {
  std::uint64_t seed = 2014;
  std::string workdir;
};

class Workload {
 public:
  explicit Workload(RunContext ctx) : ctx_(std::move(ctx)) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the inputs (timed; repeated `setup_reps()` times).
  virtual void setup() = 0;
  virtual int setup_reps() const { return 5; }
  // Computes the answers passes are checked against (untimed).
  virtual void prepare_oracle() = 0;
  // One untraced pass: end-to-end values plus its gate outcome.
  virtual PassResult pass() = 0;
  // One traced pass: per-layer values (spans land in `log`).
  virtual PassResult traced_pass(SpanLog& log) = 0;
  // Cross-pass gate, in the parent: the first pass's fingerprint is the
  // reference the others must repeat.
  static void check_repeat(const PassResult& first, PassResult& later) {
    if (later.fingerprint != first.fingerprint) {
      later.failed_ops = later.ops;
      later.failures.push_back("answer differs from the first pass");
    }
  }

 protected:
  RunContext ctx_;
};

// classify — wolf::run (record → detect → prune → generate → replay) over
// the paper suite plus stress-20x5, serially, 6 replay attempts per cycle.
//
// The pipeline seed stays at the paper's 2014: WOLF's recording and replay
// are randomized, so at other pipeline seeds the suite's defect columns
// legitimately differ from the paper's single run and stress-20x5 records
// schedules with far fewer cycles — the paper-row gate would stop being an
// oracle and the work per pass would swing with the seed. The run's seed
// instead permutes the order the programs run in, which changes neither the
// work nor any answer.
class ClassifyWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kPipelineSeed = 2014;

  using Workload::Workload;

  int setup_reps() const override { return 7; }

  void setup() override {
    programs_.clear();
    for (workloads::Benchmark& b : workloads::standard_suite())
      programs_.push_back(Entry{b.name, std::move(b.program), b.max_steps,
                                b.paper, true});
    programs_.push_back(
        Entry{"stress-20x5", perfbench::make_stress(20, 5), 2'000'000, {}, false});
    Rng rng(ctx_.seed);
    for (std::size_t i = programs_.size(); i > 1; --i)
      std::swap(programs_[i - 1], programs_[rng.below(i)]);
  }

  // Event counts of the recorded traces: the same record_trace call the
  // pipeline makes, so the counts are those of the traces it analyzes.
  // Classify has no ingest span of its own worth timing (record + detect
  // take ~3 ms a pass), so its ingest_mev_s is these events over wall_s.
  void prepare_oracle() override {
    events_ = 0;
    for (const Entry& e : programs_) {
      const Config cfg = config(e);
      const WolfOptions o = cfg.wolf_options();
      robust::RetryPolicy retry = o.replay.retry;
      retry.max_attempts = o.record_attempts;
      auto trace = sim::record_trace(e.program, o.seed, retry, o.max_steps);
      if (trace.has_value()) events_ += trace->size();
    }
  }

  // Each program runs in a child of its own, the way `wolf run` classifies
  // one program per process: its heap starts cold, so its time does not
  // depend on which programs ran before it, and the run seed, which
  // permutes the order, moves no time. wall_s is the sum of the programs'
  // wolf::run times; peak_rss_mb the largest VmHWM growth among them.
  PassResult pass() override {
    PassResult r;
    double wall = 0, rss_mb = 0;
    std::uint64_t cycles = 0;
    std::ostringstream fp;
    for (const Entry& e : programs_) {
      PassResult one = run_forked([&] {
        PassResult o;
        perfbench::RssGrowth rss;
        rss.begin();
        const std::int64_t start = perfbench::now_ns();
        const WolfReport rep = wolf::run(e.program, config(e));
        o.values["wall_s"] = seconds_since(start);
        o.values["peak_rss_mb"] = rss.growth_mb();
        o.values["cycles"] = static_cast<double>(rep.cycles.size());
        std::ostringstream tokens;
        for (const CycleReport& c : rep.cycles)
          tokens << cycle_token(c.classification, c.prune_verdict, c.gs_vertices,
                                c.replay_stats)
                 << '\n';
        o.fingerprint = tokens.str();
        if (e.paper_gated && !matches_paper(e, rep)) {
          o.failed_ops += rep.cycles.size();
          o.failures.push_back(e.name + ": defect columns differ from the paper row");
        }
        if (!rep.trace_recorded) {
          o.failed_ops += 1;
          o.failures.push_back(e.name + ": no trace recorded");
        }
        return o;
      });
      wall += one.values["wall_s"];
      rss_mb = std::max(rss_mb, one.values["peak_rss_mb"]);
      cycles += static_cast<std::uint64_t>(one.values["cycles"]);
      fp << e.name << '\n' << one.fingerprint;
      r.failed_ops += one.failed_ops;
      r.failures.insert(r.failures.end(), one.failures.begin(), one.failures.end());
    }
    r.ops = std::max<std::uint64_t>(cycles, 1);
    r.fingerprint = fp.str();
    r.values["wall_s"] = wall;
    r.values["cycles_per_s"] = static_cast<double>(cycles) / wall;
    r.values["ingest_mev_s"] = static_cast<double>(events_) / wall / 1e6;
    r.values["peak_rss_mb"] = rss_mb;
    return r;
  }

  // The pipeline's serial path, replicated call for call with a span around
  // each layer entry point: record_trace, detect, prune_cycle, indexed
  // generate, and replay_once per trial with replay()'s trial loop and the
  // pipeline's replay seed chain, so the trials are the untraced pass's.
  PassResult traced_pass(SpanLog& log) override {
    PassResult r;
    std::uint64_t trials = 0, hits = 0, step_limits = 0, steps = 0;
    std::uint64_t cycles = 0, pruned = 0, generated = 0, gen_rejected = 0;
    double vertices = 0;
    std::uint64_t trace_id = 0;
    std::ostringstream fp;
    const std::int64_t start = perfbench::now_ns();
    for (const Entry& e : programs_) {
      const std::uint64_t program_trace = ++trace_id;
      SpanLog::Scope program_span(log, "classify.program", 0, program_trace);
      const WolfOptions o = config(e).wolf_options();
      robust::RetryPolicy record_retry = o.replay.retry;
      record_retry.max_attempts = o.record_attempts;
      std::optional<Trace> trace;
      {
        SpanLog::Scope s(log, "sim.record", program_span.id(), program_trace);
        trace = sim::record_trace(e.program, o.seed, record_retry, o.max_steps);
      }
      fp << e.name << '\n';
      if (!trace.has_value()) continue;
      Detection detection;
      {
        SpanLog::Scope s(log, "core.detect", program_span.id(), program_trace);
        detection = detect(*trace, o.detector);
      }
      std::optional<DependencyIndex> index;
      {
        SpanLog::Scope s(log, "core.generate", program_span.id(), program_trace);
        index.emplace(DependencyIndex::build(detection.dep));
      }
      const std::size_t n = detection.cycles.size();
      cycles += n;
      struct Stage {
        Classification cls = Classification::kUnknown;
        PruneVerdict verdict = PruneVerdict::kUnknown;
        GeneratorResult gen;
        ReplayStats stats;
        bool replay = false;
        std::uint64_t trace = 0;
      };
      std::vector<Stage> stages(n);
      for (std::size_t c = 0; c < n; ++c) {
        Stage& st = stages[c];
        st.trace = ++trace_id;
        {
          SpanLog::Scope s(log, "core.prune", program_span.id(), st.trace);
          st.verdict = prune_cycle(detection.cycles[c], detection.dep,
                                   detection.clocks);
        }
        if (o.enable_pruner && is_false(st.verdict)) {
          st.cls = Classification::kFalseByPruner;
          ++pruned;
          continue;
        }
        {
          SpanLog::Scope s(log, "core.generate", program_span.id(), st.trace);
          st.gen = generate(detection.cycles[c], detection.dep, *index);
        }
        ++generated;
        vertices += st.gen.gs.vertex_count();
        if (o.enable_generator_check && !st.gen.feasible) {
          st.cls = Classification::kFalseByGenerator;
          ++gen_rejected;
          continue;
        }
        st.replay = true;
      }
      std::uint64_t replay_seed = mix64(o.seed ^ 0x57a7e5ULL);
      for (std::size_t c = 0; c < n; ++c) {
        Stage& st = stages[c];
        if (!st.replay) continue;
        replay_seed = mix64(replay_seed);
        Rng seeds(replay_seed);
        robust::RetryPolicy policy = o.replay.retry;
        policy.max_attempts = o.replay.attempts;
        robust::RetryState attempts(policy, replay_seed);
        while (attempts.next_attempt()) {
          ReplayTrial trial;
          {
            SpanLog::Scope s(log, "core.replay", program_span.id(), st.trace);
            trial = replay_once(e.program, detection.cycles[c], detection.dep,
                                st.gen.gs, seeds(), o.max_steps, nullptr);
          }
          record_outcome(st.stats, trial.outcome);
          ++trials;
          steps += trial.run.steps;
          if (trial.outcome == ReplayOutcome::kReproduced) ++hits;
          if (trial.outcome == ReplayOutcome::kStepLimit) ++step_limits;
          if (st.stats.hits > 0 && o.replay.stop_on_first_hit) break;
        }
        st.cls = st.stats.reproduced() ? Classification::kReproduced
                                       : Classification::kUnknown;
      }
      for (const Stage& st : stages)
        fp << cycle_token(st.cls, st.verdict, st.gen.gs.vertex_count(), st.stats)
           << '\n';
    }
    const double wall = seconds_since(start);
    const double replay_s = self_time(log, "core.replay");
    r.values["wall_s"] = wall;
    r.values["core.replay_s"] = replay_s;
    r.values["core.replay.trials"] = static_cast<double>(trials);
    r.values["core.replay.hit_ratio"] =
        trials == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(trials);
    r.values["core.replay.step_limit_trials"] = static_cast<double>(step_limits);
    r.values["sim.steps"] = static_cast<double>(steps);
    r.values["sim.ns_per_step"] =
        steps == 0 ? 0 : replay_s * 1e9 / static_cast<double>(steps);
    r.values["sim.record_s"] = self_time(log, "sim.record");
    r.values["core.detect_s"] = self_time(log, "core.detect");
    r.values["core.prune_s"] = self_time(log, "core.prune");
    r.values["core.prune.rejected_ratio"] =
        cycles == 0 ? 0 : static_cast<double>(pruned) / static_cast<double>(cycles);
    r.values["core.generate_s"] = self_time(log, "core.generate");
    r.values["core.generate.rejected_ratio"] =
        generated == 0 ? 0
                       : static_cast<double>(gen_rejected) / static_cast<double>(generated);
    r.values["core.generate.gs_vertices_mean"] =
        generated == 0 ? 0 : vertices / static_cast<double>(generated);
    r.ops = std::max<std::uint64_t>(cycles, 1);
    r.fingerprint = fp.str();
    return r;
  }

 private:
  struct Entry {
    std::string name;
    sim::Program program;
    std::uint64_t max_steps = 2'000'000;
    workloads::PaperRow paper;
    bool paper_gated = false;
  };

  Config config(const Entry& e) const {
    Config cfg;
    cfg.seed = kPipelineSeed;
    cfg.jobs = 1;
    cfg.replay.attempts = 6;
    cfg.max_steps = e.max_steps;
    return cfg;
  }

  static std::string cycle_token(Classification cls, PruneVerdict verdict,
                                 int gs_vertices, const ReplayStats& s) {
    std::ostringstream os;
    os << to_string(cls) << ':' << static_cast<int>(verdict) << ':'
       << gs_vertices << ':' << s.attempts << ',' << s.hits << ','
       << s.other_deadlocks << ',' << s.no_deadlocks << ',' << s.step_limits;
    return os.str();
  }

  static bool matches_paper(const Entry& e, const WolfReport& rep) {
    return static_cast<int>(rep.defects.size()) == e.paper.detected &&
           rep.count_defects(Classification::kFalseByPruner) == e.paper.fp_pruner &&
           rep.count_defects(Classification::kFalseByGenerator) ==
               e.paper.fp_generator &&
           rep.count_defects(Classification::kReproduced) == e.paper.tp_wolf &&
           rep.count_defects(Classification::kUnknown) == e.paper.unknown_wolf;
  }

  std::vector<Entry> programs_;
  std::uint64_t events_ = 0;
};

// Shared by ingest and churn: per-layer values read from a finished
// session's window reports.
void window_values(const Session::Verdict& v, Values& out) {
  std::vector<double> ms;
  double detect_s = 0, peak_store = 0;
  std::size_t suspicious = 0, useful = 0;
  for (const WindowReport& w : v.windows) {
    ms.push_back(w.detect_seconds * 1e3);
    detect_s += w.detect_seconds;
    peak_store = std::max(peak_store, static_cast<double>(w.store_bytes));
    if (w.suspicious) {
      ++suspicious;
      if (w.new_cycles > 0) ++useful;
    }
  }
  const perfbench::Tail t = perfbench::tail(ms);
  out["core.governor.windows"] = static_cast<double>(ms.size());
  out["core.governor.window_detect_s"] = detect_s;
  out["core.governor.window_p50_ms"] = perfbench::median(ms);
  out["core.governor.window_tail_ms"] = t.value;
  out["core.governor.window_tail_pct"] = t.percentile;
  out["core.governor.useful_window_ratio"] =
      suspicious == 0 ? 0 : static_cast<double>(useful) / static_cast<double>(suspicious);
  out["core.governor.tuples_compacted"] =
      static_cast<double>(v.governor.tuples_compacted);
  out["core.governor.peak_store_mb"] = peak_store / (1024.0 * 1024.0);
}

// Gate shared by ingest and churn: complete coverage, no evictions, and the
// final cycles equal to batch detection over the same events.
void check_verdict(const Session::Verdict& v, const std::string& oracle,
                   PassResult& r) {
  if (!v.governor.coverage_complete)
    r.failures.push_back("coverage incomplete");
  if (v.governor.tuples_evicted != 0)
    r.failures.push_back("tuples evicted: " +
                         std::to_string(v.governor.tuples_evicted));
  const std::string final_cycles = join_lines(cycle_lines(v.detection));
  if (final_cycles != oracle)
    r.failures.push_back("final cycles differ from batch detect(): " +
                         std::to_string(v.detection.cycles.size()) + " cycles");
}

// ingest — the Session half of governed `wolf analyze`: a 16 MiB budget,
// 65 536-event windows and jobs=1, drained from a v3 file through the
// mmap StreamTraceReader.
class IngestWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kEvents = 4'000'000;

  using Workload::Workload;

  void setup() override {
    path_ = ctx_.workdir + "/ingest-" + std::to_string(::getpid()) + ".v3";
    bytes_ = perfbench::write_online_trace(path_, kEvents, ctx_.seed);
  }

  ~IngestWorkload() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  void prepare_oracle() override {
    const PassResult r = run_forked([this] {
      PassResult out;
      StreamTraceReader reader(path_);
      const Detection d = detect_reader(reader, config().wolf_options().detector);
      out.fingerprint = join_lines(cycle_lines(d));
      if (!reader.ok()) out.failures.push_back("oracle read failed");
      return out;
    });
    if (!r.failures.empty()) throw std::runtime_error(r.failures.front());
    oracle_ = r.fingerprint;
  }

  PassResult pass() override { return run_pass(nullptr); }

  PassResult traced_pass(SpanLog& log) override { return run_pass(&log); }

 private:
  static Config config() {
    Config cfg;
    cfg.jobs = 1;
    cfg.memory_budget_mb = 16;
    cfg.window_events = 65536;
    return cfg;
  }

  PassResult run_pass(SpanLog* log) {
    PassResult r;
    perfbench::RssGrowth rss;
    rss.begin();
    const long faults = perfbench::minor_faults();
    std::optional<SpanLog::Scope> pass_span;
    if (log != nullptr) pass_span.emplace(*log, "ingest.pass", 0, 1);
    const std::uint64_t parent = pass_span ? pass_span->id() : 0;
    const std::int64_t start = perfbench::now_ns();
    std::uint64_t blocks = 0;
    Session session = Session::open(config());
    StreamTraceReader reader(path_);
    std::vector<Event> block;
    if (log == nullptr) {
      while (reader.next_block(block)) session.feed(block);
    } else {
      while (true) {
        {
          SpanLog::Scope s(*log, "trace.decode", parent, 1);
          if (!reader.next_block(block)) break;
        }
        ++blocks;
        SpanLog::Scope s(*log, "core.feed", parent, 1);
        session.feed(block);
      }
    }
    const double ingest = seconds_since(start);
    const std::uint64_t events = session.events_seen();
    const std::size_t windows_in_feed = session.windows_closed();
    const std::int64_t finish_start = perfbench::now_ns();
    std::optional<Session::Verdict> verdict;
    {
      std::optional<SpanLog::Scope> s;
      if (log != nullptr) s.emplace(*log, "core.session.finish", parent, 1);
      verdict.emplace(session.finish());
    }
    const double finish = seconds_since(finish_start);
    const double wall = seconds_since(start);
    const Session::Verdict& v = *verdict;

    if (!reader.ok() || !reader.complete()) r.failures.push_back("trace read failed");
    if (events != kEvents) r.failures.push_back("events seen: " + std::to_string(events));
    check_verdict(v, oracle_, r);
    r.failed_ops = r.failures.empty() ? 0 : 1;
    r.values["wall_s"] = wall;
    r.values["cycles_per_s"] = static_cast<double>(v.detection.cycles.size()) / wall;
    r.values["ingest_mev_s"] = static_cast<double>(events) / ingest / 1e6;
    r.values["finish_s"] = finish;
    r.values["peak_rss_mb"] = rss.growth_mb();
    if (log != nullptr) {
      double feed_detect = 0;
      for (std::size_t i = 0; i < windows_in_feed && i < v.windows.size(); ++i)
        feed_detect += v.windows[i].detect_seconds;
      const double decode_s = self_time(*log, "trace.decode");
      r.values["trace.decode_s"] = decode_s;
      r.values["trace.decode_mb_s"] = static_cast<double>(bytes_) / decode_s / 1e6;
      r.values["trace.blocks"] = static_cast<double>(blocks);
      r.values["core.build_s"] = self_time(*log, "core.feed") - feed_detect;
      r.values["core.session.finish_s"] = finish;
      r.values["proc.minor_faults"] =
          static_cast<double>(perfbench::minor_faults() - faults);
      window_values(v, r.values);
    }
    return r;
  }

  std::string path_;
  std::uint64_t bytes_ = 0;
  std::string oracle_;
};

// churn — the same Session API on the every-window-churn stream: 24 whole
// 8192-event windows (196 608 events), live on, poll() after every
// 512-event block, no budget. Every window commits a new cycle, so finish()
// dominates. Whole windows make "every final cycle reaches poll() before
// finish()" checkable: a trailing partial window would only close, and
// surface its cycle, inside finish().
class ChurnWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kWindow = 8192;
  static constexpr std::uint64_t kEvents = 24 * kWindow;
  static constexpr std::size_t kBlock = 512;
  // The event of each window's AB/BA ring that closes its cycle: the
  // second thread's second acquire.
  static constexpr std::uint64_t kClosingOffset = 5;

  using Workload::Workload;

  // Its set-up takes about a millisecond, so it repeats many times.
  int setup_reps() const override { return 31; }

  // The previous repetition's vector is freed first, so every repetition
  // allocates into the same released memory instead of alternating between
  // fresh and reused pages.
  void setup() override {
    std::vector<Event>().swap(events_);
    events_ = perfbench::churn_events(kEvents, kWindow, ctx_.seed);
  }

  void prepare_oracle() override {
    const PassResult r = run_forked([this] {
      PassResult out;
      Trace trace;
      trace.events = events_;
      out.fingerprint =
          join_lines(cycle_lines(detect(trace, config().wolf_options().detector)));
      return out;
    });
    if (!r.failures.empty()) throw std::runtime_error(r.failures.front());
    oracle_ = r.fingerprint;
  }

  PassResult pass() override { return run_pass(nullptr); }

  PassResult traced_pass(SpanLog& log) override { return run_pass(&log); }

 private:
  static Config config() {
    Config cfg;
    cfg.jobs = 1;
    cfg.window_events = kWindow;
    cfg.live = true;
    return cfg;
  }

  PassResult run_pass(SpanLog* log) {
    PassResult r;
    perfbench::RssGrowth rss;
    rss.begin();
    const long faults = perfbench::minor_faults();
    std::optional<SpanLog::Scope> pass_span;
    if (log != nullptr) pass_span.emplace(*log, "churn.pass", 0, 1);
    const std::uint64_t parent = pass_span ? pass_span->id() : 0;
    const std::int64_t start = perfbench::now_ns();
    std::vector<std::int64_t> block_start;  // feed() start per block (traced)
    std::vector<double> latency_ms;
    std::vector<std::string> live;
    Session session = Session::open(config());
    std::vector<Event> block;
    block.reserve(kBlock);
    for (std::size_t i = 0; i < events_.size(); i += kBlock) {
      block.assign(events_.begin() + static_cast<std::ptrdiff_t>(i),
                   events_.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(events_.size(), i + kBlock)));
      if (log == nullptr) {
        session.feed(block);
        for (SessionCycle& c : session.poll()) live.push_back(std::move(c.description));
        continue;
      }
      block_start.push_back(perfbench::now_ns());
      {
        SpanLog::Scope s(*log, "core.feed", parent, 1);
        session.feed(block);
      }
      std::vector<SessionCycle> polled;
      {
        SpanLog::Scope s(*log, "core.session.poll", parent, 1);
        polled = session.poll();
      }
      const std::int64_t returned = perfbench::now_ns();
      for (SessionCycle& c : polled) {
        // The k-th surfaced cycle is the ring of window k-1.
        const std::uint64_t closing = (c.sequence - 1) * kWindow + kClosingOffset;
        const std::size_t b = closing / kBlock;
        if (c.sequence >= 1 && b < block_start.size())
          latency_ms.push_back(static_cast<double>(returned - block_start[b]) * 1e-6);
        live.push_back(std::move(c.description));
      }
    }
    const double ingest = seconds_since(start);
    const std::uint64_t events = session.events_seen();
    const std::size_t windows_in_feed = session.windows_closed();
    const std::int64_t finish_start = perfbench::now_ns();
    std::optional<Session::Verdict> verdict;
    {
      std::optional<SpanLog::Scope> s;
      if (log != nullptr) s.emplace(*log, "core.session.finish", parent, 1);
      verdict.emplace(session.finish());
    }
    const double finish = seconds_since(finish_start);
    const double wall = seconds_since(start);
    const std::vector<SessionCycle> late = session.poll();
    const Session::Verdict& v = *verdict;

    check_verdict(v, oracle_, r);
    std::sort(live.begin(), live.end());
    if (!late.empty() || live != cycle_lines(v.detection))
      r.failures.push_back("final cycles did not all reach poll() before finish()");
    r.failed_ops = r.failures.empty() ? 0 : 1;
    r.values["wall_s"] = wall;
    r.values["cycles_per_s"] = static_cast<double>(v.detection.cycles.size()) / wall;
    r.values["ingest_mev_s"] = static_cast<double>(events) / ingest / 1e6;
    r.values["finish_s"] = finish;
    r.values["peak_rss_mb"] = rss.growth_mb();
    if (log != nullptr) {
      double feed_detect = 0;
      for (std::size_t i = 0; i < windows_in_feed && i < v.windows.size(); ++i)
        feed_detect += v.windows[i].detect_seconds;
      r.values["core.build_s"] = self_time(*log, "core.feed") - feed_detect;
      r.values["core.session.finish_s"] = finish;
      r.values["core.session.live_cycles"] = static_cast<double>(live.size());
      r.values["core.session.live_latency_ms"] = perfbench::median(latency_ms);
      r.values["proc.minor_faults"] =
          static_cast<double>(perfbench::minor_faults() - faults);
      window_values(v, r.values);
    }
    return r;
  }

  std::vector<Event> events_;
  std::string oracle_;
};

// serve — `wolf serve` with its CLI defaults (depth-4 decode ring, jobs=1
// per session, 65 536-event windows, live on, no budget), two concurrent
// clients each streaming the 4·10⁶-event payload over the unix socket.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kEvents = 4'000'000;
  static constexpr int kClients = 2;
  static constexpr int kHelloProbes = 5;

  using Workload::Workload;

  void setup() override {
    payload_ = perfbench::serve_payload(kEvents, ctx_.seed);
    // Server start is part of setting up: bind, listen, accept thread.
    serve::Server server(options());
    std::string error;
    if (!server.start(&error)) throw std::runtime_error("serve: " + error);
    server.stop();
  }

  // What the server must answer: a solo Session over the same bytes,
  // rendered through the same protocol builders the server uses.
  void prepare_oracle() override {
    const Config cfg = options().session;
    Session session = Session::open(cfg);
    std::istringstream is(payload_);
    StreamTraceReader raw(is, StreamTraceReader::Mode::kSalvage);
    std::vector<Event> block;
    ref_live_.clear();
    while (raw.next_block(block)) {
      session.feed(block);
      for (const SessionCycle& c : session.poll()) ref_live_.push_back(chomp(serve::live_line(c)));
    }
    const std::uint64_t events = session.events_seen();
    const Session::Verdict verdict = session.finish();
    for (const SessionCycle& c : session.poll()) ref_live_.push_back(chomp(serve::live_line(c)));
    ref_verdict_ = chomp(serve::verdict_line(verdict, raw.complete(), std::string(), events));
  }

  PassResult pass() override { return run_pass(nullptr); }

  PassResult traced_pass(SpanLog& log) override { return run_pass(&log); }

 private:
  static std::string chomp(std::string line) {
    if (!line.empty() && line.back() == '\n') line.pop_back();
    return line;
  }

  // Connects, sends a session hello and waits for the server's hello line;
  // then ends the (empty) stream and drains the rest of the exchange.
  static bool hello_probe(const std::string& socket_path) {
    std::string error;
    serve::Fd fd = serve::unix_connect(socket_path, &error);
    if (!fd.valid()) return false;
    if (!serve::write_all(fd.get(), serve::format_hello("probe", {}) + "\n"))
      return false;
    serve::FdInBuf buf(fd.get());
    std::istream is(&buf);
    std::string line;
    const bool replied =
        std::getline(is, line) && serve::line_type(line) == "hello";
    serve::shutdown_write(fd.get());
    while (std::getline(is, line)) {
    }
    return replied;
  }

  serve::ServeOptions options() const {
    serve::ServeOptions o;
    o.socket_path = ctx_.workdir + "/serve-" + std::to_string(::getpid()) + ".sock";
    o.session.jobs = 1;
    return o;
  }

  PassResult run_pass(SpanLog* log) {
    PassResult r;
    r.ops = kClients;
    serve::Server server(options());
    std::string error;
    if (!server.start(&error)) throw std::runtime_error("serve: " + error);
    perfbench::RssGrowth rss;
    rss.begin();
    std::vector<serve::EmitResult> results(kClients);
    std::vector<double> session_s(kClients, 0), hello_ms;
    std::optional<SpanLog::Scope> pass_span;
    if (log != nullptr) pass_span.emplace(*log, "serve.pass", 0, 0);
    const std::uint64_t parent = pass_span ? pass_span->id() : 0;
    const std::int64_t start = perfbench::now_ns();
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
          serve::EmitOptions eo;
          eo.socket_path = server.options().socket_path;
          eo.name = "bench-" + std::to_string(c);
          const std::int64_t t0 = perfbench::now_ns();
          std::optional<SpanLog::Scope> s;
          if (log != nullptr) s.emplace(*log, "serve.session", parent, c + 1);
          results[c] = serve::emit_trace_bytes(eo, payload_);
          session_s[c] = seconds_since(t0);
        });
      // emit_trace_bytes hands lines over only once the exchange is done,
      // so the handshake is timed on probe connections of its own, made
      // while the two sessions stream.
      if (log != nullptr)
        for (int i = 0; i < kHelloProbes; ++i) {
          SpanLog::Scope s(*log, "serve.hello", parent, kClients + 1 + i);
          const std::int64_t t0 = perfbench::now_ns();
          if (hello_probe(server.options().socket_path))
            hello_ms.push_back(static_cast<double>(perfbench::now_ns() - t0) * 1e-6);
        }
      for (std::thread& t : clients) t.join();
    }
    const double wall = seconds_since(start);
    const double rss_mb = rss.growth_mb();
    std::vector<serve::SessionStats> sessions;
    for (serve::SessionStats& s : server.sessions())
      if (s.session_kind && s.name.rfind("bench-", 0) == 0)
        sessions.push_back(std::move(s));
    server.stop();

    std::uint64_t cycles = 0;
    for (int c = 0; c < kClients; ++c) {
      const serve::EmitResult& e = results[c];
      cycles += e.verdict.cycles.size();
      std::string why;
      if (!e.ok()) why = "client error: " + e.error;
      else if (!e.complete) why = "verdict incomplete";
      else if (e.verdict_line != ref_verdict_ || e.live_lines != ref_live_)
        why = "transcript differs from a solo Session";
      if (!why.empty()) {
        ++r.failed_ops;
        r.failures.push_back("session " + std::to_string(c) + ": " + why);
      }
    }
    double finish = 0, ingest = 0, p99 = 0;
    for (const serve::SessionStats& s : sessions) {
      finish += s.finish_seconds / static_cast<double>(sessions.size());
      ingest += s.ingest_seconds / static_cast<double>(sessions.size());
      p99 = std::max(p99, s.p99_window_seconds * 1e3);
    }
    r.values["wall_s"] = wall;
    r.values["cycles_per_s"] = static_cast<double>(cycles) / wall;
    r.values["ingest_mev_s"] = static_cast<double>(kEvents * kClients) / wall / 1e6;
    r.values["peak_rss_mb"] = rss_mb;
    if (log != nullptr) {
      r.values["serve.hello_ms"] = perfbench::median(hello_ms);
      r.ops += kHelloProbes;
      if (hello_ms.size() != kHelloProbes) {
        r.failed_ops += kHelloProbes - hello_ms.size();
        r.failures.push_back("hello probe got no hello line");
      }
      r.values["serve.session_s"] = perfbench::median(session_s);
      r.values["serve.session.ingest_s"] = ingest;
      r.values["serve.session.finish_s"] = finish;
      r.values["serve.session.window_p99_ms"] = p99;
    }
    return r;
  }

  std::string payload_;
  std::vector<std::string> ref_live_;
  std::string ref_verdict_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunContext& ctx) {
  if (name == "classify") return std::make_unique<ClassifyWorkload>(ctx);
  if (name == "ingest") return std::make_unique<IngestWorkload>(ctx);
  if (name == "churn") return std::make_unique<ChurnWorkload>(ctx);
  if (name == "serve") return std::make_unique<ServeWorkload>(ctx);
  return nullptr;
}

// ---- output ------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Values& values, bool per_layer) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << number(it == values.end() ? 0 : it->second) << ", \"unit\": \""
       << m.unit << "\"}";
    first = false;
  };
  if (per_layer)
    for (const MetricDef& m : kPerLayer) emit(m);
  else
    for (const MetricDef& m : kEndToEnd) emit(m);
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2014;
  double seconds = 20;
  bool trace = false;
  std::string workdir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--workdir") a.workdir = value;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

bool catalogue_valid() {
  for (const MetricDef& m : kEndToEnd)
    if (!perfbench::valid_metric_name(m.name) || !perfbench::valid_unit(m.unit))
      return false;
  for (const MetricDef& m : kPerLayer)
    if (!perfbench::valid_metric_name(m.name) || !perfbench::valid_unit(m.unit))
      return false;
  return true;
}

int run(const Args& args) {
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.workdir = args.workdir;
  std::unique_ptr<Workload> workload = make_workload(args.workload, ctx);
  if (!workload) {
    std::cerr << "wolfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (!catalogue_valid()) {
    std::cerr << "wolfbench: invalid metric name or unit in the catalogue\n";
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double calibration_start = perfbench::calibration_seconds();
  const double cpus = perfbench::cpus_available(static_cast<int>(hw));
  std::cout << "host: hardware_concurrency=" << hw << " cpus_available="
            << number(cpus) << " calibration_s=" << number(calibration_start)
            << '\n';

  std::vector<double> setup;
  for (int i = 0; i < workload->setup_reps(); ++i) {
    const std::int64_t t0 = perfbench::now_ns();
    workload->setup();
    setup.push_back(seconds_since(t0));
  }
  workload->prepare_oracle();

  // The host reference is timed before every pass, so its median covers
  // the same stretch of the host's load as the passes.
  std::vector<PassResult> passes;
  std::vector<double> reference;
  const std::int64_t measure_start = perfbench::now_ns();
  while (passes.size() < 3 || seconds_since(measure_start) < args.seconds) {
    reference.push_back(perfbench::reference_seconds());
    passes.push_back(run_forked([&] { return workload->pass(); }));
    if (passes.size() > 1) Workload::check_repeat(passes.front(), passes.back());
  }
  const double scale = perfbench::host_scale(reference);

  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const PassResult& p : passes) {
    attempted += p.ops;
    failed += p.failed_ops;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  }

  std::map<std::string, std::vector<double>> samples;
  samples["setup_s"] = setup;
  for (const PassResult& p : passes)
    for (const auto& [k, v] : p.values) samples[k].push_back(v);
  Values e2e;
  auto report = [&](const MetricDef& m) {
    const std::vector<double>& v = samples[m.name];
    switch (m.kind) {
      case Kind::kSetup:
        return perfbench::median(v) * scale;
      case Kind::kTime:
        return perfbench::fast_half_mean(v, true) * scale;
      case Kind::kRate:
        return perfbench::fast_half_mean(v, false) / scale;
      case Kind::kOther:
        break;
    }
    return perfbench::median(v);
  };
  for (const MetricDef& m : kEndToEnd) e2e[m.name] = report(m);
  e2e[kFinish.name] = report(kFinish);

  Values layers;
  if (args.trace) {
    PassResult traced = run_forked([&] {
      SpanLog log;
      PassResult r = workload->traced_pass(log);
      // Spans go out with the child's report: every traced pass writes
      // them to one JSON-lines file at exit.
      std::ofstream os(args.workdir + "/spans-" + args.workload + "-" +
                       std::to_string(args.seed) + ".jsonl");
      perfbench::write_spans_jsonl(os, log.snapshot());
      return r;
    });
    Workload::check_repeat(passes.front(), traced);
    attempted += traced.ops;
    failed += traced.failed_ops;
    failures.insert(failures.end(), traced.failures.begin(), traced.failures.end());
    layers = traced.values;
    layers["trace_overhead_ratio"] =
        traced.values["wall_s"] / perfbench::median(samples["wall_s"]);
  }
  const double calibration_end = perfbench::calibration_seconds();
  layers["host.cpus_available"] = cpus;
  layers["host.calibration_s"] = calibration_start;
  layers["host.calibration_drift_ratio"] = calibration_end / calibration_start;
  layers["host.reference_s"] = perfbench::median(reference);

  // Human summary: the workload's headline metrics as reported, then the
  // unscaled median, quartiles and spread over passes.
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << passes.size() << " passes, " << setup.size() << " setups\n";
  std::printf("  host reference median %.6g s, times scaled by %.4f\n",
              layers["host.reference_s"], scale);
  const std::vector<MetricDef>& headline = kHeadline.at(args.workload);
  auto is_headline = [&](const MetricDef& m) {
    return std::any_of(headline.begin(), headline.end(), [&](const MetricDef& h) {
      return std::string(h.name) == m.name;
    });
  };
  for (const MetricDef& m : headline) {
    const perfbench::Quartiles q = perfbench::quartiles(samples[m.name]);
    std::printf("  %-14s %12.6g %-9s raw median %.6g q1 %.6g q3 %.6g spread %.1f%% n=%zu\n",
                m.name, e2e[m.name], m.unit, q.q2, q.q1, q.q3,
                100 * perfbench::spread(samples[m.name]), samples[m.name].size());
  }
  std::cout << "  also in the result line:";
  for (const MetricDef& m : kEndToEnd)
    if (!is_headline(m))
      std::cout << ' ' << m.name << '=' << number(e2e[m.name]) << " (spread "
                << number(100 * perfbench::spread(samples[m.name])) << "%)";
  std::cout << '\n';
  if (args.trace)
    for (const MetricDef& m : kPerLayer)
      std::printf("  %-36s %14.6g %s\n", m.name, layers[m.name], m.unit);
  std::printf("  host calibration end %.6g s (drift %.3f)\n", calibration_end,
              layers["host.calibration_drift_ratio"]);
  std::printf("  attempted %" PRIu64 " failed %" PRIu64 "\n", attempted, failed);
  for (std::size_t i = 0; i < failures.size() && i < 10; ++i)
    std::cout << "  FAIL " << failures[i] << '\n';
  std::cout.flush();

  print_json(failed == 0, attempted, failed, args.trace ? layers : e2e, args.trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: wolfbench --workload classify|ingest|churn|serve "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "wolfbench: " << e.what() << '\n';
    return 1;
  }
}
