// wolf — command-line front end to the WOLF pipeline.
//
//   wolf record   --workload=HashMap --seed=7 --out=trace.txt [--format=v3]
//   wolf detect   --workload=HashMap --trace=trace.txt [--max-cycles=N]
//   wolf analyze  --workload=HashMap [--trace=trace.txt] [--rank]
//   wolf replay   --workload=HashMap --cycle=2 --attempts=10 [--rt]
//   wolf convert  trace.txt trace.bin [--format=v1|v2|v3]
//   wolf serve    --socket=/tmp/wolf.sock [--max-sessions=N] [...]
//   wolf emit     --socket=/tmp/wolf.sock --trace=trace.bin [--name=n]
//   wolf status   --socket=/tmp/wolf.sock [--stop]
//   wolf list
//
// Workloads are the built-in benchmark suite plus the paper's figure
// programs; `record` serializes a trace to disk (text v1/v2 or binary v3),
// `detect`/`analyze`/`replay` consume a recorded trace (or record one on
// the fly) — a strict `--trace` read streams the file through detection
// block-by-block, so the event vector is never materialized — `replay`
// reproduces one detected cycle, optionally on real OS threads (--rt), and
// `convert` rewrites a trace in another format, preserving the checksum.
//
// Every subcommand parses its own flag set: the shared surface
// (register_common_flags: --seed, --jobs, --deadline-ms, plus the
// observability flags) and only the extras that subcommand understands, so
// a misplaced flag is an error naming the subcommand that rejected it.
//
// Observability: --metrics-out=<file> writes a versioned JSON run report
// (span tree + counter deltas + per-cycle funnel verdicts; '-' = stdout);
// --metrics-stable emits the byte-stable variant, identical at every --jobs
// level; --progress prints throttled heartbeats to stderr. All three are
// off by default and none of them changes detection output.
//
// Robustness flags: --deadline-ms arms a per-trial wall-clock watchdog,
// --retry sets recording retry attempts, --salvage loads damaged traces by
// recovering the longest valid prefix, and --fault injects faults (see
// robust/fault.hpp for the spec grammar) for degradation drills.
//
// Resource governance (analyze only): --memory-budget-mb bounds the tuple
// store, --window-events sets the detection window, --window-deadline-ms
// arms the per-window deadline that drives the degradation ladder
// (core/governor.hpp), and --live prints each cycle the moment a window
// first finds it (mid-run, before finish()) without changing the final
// report. Any degradation is reported on stderr and in the markdown report. `record` and `convert` write output atomically (temp
// file + rename), so a crash — or an injected tear=<bytes> fault — never
// clobbers an existing trace.
//
// --jobs N classifies detected cycles N-way parallel (default 0 = hardware
// concurrency); reports are identical at every N, and --jobs 1 runs the
// historical serial pipeline. Trace decode and cycle enumeration (governed
// windows included) are serial. Every output, including governed verdicts
// and live-cycle order, is identical at every --jobs level.
//
// Detector flag: --max-cycles caps enumeration (a warning is printed when
// the cap is hit).
//
// The sidecar trio (DESIGN.md §18): `serve` runs the always-on detection
// server on a unix-domain socket, one governed wolf::Session per client;
// `emit` streams a recorded trace (or records one on the fly) into a serve
// session and prints the live cycles + verdict in the same format `analyze
// --live` uses, so the two are diffable byte-for-byte; `status` dumps the
// server's newline-JSON session registry (and --stop asks it to drain).
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "core/metrics.hpp"
#include "core/ranking.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "robust/fault.hpp"
#include "rt/replay_rt.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/io.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_reader.hpp"
#include "trace/wire.hpp"
#include "wolf.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

using namespace wolf;

namespace {

std::optional<sim::Program> find_workload(const std::string& name) {
  for (workloads::Benchmark& b : workloads::standard_suite())
    if (b.name == name) return std::move(b.program);
  if (name == "figure1") return workloads::make_figure1().program;
  if (name == "figure2") return workloads::make_figure2().program;
  if (name == "figure4") return workloads::make_figure4().program;
  if (name == "figure9") return workloads::make_figure9().program;
  if (name == "philosophers") return workloads::make_philosophers(4).program;
  return std::nullopt;
}

void list_workloads() {
  std::cout << "built-in workloads:\n";
  for (const workloads::Benchmark& b : workloads::standard_suite())
    std::cout << "  " << b.name << '\n';
  for (const char* f :
       {"figure1", "figure2", "figure4", "figure9", "philosophers"})
    std::cout << "  " << f << '\n';
}

// ---- per-subcommand flag registration -------------------------------------

// Flags shared by the subcommands that take a workload and (optionally) a
// recorded trace.
void register_workload_flags(Flags& flags) {
  flags.define_string("workload", "", "built-in workload name (see `list`)");
  flags.define_string("trace", "", "path to a recorded trace (optional)");
  flags.define_int("retry", 60, "recording retry attempts");
  flags.define_bool("salvage", false,
                    "recover the longest valid prefix of a damaged trace");
  flags.define_string("fault", "",
                      "fault-injection spec (robust/fault.hpp grammar)");
}

void register_detector_flags(Flags& flags) {
  flags.define_int("max-cycles", 100000,
                   "cap on enumerated cycles (a warning is printed when hit)");
}

// ---- observability wiring -------------------------------------------------

// Arms the obs layer from the common flags and, after the run, writes the
// --metrics-out report with the counter delta spanning this scope. One
// instance per subcommand, constructed before the pipeline runs.
class MetricsScope {
 public:
  explicit MetricsScope(const Flags& flags)
      : path_(flags.get_string("metrics-out")),
        stable_(flags.get_bool("metrics-stable")) {
    if (flags.get_bool("progress")) obs::set_progress_enabled(true);
    if (path_.empty()) return;
    obs::set_counters_enabled(true);
    before_ = obs::CounterRegistry::instance().snapshot();
  }

  bool active() const { return !path_.empty(); }

  // Fills metrics.counters with the delta since construction and writes the
  // report. Returns false (after a diagnostic) when the file cannot be
  // written. No-op when --metrics-out was not given.
  bool write(obs::RunMetrics metrics) {
    if (!active()) return true;
    metrics.counters =
        obs::delta(obs::CounterRegistry::instance().snapshot(), before_);
    std::string error;
    if (!obs::write_metrics_file(metrics, path_, stable_, &error)) {
      std::cerr << error << '\n';
      return false;
    }
    if (path_ != "-") std::cerr << "metrics written to " << path_ << '\n';
    return true;
  }

  // Counters-only report for subcommands that do not run the full pipeline
  // (record/detect/replay): no spans, no funnel.
  bool write_counters(int jobs) {
    obs::RunMetrics metrics;
    metrics.jobs = jobs;
    return write(std::move(metrics));
  }

 private:
  std::string path_;
  bool stable_;
  obs::CounterSnapshot before_;
};

// ---- shared flag decoding -------------------------------------------------

// Parses --fault; returns false (with a message) on a malformed spec. An
// empty spec leaves `plan` empty.
bool fault_from_flags(const Flags& flags,
                      std::optional<robust::FaultPlan>& plan) {
  const std::string spec = flags.get_string("fault");
  if (spec.empty()) return true;
  std::string error;
  plan = robust::parse_fault_plan(spec, &error);
  if (!plan) {
    std::cerr << "bad --fault spec: " << error << '\n';
    return false;
  }
  return true;
}

robust::RetryPolicy retry_from_flags(const Flags& flags) {
  robust::RetryPolicy retry;
  retry.max_attempts = static_cast<int>(flags.get_int("retry"));
  retry.attempt_deadline_ms = flags.get_int("deadline-ms");
  return retry;
}

// The first site id in `events` that the workload's site table does not
// name. A trace recorded from another workload carries such ids, and
// rendering or replaying one would trip the table's bounds check.
std::optional<SiteId> first_unknown_site(const std::vector<Event>& events,
                                         const SiteTable& sites) {
  for (const Event& e : events)
    if (e.site != kInvalidSite && (e.site < 0 || e.site >= sites.size()))
      return e.site;
  return std::nullopt;
}

void report_foreign_trace(const Flags& flags, SiteId site,
                          const SiteTable& sites) {
  std::cerr << "trace " << flags.get_string("trace")
            << " was not recorded from workload '"
            << flags.get_string("workload") << "': site id " << site
            << " is not one of its " << sites.size() << " sites\n";
}

// Passes a reader's blocks through and ends the stream at the first block
// that names a site the workload does not, so no event of a foreign trace
// reaches the session.
class WorkloadSiteReader final : public TraceReader {
 public:
  WorkloadSiteReader(TraceReader& inner, const SiteTable& sites)
      : inner_(inner), sites_(sites) {}

  bool next_block(std::vector<Event>& out) override {
    if (!unknown_ && inner_.next_block(out)) {
      unknown_ = first_unknown_site(out, sites_);
      if (!unknown_) return true;
    }
    out.clear();
    return false;
  }

  const std::optional<SiteId>& unknown() const { return unknown_; }

 private:
  TraceReader& inner_;
  const SiteTable& sites_;
  std::optional<SiteId> unknown_;
};

// After a strict --trace stream has ended: prints the one error line a
// foreign or damaged trace gets and returns false.
bool stream_is_clean(const Flags& flags, const StreamTraceReader& reader,
                     const WorkloadSiteReader& checked,
                     const SiteTable& sites) {
  if (checked.unknown()) {
    report_foreign_trace(flags, *checked.unknown(), sites);
    return false;
  }
  if (!reader.ok()) {
    std::cerr << "bad trace: " << reader.error() << " (try --salvage)" << '\n';
    return false;
  }
  return true;
}

// The whole event vector of a --salvage read of --trace (printing the
// salvage summary and diagnostics), or, without --trace, of a fresh
// recording. Strict --trace reads stream instead.
std::optional<Trace> salvage_or_record(const sim::Program& program,
                                       const Flags& flags) {
  const std::string trace_path = flags.get_string("trace");
  if (!trace_path.empty()) {
    SalvageReport salvaged = read_trace_salvage(trace_path);
    std::cout << salvaged.summary() << '\n';
    for (const std::string& d : salvaged.diagnostics)
      std::cerr << "  " << d << '\n';
    if (salvaged.trace.empty()) {
      std::cerr << "nothing salvageable in " << trace_path << '\n';
      return std::nullopt;
    }
    if (auto site = first_unknown_site(salvaged.trace.events,
                                       program.sites())) {
      report_foreign_trace(flags, *site, program.sites());
      return std::nullopt;
    }
    return std::move(salvaged.trace);
  }
  auto trace = sim::record_trace(
      program, static_cast<std::uint64_t>(flags.get_int("seed")),
      retry_from_flags(flags));
  if (!trace) std::cerr << "every recording run deadlocked\n";
  return trace;
}

// Detection for detect/replay. A strict --trace read streams the file
// through detect_reader block by block; --salvage and recordings detect
// over the loaded events. Returns nullopt after printing one error line.
std::optional<Detection> detect_from_flags(const sim::Program& program,
                                           const Flags& flags,
                                           const DetectorOptions& options) {
  const std::string trace_path = flags.get_string("trace");
  if (trace_path.empty() || flags.get_bool("salvage")) {
    auto trace = salvage_or_record(program, flags);
    if (!trace) return std::nullopt;
    return detect(*trace, options);
  }
  StreamTraceReader reader(trace_path);
  WorkloadSiteReader checked(reader, program.sites());
  std::optional<Detection> det;
  try {
    det = detect_reader(checked, options);
  } catch (const CheckFailure& ex) {
    // A well-framed trace can still carry an event D_σ's builder rejects,
    // such as a release of a lock its thread does not hold.
    std::cerr << "bad trace: " << ex.message() << " (try --salvage)" << '\n';
    return std::nullopt;
  }
  if (!stream_is_clean(flags, reader, checked, program.sites()))
    return std::nullopt;
  return det;
}

// Shared by detect/analyze: detector knobs from flags.
void detector_from_flags(const Flags& flags, DetectorOptions& options) {
  options.max_cycles = static_cast<std::size_t>(flags.get_int("max-cycles"));
}

void warn_if_truncated(const Detection& det) {
  if (det.truncated)
    std::cerr << "warning: " << truncation_message(det) << '\n';
}

// Prints validate() findings; returns false when any is fatal.
bool report_config_issues(const Config& config) {
  bool ok = true;
  for (const ConfigIssue& issue : config.validate()) {
    std::cerr << (issue.fatal ? "error: " : "warning: ") << issue.message
              << '\n';
    if (issue.fatal) ok = false;
  }
  return ok;
}

// ---- subcommands ----------------------------------------------------------

int cmd_record(const sim::Program& program, const Flags& flags) {
  std::optional<robust::FaultPlan> fault;
  if (!fault_from_flags(flags, fault)) return 1;
  MetricsScope metrics(flags);
  auto trace = sim::record_trace(
      program, static_cast<std::uint64_t>(flags.get_int("seed")),
      retry_from_flags(flags));
  if (!trace) {
    std::cerr << "every recording run deadlocked\n";
    return 1;
  }
  auto format = trace_format_from_string(flags.get_string("format"));
  if (!format) {
    std::cerr << "bad --format '" << flags.get_string("format")
              << "' (want v1|v2|v3)\n";
    return 1;
  }
  const std::string out = flags.get_string("out");
  std::string text = trace_to_string(*trace, *format);
  // Content corruptions (garble/truncate/bitflip) produce a damaged-but-
  // complete write — the salvage reader's diet. A tear is different: it
  // models the writer dying mid-write, so it becomes the atomic-write kill
  // point below — the write fails and any previous file is left intact.
  std::size_t fail_after = std::numeric_limits<std::size_t>::max();
  if (fault.has_value()) {
    if (fault->truncate_fraction >= 0.0 || fault->garble_line >= 0)
      text = robust::corrupt_trace_text(std::move(text), *fault);
    if (fault->bitflip_count > 0) {
      robust::FaultPlan flips;
      flips.bitflip_count = fault->bitflip_count;
      text = robust::corrupt_trace_bytes(
          std::move(text), flips,
          static_cast<std::uint64_t>(flags.get_int("seed")));
    }
    if (fault->corrupts_trace() && fault->io_tear_after < 0)
      std::cout << "fault injection: wrote corrupted trace\n";
    if (fault->io_tear_after >= 0)
      fail_after = static_cast<std::size_t>(fault->io_tear_after);
  }
  std::string error;
  if (!support::atomic_write_file(out, text, &error, fail_after)) {
    std::cerr << "cannot write " << out << ": " << error << '\n';
    return 1;
  }
  std::cout << "recorded " << trace->size() << " events -> " << out << " ("
            << to_string(*format) << ")\n";
  return metrics.write_counters(/*jobs=*/1) ? 0 : 1;
}

// wolf convert <in> <out> [--format=v1|v2|v3] — rewrites a trace
// in another format. The input format is auto-detected; the event checksum
// (carried by v2 and v3 footers) is a function of the events alone, so it
// survives every conversion and is echoed for scripts to compare.
//
// The conversion is a block pipeline, not a load-then-dump: the streaming
// reader hands blocks straight to a StreamTraceWriter on the atomic temp
// file, so peak memory is O(block), independent of trace length — a 10^8-
// event file converts in a few hundred KB of heap.
int cmd_convert(int argc, char** argv) {
  if (argc < 2 || std::string_view(argv[0]).substr(0, 2) == "--" ||
      std::string_view(argv[1]).substr(0, 2) == "--") {
    std::cerr << "usage: wolf convert <in> <out> [--format=v1|v2|v3]\n";
    return 1;
  }
  const std::string in_path = argv[0];
  const std::string out_path = argv[1];
  Flags flags;
  flags.set_context("wolf convert");
  flags.define_string("format", "v3", "output trace format (v1|v2|v3)");
  // parse() treats its argv[0] as the program name, so hand it the slot
  // before the first flag.
  if (!flags.parse(argc - 1, argv + 1)) return 1;
  auto format = trace_format_from_string(flags.get_string("format"));
  if (!format) {
    std::cerr << "bad --format '" << flags.get_string("format")
              << "' (want v1|v2|v3)\n";
    return 1;
  }

  StreamTraceReader reader(in_path);
  support::AtomicFileWriter writer(out_path);
  if (!writer.ok()) {
    std::cerr << "cannot write " << out_path << ": cannot open temp file\n";
    return 1;
  }
  std::uint64_t checksum = wire::kChecksumSeed;
  {
    StreamTraceWriter out(writer.stream(), *format);
    std::vector<Event> block;
    while (reader.next_block(block)) {
      for (const Event& e : block)
        checksum = wire::checksum_event(checksum, e);
      out.write(block);
    }
    if (!reader.ok()) {
      std::cerr << "bad trace: " << reader.error() << '\n';
      writer.abort();
      return 1;
    }
    out.finish();
  }
  std::string write_error;
  if (!writer.commit(&write_error)) {
    std::cerr << "cannot write " << out_path << ": " << write_error << '\n';
    return 1;
  }
  std::cout << "converted " << reader.events_read() << " events -> "
            << out_path << " (" << to_string(*format) << ", checksum "
            << wire::to_hex(checksum) << ")\n";
  return 0;
}

int cmd_detect(const sim::Program& program, const Flags& flags) {
  MetricsScope metrics(flags);
  DetectorOptions options;
  detector_from_flags(flags, options);
  const std::optional<Detection> found =
      detect_from_flags(program, flags, options);
  if (!found) return 1;
  const Detection& det = *found;
  warn_if_truncated(det);
  auto verdicts = prune(det);
  const DependencyIndex dep_index = DependencyIndex::build(det.dep);

  std::cout << det.dep.tuples.size() << " tuples ("
            << det.dep.unique.size() << " canonical), "
            << det.cycles.size() << " cycles, " << det.defects.size()
            << " defects\n";
  for (std::size_t c = 0; c < det.cycles.size(); ++c) {
    std::cout << "cycle " << c << ": "
              << det.cycles[c].to_string(det.dep) << "\n  sites:";
    for (SiteId s : signature_of(det.cycles[c], det.dep))
      std::cout << ' ' << program.sites().name(s);
    std::cout << "\n  pruner: " << to_string(verdicts[c]);
    if (!is_false(verdicts[c])) {
      // Per-cycle isolation, as analyze classifies: a trace whose thread
      // repeats an execution index fails Gs construction for the cycles
      // that reach it, and only those.
      try {
        GeneratorResult gen = generate(det.cycles[c], det.dep, dep_index);
        std::cout << ", Gs: " << gen.gs.vertex_count() << " vertices, "
                  << (gen.feasible ? "acyclic" : "CYCLIC (false positive)");
      } catch (const std::exception& ex) {
        std::cout << ", Gs: failed: " << check_message(ex);
      }
    }
    std::cout << '\n';
  }
  const int jobs = static_cast<int>(flags.get_int("jobs"));
  return metrics.write_counters(jobs) ? 0 : 1;
}

int cmd_analyze(const sim::Program& program, const Flags& flags) {
  std::optional<robust::FaultPlan> fault;
  if (!fault_from_flags(flags, fault)) return 1;

  // The facade path: fold the flag surface into a wolf::Config, surface
  // validate() findings, then explode into the per-stage structs.
  Config config;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.jobs = static_cast<int>(flags.get_int("jobs"));
  config.deadline_ms = flags.get_int("deadline-ms");
  detector_from_flags(flags, config.detector);
  config.replay.attempts = static_cast<int>(flags.get_int("attempts"));
  config.record_attempts = static_cast<int>(flags.get_int("retry"));
  config.memory_budget_mb =
      static_cast<std::size_t>(flags.get_int("memory-budget-mb"));
  config.window_events =
      static_cast<std::size_t>(flags.get_int("window-events"));
  config.window_deadline_ms = flags.get_int("window-deadline-ms");
  if (flags.get_bool("live")) {
    // Surface each cycle the moment a window first finds it. Observation
    // only: the final report below is identical with or without --live.
    config.on_cycle = [](const LiveCycle& lc) {
      std::cout << "live: window " << lc.window << " cycle #" << lc.sequence
                << ": " << lc.cycle->to_string(*lc.dep) << '\n';
    };
  }
  if (fault.has_value()) config.fault = &*fault;
  if (!report_config_issues(config)) return 1;
  WolfOptions options = config.wolf_options();

  MetricsScope metrics(flags);
  WolfReport report;
  const std::string trace_path = flags.get_string("trace");
  if (!trace_path.empty()) {
    // Every trace analysis runs through one wolf::Session, which closes
    // windows only when the config asks for them; analyze_session drives
    // ingest/finish.
    Session session = Session::open(config);
    if (!flags.get_bool("salvage")) {
      // Stream the file block-by-block; the full event vector is never
      // materialized.
      StreamTraceReader reader(trace_path);
      WorkloadSiteReader checked(reader, program.sites());
      report = analyze_session(program, session, checked, options);
      if (!stream_is_clean(flags, reader, checked, program.sites())) return 1;
    } else {
      auto trace = salvage_or_record(program, flags);
      if (!trace) return 1;
      VectorTraceReader reader(*trace);
      report = analyze_session(program, session, reader, options);
    }
  } else {
    if (config.governed())
      std::cerr << "warning: --memory-budget-mb/--window-deadline-ms/--live "
                   "govern trace analysis; ignored without --trace\n";
    report = run_wolf(program, options);
    if (!report.trace_recorded) {
      std::cerr << "every recording run deadlocked\n";
      return 1;
    }
  }

  warn_if_truncated(report.detection);
  // An ungoverned session surfaces here only when its verdict is degraded
  // (a malformed event or a final enumeration fault).
  if (report.governed || report.governor.degraded()) {
    const std::string degraded = degradation_message(report.governor);
    if (!degraded.empty()) std::cerr << "warning: " << degraded << '\n';
    std::cout << "governed: " << report.governor.summary() << '\n';
  }
  const std::string report_path = flags.get_string("report");
  if (!report_path.empty()) {
    std::ofstream os(report_path);
    if (!os) {
      std::cerr << "cannot write " << report_path << '\n';
      return 1;
    }
    os << write_markdown_report(report, program.sites());
    std::cout << "report written to " << report_path << '\n';
  }
  std::cout << "parallelism: " << report.jobs_used << " job(s)\n"
            << report.summary(program.sites());
  if (flags.get_bool("rank"))
    std::cout << "\nranking (most actionable first):\n"
              << format_ranking(report, program.sites());
  return metrics.write(collect_metrics(report)) ? 0 : 1;
}

int cmd_replay(const sim::Program& program, const Flags& flags) {
  std::optional<robust::FaultPlan> fault;
  if (!fault_from_flags(flags, fault)) return 1;
  MetricsScope metrics(flags);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::optional<Detection> found =
      detect_from_flags(program, flags, DetectorOptions{});
  if (!found) return 1;
  const Detection& det = *found;
  const auto cycle_index =
      static_cast<std::size_t>(flags.get_int("cycle"));
  if (cycle_index >= det.cycles.size()) {
    std::cerr << "cycle " << cycle_index << " out of range (have "
              << det.cycles.size() << ")\n";
    return 1;
  }
  GeneratorResult gen;
  try {
    gen = generate(det.cycles[cycle_index], det.dep);
  } catch (const std::exception& ex) {
    std::cerr << "cycle " << cycle_index
              << ": Gs construction failed: " << check_message(ex) << '\n';
    return 1;
  }
  if (!gen.feasible) {
    std::cout << "Gs is cyclic: this cycle is a false positive; nothing to "
                 "replay\n";
    return 0;
  }
  ReplayOptions options;
  options.attempts = static_cast<int>(flags.get_int("attempts"));
  options.seed = seed + 1;
  options.retry.attempt_deadline_ms = flags.get_int("deadline-ms");
  if (fault.has_value()) options.fault = &*fault;
  ReplayStats stats =
      flags.get_bool("rt")
          ? rt::replay_rt(program, det.cycles[cycle_index], det.dep, gen.gs,
                          options)
          : replay(program, det.cycles[cycle_index], det.dep, gen.gs,
                   options);
  std::cout << (stats.reproduced() ? "REPRODUCED" : "not reproduced")
            << " after " << stats.attempts << " attempt(s) [hits "
            << stats.hits << ", other-deadlocks " << stats.other_deadlocks
            << ", clean " << stats.no_deadlocks << ", timeouts "
            << stats.timeouts << "]\n";
  if (!metrics.write_counters(/*jobs=*/1)) return 1;
  return stats.reproduced() ? 0 : 2;
}

// ---- the sidecar trio (DESIGN.md §18) -------------------------------------

// SIGINT/SIGTERM latch for `wolf serve`'s drain loop. A handler may only
// touch sig_atomic_t, so the poll loop below does the actual stop().
volatile std::sig_atomic_t g_serve_signal = 0;
extern "C" void serve_signal_handler(int sig) { g_serve_signal = sig; }

// wolf serve --socket=PATH [...] — runs the always-on sidecar until SIGTERM/
// SIGINT or a client's `stop` hello, then drains gracefully and exits 0.
int cmd_serve(int argc, char** argv) {
  Flags flags;
  flags.set_context("wolf serve");
  flags.define_string("socket", "", "unix-domain socket path to listen on");
  flags.define_int("max-sessions", 16,
                   "concurrent session cap; extra connections are rejected");
  flags.define_int("idle-timeout-ms", 30000,
                   "evict a connection idle this long (0 = never)");
  flags.define_int("session-deadline-ms", 0,
                   "wall-clock cap on one session's ingest (0 = none)");
  flags.define_int("drain-deadline-ms", 5000,
                   "grace period for live sessions on shutdown");
  flags.define_int("window-events", 65536,
                   "default events per governed detection window");
  flags.define_int("memory-budget-mb", 0,
                   "default per-session tuple-store budget (MiB, 0 = none)");
  flags.define_int("window-deadline-ms", 0,
                   "default per-window detection deadline (0 = none)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.get_string("socket").empty()) {
    std::cerr << "wolf serve: --socket is required\n";
    return 1;
  }

  serve::ServeOptions options;
  options.socket_path = flags.get_string("socket");
  options.max_sessions = static_cast<int>(flags.get_int("max-sessions"));
  options.idle_timeout_ms = flags.get_int("idle-timeout-ms");
  options.session_deadline_ms = flags.get_int("session-deadline-ms");
  options.drain_deadline_ms = flags.get_int("drain-deadline-ms");
  options.session.window_events =
      static_cast<std::size_t>(flags.get_int("window-events"));
  options.session.memory_budget_mb =
      static_cast<std::size_t>(flags.get_int("memory-budget-mb"));
  options.session.window_deadline_ms = flags.get_int("window-deadline-ms");

  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "wolf serve: " << error << '\n';
    return 1;
  }
  std::cout << "serving on " << options.socket_path << " (max "
            << options.max_sessions << " sessions)\n";

  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (g_serve_signal == 0 && !server.stop_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::cout << (g_serve_signal != 0 ? "signal received" : "stop requested")
            << ", draining\n";
  server.stop();

  const serve::ServerStats stats = server.stats();
  std::cout << "served " << stats.sessions_started << " session(s): "
            << stats.sessions_done << " done, " << stats.sessions_torn
            << " torn, " << stats.sessions_evicted << " evicted, "
            << stats.sessions_failed << " failed, " << stats.rejected
            << " rejected\n";
  return 0;
}

// wolf emit --socket=PATH --trace=FILE | --workload=W — streams a trace into
// one serve session and prints the server's live cycles and verdict in the
// exact format `wolf analyze --live` prints its own, so the two transcripts
// diff clean. Exits 0 on a complete verdict, 2 on an honest incomplete one,
// 1 on transport/protocol failure.
int cmd_emit(int argc, char** argv) {
  Flags flags;
  flags.set_context("wolf emit");
  flags.define_string("socket", "", "serve socket to stream into");
  flags.define_string("name", "emit", "session name shown in status");
  flags.define_string("trace", "", "recorded trace file to stream");
  flags.define_string("workload", "",
                      "record this workload on the fly instead of --trace");
  flags.define_int("seed", 1, "recording seed for --workload");
  flags.define_int("window", 0, "override the server's window-events");
  flags.define_int("budget-mb", -1, "override the server's memory budget");
  flags.define_int("deadline-ms", -1,
                   "override the server's window deadline");
  flags.define_int("chunk-bytes", 64 * 1024, "upload chunk size");
  flags.define_int("throttle-ms", 0, "sleep between chunks (slow consumer)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.get_string("socket").empty()) {
    std::cerr << "wolf emit: --socket is required\n";
    return 1;
  }

  std::string bytes;
  if (!flags.get_string("trace").empty()) {
    std::ifstream in(flags.get_string("trace"), std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << flags.get_string("trace") << '\n';
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  } else if (!flags.get_string("workload").empty()) {
    auto program = find_workload(flags.get_string("workload"));
    if (!program) {
      std::cerr << "unknown workload '" << flags.get_string("workload")
                << "'; try `wolf list`\n";
      return 1;
    }
    auto trace = sim::record_trace(
        *program, static_cast<std::uint64_t>(flags.get_int("seed")),
        robust::RetryPolicy{});
    if (!trace) {
      std::cerr << "every recording run deadlocked\n";
      return 1;
    }
    bytes = trace_to_string(*trace, TraceFormat::kV3);
  } else {
    std::cerr << "wolf emit: need --trace or --workload\n";
    return 1;
  }

  serve::EmitOptions options;
  options.socket_path = flags.get_string("socket");
  options.name = flags.get_string("name");
  options.chunk_bytes = static_cast<std::size_t>(flags.get_int("chunk-bytes"));
  options.throttle_ms = flags.get_int("throttle-ms");
  if (flags.get_int("window") > 0)
    options.params["window"] = std::to_string(flags.get_int("window"));
  if (flags.get_int("budget-mb") >= 0)
    options.params["budget-mb"] = std::to_string(flags.get_int("budget-mb"));
  if (flags.get_int("deadline-ms") >= 0)
    options.params["deadline-ms"] =
        std::to_string(flags.get_int("deadline-ms"));
  // Print live cycles as they arrive, in `analyze --live` format.
  options.on_line = [](const std::string& line) {
    SessionCycle cycle;
    if (serve::parse_live_line(line, cycle))
      std::cout << "live: window " << cycle.window << " cycle #"
                << cycle.sequence << ": " << cycle.description << '\n';
  };

  serve::EmitResult result = serve::emit_trace_bytes(options, bytes);
  if (!result.error.empty()) {
    std::cerr << "wolf emit: " << result.error << '\n';
    return 1;
  }
  std::cout << "governed: " << result.verdict.summary << '\n';
  if (!result.verdict.stream_note.empty())
    std::cerr << "warning: " << result.verdict.stream_note << '\n';
  std::cout << "streamed " << result.bytes_sent << " bytes, "
            << result.verdict.events << " events, " << result.verdict.windows
            << " window(s), " << result.verdict.cycles.size()
            << " cycle(s), " << (result.complete ? "complete" : "INCOMPLETE")
            << '\n';
  return result.complete ? 0 : 2;
}

// wolf status --socket=PATH [--stop] — dumps the server's newline-JSON
// session registry verbatim (one line per session + the roll-up), and with
// --stop asks the server to drain and exit.
int cmd_status(int argc, char** argv) {
  Flags flags;
  flags.set_context("wolf status");
  flags.define_string("socket", "", "serve socket to query");
  flags.define_bool("stop", false, "ask the server to drain and exit");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.get_string("socket").empty()) {
    std::cerr << "wolf status: --socket is required\n";
    return 1;
  }
  std::string error;
  if (flags.get_bool("stop")) {
    if (!serve::send_stop(flags.get_string("socket"), &error)) {
      std::cerr << "wolf status: " << error << '\n';
      return 1;
    }
    std::cout << "stop acknowledged\n";
    return 0;
  }
  std::vector<std::string> lines;
  if (!serve::fetch_status(flags.get_string("socket"), lines, &error)) {
    std::cerr << "wolf status: " << error << '\n';
    return 1;
  }
  for (const std::string& line : lines) std::cout << line << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: wolf <record|detect|analyze|replay|convert|serve|"
                 "emit|status|list> [flags]\n";
    return 1;
  }
  const std::string command = argv[1];
  if (command == "list") {
    list_workloads();
    return 0;
  }
  if (command == "convert") return cmd_convert(argc - 2, argv + 2);
  // The sidecar trio parses its own flag set and (for emit) resolves its
  // own workload, so it dispatches before the --workload lookup below.
  if (command == "serve") return cmd_serve(argc - 1, argv + 1);
  if (command == "emit") return cmd_emit(argc - 1, argv + 1);
  if (command == "status") return cmd_status(argc - 1, argv + 1);

  // Each subcommand owns its flag set: the shared surface plus its extras.
  // A flag given to the wrong subcommand is an unknown-flag error naming
  // that subcommand.
  Flags flags;
  flags.set_context("wolf " + command);
  register_common_flags(flags);
  register_workload_flags(flags);
  if (command == "record") {
    flags.define_string("out", "trace.txt", "output path for `record`");
    flags.define_string("format", "v2",
                        "trace format written by `record` (v1|v2|v3)");
  } else if (command == "detect") {
    register_detector_flags(flags);
  } else if (command == "analyze") {
    register_detector_flags(flags);
    flags.define_int("attempts", 10, "replay attempts");
    flags.define_bool("rank", false, "print the defect ranking");
    flags.define_string("report", "", "write a markdown report to this path");
    flags.define_int("memory-budget-mb", 0,
                     "tuple-store budget for governed streaming analysis "
                     "(MiB, 0 = unbounded)");
    flags.define_int("window-events", 65536,
                     "events per governed detection window");
    flags.define_int("window-deadline-ms", 0,
                     "per-window detection deadline driving the degradation "
                     "ladder (0 = none)");
    flags.define_bool("live", false,
                      "print each cycle when a window first finds it "
                      "(closes detection windows)");
  } else if (command == "replay") {
    flags.define_int("attempts", 10, "replay attempts");
    flags.define_int("cycle", 0, "cycle index for `replay`");
    flags.define_bool("rt", false, "replay on real OS threads");
  } else {
    std::cerr << "unknown command '" << command << "'\n";
    return 1;
  }
  if (!flags.parse(argc - 1, argv + 1)) return 1;

  auto program = find_workload(flags.get_string("workload"));
  if (!program) {
    std::cerr << "unknown workload '" << flags.get_string("workload")
              << "'; try `wolf list`\n";
    return 1;
  }

  if (command == "record") return cmd_record(*program, flags);
  if (command == "detect") return cmd_detect(*program, flags);
  if (command == "analyze") return cmd_analyze(*program, flags);
  return cmd_replay(*program, flags);
}
