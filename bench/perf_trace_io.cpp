// perf_trace_io — benchmark-gated perf harness for the trace substrate
// (DESIGN.md §11): sharded lock-free recording, binary v3 serialization,
// and the end-to-end recording overhead on real OS threads.
//
// Three measurements, emitted as machine-readable BENCH_trace_io.json:
//
//   1. record — N threads hammer a mutex-serialized TraceRecorder vs the
//      lock-free ShardedTraceRecorder; events/sec for each and the speedup.
//      The merged sharded trace is checked to be a dense, seq-sorted stream
//      (exit 1 if not: speed only counts when the trace is right).
//   2. formats — suite-workload traces (plus a large synthetic one in full
//      mode) encoded and decoded in v2 and v3; bytes/event, encode/decode
//      MB/s, the v3:v2 size ratio, and a round-trip identity check.
//   3. decode_paths — one indexed v3 file decoded by the one sequential
//      StreamTraceReader through both of its constructors (an opened binary
//      std::ifstream, and the path); MB/s over *total file bytes* for each,
//      the reader's index_present introspection, and an event-checksum
//      identity gate across both. --huge streams a 10^8-event file through
//      this section in O(block) memory (the events are never materialized).
//   4. rt_slowdown — a deadlock-free rt workload run uninstrumented, with
//      the serial recorder, and with the sharded recorder; paired seeds,
//      wall-clock slowdown factors vs uninstrumented.
//
// Numbers are reported for the machine the bench ran on —
// hardware_concurrency is in the JSON, so a 1-CPU container's contention
// figures are labeled as such rather than passed off as scalability.
//
//   perf_trace_io [--quick] [--huge] [--threads=N]
//                 [--out=BENCH_trace_io.json]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/executor.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "trace/recorder.hpp"
#include "trace/serialize.hpp"
#include "trace/sharded_recorder.hpp"
#include "trace/trace_reader.hpp"
#include "trace/wire.hpp"
#include "workloads/suite.hpp"

using namespace wolf;

namespace {

// The serial recorder made thread-safe the only way its contract allows: a
// mutex around every emission. This is the recording path the sharded sink
// replaces, reproduced here as the baseline.
class MutexRecorder final : public TraceSink {
 public:
  void on_event(Event e) override {
    std::lock_guard<std::mutex> lk(mu_);
    recorder_.on_event(e);
  }
  Trace take() {
    std::lock_guard<std::mutex> lk(mu_);
    return recorder_.take();
  }

 private:
  std::mutex mu_;
  TraceRecorder recorder_;
};

Event make_event(ThreadId t, std::uint64_t i) {
  Event e;
  e.kind = (i & 1) == 0 ? EventKind::kLockAcquire : EventKind::kLockRelease;
  e.thread = t;
  e.site = static_cast<SiteId>(i % 13);
  e.occurrence = static_cast<std::int32_t>(i / 13);
  e.lock = static_cast<LockId>(i % 7);
  return e;
}

// Emits `per_thread` events from each of `threads` threads into `sink`;
// returns wall seconds.
double hammer(TraceSink& sink, int threads, std::uint64_t per_thread) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  Stopwatch watch;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&sink, t, per_thread] {
      for (std::uint64_t i = 0; i < per_thread; ++i)
        sink.on_event(make_event(static_cast<ThreadId>(t), i));
    });
  for (std::thread& w : workers) w.join();
  return watch.seconds();
}

struct RecordResult {
  int threads = 0;
  std::uint64_t events = 0;
  double mutex_mevents = 0;    // million events/sec
  double sharded_mevents = 0;  // million events/sec
  double speedup = 0;
  bool merge_ok = false;
};

RecordResult bench_record(int threads, std::uint64_t per_thread) {
  RecordResult r;
  r.threads = threads;
  r.events = per_thread * static_cast<std::uint64_t>(threads);

  MutexRecorder mutex_sink;
  const double mutex_s = hammer(mutex_sink, threads, per_thread);
  Trace mutex_trace = mutex_sink.take();

  ShardedTraceRecorder sharded_sink;
  const double sharded_s = hammer(sharded_sink, threads, per_thread);
  Trace sharded_trace = sharded_sink.take();

  r.mutex_mevents = static_cast<double>(r.events) / mutex_s / 1e6;
  r.sharded_mevents = static_cast<double>(r.events) / sharded_s / 1e6;
  r.speedup = r.sharded_mevents / r.mutex_mevents;

  // Both sinks must deliver a dense seq-sorted permutation of the tickets.
  r.merge_ok = sharded_trace.events.size() == r.events &&
               mutex_trace.events.size() == r.events;
  for (std::size_t i = 0; r.merge_ok && i < sharded_trace.events.size(); ++i)
    r.merge_ok = sharded_trace.events[i].seq == i;
  return r;
}

// Dense synthetic trace for the full-mode encoder stress: serializers only
// require strictly increasing seq, so lock discipline is irrelevant here.
Trace make_synthetic_trace(std::uint64_t events, std::uint64_t seed) {
  Rng rng(seed);
  Trace trace;
  trace.events.reserve(static_cast<std::size_t>(events));
  for (std::uint64_t i = 0; i < events; ++i) {
    Event e = make_event(static_cast<ThreadId>(rng.below(16)), i);
    e.seq = i;
    e.occurrence = static_cast<std::int32_t>(rng.below(200));
    trace.events.push_back(e);
  }
  return trace;
}

struct FormatSide {
  std::size_t bytes = 0;
  double bytes_per_event = 0;
  double encode_mb_s = 0;
  double decode_mb_s = 0;
};

struct FormatResult {
  std::string name;
  std::size_t events = 0;
  FormatSide v2, v3;
  double v3_to_v2_ratio = 0;  // v3 bytes / v2 bytes (lower is better)
  bool roundtrip_ok = false;
};

FormatSide measure_format(const Trace& trace, TraceFormat format, int reps,
                          bool& roundtrip_ok) {
  FormatSide side;
  std::string encoded;
  double encode_s = 1e30, decode_s = 1e30;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    encoded = trace_to_string(trace, format);
    encode_s = std::min(encode_s, watch.seconds());
  }
  side.bytes = encoded.size();
  side.bytes_per_event = trace.events.empty()
                             ? 0
                             : static_cast<double>(side.bytes) /
                                   static_cast<double>(trace.events.size());
  std::optional<Trace> decoded;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    decoded = trace_from_string(encoded);
    decode_s = std::min(decode_s, watch.seconds());
  }
  roundtrip_ok = decoded.has_value() && decoded->events == trace.events;
  const double mb = static_cast<double>(side.bytes) / 1e6;
  side.encode_mb_s = mb / encode_s;
  side.decode_mb_s = mb / decode_s;
  return side;
}

FormatResult bench_formats(const std::string& name, const Trace& trace,
                           int reps) {
  FormatResult r;
  r.name = name;
  r.events = trace.events.size();
  bool ok2 = false, ok3 = false;
  r.v2 = measure_format(trace, TraceFormat::kV2, reps, ok2);
  r.v3 = measure_format(trace, TraceFormat::kV3, reps, ok3);
  r.roundtrip_ok = ok2 && ok3;
  r.v3_to_v2_ratio =
      static_cast<double>(r.v3.bytes) / static_cast<double>(r.v2.bytes);
  return r;
}

// --- decode_paths: StreamTraceReader over a file, through both ctors ---

struct DecodeRow {
  std::string label;
  double mb_s = 0;  // total file bytes / best wall time
  bool index_present = false;
  bool identical = false;  // event count + checksum match the writer's
};

struct DecodePathsResult {
  std::uint64_t events = 0;
  std::size_t file_bytes = 0;
  std::vector<DecodeRow> rows;
};

// Streams `events` synthetic events through a StreamTraceWriter into an
// indexed v3 file; the trace is never materialized, so the huge regime
// stays O(block). Returns the whole-trace event checksum.
std::uint64_t write_synthetic_file(const std::string& path,
                                   std::uint64_t events, std::uint64_t seed) {
  std::ofstream os(path, std::ios::binary);
  StreamTraceWriter writer(os, TraceFormat::kV3);
  Rng rng(seed);
  std::uint64_t checksum = wire::kChecksumSeed;
  for (std::uint64_t i = 0; i < events; ++i) {
    Event e = make_event(static_cast<ThreadId>(rng.below(16)), i);
    e.seq = i;
    e.occurrence = static_cast<std::int32_t>(rng.below(200));
    writer.write(e);
    checksum = wire::checksum_event(checksum, e);
  }
  writer.finish();
  return checksum;
}

// Decodes `path` `reps` times, through the istream constructor over an
// opened binary std::ifstream or through the path constructor; the best
// rep sets the row's MB/s.
DecodeRow measure_decode_path(const std::string& path, bool via_istream,
                              int reps, std::size_t file_bytes,
                              std::uint64_t want_events,
                              std::uint64_t want_checksum) {
  DecodeRow row;
  row.label = via_istream ? "istream" : "path";
  double best_s = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    std::ifstream file;
    std::optional<StreamTraceReader> reader;
    if (via_istream) {
      file.open(path, std::ios::binary);
      reader.emplace(file);
    } else {
      reader.emplace(path);
    }
    std::uint64_t checksum = wire::kChecksumSeed;
    std::uint64_t count = 0;
    std::vector<Event> block;
    while (reader->next_block(block)) {
      for (const Event& e : block)
        checksum = wire::checksum_event(checksum, e);
      count += block.size();
    }
    best_s = std::min(best_s, watch.seconds());
    row.identical =
        reader->ok() && count == want_events && checksum == want_checksum;
    row.index_present = reader->index_present();
  }
  row.mb_s = static_cast<double>(file_bytes) / 1e6 / best_s;
  return row;
}

DecodePathsResult bench_decode_paths(const std::string& tmp_path,
                                     std::uint64_t events, std::uint64_t seed,
                                     int reps) {
  DecodePathsResult r;
  r.events = events;
  const std::uint64_t checksum =
      write_synthetic_file(tmp_path, events, seed);
  {
    std::ifstream probe(tmp_path, std::ios::binary | std::ios::ate);
    r.file_bytes = static_cast<std::size_t>(probe.tellg());
  }
  for (bool via_istream : {true, false})
    r.rows.push_back(measure_decode_path(tmp_path, via_istream, reps,
                                         r.file_bytes, events, checksum));
  std::remove(tmp_path.c_str());
  return r;
}

struct SlowdownResult {
  std::string workload;
  int runs = 0;
  double uninstrumented_s = 0;
  double mutex_sink_s = 0;
  double sharded_sink_s = 0;
  double mutex_slowdown = 0;
  double sharded_slowdown = 0;
};

// Paired design like suite_runner's measure_rt_slowdown: every sample runs
// all three modes back to back on the same seed, so machine noise hits all
// alike. The program is the deadlock-free slowdown mirror, so every run
// completes.
SlowdownResult bench_rt_slowdown(const sim::Program& program,
                                 const std::string& name, int runs,
                                 std::uint64_t seed) {
  SlowdownResult r;
  r.workload = name;
  r.runs = runs;
  Rng rng(seed);
  auto timed = [&](TraceSink* sink, bool instrument,
                   std::uint64_t run_seed) -> double {
    rt::ExecutorOptions options;
    options.instrument = instrument;
    options.sink = sink;
    options.seed = run_seed;
    Stopwatch watch;
    sim::RunResult result = rt::execute(program, options);
    return result.outcome == sim::RunOutcome::kCompleted ? watch.seconds()
                                                         : 0.0;
  };
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t run_seed = rng();
    r.uninstrumented_s += timed(nullptr, false, run_seed);
    MutexRecorder mutex_sink;
    r.mutex_sink_s += timed(&mutex_sink, true, run_seed);
    ShardedTraceRecorder sharded_sink;
    r.sharded_sink_s += timed(&sharded_sink, true, run_seed);
  }
  if (r.uninstrumented_s > 0) {
    r.mutex_slowdown = r.mutex_sink_s / r.uninstrumented_s;
    r.sharded_slowdown = r.sharded_sink_s / r.uninstrumented_s;
  }
  return r;
}

void write_json(std::ostream& os, bool quick, bool huge,
                const std::vector<RecordResult>& record,
                const std::vector<FormatResult>& formats,
                const DecodePathsResult& decode,
                const SlowdownResult& slowdown) {
  os << "{\n"
     << "  \"bench\": \"perf_trace_io\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"huge\": " << (huge ? "true" : "false") << ",\n"
     << "  \"hardware_concurrency\": " << ThreadPool::hardware_jobs() << ",\n"
     << "  \"record\": [\n";
  for (std::size_t i = 0; i < record.size(); ++i) {
    const RecordResult& r = record[i];
    os << "    {\"threads\": " << r.threads << ", \"events\": " << r.events
       << ", \"mutex_mevents_per_s\": " << r.mutex_mevents
       << ", \"sharded_mevents_per_s\": " << r.sharded_mevents
       << ", \"sharded_speedup\": " << r.speedup
       << ", \"merge_ok\": " << (r.merge_ok ? "true" : "false") << "}"
       << (i + 1 < record.size() ? "," : "") << '\n';
  }
  os << "  ],\n"
     << "  \"formats\": [\n";
  for (std::size_t i = 0; i < formats.size(); ++i) {
    const FormatResult& f = formats[i];
    os << "    {\"name\": \"" << f.name << "\", \"events\": " << f.events
       << ",\n"
       << "     \"v2_bytes\": " << f.v2.bytes
       << ", \"v2_bytes_per_event\": " << f.v2.bytes_per_event
       << ", \"v2_encode_mb_s\": " << f.v2.encode_mb_s
       << ", \"v2_decode_mb_s\": " << f.v2.decode_mb_s << ",\n"
       << "     \"v3_bytes\": " << f.v3.bytes
       << ", \"v3_bytes_per_event\": " << f.v3.bytes_per_event
       << ", \"v3_encode_mb_s\": " << f.v3.encode_mb_s
       << ", \"v3_decode_mb_s\": " << f.v3.decode_mb_s << ",\n"
       << "     \"v3_to_v2_size_ratio\": " << f.v3_to_v2_ratio
       << ", \"roundtrip_identical\": " << (f.roundtrip_ok ? "true" : "false")
       << "}" << (i + 1 < formats.size() ? "," : "") << '\n';
  }
  os << "  ],\n"
     << "  \"decode_paths\": {\n"
     << "    \"events\": " << decode.events << ",\n"
     << "    \"file_bytes\": " << decode.file_bytes << ",\n"
     << "    \"rows\": [\n";
  for (std::size_t i = 0; i < decode.rows.size(); ++i) {
    const DecodeRow& row = decode.rows[i];
    os << "      {\"constructor\": \"" << row.label
       << "\", \"mb_per_s\": " << row.mb_s
       << ", \"index_present\": " << (row.index_present ? "true" : "false")
       << ", \"identical\": " << (row.identical ? "true" : "false") << "}"
       << (i + 1 < decode.rows.size() ? "," : "") << '\n';
  }
  os << "    ]\n"
     << "  },\n"
     << "  \"rt_slowdown\": {\n"
     << "    \"workload\": \"" << slowdown.workload << "\",\n"
     << "    \"runs\": " << slowdown.runs << ",\n"
     << "    \"uninstrumented_seconds\": " << slowdown.uninstrumented_s
     << ",\n"
     << "    \"mutex_sink_seconds\": " << slowdown.mutex_sink_s << ",\n"
     << "    \"sharded_sink_seconds\": " << slowdown.sharded_sink_s << ",\n"
     << "    \"mutex_slowdown\": " << slowdown.mutex_slowdown << ",\n"
     << "    \"sharded_slowdown\": " << slowdown.sharded_slowdown << "\n"
     << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_bool("quick", false,
                    "CI smoke mode: fewer events, fewer workloads");
  flags.define_bool("huge", false,
                    "10^8-event decode_paths regime (~1 GB temp file, "
                    "minutes of wall clock; events stream in O(block))");
  flags.define_int("threads", 0,
                   "recording threads (0 = max(4, hardware concurrency))");
  flags.define_int("seed", 2014, "seed");
  flags.define_string("out", "BENCH_trace_io.json", "JSON output path");
  if (!flags.parse(argc, argv)) return 1;

  const bool quick = flags.get_bool("quick");
  const bool huge = flags.get_bool("huge");
  int threads = static_cast<int>(flags.get_int("threads"));
  if (threads <= 0) threads = std::max(4, ThreadPool::hardware_jobs());
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::uint64_t per_thread = quick ? 100'000 : 500'000;
  const int reps = quick ? 2 : 5;

  // 1. Recording throughput, contended and uncontended.
  std::vector<RecordResult> record;
  record.push_back(bench_record(1, per_thread));
  record.push_back(bench_record(threads, per_thread));

  // 2. Serialization formats over real suite traces (+ synthetic in full).
  std::vector<FormatResult> formats;
  const auto suite = workloads::standard_suite();
  const std::vector<std::string> suite_names =
      quick ? std::vector<std::string>{"ArrayList", "HashMap"}
            : std::vector<std::string>{"ArrayList", "Stack", "HashMap",
                                       "TreeMap", "WeakHashMap"};
  robust::RetryPolicy retry;
  retry.max_attempts = 60;
  for (const std::string& name : suite_names) {
    const workloads::Benchmark& b = workloads::find_benchmark(suite, name);
    auto trace = sim::record_trace(b.program, seed, retry, b.max_steps);
    if (!trace.has_value()) {
      std::cerr << name << ": every recording run deadlocked; skipping\n";
      continue;
    }
    formats.push_back(bench_formats(name, *trace, reps));
  }
  formats.push_back(bench_formats(
      "synthetic",
      make_synthetic_trace(quick ? 100'000 : 1'000'000, mix64(seed)), reps));

  // 3. File decode, through both reader constructors, of one indexed v3
  //    file.
  const std::uint64_t decode_events =
      huge ? 100'000'000 : (quick ? 200'000 : 2'000'000);
  DecodePathsResult decode =
      bench_decode_paths(flags.get_string("out") + ".tmp.v3", decode_events,
                         mix64(seed ^ 0x5), huge ? 1 : (quick ? 2 : 3));

  // 4. End-to-end rt recording overhead.
  const workloads::Benchmark& hashmap =
      workloads::find_benchmark(suite, "HashMap");
  SlowdownResult slowdown = bench_rt_slowdown(
      hashmap.slowdown_program, "HashMap", quick ? 3 : 7, mix64(seed ^ 0x10));

  TextTable record_table({"Threads", "Events", "Mutex Mev/s", "Sharded Mev/s",
                          "Speedup", "Merge"});
  for (const RecordResult& r : record)
    record_table.add_row({std::to_string(r.threads), std::to_string(r.events),
                          TextTable::num(r.mutex_mevents, 2),
                          TextTable::num(r.sharded_mevents, 2),
                          TextTable::num(r.speedup, 2) + "x",
                          r.merge_ok ? "ok" : "BROKEN"});
  record_table.render(std::cout);
  std::cout << '\n';

  TextTable fmt_table({"Trace", "Events", "v2 B/ev", "v3 B/ev", "v3:v2",
                       "v3 dec MB/s", "Roundtrip"});
  for (const FormatResult& f : formats)
    fmt_table.add_row({f.name, std::to_string(f.events),
                       TextTable::num(f.v2.bytes_per_event, 1),
                       TextTable::num(f.v3.bytes_per_event, 1),
                       TextTable::num(f.v3_to_v2_ratio, 2),
                       TextTable::num(f.v3.decode_mb_s, 0),
                       f.roundtrip_ok ? "ok" : "BROKEN"});
  fmt_table.render(std::cout);
  std::cout << '\n';

  TextTable decode_table({"Constructor", "MB/s", "Index", "Events"});
  for (const DecodeRow& row : decode.rows)
    decode_table.add_row({row.label, TextTable::num(row.mb_s, 0),
                          row.index_present ? "yes" : "no",
                          row.identical ? "ok" : "BROKEN"});
  decode_table.render(std::cout);
  std::cout << "decode_paths: " << decode.events << " events, "
            << decode.file_bytes << " bytes\n";

  std::cout << "\nrt slowdown (" << slowdown.workload << ", " << slowdown.runs
            << " paired runs): uninstrumented "
            << TextTable::num(slowdown.uninstrumented_s * 1e3, 1)
            << " ms, mutex sink " << TextTable::num(slowdown.mutex_slowdown, 2)
            << "x, sharded sink "
            << TextTable::num(slowdown.sharded_slowdown, 2) << "x\n";

  const std::string out = flags.get_string("out");
  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  write_json(os, quick, huge, record, formats, decode, slowdown);
  std::cout << "wrote " << out << " (hardware concurrency "
            << ThreadPool::hardware_jobs() << ")\n";

  // Correctness gates: perf only counts when the trace is right.
  bool ok = true;
  for (const RecordResult& r : record) ok &= r.merge_ok;
  for (const FormatResult& f : formats) ok &= f.roundtrip_ok;
  for (const DecodeRow& row : decode.rows) ok &= row.identical;
  if (!ok) {
    std::cerr << "FAIL: recording merge, format round-trip, or decode-path "
                 "identity broke\n";
    return 1;
  }
  return 0;
}
