// perf_online — benchmark-gated perf harness for resource-governed online
// detection (core/governor.hpp): the SLO the robustness work promises is
// "10^7 events stream through a fixed memory budget, with bounded-latency
// windows and an honest verdict", and this harness measures exactly that,
// emitting machine-readable BENCH_online.json.
//
// Four scenarios over the same synthetic event stream (regenerated from
// the same seed each time, never materialized — 10^7 events as a vector
// would dominate the RSS this bench is supposed to measure), plus an
// adversarial churn stream:
//
//   1. budgeted  — hard memory budget; run FIRST so its RSS growth is not
//      masked by an earlier unbounded run's high-water mark. Reports
//      Mev/s, per-window p50/p99 detection latency, peak tuple store vs
//      budget, evictions, and the honesty bits.
//   2. unbounded — no budget, no deadline, a no-op cycle subscriber so
//      windows still close; the final detection must match batch
//      detect_reader() cycle for cycle (the differential gate: speed only
//      counts when the answer is right).
//   3. deadline  — small windows under a per-window deadline; reports how
//      far the degradation ladder moved and how many windows degraded.
//   4. shed      — a stream whose canonical tuple set outgrows a small
//      budget, forcing the aging rung; gates that eviction always came
//      with an honest incomplete-coverage verdict.
//   5. churn — the every-window-churn stream (a fresh AB/BA pair plus
//      fresh ordered filler pairs per window, so edges mutate and a new
//      cycle commits every single window) through the dirty-SCC window
//      path. Emitted as the JSON `churn` section; gated byte-identical to
//      plain batch detection on the final cycle set, with every cycle
//      surfaced live before finish().
//
// Per-scenario RSS is reported as rss_growth_bytes — the VmHWM delta over
// the scenario — because VmHWM itself is process-monotonic: quoting it per
// scenario would silently attribute the largest earlier peak to every
// later scenario.
//
// The stream: worker threads acquire locks in globally ordered depth bands
// (shared locks, no accidental cycles) from a small per-(thread, depth)
// choice set, each choice tagged with a fixed site — like source locations
// in a real program, so canonical tuples dedup heavily while the raw tuple
// store still grows with every acquire (that growth is what the budget
// governs). A phase counter rotates the site namespace a few times per run
// so the canonical set keeps growing across the whole stream. A scripted
// AB/BA ring on two dedicated threads every ring_every events — fixed
// sites — dedups to a handful of canonical tuples and a stable cycle set.
//
// Every scenario ingests block by block through a TraceReader over the
// synthetic stream, the way production drains a file.
// mevents_per_s spans ingestion only (generation + window detection);
// finish() is reported separately as finish_seconds.
//
//   perf_online [--quick] [--events=N] [--budget-mb=N]
//               [--out=BENCH_online.json]
#include <algorithm>
#include <array>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/governor.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "trace/trace_reader.hpp"

using namespace wolf;

namespace {

// Deterministic synthetic event source. Workers acquire locks whose ids
// rise with nesting depth (so workers alone never deadlock) and release in
// LIFO order. Each (thread, depth) has kChoices fixed lock/site options —
// a fixed code location per option, the way call sites repeat in a real
// program — so the canonical tuple set stays in the low thousands while
// raw tuples accumulate with every acquire. phase_every rotates the site
// namespace so the canonical set keeps growing over a long run instead of
// saturating in the first windows. Every ring_every events two dedicated
// threads run the classic AB/BA pattern on fixed sites.
class OnlineEventStream {
 public:
  OnlineEventStream(int workers, int locks, std::uint64_t phase_every,
                    std::uint64_t ring_every, std::uint64_t seed)
      : workers_(workers), locks_(locks), phase_every_(phase_every),
        ring_every_(ring_every), rng_(seed) {
    held_.resize(static_cast<std::size_t>(workers));
  }

  Event next() {
    if (pending_.empty()) {
      if (ring_every_ != 0 && emitted_ > 0 && emitted_ % ring_every_ == 0)
        script_ring();
      else
        step_worker();
    }
    Event e = pending_.front();
    pending_.pop_front();
    e.seq = emitted_++;
    return e;
  }

 private:
  static constexpr int kMaxDepth = 4;
  static constexpr int kChoices = 3;

  void push(EventKind kind, ThreadId t, LockId l, SiteId site) {
    Event e;
    e.kind = kind;
    e.thread = t;
    e.lock = l;
    e.site = site;
    e.occurrence = 1;
    pending_.push_back(e);
  }

  // Depth d draws from lock band [d*locks/kMaxDepth, ...): globally
  // ordered, so worker threads share locks without forming cycles.
  LockId lock_at(ThreadId t, int depth, int choice) const {
    const int band = locks_ / kMaxDepth;
    return static_cast<LockId>(depth * band +
                               (static_cast<int>(t) * kChoices + choice) %
                                   band);
  }

  // Fixed "source location" per (phase, thread, depth, choice): contexts
  // are paths through these locations, so canonical tuples per phase are
  // bounded by workers * sum_d kChoices^(d+1) — low thousands, like a real
  // program — rather than growing with the event count.
  SiteId site_at(ThreadId t, int depth, int choice) const {
    const std::uint64_t phase =
        phase_every_ == 0 ? 0 : emitted_ / phase_every_;
    return static_cast<SiteId>(
        1000 +
        ((phase * static_cast<std::uint64_t>(workers_) +
          static_cast<std::uint64_t>(t)) *
             kMaxDepth +
         static_cast<std::uint64_t>(depth)) *
            kChoices +
        static_cast<std::uint64_t>(choice));
  }

  void step_worker() {
    const auto t = static_cast<ThreadId>(rr_++ % static_cast<std::uint64_t>(
                                                     workers_));
    auto& stack = held_[static_cast<std::size_t>(t)];
    const bool acquire =
        stack.empty() ||
        (stack.size() < kMaxDepth && rng_.chance(0.55));
    if (acquire) {
      const auto depth = static_cast<int>(stack.size());
      const auto choice = static_cast<int>(rng_.below(kChoices));
      push(EventKind::kLockAcquire, t, lock_at(t, depth, choice),
           site_at(t, depth, choice));
      stack.push_back(lock_at(t, depth, choice));
    } else {
      push(EventKind::kLockRelease, t, stack.back(), kInvalidSite);
      stack.pop_back();
    }
  }

  void script_ring() {
    // Two dedicated threads beyond the worker pool, two dedicated locks
    // beyond the ordered ranges, fixed sites: every injection dedups onto
    // the same canonical tuples, keeping the cycle set stable.
    const auto ta = static_cast<ThreadId>(workers_);
    const auto tb = static_cast<ThreadId>(workers_ + 1);
    const auto ra = static_cast<LockId>(locks_);
    const auto rb = static_cast<LockId>(locks_ + 1);
    push(EventKind::kLockAcquire, ta, ra, 101);
    push(EventKind::kLockAcquire, ta, rb, 102);
    push(EventKind::kLockRelease, ta, rb, kInvalidSite);
    push(EventKind::kLockRelease, ta, ra, kInvalidSite);
    push(EventKind::kLockAcquire, tb, rb, 201);
    push(EventKind::kLockAcquire, tb, ra, 202);
    push(EventKind::kLockRelease, tb, ra, kInvalidSite);
    push(EventKind::kLockRelease, tb, rb, kInvalidSite);
  }

  int workers_;
  int locks_;
  std::uint64_t phase_every_;
  std::uint64_t ring_every_;
  Rng rng_;
  std::uint64_t rr_ = 0;
  std::uint64_t emitted_ = 0;
  std::deque<Event> pending_;
  std::vector<std::vector<LockId>> held_;
};

// Adversarial every-window-churn stream for the churn section: each window
// opens with an AB/BA ring on a brand-new lock pair at brand-new sites (a
// new cycle, and an SCC membership change, every window), then fills with
// globally-ordered fresh lock pairs at fresh sites (every tuple canonical,
// so the store grows without bound while the dirty-SCC window path touches
// only the window's own pair).
class ChurnEventStream {
 public:
  explicit ChurnEventStream(std::uint64_t window_events)
      : window_events_(window_events) {}

  Event next() {
    if (pending_.empty()) {
      if (emitted_ % window_events_ == 0)
        script_fresh_ring();
      else
        filler_pair();
    }
    Event e = pending_.front();
    pending_.pop_front();
    e.seq = emitted_++;
    return e;
  }

 private:
  void push(EventKind kind, ThreadId t, LockId l, SiteId site) {
    Event e;
    e.kind = kind;
    e.thread = t;
    e.lock = l;
    e.site = site;
    e.occurrence = 1;
    pending_.push_back(e);
  }

  void script_fresh_ring() {
    const LockId ra = next_lock_++, rb = next_lock_++;
    const SiteId s = next_site_;
    next_site_ += 4;
    push(EventKind::kLockAcquire, 1, ra, s);
    push(EventKind::kLockAcquire, 1, rb, s + 1);
    push(EventKind::kLockRelease, 1, rb, kInvalidSite);
    push(EventKind::kLockRelease, 1, ra, kInvalidSite);
    push(EventKind::kLockAcquire, 2, rb, s + 2);
    push(EventKind::kLockAcquire, 2, ra, s + 3);
    push(EventKind::kLockRelease, 2, ra, kInvalidSite);
    push(EventKind::kLockRelease, 2, rb, kInvalidSite);
  }

  void filler_pair() {
    const auto t = static_cast<ThreadId>(3 + (filler_++ % 4));
    const LockId la = next_lock_++, lb = next_lock_++;  // la < lb: no cycle
    const SiteId s = next_site_;
    next_site_ += 2;
    push(EventKind::kLockAcquire, t, la, s);
    push(EventKind::kLockAcquire, t, lb, s + 1);
    push(EventKind::kLockRelease, t, lb, kInvalidSite);
    push(EventKind::kLockRelease, t, la, kInvalidSite);
  }

  std::uint64_t window_events_;
  std::uint64_t emitted_ = 0;
  std::uint64_t filler_ = 0;
  LockId next_lock_ = 1000;
  SiteId next_site_ = 1000;
  std::deque<Event> pending_;
};

// VmHWM from /proc/self/status — the high-water mark of resident memory,
// in bytes (0 where /proc is unavailable; the JSON then says so).
std::size_t peak_rss_bytes() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::size_t kb = 0;
      for (char c : line)
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::size_t>(c - '0');
      return kb * 1024;
    }
  }
  return 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

struct ScenarioResult {
  std::string name;
  std::uint64_t events = 0;
  double mevents_per_s = 0;         // ingestion-only span (see header)
  double finish_seconds = 0;        // final enumeration, outside the span
  std::size_t windows = 0;
  double p50_detect_ms = 0;
  double p99_detect_ms = 0;
  std::size_t peak_store_bytes = 0;
  std::size_t budget_bytes = 0;
  std::size_t tuples_evicted = 0;
  std::size_t degraded_windows = 0;
  std::size_t detection_faults = 0;
  bool coverage_complete = false;
  std::string final_level;
  std::size_t cycles = 0;
  std::size_t live_cycles = 0;      // surfaced to windows before finish()
  std::size_t rss_growth_bytes = 0; // VmHWM delta over this scenario
};

// TraceReader over a synthetic event stream: the bench's scenarios ingest
// through the same block/reader machinery production uses.
template <typename Stream>
class SyntheticTraceReader final : public TraceReader {
 public:
  SyntheticTraceReader(Stream stream, std::uint64_t events)
      : stream_(std::move(stream)), remaining_(events) {}

  bool next_block(std::vector<Event>& out) override {
    out.clear();
    const std::uint64_t n = std::min<std::uint64_t>(remaining_, 1024);
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(stream_.next());
    remaining_ -= n;
    return !out.empty();
  }

 private:
  Stream stream_;
  std::uint64_t remaining_;
};

OnlineEventStream make_stream(std::uint64_t events, std::uint64_t seed,
                              std::uint64_t phases = 8) {
  // Eight phases by default: the canonical set grows stepwise across the
  // whole run (so compaction keeps having fresh duplicates to fold, and
  // the budget accounting is exercised throughout), while the ring fires
  // often enough that suspicious windows trigger incremental enumeration
  // all along. The shed scenario passes more phases so the canonical set
  // itself outgrows the budget and aging has to evict.
  return OnlineEventStream(/*workers=*/8, /*locks=*/48,
                           /*phase_every=*/std::max<std::uint64_t>(1, events / phases),
                           /*ring_every=*/std::max<std::uint64_t>(1, events / 64),
                           seed);
}

// Measurement core, generic over the event source so the churn scenarios
// reuse the exact same accounting as the main stream's. Ingestion runs
// through the reader path and is timed alone: the monotonic span covers
// generation + window detection, while finish() — whose cost does not
// scale with the stream — is timed separately.
template <typename Stream>
ScenarioResult run_scenario_on(const std::string& name, std::uint64_t events,
                               Stream& stream, const GovernorOptions& options,
                               Detection* out_detection = nullptr) {
  ScenarioResult r;
  r.name = name;
  r.events = events;
  r.budget_bytes = options.memory_budget_mb << 20;
  const std::size_t rss_base = peak_rss_bytes();

  GovernedStreamingDetector governed(options);
  SyntheticTraceReader<Stream> source(stream, events);
  Stopwatch ingest;
  std::vector<Event> block;
  while (source.next_block(block)) governed.add_block(block);
  const double ingest_seconds = ingest.seconds();
  Stopwatch finish_watch;
  Detection detection = governed.finish();
  r.finish_seconds = finish_watch.seconds();

  r.mevents_per_s = static_cast<double>(events) / ingest_seconds / 1e6;
  const GovernorVerdict& verdict = governed.verdict();
  r.windows = verdict.windows;
  r.tuples_evicted = verdict.tuples_evicted;
  r.degraded_windows = verdict.degraded_windows;
  r.detection_faults = verdict.detection_faults;
  r.coverage_complete = verdict.coverage_complete;
  r.final_level = to_string(verdict.final_level);
  r.cycles = detection.cycles.size();
  r.live_cycles = governed.cycles_surfaced_live();

  std::vector<double> detect_ms;
  detect_ms.reserve(governed.windows().size());
  for (const WindowReport& w : governed.windows()) {
    detect_ms.push_back(w.detect_seconds * 1e3);
    r.peak_store_bytes = std::max(r.peak_store_bytes, w.store_bytes);
  }
  r.p50_detect_ms = percentile(detect_ms, 0.50);
  r.p99_detect_ms = percentile(detect_ms, 0.99);
  const std::size_t rss_after = peak_rss_bytes();
  r.rss_growth_bytes = rss_after > rss_base ? rss_after - rss_base : 0;

  if (out_detection != nullptr) *out_detection = std::move(detection);
  return r;
}

ScenarioResult run_scenario(const std::string& name, std::uint64_t events,
                            std::uint64_t seed, const GovernorOptions& options,
                            Detection* out_detection = nullptr,
                            std::uint64_t phases = 8) {
  OnlineEventStream stream = make_stream(events, seed, phases);
  return run_scenario_on(name, events, stream, options, out_detection);
}

// Two cycle sets are "identical" when they agree cycle by cycle on the
// tuples involved (tuple_idx is canonical across runs of the same stream).
bool same_cycles(const Detection& a, const Detection& b) {
  if (a.cycles.size() != b.cycles.size()) return false;
  for (std::size_t i = 0; i < a.cycles.size(); ++i)
    if (a.cycles[i].tuple_idx != b.cycles[i].tuple_idx) return false;
  return true;
}

struct ChurnSection {
  std::uint64_t churn_events = 0;
  std::uint64_t window_events = 0;
  ScenarioResult run;
  bool identical_vs_batch = false;
  bool live_complete = false;  // every committed cycle surfaced pre-finish
};

void write_scenario_json(std::ostream& os, const ScenarioResult& s,
                         const char* indent) {
  os << indent << "{\"name\": \"" << s.name << "\", \"events\": " << s.events
     << ",\n"
     << indent << " \"mevents_per_s\": " << s.mevents_per_s
     << ", \"finish_seconds\": " << s.finish_seconds << ",\n"
     << indent << " \"windows\": " << s.windows
     << ", \"p50_window_detect_ms\": " << s.p50_detect_ms
     << ", \"p99_window_detect_ms\": " << s.p99_detect_ms << ",\n"
     << indent << " \"budget_bytes\": " << s.budget_bytes
     << ", \"peak_store_bytes\": " << s.peak_store_bytes
     << ", \"rss_growth_bytes\": " << s.rss_growth_bytes << ",\n"
     << indent << " \"tuples_evicted\": " << s.tuples_evicted
     << ", \"degraded_windows\": " << s.degraded_windows
     << ", \"detection_faults\": " << s.detection_faults
     << ", \"coverage_complete\": " << (s.coverage_complete ? "true" : "false")
     << ", \"final_level\": \"" << s.final_level << "\""
     << ", \"cycles\": " << s.cycles
     << ", \"live_cycles\": " << s.live_cycles << "}";
}

void write_json(std::ostream& os, bool quick, std::uint64_t events,
                const std::vector<ScenarioResult>& scenarios,
                bool differential_ok, const ChurnSection& churn) {
  os << "{\n"
     << "  \"bench\": \"perf_online\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"events\": " << events << ",\n"
     << "  \"hardware_concurrency\": " << ThreadPool::hardware_jobs() << ",\n"
     << "  \"differential_vs_batch_ok\": "
     << (differential_ok ? "true" : "false") << ",\n"
     << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    write_scenario_json(os, scenarios[i], "    ");
    os << (i + 1 < scenarios.size() ? "," : "") << '\n';
  }
  os << "  ],\n"
     << "  \"churn\": {\n"
     << "    \"churn_events\": " << churn.churn_events
     << ", \"window_events\": " << churn.window_events << ",\n"
     << "    \"run\":\n";
  write_scenario_json(os, churn.run, "      ");
  os << ",\n"
     << "    \"identical_vs_batch\": "
     << (churn.identical_vs_batch ? "true" : "false")
     << ", \"live_complete\": " << (churn.live_complete ? "true" : "false")
     << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_bool("quick", false, "CI smoke mode: 10^6 events");
  flags.define_int("events", 0, "event count (0 = 10^7, or 10^6 with --quick)");
  flags.define_int("budget-mb", 0,
                   "memory budget for the budgeted scenario "
                   "(0 = 16 full / 2 quick)");
  flags.define_int("seed", 2014, "stream seed");
  flags.define_string("out", "BENCH_online.json", "JSON output path");
  if (!flags.parse(argc, argv)) return 1;

  const bool quick = flags.get_bool("quick");
  std::uint64_t events = static_cast<std::uint64_t>(flags.get_int("events"));
  if (events == 0) events = quick ? 1'000'000 : 10'000'000;
  std::size_t budget_mb = static_cast<std::size_t>(flags.get_int("budget-mb"));
  if (budget_mb == 0) budget_mb = quick ? 2 : 16;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::vector<ScenarioResult> scenarios;

  // 1. Budgeted — first, so VmHWM is the governed run's peak.
  {
    GovernorOptions o;
    o.memory_budget_mb = budget_mb;
    scenarios.push_back(run_scenario("budgeted", events, seed, o));
  }

  // 2. Unbounded + differential gate vs batch detection. With no budget or
  // deadline, only a subscriber makes the governor close windows, and the
  // windows are what this scenario measures.
  Detection governed_detection;
  {
    GovernorOptions o;
    o.on_cycle = [](const LiveCycle&) {};
    scenarios.push_back(
        run_scenario("unbounded", events, seed, o, &governed_detection));
  }

  Detection batch_detection;
  {
    SyntheticTraceReader<OnlineEventStream> reader(make_stream(events, seed),
                                                   events);
    batch_detection = detect_reader(reader);
  }
  bool differential_ok =
      governed_detection.cycles.size() == batch_detection.cycles.size();
  for (std::size_t i = 0; differential_ok &&
                          i < governed_detection.cycles.size();
       ++i)
    differential_ok = governed_detection.cycles[i].tuple_idx ==
                      batch_detection.cycles[i].tuple_idx;

  // 3. Deadline pressure on small windows.
  {
    GovernorOptions o;
    o.window_events = 8192;
    o.window_deadline_ms = 1;
    scenarios.push_back(run_scenario("deadline", events, seed, o));
  }

  // 4. Shedding — a 64-phase stream whose canonical tuple set alone
  // outgrows a small budget, so compaction cannot save it and aging must
  // evict; the honest verdict (coverage_complete = false) is gated below.
  {
    GovernorOptions o;
    o.memory_budget_mb = 2;
    scenarios.push_back(run_scenario("shed", events, seed, o, nullptr, 64));
  }

  // 5. Churn: the every-window-churn stream through the dirty-SCC window
  // path, against a plain batch reference.
  ChurnSection churn;
  churn.churn_events = quick ? 100'000 : 400'000;
  churn.window_events = quick ? 4'096 : 8'192;

  std::size_t delivered = 0;
  Detection churn_det;
  {
    GovernorOptions o;
    o.window_events = churn.window_events;
    o.on_cycle = [&delivered](const LiveCycle&) { ++delivered; };
    ChurnEventStream stream(churn.window_events);
    churn.run =
        run_scenario_on("churn", churn.churn_events, stream, o, &churn_det);
  }
  Detection churn_batch_det;
  {
    SyntheticTraceReader<ChurnEventStream> reader(
        ChurnEventStream(churn.window_events), churn.churn_events);
    churn_batch_det = detect_reader(reader);
  }
  churn.identical_vs_batch = same_cycles(churn_det, churn_batch_det);
  // Every committed cycle was delivered to the subscriber before finish().
  churn.live_complete = delivered == churn.run.live_cycles &&
                        delivered == churn_det.cycles.size();
  scenarios.push_back(churn.run);

  TextTable table({"Scenario", "Mev/s", "Windows", "p50 ms", "p99 ms",
                   "Peak store", "Budget", "Evicted", "Complete", "Cycles"});
  for (const ScenarioResult& s : scenarios)
    table.add_row({s.name, TextTable::num(s.mevents_per_s, 2),
                   std::to_string(s.windows),
                   TextTable::num(s.p50_detect_ms, 2),
                   TextTable::num(s.p99_detect_ms, 2),
                   TextTable::num(static_cast<double>(s.peak_store_bytes) / 1e6,
                                  1) + " MB",
                   s.budget_bytes == 0
                       ? std::string("-")
                       : TextTable::num(
                             static_cast<double>(s.budget_bytes) / 1e6, 1) +
                             " MB",
                   std::to_string(s.tuples_evicted),
                   s.coverage_complete ? "yes" : "NO (reported)",
                   std::to_string(s.cycles)});
  table.render(std::cout);
  std::cout << "\ndifferential vs batch: "
            << (differential_ok ? "identical" : "DIVERGED")
            << ", budgeted-run RSS growth "
            << TextTable::num(
                   static_cast<double>(scenarios[0].rss_growth_bytes) / 1e6, 1)
            << " MB, churn p99 "
            << TextTable::num(churn.run.p99_detect_ms, 2) << " ms\n";

  const std::string out = flags.get_string("out");
  std::ofstream os(out);
  if (!os) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  write_json(os, quick, events, scenarios, differential_ok, churn);
  std::cout << "wrote " << out << '\n';

  // Correctness gates: throughput only counts when the contract held.
  bool ok = differential_ok;
  for (const ScenarioResult& s : scenarios) {
    if (s.budget_bytes > 0 && s.peak_store_bytes > s.budget_bytes) {
      std::cerr << "FAIL: " << s.name << " exceeded its memory budget\n";
      ok = false;
    }
    if (s.tuples_evicted > 0 && s.coverage_complete) {
      std::cerr << "FAIL: " << s.name
                << " evicted without an incomplete-coverage verdict\n";
      ok = false;
    }
    if (s.name == "shed" && s.tuples_evicted == 0) {
      std::cerr << "FAIL: shed scenario never hit the aging rung\n";
      ok = false;
    }
  }
  if (!differential_ok)
    std::cerr << "FAIL: governed detection diverged from batch\n";
  // Churn-section gates: batch must agree, live surfacing must be
  // complete, and coverage semantics unchanged.
  if (!churn.identical_vs_batch) {
    std::cerr << "FAIL: churn run diverged from batch detection\n";
    ok = false;
  }
  if (!churn.live_complete) {
    std::cerr << "FAIL: churn run did not surface every cycle live\n";
    ok = false;
  }
  if (!churn.run.coverage_complete) {
    std::cerr << "FAIL: churn run lost coverage without a budget\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
