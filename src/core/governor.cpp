// wolf::Session (wolf.hpp) and the governor behind it (core/governor.hpp):
// Session::Impl ingests events into D_σ, closes windows when the Config
// asks for them (Config::governed()), and reads its budget, window size,
// deadline, detector options, subscriber and fault plan from that Config.
#include "core/governor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/cycle_engine.hpp"
#include "core/prefilter.hpp"
#include "obs/counters.hpp"
#include "robust/fault.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"

namespace wolf {

namespace {

const obs::Counter kWindowsCounter("governor.windows");
const obs::Counter kSuspiciousCounter("governor.windows_suspicious");
const obs::Counter kCompactionsCounter("governor.compactions");
const obs::Counter kEvictedCounter("governor.tuples_evicted");
const obs::Counter kFaultsCounter("governor.detection_faults");
// Rung changes depend on wall-clock latency, so this one is excluded from
// the byte-stable metrics report.
const obs::Counter kDegradedCounter("governor.windows_degraded",
                                    /*stable=*/false);

// Keep at most this many notes in the verdict; chaos schedules can fault
// every window and the verdict must stay O(1)-readable.
constexpr std::size_t kMaxNotes = 16;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

void note_event(GovernorVerdict& v, std::string note) {
  if (v.notes.size() < kMaxNotes) {
    v.notes.push_back(std::move(note));
  } else if (v.notes.size() == kMaxNotes) {
    v.notes.push_back("(further notes suppressed)");
  }
}

// A surfaced cycle's identity: its tuples' dedup keys (key_of) in cycle
// order — exact, so two cycles over the same sites but other locks stay
// distinct.
using CycleKey = std::vector<TupleKey>;
struct CycleKeyHash {
  std::size_t operator()(const CycleKey& key) const {
    std::uint64_t h = 0x90be17a9c0bef5ULL ^ key.size();
    for (const TupleKey& k : key) h = mix64(h ^ TupleKeyHash{}(k));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

const char* to_string(DetectionLevel level) {
  switch (level) {
    case DetectionLevel::kFullScc:
      return "full-scc";
    case DetectionLevel::kPrefilterOnly:
      return "prefilter-only";
    case DetectionLevel::kShedding:
      return "shedding";
  }
  return "?";
}

std::string GovernorVerdict::summary() const {
  std::ostringstream os;
  if (coverage_complete && degraded_windows == 0) {
    os << "coverage complete: " << windows << " windows, "
       << suspicious_windows << " suspicious, level " << to_string(final_level);
  } else {
    os << (coverage_complete ? "DEGRADED" : "DEGRADED (coverage incomplete)")
       << ": " << windows << " windows, " << degraded_windows << " degraded, "
       << suspicious_windows << " suspicious";
    if (tuples_evicted > 0) os << ", " << tuples_evicted << " tuples evicted";
    if (detection_faults > 0) os << ", " << detection_faults << " detection faults";
    os << ", final level " << to_string(final_level);
  }
  return os.str();
}

DetectionLevel next_rung(DetectionLevel current, double detect_seconds,
                         std::int64_t deadline_ms, int& fast_streak) {
  if (deadline_ms <= 0) return current;
  // kShedding is a window marker, not a deadline rung; treat it as the
  // cheapest real rung if a caller ever passes it in.
  if (current == DetectionLevel::kShedding)
    current = DetectionLevel::kPrefilterOnly;
  const double deadline = static_cast<double>(deadline_ms) / 1000.0;
  if (detect_seconds > deadline) {
    fast_streak = 0;
    return DetectionLevel::kPrefilterOnly;
  }
  if (detect_seconds < deadline / 2.0) {
    if (++fast_streak >= 2 && current != DetectionLevel::kFullScc) {
      fast_streak = 0;
      return DetectionLevel::kFullScc;
    }
  } else {
    fast_streak = 0;
  }
  return current;
}

std::size_t tuple_bytes(const LockTuple& tuple) {
  return sizeof(LockTuple) + tuple.lockset.capacity() * sizeof(LockId) +
         tuple.context.capacity() * sizeof(ExecIndex);
}

struct Session::Impl {
  explicit Impl(const Config& c) : config(c), windowed(c.governed()) {}

  void add(const Event& e);
  // Closes the trailing partial window, runs the authoritative enumeration
  // over every retained tuple and returns the completed Detection. Never
  // throws on detection failure — a fault there yields an empty cycle set
  // and coverage_complete = false.
  Detection finish();

  void close_window();
  // Pre-filter + (rung-permitting) enumeration for the closing window.
  void run_window_detection(WindowReport& w);
  // First-sighting dedup, then delivery to poll()'s list and on_cycle.
  void surface_new_cycles(const LockDependency& dep,
                          const std::vector<PotentialDeadlock>& cycles,
                          WindowReport& w);
  // Budget enforcement: compaction, then aging. Updates store_bytes.
  void govern_memory(WindowReport& w);
  void recompute_store_bytes();
  // Files canonical ordinal k under its request lock's lock-graph node.
  void index_canonical(std::size_t k, int node);
  // Re-keys canonical_by_node after eviction renumbered the canonical
  // ordinals (compaction keeps them), first rebuilding the lock graph from
  // the retained canonical tuples once it has doubled.
  void rebuild_lock_index();

  const Config config;
  // config.governed(): whether windows close at all. Only then does the
  // session feed the pre-filter and keep its by-lock index; otherwise it
  // builds D_σ and enumerates once, at finish().
  const bool windowed;
  LockDependencyBuilder builder;
  LockGraph prefilter;
  std::vector<WindowReport> windows;
  GovernorVerdict verdict;
  bool finished = false;
  // Set when an event fired a builder invariant check (malformed input,
  // e.g. from a corrupted live feed): ingestion stops, coverage_complete is
  // cleared, and finish() analyzes only what was consistently built.
  bool poisoned = false;

  DetectionLevel rung = DetectionLevel::kFullScc;
  int fast_streak = 0;
  std::size_t open_events = 0;  // events in the open window
  std::size_t store_bytes = 0;
  // Cycles already surfaced by per-window enumeration, so new_cycles
  // counts first sightings only.
  std::unordered_set<CycleKey, CycleKeyHash> seen_cycles;
  std::size_t live_cycles = 0;
  // Cycles surfaced since the last poll(); filled only when config.live.
  std::vector<SessionCycle> pending;
  // Canonical ordinals (indices into builder.pending().unique) by their
  // request lock's lock-graph node, so a dirty SCC's nodes map straight to
  // the tuple subset to enumerate. Tuples with an empty lockset close no
  // cycle and are not filed. Compaction keeps every ordinal; eviction
  // renumbers them and rebuilds this.
  std::vector<std::vector<std::size_t>> canonical_by_node;
  // The lock graph's size (locks plus edges) after its last rebuild, or at
  // the first eviction; 0 until then. Eviction leaves the graph a superset
  // of the retained view's, and it is rebuilt once it is twice this size.
  // Edges count too: a stream over a fixed set of locks whose held→request
  // pairs keep changing grows the graph by edges alone.
  std::size_t graph_size_at_rebuild = 0;
};

void Session::Impl::add(const Event& e) {
  // Malformed input containment: a semantically inconsistent event (e.g. a
  // release of a lock the thread does not hold, from a corrupted live feed)
  // fires an invariant check inside the builder. The builder commits its
  // tuple before mutating held-lock state, so its store is still consistent
  // after the throw — stop ingesting, keep what was built, and report the
  // run as incomplete rather than crashing or silently analyzing garbage.
  if (poisoned) return;
  const std::size_t stored = builder.tuple_count();
  const std::size_t canonical = builder.pending().unique.size();
  try {
    builder.add(e);
  } catch (const std::exception& ex) {
    poisoned = true;
    if (verdict.coverage_complete) {
      verdict.coverage_complete = false;
      note_event(verdict,
                 "malformed event rejected, later input ignored: " +
                     check_message(ex));
    }
    return;
  }
  if (!windowed) return;  // nothing reads windows: D_σ is all we keep
  const LockDependency& dep = builder.pending();
  for (std::size_t i = stored; i < dep.tuples.size(); ++i)
    store_bytes += tuple_bytes(dep.tuples[i]);
  // Only canonical arrivals reach the pre-filter and the by-lock index:
  // enumeration searches the canonical view, so a duplicate adds no cycle.
  for (std::size_t k = canonical; k < dep.unique.size(); ++k) {
    const int node = prefilter.on_tuple(dep.tuples[dep.unique[k]]);
    if (node >= 0) index_canonical(k, node);
  }
  if (++open_events >= config.window_events) close_window();
}

void Session::Impl::index_canonical(std::size_t k, int node) {
  const auto n = static_cast<std::size_t>(node);
  if (n >= canonical_by_node.size()) canonical_by_node.resize(n + 1);
  canonical_by_node[n].push_back(k);
}

void Session::Impl::surface_new_cycles(
    const LockDependency& dep, const std::vector<PotentialDeadlock>& cycles,
    WindowReport& w) {
  for (const PotentialDeadlock& cycle : cycles) {
    CycleKey key;
    key.reserve(cycle.tuple_idx.size());
    for (std::size_t idx : cycle.tuple_idx)
      key.push_back(key_of(dep.tuples[idx]));
    if (!seen_cycles.insert(std::move(key)).second) continue;
    ++w.new_cycles;
    ++live_cycles;
    // poll()'s copy first, then the push-mode subscriber: a throwing
    // subscriber is contained like any window fault, and the cycle it
    // threw on still reaches poll().
    if (config.live)
      pending.push_back(
          SessionCycle{w.index, live_cycles, cycle.to_string(dep)});
    if (config.on_cycle) {
      LiveCycle lc;
      lc.window = w.index;
      lc.sequence = live_cycles;
      lc.cycle = &cycle;
      lc.dep = &dep;
      config.on_cycle(lc);
    }
  }
}

void Session::Impl::run_window_detection(WindowReport& w) {
  if (config.fault != nullptr &&
      config.fault->detect_throw_window == static_cast<int>(w.index)) {
    throw std::runtime_error("injected detection fault (window " +
                             std::to_string(w.index) + ")");
  }

  // Nothing marked dirty since the last boundary ⇒ nothing to re-examine.
  if (!prefilter.has_dirty()) return;
  w.suspicious = prefilter.suspicious();
  if (!w.suspicious) {
    // All dirty components are benign; consume their marks (any change that
    // could flip a verdict later will re-mark).
    prefilter.drain_dirty_suspicious_nodes();
    return;
  }
  // At a non-enumerating rung keep the marks queued: a later promoted
  // window drains the accumulated dirt and catches up.
  if (w.level >= DetectionLevel::kPrefilterOnly) return;

  // A cycle's requested locks all lie in one lock-graph SCC, so the
  // canonical tuples whose request lock belongs to a dirty suspicious SCC
  // form a complete enumeration domain for every cycle those SCCs could
  // newly carry. The subset is closed under TupleKey (a key fixes the lock)
  // and holds no duplicate, so snapshot_subset's view is all canonical.
  const std::vector<std::size_t>& unique = builder.pending().unique;
  std::vector<std::size_t> subset;
  for (int node : prefilter.drain_dirty_suspicious_nodes()) {
    const auto n = static_cast<std::size_t>(node);
    if (n >= canonical_by_node.size()) continue;
    for (std::size_t k : canonical_by_node[n]) subset.push_back(unique[k]);
  }
  if (subset.empty()) return;
  std::sort(subset.begin(), subset.end());  // canonical trace order
  const LockDependency dep = builder.snapshot_subset(subset);
  surface_new_cycles(dep, enumerate_cycles_scc(dep, config.detector).cycles,
                     w);
}

void Session::Impl::recompute_store_bytes() {
  store_bytes = 0;
  for (const LockTuple& t : builder.pending().tuples)
    store_bytes += tuple_bytes(t);
}

void Session::Impl::rebuild_lock_index() {
  const LockDependency& dep = builder.pending();
  // A rebuild re-feeds the retained store, a walk this re-key makes anyway,
  // but through the lock graph's costlier inserts; waiting until the graph
  // has doubled makes it rare (each follows at least as many fresh locks
  // and edges as the last one kept) while keeping the graph within about
  // twice the retained view's.
  auto graph_size = [this] {
    return std::max<std::size_t>(
        1, prefilter.lock_count() + prefilter.edge_count());
  };
  if (graph_size_at_rebuild == 0) {
    graph_size_at_rebuild = graph_size();
  } else if (graph_size() > 2 * graph_size_at_rebuild) {
    prefilter.rebuild(dep);
    graph_size_at_rebuild = graph_size();
  }
  canonical_by_node.clear();
  for (std::size_t k = 0; k < dep.unique.size(); ++k) {
    const LockTuple& t = dep.tuples[dep.unique[k]];
    if (t.lockset.empty()) continue;
    // Every retained canonical tuple was fed since the last rebuild, or by
    // it, and the graph never drops a node between rebuilds.
    const int node = prefilter.node_of(t.lock);
    WOLF_DCHECK(node >= 0);
    index_canonical(k, node);
  }
}

void Session::Impl::govern_memory(WindowReport& w) {
  if (config.memory_budget_mb == 0) return;
  const std::size_t budget = config.memory_budget_mb << 20;
  if (store_bytes <= budget) return;

  // Rung 1: compaction — lossless for the cycle set (enumeration runs over
  // the canonical view), so it is always tried first. It drops exactly the
  // duplicates, which the pre-filter never saw, and keeps every canonical
  // ordinal, so neither the lock graph nor the by-lock index changes.
  w.tuples_compacted = builder.compact();
  recompute_store_bytes();
  if (w.tuples_compacted > 0) kCompactionsCounter.add();
  if (store_bytes > budget) {
    // Rung 2: aging — evict the oldest tuples down to ~90% of the budget so
    // the next window has headroom. Lossy; the report must say so. The
    // store is all canonical after compaction, so no retained duplicate
    // becomes canonical without the pre-filter having seen it. The lock
    // graph keeps the evicted tuples' edges: a superset of the retained
    // view's graph, whose SCCs contain the retained view's, so it can only
    // overstate suspicion (DESIGN.md §16). Eviction only removes tuples, so
    // it closes no cycle that would need a new dirty mark.
    const std::size_t live = builder.pending().tuples.size();
    WOLF_CHECK_MSG(
        builder.pending().unique.size() == live,
        "eviction would promote a duplicate the pre-filter never saw");
    const std::size_t avg =
        live == 0 ? 1 : std::max<std::size_t>(1, store_bytes / live);
    const std::size_t max_tuples = (budget - budget / 10) / avg;
    w.tuples_evicted = builder.evict_oldest(max_tuples);
    recompute_store_bytes();
    if (w.tuples_evicted > 0) {
      w.level = DetectionLevel::kShedding;
      kEvictedCounter.add(w.tuples_evicted);
      rebuild_lock_index();  // eviction renumbered the canonical ordinals
    }
  }
}

void Session::Impl::close_window() {
  WindowReport w;
  w.index = windows.size();
  w.events = open_events;
  w.level = rung;
  const double t0 = now_seconds();
  try {
    run_window_detection(w);
  } catch (const std::exception& ex) {
    // Containment: a per-window enumeration fault loses only this window's
    // early surfacing — finish() re-enumerates over everything retained —
    // so coverage stays complete. It is still a degraded window.
    w.note = ex.what();
    ++verdict.detection_faults;
    kFaultsCounter.add();
    note_event(verdict, "window " + std::to_string(w.index) +
                            " detection fault: " + w.note);
  }
  w.detect_seconds = now_seconds() - t0;
  govern_memory(w);
  w.tuples_live = builder.pending().tuples.size();
  w.store_bytes = store_bytes;

  rung = next_rung(rung, w.detect_seconds, config.window_deadline_ms,
                   fast_streak);

  ++verdict.windows;
  kWindowsCounter.add();
  if (w.suspicious) {
    ++verdict.suspicious_windows;
    kSuspiciousCounter.add();
  }
  verdict.tuples_compacted += w.tuples_compacted;
  if (w.tuples_evicted > 0) {
    verdict.tuples_evicted += w.tuples_evicted;
    if (verdict.coverage_complete) {
      verdict.coverage_complete = false;
      note_event(verdict, "window " + std::to_string(w.index) +
                              ": memory budget forced eviction of " +
                              std::to_string(w.tuples_evicted) +
                              " tuples; coverage is incomplete from here");
    }
  }
  if (w.degraded()) {
    ++verdict.degraded_windows;
    kDegradedCounter.add();
  }
  windows.push_back(std::move(w));
  open_events = 0;
}

Detection Session::Impl::finish() {
  if (open_events > 0) close_window();
  finished = true;
  verdict.final_level = rung;
  Detection det;
  try {
    LockDependency dep = builder.take_dependency();
    ClockTracker clocks = builder.clocks();
    builder.clear();
    canonical_by_node.clear();
    det = finish_detection(std::move(dep), std::move(clocks), config.detector);
  } catch (const std::exception& ex) {
    // The authoritative enumeration failed: the empty cycle set below is
    // NOT a clean bill of health, and the verdict says so.
    ++verdict.detection_faults;
    kFaultsCounter.add();
    verdict.coverage_complete = false;
    note_event(verdict, std::string("final detection fault: ") + ex.what());
    det = Detection{};
  }
  return det;
}

Session::Session() = default;
Session::Session(Session&& other) noexcept = default;
Session& Session::operator=(Session&& other) noexcept = default;
Session::~Session() = default;

Session Session::open(const Config& config) {
  std::string fatal;
  for (const ConfigIssue& issue : config.validate()) {
    if (!issue.fatal) continue;
    if (!fatal.empty()) fatal += "; ";
    fatal += issue.message;
  }
  if (!fatal.empty())
    throw std::invalid_argument("wolf::Session::open: " + fatal);
  Session s;
  s.impl_ = std::make_unique<Impl>(config);
  return s;
}

bool Session::feed(const Event& e) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  impl_->add(e);
  return !impl_->poisoned;
}

bool Session::feed(const std::vector<Event>& events) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  for (const Event& e : events) impl_->add(e);
  return !impl_->poisoned;
}

void Session::ingest(TraceReader& reader) {
  std::vector<Event> block;
  while (reader.next_block(block)) feed(block);
}

std::vector<SessionCycle> Session::poll() {
  std::vector<SessionCycle> out;
  out.swap(impl_->pending);
  return out;
}

bool Session::poisoned() const { return impl_->poisoned; }

std::size_t Session::events_seen() const {
  return impl_->builder.events_seen();
}

std::size_t Session::windows_closed() const { return impl_->windows.size(); }

DetectionLevel Session::level() const { return impl_->rung; }

std::size_t Session::cycles_surfaced_live() const {
  return impl_->live_cycles;
}

Session::Verdict Session::finish() {
  assert(!impl_->finished && "finish() called twice");
  Verdict v;
  v.detection = impl_->finish();
  v.windows = impl_->windows;
  v.governor = impl_->verdict;
  v.governed = impl_->windowed;
  return v;
}

}  // namespace wolf
