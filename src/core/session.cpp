// wolf::Session — the unified online-analysis facade (wolf.hpp).
//
// The implementation is deliberately thin: governed sessions delegate to
// GovernedStreamingDetector, ungoverned ones to StreamingDetector.

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "trace/trace_reader.hpp"
#include "wolf.hpp"

namespace wolf {

namespace {

// Live-cycle collection state shared between the Session and the subscriber
// closure handed to the governor (which copies its options, so the closure
// must reference stable storage — hence the shared_ptr).
struct LiveCollector {
  CycleSubscriber user;  // chained push-mode subscriber (may be empty)
  std::vector<SessionCycle> pending;
};

}  // namespace

struct Session::Impl {
  bool governed = false;
  bool finished = false;

  // Governed mode.
  std::unique_ptr<GovernedStreamingDetector> gov;
  std::shared_ptr<LiveCollector> live;  // non-null iff collecting for poll()

  // Ungoverned mode. Poisoning is handled here (the governor has its own):
  // the builder commits its tuple before mutating held-lock state, so after
  // a throw the store is consistent and finish() analyzes the prefix.
  std::unique_ptr<StreamingDetector> stream;
  bool poisoned = false;
  std::string poison_note;
};

Session::Session() : impl_(std::make_unique<Impl>()) {}
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
  if (!config.governed()) {
    s.impl_->stream =
        std::make_unique<StreamingDetector>(config.wolf_options().detector);
    return s;
  }
  s.impl_->governed = true;
  GovernorOptions opts = config.governor_options();
  if (config.live) {
    auto live = std::make_shared<LiveCollector>();
    live->user = opts.on_cycle;
    s.impl_->live = live;
    // Collect a copy for poll(), then chain the push-mode subscriber. A
    // throwing user callback still propagates to the governor's containment
    // exactly as it would unwrapped, so verdicts are unchanged.
    opts.on_cycle = [live](const LiveCycle& lc) {
      live->pending.push_back(
          SessionCycle{lc.window, lc.sequence, lc.cycle->to_string(*lc.dep)});
      if (live->user) live->user(lc);
    };
  }
  s.impl_->gov = std::make_unique<GovernedStreamingDetector>(opts);
  return s;
}

bool Session::feed(const Event& e) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  if (impl_->governed) {
    impl_->gov->add(e);
    return !impl_->gov->poisoned();
  }
  if (impl_->poisoned) return false;
  try {
    impl_->stream->add(e);
  } catch (const std::exception& ex) {
    impl_->poisoned = true;
    impl_->poison_note = ex.what();
    return false;
  }
  return true;
}

bool Session::feed(const std::vector<Event>& events) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  if (impl_->governed) {
    // Delegate whole blocks: identical to the historical add_block drain.
    impl_->gov->add_block(events);
    return !impl_->gov->poisoned();
  }
  for (const Event& e : events)
    if (!feed(e)) return false;
  return true;
}

void Session::ingest(TraceReader& reader) {
  std::vector<Event> block;
  while (reader.next_block(block)) feed(block);
}

std::vector<SessionCycle> Session::poll() {
  std::vector<SessionCycle> out;
  if (impl_->live) out.swap(impl_->live->pending);
  return out;
}

bool Session::governed() const { return impl_->governed; }

bool Session::poisoned() const {
  return impl_->governed ? impl_->gov->poisoned() : impl_->poisoned;
}

std::size_t Session::events_seen() const {
  return impl_->governed ? impl_->gov->events_seen()
                         : impl_->stream->events_seen();
}

std::size_t Session::windows_closed() const {
  return impl_->governed ? impl_->gov->windows().size() : 0;
}

DetectionLevel Session::level() const {
  return impl_->governed ? impl_->gov->level() : DetectionLevel::kFullScc;
}

std::size_t Session::cycles_surfaced_live() const {
  return impl_->governed ? impl_->gov->cycles_surfaced_live() : 0;
}

Session::Verdict Session::finish() {
  assert(!impl_->finished && "finish() called twice");
  Verdict v;
  v.governed = impl_->governed;
  if (impl_->governed) {
    v.detection = impl_->gov->finish();
    v.windows = impl_->gov->windows();
    v.governor = impl_->gov->verdict();
  } else {
    // StreamingDetector::finish semantics preserved: a detection fault
    // propagates. Poisoned prefixes still finish — over the consistent
    // prefix — with an honest verdict.
    v.detection = impl_->stream->finish();
    if (impl_->poisoned) {
      v.governor.coverage_complete = false;
      v.governor.notes.push_back(
          "malformed event rejected, later input ignored: " +
          impl_->poison_note);
    }
  }
  impl_->finished = true;
  return v;
}

}  // namespace wolf
