// wolf::Session — the unified online-analysis facade (wolf.hpp).
//
// The implementation is deliberately thin: every session delegates to one
// GovernedStreamingDetector, which closes windows only when the config
// gives it something that reads them (GovernorOptions::windowed()).

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
  explicit Impl(const GovernorOptions& options) : detector(options) {}

  GovernedStreamingDetector detector;
  std::shared_ptr<LiveCollector> live;  // non-null iff collecting for poll()
  bool finished = false;
};

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
  GovernorOptions opts = config.governor_options();
  std::shared_ptr<LiveCollector> live;
  if (config.live) {
    live = std::make_shared<LiveCollector>();
    live->user = opts.on_cycle;
    // Collect a copy for poll(), then chain the push-mode subscriber. A
    // throwing user callback still propagates to the governor's containment
    // exactly as it would unwrapped, so verdicts are unchanged.
    opts.on_cycle = [live](const LiveCycle& lc) {
      live->pending.push_back(
          SessionCycle{lc.window, lc.sequence, lc.cycle->to_string(*lc.dep)});
      if (live->user) live->user(lc);
    };
  }
  Session s;
  s.impl_ = std::make_unique<Impl>(opts);
  s.impl_->live = std::move(live);
  return s;
}

bool Session::feed(const Event& e) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  impl_->detector.add(e);
  return !impl_->detector.poisoned();
}

bool Session::feed(const std::vector<Event>& events) {
  assert(!impl_->finished && "feed() after finish()");
  if (impl_->finished) return false;
  impl_->detector.add_block(events);
  return !impl_->detector.poisoned();
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

bool Session::poisoned() const { return impl_->detector.poisoned(); }

std::size_t Session::events_seen() const {
  return impl_->detector.events_seen();
}

std::size_t Session::windows_closed() const {
  return impl_->detector.windows().size();
}

DetectionLevel Session::level() const { return impl_->detector.level(); }

std::size_t Session::cycles_surfaced_live() const {
  return impl_->detector.cycles_surfaced_live();
}

Session::Verdict Session::finish() {
  assert(!impl_->finished && "finish() called twice");
  Verdict v;
  v.detection = impl_->detector.finish();
  v.windows = impl_->detector.windows();
  v.governor = impl_->detector.verdict();
  v.governed = impl_->detector.windowed();
  impl_->finished = true;
  return v;
}

}  // namespace wolf
