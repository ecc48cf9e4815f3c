#include "inputs.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/rng.hpp"
#include "trace/serialize.hpp"

namespace perfbench {

using namespace wolf;

namespace {

Event make_event(EventKind kind, ThreadId t, LockId l, SiteId site) {
  Event e;
  e.kind = kind;
  e.thread = t;
  e.lock = l;
  e.site = site;
  e.occurrence = 1;
  return e;
}

// Workers take locks whose ids rise with nesting depth (no accidental
// cycles) from kChoices fixed lock/site options per (thread, depth), so
// canonical tuples dedup like real call sites while raw tuples grow with
// every acquire. A phase counter rotates the site namespace so the
// canonical set keeps growing; every ring_every events two extra threads
// run AB/BA on two extra locks at fixed sites.
class OnlineEventStream {
 public:
  OnlineEventStream(std::uint64_t events, std::uint64_t seed)
      : phase_every_(std::max<std::uint64_t>(1, events / kPhases)),
        ring_every_(std::max<std::uint64_t>(1, events / 64)),
        rng_(seed),
        held_(kWorkers) {}

  Event next() {
    if (pending_.empty()) {
      if (emitted_ > 0 && emitted_ % ring_every_ == 0)
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
  static constexpr int kWorkers = 8;
  static constexpr int kLocks = 48;
  static constexpr std::uint64_t kPhases = 8;
  static constexpr int kMaxDepth = 4;
  static constexpr int kChoices = 3;

  LockId lock_at(ThreadId t, int depth, int choice) const {
    const int band = kLocks / kMaxDepth;
    return static_cast<LockId>(
        depth * band + (static_cast<int>(t) * kChoices + choice) % band);
  }

  SiteId site_at(ThreadId t, int depth, int choice) const {
    const std::uint64_t phase = emitted_ / phase_every_;
    return static_cast<SiteId>(
        1000 + ((phase * kWorkers + t) * kMaxDepth +
                static_cast<std::uint64_t>(depth)) *
                   kChoices +
        static_cast<std::uint64_t>(choice));
  }

  void step_worker() {
    const auto t = static_cast<ThreadId>(rr_++ % kWorkers);
    auto& stack = held_[t];
    const bool acquire =
        stack.empty() || (stack.size() < kMaxDepth && rng_.chance(0.55));
    if (acquire) {
      const auto depth = static_cast<int>(stack.size());
      const auto choice = static_cast<int>(rng_.below(kChoices));
      pending_.push_back(make_event(EventKind::kLockAcquire, t,
                                    lock_at(t, depth, choice),
                                    site_at(t, depth, choice)));
      stack.push_back(lock_at(t, depth, choice));
    } else {
      pending_.push_back(make_event(EventKind::kLockRelease, t, stack.back(),
                                    kInvalidSite));
      stack.pop_back();
    }
  }

  void script_ring() {
    const auto ta = static_cast<ThreadId>(kWorkers);
    const auto tb = static_cast<ThreadId>(kWorkers + 1);
    const auto ra = static_cast<LockId>(kLocks);
    const auto rb = static_cast<LockId>(kLocks + 1);
    pending_.push_back(make_event(EventKind::kLockAcquire, ta, ra, 101));
    pending_.push_back(make_event(EventKind::kLockAcquire, ta, rb, 102));
    pending_.push_back(make_event(EventKind::kLockRelease, ta, rb, kInvalidSite));
    pending_.push_back(make_event(EventKind::kLockRelease, ta, ra, kInvalidSite));
    pending_.push_back(make_event(EventKind::kLockAcquire, tb, rb, 201));
    pending_.push_back(make_event(EventKind::kLockAcquire, tb, ra, 202));
    pending_.push_back(make_event(EventKind::kLockRelease, tb, ra, kInvalidSite));
    pending_.push_back(make_event(EventKind::kLockRelease, tb, rb, kInvalidSite));
  }

  std::uint64_t phase_every_;
  std::uint64_t ring_every_;
  Rng rng_;
  std::uint64_t rr_ = 0;
  std::uint64_t emitted_ = 0;
  std::deque<Event> pending_;
  std::vector<std::vector<LockId>> held_;
};

}  // namespace

sim::Program make_stress(int threads, int degree) {
  sim::Program p;
  p.name = "stress-" + std::to_string(threads) + "x" + std::to_string(degree);
  std::vector<LockId> ring;
  for (int i = 0; i < threads; ++i)
    ring.push_back(
        p.add_lock("ring-" + std::to_string(i), p.site("Stress.ring", i)));
  const ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  for (int i = 0; i < threads; ++i)
    workers.push_back(p.add_thread("worker-" + std::to_string(i)));
  for (int i = 0; i < threads; ++i) {
    const ThreadId t = workers[static_cast<std::size_t>(i)];
    const LockId outer = ring[static_cast<std::size_t>(i)];
    for (int d = 1; d <= degree; ++d) {
      const LockId inner = ring[static_cast<std::size_t>((i + d) % threads)];
      const int tag = i * 100 + d;
      p.lock(t, outer, p.site("Stress.outer", tag));
      p.lock(t, inner, p.site("Stress.inner", tag));
      p.unlock(t, inner, p.site("Stress.innerExit", tag));
      p.unlock(t, outer, p.site("Stress.outerExit", tag));
      p.compute(t, p.site("Stress.pause", tag));
    }
  }
  const SiteId spawn = p.site("Stress.spawn", 1);
  const SiteId joinsite = p.site("Stress.join", 2);
  for (ThreadId t : workers) p.start(main, t, spawn);
  for (ThreadId t : workers) p.join(main, t, joinsite);
  p.finalize();
  return p;
}

std::uint64_t write_online_trace(const std::string& path,
                                 std::uint64_t events, std::uint64_t seed) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  OnlineEventStream stream(events, seed);
  StreamTraceWriter writer(os, TraceFormat::kV3);
  for (std::uint64_t i = 0; i < events; ++i) writer.write(stream.next());
  writer.finish();
  os.flush();
  if (!os) throw std::runtime_error("write failed: " + path);
  return writer.bytes_written();
}

std::vector<Event> churn_events(std::uint64_t events, std::uint64_t window,
                                std::uint64_t seed) {
  std::vector<Event> out;
  out.reserve(events + 8);
  Rng rng(seed);
  LockId next_lock = static_cast<LockId>(1000 + rng.below(1000));
  SiteId next_site = static_cast<SiteId>(1000 + rng.below(1000));
  std::uint64_t filler = rng.below(4);
  while (out.size() < events) {
    if (out.size() % window == 0) {
      // A fresh AB/BA ring: a new cycle and an SCC change every window.
      const LockId ra = next_lock++, rb = next_lock++;
      const SiteId s = next_site;
      next_site += 4;
      out.push_back(make_event(EventKind::kLockAcquire, 1, ra, s));
      out.push_back(make_event(EventKind::kLockAcquire, 1, rb, s + 1));
      out.push_back(make_event(EventKind::kLockRelease, 1, rb, kInvalidSite));
      out.push_back(make_event(EventKind::kLockRelease, 1, ra, kInvalidSite));
      out.push_back(make_event(EventKind::kLockAcquire, 2, rb, s + 2));
      out.push_back(make_event(EventKind::kLockAcquire, 2, ra, s + 3));
      out.push_back(make_event(EventKind::kLockRelease, 2, ra, kInvalidSite));
      out.push_back(make_event(EventKind::kLockRelease, 2, rb, kInvalidSite));
    } else {
      const auto t = static_cast<ThreadId>(3 + (filler++ % 4));
      const LockId la = next_lock++, lb = next_lock++;  // la < lb: no cycle
      const SiteId s = next_site;
      next_site += 2;
      out.push_back(make_event(EventKind::kLockAcquire, t, la, s));
      out.push_back(make_event(EventKind::kLockAcquire, t, lb, s + 1));
      out.push_back(make_event(EventKind::kLockRelease, t, lb, kInvalidSite));
      out.push_back(make_event(EventKind::kLockRelease, t, la, kInvalidSite));
    }
  }
  out.resize(events);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].seq = i;
  return out;
}

std::string serve_payload(std::uint64_t events, std::uint64_t seed) {
  const std::uint64_t ring_every = std::max<std::uint64_t>(1, events / 64);
  Rng rng(seed);
  const std::uint64_t worker_base = rng.below(4);
  const std::uint64_t slot_base = rng.below(8);
  std::ostringstream os;
  StreamTraceWriter writer(os, TraceFormat::kV3);
  std::deque<Event> pending;
  std::uint64_t step = 0;
  for (std::uint64_t emitted = 0; emitted < events; ++emitted) {
    if (pending.empty()) {
      if (emitted > 0 && emitted % ring_every == 0) {
        pending.push_back(make_event(EventKind::kLockAcquire, 8, 100, 101));
        pending.push_back(make_event(EventKind::kLockAcquire, 8, 101, 102));
        pending.push_back(make_event(EventKind::kLockRelease, 8, 101, kInvalidSite));
        pending.push_back(make_event(EventKind::kLockRelease, 8, 100, kInvalidSite));
        pending.push_back(make_event(EventKind::kLockAcquire, 9, 101, 201));
        pending.push_back(make_event(EventKind::kLockAcquire, 9, 100, 202));
        pending.push_back(make_event(EventKind::kLockRelease, 9, 100, kInvalidSite));
        pending.push_back(make_event(EventKind::kLockRelease, 9, 101, kInvalidSite));
      } else {
        const auto t = static_cast<ThreadId>(1 + (step + worker_base) % 4);
        const auto slot = static_cast<int>((step + slot_base) % 8);
        const auto la = static_cast<LockId>(10 + slot);
        const auto lb = static_cast<LockId>(20 + slot);  // la < lb: no cycle
        const auto s =
            static_cast<SiteId>(1000 + static_cast<int>(t) * 16 + slot);
        ++step;
        pending.push_back(make_event(EventKind::kLockAcquire, t, la, s));
        pending.push_back(make_event(EventKind::kLockAcquire, t, lb, s + 8));
        pending.push_back(make_event(EventKind::kLockRelease, t, lb, kInvalidSite));
        pending.push_back(make_event(EventKind::kLockRelease, t, la, kInvalidSite));
      }
    }
    Event e = pending.front();
    pending.pop_front();
    e.seq = emitted;
    writer.write(e);
  }
  writer.finish();
  return std::move(os).str();
}

}  // namespace perfbench
