// Counters — the funnel-statistics half of the observability layer
// (DESIGN.md §13).
//
// A process-wide CounterRegistry holds up to kMaxCounters named monotonic
// counters, sharded kCounterShards ways: each thread hashes to a shard and
// bumps a relaxed atomic slot there, so concurrent increments from the
// classification workers, the serve sessions and the rt substrate never
// contend on one cache line. snapshot() sums the shards per counter.
//
// Cost discipline: collection is OFF by default. Counter::add() is a single
// relaxed load + branch when disabled — cheap enough to leave in the
// detector's per-event and per-chain hot paths. The CLI flips it on when
// --metrics-out is given; tests and benches flip it explicitly.
//
// Determinism: counters only observe (nothing reads them back into control
// flow), so enabling them cannot change detection output. Counters
// registered `stable` count pipeline semantics (tuples, chains, cycles,
// edges, trials…) and are jobs-invariant; counters registered
// `stable=false` count scheduling artifacts (pool parks) and are excluded
// from the byte-stable metrics report (obs/report.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wolf::obs {

inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kCounterShards = 16;

// Global collection switch. Relaxed: a toggle is only guaranteed to cover
// work that starts after it (exactly what the CLI and tests need).
inline std::atomic<bool> g_counters_enabled{false};

inline bool counters_enabled() {
  return g_counters_enabled.load(std::memory_order_relaxed);
}
inline void set_counters_enabled(bool on) {
  g_counters_enabled.store(on, std::memory_order_relaxed);
}

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  bool stable = true;
};

// A point-in-time reading: samples sorted by name. Per-run numbers come
// from subtracting a before-snapshot (delta below) because the registry is
// process-wide and monotonic.
struct CounterSnapshot {
  std::vector<CounterSample> samples;

  bool empty() const { return samples.empty(); }
  // Value by exact name; 0 when the counter never registered.
  std::uint64_t value(std::string_view name) const;
};

// after - before, per name. Counters absent from `before` keep their
// `after` value; zero-valued results are kept so the counter set of a run
// does not depend on which paths happened to fire.
CounterSnapshot delta(const CounterSnapshot& after,
                      const CounterSnapshot& before);

class CounterRegistry {
 public:
  static CounterRegistry& instance();

  // Interns `name` (idempotent: the same name always maps to the same id,
  // whichever thread registers first). Aborts if kMaxCounters distinct
  // names are exceeded.
  int intern(const char* name, bool stable = true);

  // Relaxed add into the calling thread's shard. Callers go through
  // Counter::add(), which applies the enabled() guard first.
  void add(int id, std::uint64_t n);

  CounterSnapshot snapshot() const;

  // Zeroes every slot (registrations are kept). Test hook; racing resets
  // with concurrent adds loses increments by design.
  void reset();

 private:
  CounterRegistry() = default;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> slots[kMaxCounters] = {};
  };

  mutable std::mutex mu_;  // guards names_/stable_ registration
  std::vector<std::string> names_;
  std::vector<bool> stable_;
  Shard shards_[kCounterShards];
};

// A named counter handle: interns once at construction (file-scope statics
// in the instrumented modules), then add() is branch + relaxed increment.
class Counter {
 public:
  explicit Counter(const char* name, bool stable = true)
      : id_(CounterRegistry::instance().intern(name, stable)) {}

  void add(std::uint64_t n = 1) const {
    if (!counters_enabled()) return;
    CounterRegistry::instance().add(id_, n);
  }

  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace wolf::obs
