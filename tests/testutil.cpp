#include "testutil.hpp"

#include <algorithm>
#include <string_view>

#include "support/check.hpp"
#include "trace/serialize.hpp"
#include "trace/wire.hpp"

namespace wolf::test {

namespace {

// `prefix` followed by `n`, built by appending: g++ 12 at -O3 reports a
// false -Wrestrict on `"literal" + std::string`.
std::string numbered(const char* prefix, int n) {
  std::string s = prefix;
  s += std::to_string(n);
  return s;
}

// Emits one well-nested lock region for `thread`, choosing locks uniformly
// (re-acquiring a held lock exercises re-entrancy on purpose).
void emit_block(sim::Program& p, Rng& rng, const RandomProgramConfig& config,
                ThreadId thread, const std::vector<LockId>& locks, int depth,
                int& site_counter) {
  auto fresh_site = [&] {
    return p.site(numbered("rand.t", thread), site_counter++);
  };
  LockId lock = locks[rng.index(locks)];
  p.lock(thread, lock, fresh_site());
  if (depth < config.max_nesting && rng.chance(config.nest_probability)) {
    emit_block(p, rng, config, thread, locks, depth + 1, site_counter);
  } else if (rng.chance(0.5)) {
    p.compute(thread, fresh_site());
  }
  p.unlock(thread, lock, fresh_site());
}

}  // namespace

sim::Program random_program(Rng& rng, const RandomProgramConfig& config) {
  sim::Program p;
  p.name = "random";
  int site_counter = 0;

  std::vector<LockId> locks;
  for (int l = 0; l < config.locks; ++l)
    locks.push_back(
        p.add_lock(numbered("L", l), p.site("rand.alloc", l)));

  ThreadId main = p.add_thread("main");
  std::vector<ThreadId> workers;
  for (int w = 0; w < config.workers; ++w)
    workers.push_back(p.add_thread(numbered("w", w)));

  // Worker bodies.
  for (ThreadId w : workers) {
    const int blocks = 1 + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(
                                   config.blocks_per_worker)));
    for (int b = 0; b < blocks; ++b)
      emit_block(p, rng, config, w, locks, 1, site_counter);
  }

  // Start/join topology: worker i is started either by main or (sometimes)
  // by worker i-1 *after* that worker's lock blocks — the start-ordering
  // structure the Pruner reasons about; main sometimes joins a worker before
  // starting the next, creating non-overlap regions.
  std::vector<ThreadId> joined;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const bool chained =
        i > 0 && rng.chance(config.chained_start_probability);
    if (chained) {
      sim::Op op;
      op.code = sim::OpCode::kStart;
      op.target_thread = workers[i];
      op.site = p.site("rand.chain", site_counter++);
      p.emit(workers[i - 1], op);
    } else {
      p.start(main, workers[i],
              p.site("rand.spawn", site_counter++));
      if (rng.chance(config.early_join_probability)) {
        p.join(main, workers[i], p.site("rand.earlyjoin", site_counter++));
        joined.push_back(workers[i]);
      }
    }
  }
  for (ThreadId w : workers) {
    if (std::find(joined.begin(), joined.end(), w) == joined.end())
      p.join(main, w, p.site("rand.join", site_counter++));
  }

  p.finalize();
  return p;
}

sim::Program lock_shape_program(const LockShapeConfig& config) {
  sim::Program p;
  p.name = "lock-shape";
  const ThreadId main = p.add_thread("main");
  const SiteId spawn = p.site("Shape.spawn", 1);
  const SiteId join = p.site("Shape.join", 2);
  std::vector<ThreadId> batch;  // started and joined together

  std::vector<LockId> order;
  for (int l = 0; l < config.layered_locks; ++l)
    order.push_back(p.add_lock(numbered("layer-", l), p.site("Layer.lock", l)));
  for (int t = 0; t < config.layered_threads; ++t) {
    const ThreadId tid = p.add_thread(numbered("layer-", t));
    batch.push_back(tid);
    for (int k = 0; k < config.layered_pairs; ++k) {
      // A deterministic spread of ordered pairs (a < b) over the locks.
      const int a = (t * 7 + k * 3) % (config.layered_locks - 1);
      const int b = a + 1 + (t + k) % (config.layered_locks - 1 - a);
      const int tag = t * 1000 + k;
      const auto la = order[static_cast<std::size_t>(a)];
      const auto lb = order[static_cast<std::size_t>(b)];
      p.lock(tid, la, p.site("Layer.outer", tag));
      p.lock(tid, lb, p.site("Layer.inner", tag));
      p.unlock(tid, lb, p.site("Layer.innerX", tag));
      p.unlock(tid, la, p.site("Layer.outerX", tag));
    }
  }

  std::vector<LockId> ring;
  for (int i = 0; i < config.ring_threads; ++i)
    ring.push_back(p.add_lock(numbered("ring-", i), p.site("Ring.lock", i)));
  for (int gen = 0; gen < config.generations; ++gen) {
    for (int i = 0; i < config.ring_threads; ++i) {
      std::string name = numbered("gen", gen);
      name += '-';
      name += std::to_string(i);
      const ThreadId tid = p.add_thread(std::move(name));
      batch.push_back(tid);
      for (int d = 1; d <= config.ring_degree; ++d) {
        const int tag = gen * 10000 + i * 100 + d;
        const auto li = ring[static_cast<std::size_t>(i)];
        const auto lj =
            ring[static_cast<std::size_t>((i + d) % config.ring_threads)];
        p.lock(tid, li, p.site("Ring.outer", tag));
        p.lock(tid, lj, p.site("Ring.inner", tag));
        p.unlock(tid, lj, p.site("Ring.innerX", tag));
        p.unlock(tid, li, p.site("Ring.outerX", tag));
      }
    }
    // The barrier: this batch is joined before the next generation starts.
    for (ThreadId t : batch) p.start(main, t, spawn);
    for (ThreadId t : batch) p.join(main, t, join);
    batch.clear();
  }
  p.finalize();
  return p;
}

std::vector<SiteId> deadlock_signature(const sim::RunResult& result) {
  std::vector<SiteId> sig;
  sig.reserve(result.deadlock_cycle.size());
  for (const sim::BlockedAt& b : result.deadlock_cycle)
    sig.push_back(b.index.site);
  std::sort(sig.begin(), sig.end());
  return sig;
}

std::string unindexed_v3(const Trace& trace) {
  std::string bytes = trace_to_string(trace, TraceFormat::kV3);
  wire::ByteReader trailer(std::string_view(bytes).substr(
      bytes.size() - wire::kIndexTrailerBytes));
  std::uint64_t index_offset = 0;
  WOLF_CHECK(trailer.get_u64le(index_offset) && index_offset < bytes.size());
  bytes.resize(static_cast<std::size_t>(index_offset));
  return bytes;
}

}  // namespace wolf::test
