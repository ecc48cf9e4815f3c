#include "core/cycle_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/pruner.hpp"
#include "graph/digraph.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "support/thread_pool.hpp"

namespace wolf {

namespace {

// Funnel statistics. All are jobs-invariant on non-truncated runs; when the
// max-cycles cap bites, chains/cycles depend on where each enumeration
// stopped, which differs between the serial early-exit and the per-start
// parallel caps.
const obs::Counter kChains("detector.chains");
const obs::Counter kSccsVisited("detector.sccs_nontrivial");
const obs::Counter kClockCuts("detector.clock_cuts");
const obs::Counter kCyclesFound("detector.cycles");

// ------------------------------------------------------------- reference
// The original DFS enumerator, kept verbatim as the executable
// specification of the canonical cycle order (detector.hpp):
//   * holders_of_ — lock ℓ → canonical tuples holding ℓ in their lockset, in
//     dep.unique order;
//   * chain_threads_/chain_locks_ — running thread set and lockset union of
//     the current chain, so the pairwise-disjointness test is O(|lockset|)
//     per candidate.
class ReferenceEnumerator {
 public:
  ReferenceEnumerator(const LockDependency& dep, const DetectorOptions& options)
      : dep_(dep), options_(options) {
    for (std::size_t u : dep_.unique)
      for (LockId l : dep_.tuples[u].lockset) holders_of_[l].push_back(u);
  }

  std::vector<PotentialDeadlock> run() {
    std::size_t done = 0;
    for (std::size_t u : dep_.unique) {
      if (exhausted()) break;
      push_member(u);
      extend();
      pop_member(u);
      obs::progress_tick("detect", ++done, dep_.unique.size());
    }
    return std::move(cycles_);
  }

 private:
  bool exhausted() const { return cycles_.size() >= options_.max_cycles; }

  void push_member(std::size_t idx) {
    kChains.add();
    chain_.push_back(idx);
    const LockTuple& tuple = dep_.tuples[idx];
    chain_threads_.push_back(tuple.thread);
    for (LockId l : tuple.lockset) chain_locks_.insert(l);
  }

  void pop_member(std::size_t idx) {
    const LockTuple& tuple = dep_.tuples[idx];
    for (LockId l : tuple.lockset) chain_locks_.erase(l);
    chain_threads_.pop_back();
    chain_.pop_back();
  }

  // True when `candidate` can legally extend the current chain: distinct
  // thread and pairwise-disjoint lockset with every chain member.
  bool compatible(const LockTuple& candidate) const {
    for (ThreadId t : chain_threads_)
      if (t == candidate.thread) return false;
    for (LockId l : candidate.lockset)
      if (chain_locks_.count(l) != 0) return false;
    return true;
  }

  void extend() {
    if (exhausted()) return;
    const LockTuple& first = dep_.tuples[chain_.front()];
    const LockTuple& last = dep_.tuples[chain_.back()];

    // Close the cycle? Requires length >= 2 and lock(last) ∈ lockset(first).
    if (chain_.size() >= 2 && first.holds(last.lock)) {
      kCyclesFound.add();
      PotentialDeadlock cycle;
      cycle.tuple_idx = chain_;
      cycles_.push_back(std::move(cycle));
    }
    if (static_cast<int>(chain_.size()) >= options_.max_cycle_length) return;

    auto holders = holders_of_.find(last.lock);
    if (holders == holders_of_.end()) return;
    for (std::size_t u : holders->second) {
      if (exhausted()) return;
      const LockTuple& next = dep_.tuples[u];
      // Canonical rotation: the first tuple's thread is the cycle minimum.
      if (next.thread <= first.thread) continue;
      if (!compatible(next)) continue;
      push_member(u);
      extend();
      pop_member(u);
    }
  }

  const LockDependency& dep_;
  const DetectorOptions& options_;
  std::unordered_map<LockId, std::vector<std::size_t>> holders_of_;
  std::vector<std::size_t> chain_;
  std::vector<ThreadId> chain_threads_;
  std::unordered_set<LockId> chain_locks_;
  std::vector<PotentialDeadlock> cycles_;
};

// ------------------------------------------------------------------- scc
using Word = std::uint64_t;
constexpr std::size_t kWordBits = 64;

inline std::size_t words_for(std::size_t bits) {
  return bits / kWordBits + 1;
}
inline bool test_bit(const Word* w, std::size_t i) {
  return (w[i / kWordBits] >> (i % kWordBits)) & 1u;
}
inline void flip_bit(Word* w, std::size_t i) {
  w[i / kWordBits] ^= Word{1} << (i % kWordBits);
}

// Dense model of the canonical tuple view: node i ↔ dep.unique[i], with the
// per-node thread/lock/τ scalars hoisted into flat arrays, each lockset as a
// word-mask over dense LockIds, and the per-lock inverted holder index in
// node (= dep.unique) order so the DFS candidate order matches the
// reference enumerator exactly. Data members are public: ChainSearch and
// run_partitioned below read them directly.
class SccEngine {
 public:
  SccEngine(const LockDependency& dep, const DetectorOptions& options,
            const ClockTracker* clocks)
      : dep_(dep), options_(options) {
    const std::size_t n = dep.unique.size();
    LockId max_lock = -1;
    ThreadId max_thread = -1;
    for (std::size_t u : dep.unique) {
      const LockTuple& t = dep.tuples[u];
      max_lock = std::max(max_lock, t.lock);
      for (LockId l : t.lockset) max_lock = std::max(max_lock, l);
      max_thread = std::max(max_thread, t.thread);
    }
    lock_words_ = words_for(static_cast<std::size_t>(max_lock + 1));
    thread_words_ = words_for(static_cast<std::size_t>(max_thread + 1));

    tuple_of_.reserve(n);
    thread_.reserve(n);
    lock_.reserve(n);
    tau_.reserve(n);
    lockset_.assign(n * lock_words_, 0);
    holders_of_.assign(static_cast<std::size_t>(max_lock) + 1, {});
    for (std::size_t i = 0; i < n; ++i) {
      const LockTuple& t = dep.tuples[dep.unique[i]];
      tuple_of_.push_back(dep.unique[i]);
      thread_.push_back(t.thread);
      lock_.push_back(t.lock);
      tau_.push_back(t.tau);
      Word* mask = &lockset_[i * lock_words_];
      for (LockId l : t.lockset) {
        flip_bit(mask, static_cast<std::size_t>(l));
        holders_of_[static_cast<std::size_t>(l)].push_back(
            static_cast<std::uint32_t>(i));
      }
    }

    partition();

    if (options.clock_prune_during_search && clocks != nullptr)
      matrix_.emplace(*clocks, dep);
  }

  // Tarjan-partitions the tuple digraph (η → η' iff η' holds lock(η) and the
  // threads differ — every edge a deadlock chain can take). A cycle through
  // a tuple is a digraph cycle, hence confined to the tuple's SCC; only
  // components with ≥ 2 nodes can carry one (self loops are impossible:
  // a thread is never its own neighbor).
  void partition() {
    const std::size_t n = tuple_of_.size();
    Digraph graph(static_cast<int>(n));
    for (std::size_t u = 0; u < n; ++u)
      for (std::uint32_t v : holders_of_[static_cast<std::size_t>(lock_[u])])
        if (thread_[v] != thread_[u])
          graph.add_edge_fast(static_cast<Digraph::Node>(u),
                              static_cast<Digraph::Node>(v));
    comp_.assign(n, 0);
    comp_nontrivial_.clear();
    const auto components = graph.strongly_connected_components();
    std::uint64_t nontrivial = 0;
    for (std::size_t c = 0; c < components.size(); ++c) {
      for (Digraph::Node node : components[c])
        comp_[static_cast<std::size_t>(node)] = static_cast<std::uint32_t>(c);
      const bool big = components[c].size() >= 2;
      comp_nontrivial_.push_back(big);
      if (big) ++nontrivial;
    }
    kSccsVisited.add(nontrivial);
  }

  std::size_t size() const { return tuple_of_.size(); }

  bool in_nontrivial_scc(std::size_t node) const {
    return comp_nontrivial_[comp_[node]];
  }

  const Word* lockset(std::size_t node) const {
    return &lockset_[node * lock_words_];
  }

  const std::vector<std::uint32_t>& holders(std::size_t lock) const {
    return holders_of_[lock];
  }

  const LockDependency& dep_;
  const DetectorOptions& options_;
  std::size_t lock_words_ = 1;
  std::size_t thread_words_ = 1;
  std::vector<std::size_t> tuple_of_;  // node → index into dep.tuples
  std::vector<ThreadId> thread_;
  std::vector<LockId> lock_;
  std::vector<Timestamp> tau_;
  std::vector<Word> lockset_;  // node-major, lock_words_ words per node
  std::vector<std::vector<std::uint32_t>> holders_of_;  // lock → nodes
  std::vector<std::uint32_t> comp_;  // node → SCC id
  std::vector<bool> comp_nontrivial_;
  std::optional<ClockPairMatrix> matrix_;
};

// One DFS worker: bitset chain state sized once, reused across starts.
struct ChainSearch {
  explicit ChainSearch(const SccEngine& engine)
      : e(engine),
        chain_threads(engine.thread_words_, 0),
        chain_locks(engine.lock_words_, 0) {}

  void run_from(std::uint32_t start) {
    first_thread = e.thread_[start];
    start_comp = e.comp_[start];
    push(start);
    extend(start);
    pop(start);
  }

  void push(std::uint32_t node) {
    kChains.add();
    chain.push_back(node);
    flip_bit(chain_threads.data(),
             static_cast<std::size_t>(e.thread_[node]));
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < e.lock_words_; ++w) chain_locks[w] ^= mask[w];
  }

  void pop(std::uint32_t node) {
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < e.lock_words_; ++w) chain_locks[w] ^= mask[w];
    flip_bit(chain_threads.data(),
             static_cast<std::size_t>(e.thread_[node]));
    chain.pop_back();
  }

  // The in-search clock cut: true when `node` forms a provably
  // non-overlapping pair with any chain member. Every cycle containing
  // such a pair is pruned by Algorithm 2, so the whole branch is dead.
  bool clock_cut(std::uint32_t node) const {
    const ClockPairMatrix& m = *e.matrix_;
    for (std::uint32_t member : chain) {
      const ThreadId tm = e.thread_[member];
      const ThreadId tn = e.thread_[node];
      if (m.never_overlaps(tm, tn) || m.never_overlaps(tn, tm)) return true;
      if (is_false(m.pair_verdict(tm, e.tau_[member], tn, e.tau_[node])) ||
          is_false(m.pair_verdict(tn, e.tau_[node], tm, e.tau_[member])))
        return true;
    }
    return false;
  }

  void extend(std::uint32_t last) {
    if (out.size() >= e.options_.max_cycles) return;
    const std::uint32_t first = chain.front();

    if (chain.size() >= 2 &&
        test_bit(e.lockset(first), static_cast<std::size_t>(e.lock_[last]))) {
      kCyclesFound.add();
      PotentialDeadlock cycle;
      cycle.tuple_idx.reserve(chain.size());
      for (std::uint32_t node : chain)
        cycle.tuple_idx.push_back(e.tuple_of_[node]);
      out.push_back(std::move(cycle));
    }
    if (static_cast<int>(chain.size()) >= e.options_.max_cycle_length)
      return;

    for (std::uint32_t next :
         e.holders(static_cast<std::size_t>(e.lock_[last]))) {
      if (out.size() >= e.options_.max_cycles) return;
      if (e.thread_[next] <= first_thread) continue;
      if (e.comp_[next] != start_comp) continue;
      if (test_bit(chain_threads.data(),
                   static_cast<std::size_t>(e.thread_[next])))
        continue;
      const Word* mask = e.lockset(next);
      bool overlap = false;
      for (std::size_t w = 0; w < e.lock_words_; ++w)
        overlap |= (chain_locks[w] & mask[w]) != 0;
      if (overlap) continue;
      if (e.matrix_.has_value() && clock_cut(next)) {
        kClockCuts.add();
        continue;
      }
      push(next);
      extend(next);
      pop(next);
    }
  }

  const SccEngine& e;
  ThreadId first_thread = kInvalidThread;
  std::uint32_t start_comp = 0;
  std::vector<std::uint32_t> chain;
  std::vector<Word> chain_threads;
  std::vector<Word> chain_locks;
  std::vector<PotentialDeadlock> out;
};

// Runs the search from every start in a nontrivial SCC, serially or one
// task per start, and merges in canonical start order.
EnumerationResult run_partitioned(const SccEngine& e) {
  const std::size_t n = e.size();
  std::size_t nontrivial_starts = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (e.in_nontrivial_scc(i)) ++nontrivial_starts;

  int jobs = e.options_.jobs <= 0 ? ThreadPool::hardware_jobs()
                                  : e.options_.jobs;
  if (nontrivial_starts <= 1) jobs = 1;

  EnumerationResult result;
  if (jobs == 1) {
    ChainSearch search(e);
    for (std::size_t i = 0; i < n; ++i) {
      if (search.out.size() >= e.options_.max_cycles) break;
      if (!e.in_nontrivial_scc(i)) continue;
      search.run_from(static_cast<std::uint32_t>(i));
      obs::progress_tick("detect", i + 1, n);
    }
    result.cycles = std::move(search.out);
  } else {
    // Per-start enumerations share only read-only state; each task caps
    // itself at max_cycles (the merged prefix can use at most that many
    // from any single start) and the canonical-order merge + truncate
    // reproduces the serial sequence exactly.
    std::vector<std::vector<PotentialDeadlock>> per_start(n);
    ThreadPool pool(jobs);
    std::atomic<std::size_t> starts_done{0};
    pool.parallel_for_each(n, [&](std::size_t i) {
      if (!e.in_nontrivial_scc(i)) return;
      ChainSearch search(e);
      search.run_from(static_cast<std::uint32_t>(i));
      per_start[i] = std::move(search.out);
      obs::progress_tick(
          "detect", starts_done.fetch_add(1, std::memory_order_relaxed) + 1,
          nontrivial_starts);
    });
    for (std::size_t i = 0; i < n; ++i) {
      for (PotentialDeadlock& cycle : per_start[i]) {
        if (result.cycles.size() >= e.options_.max_cycles) break;
        result.cycles.push_back(std::move(cycle));
      }
    }
  }
  result.truncated = result.cycles.size() >= e.options_.max_cycles;
  return result;
}

}  // namespace

EnumerationResult enumerate_cycles_reference(const LockDependency& dep,
                                             const DetectorOptions& options) {
  EnumerationResult result;
  result.cycles = ReferenceEnumerator(dep, options).run();
  result.truncated = result.cycles.size() >= options.max_cycles;
  return result;
}

EnumerationResult enumerate_cycles_scc(const LockDependency& dep,
                                       const DetectorOptions& options,
                                       const ClockTracker* clocks) {
  return run_partitioned(SccEngine(dep, options, clocks));
}

}  // namespace wolf
