#include "core/cycle_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "graph/digraph.hpp"
#include "obs/counters.hpp"
#include "obs/progress.hpp"
#include "support/check.hpp"

namespace wolf {

namespace {

// Funnel statistics. The search is one serial pass that stops at the
// max-cycles cap, so every count is exact on capped runs too: a capped run
// counts exactly max_cycles cycles.
const obs::Counter kChains("detector.chains");
const obs::Counter kSccsVisited("detector.sccs_nontrivial");
const obs::Counter kCyclesFound("detector.cycles");
// Lockset-mask words one engine allocates, before any search.
const obs::Counter kMaskWords("detector.mask_words");

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

// Dense model of the canonical tuple view (node i ↔ dep.unique[i]), with
// the per-node thread and lock scalars hoisted into flat arrays. Lock ids map
// to a dense per-view index (the sorted distinct locks the view references),
// so every array here is sized by the view, never by the largest lock id.
// The holder index (dense lock → nodes holding it) is one flat array in node
// order, so the DFS candidate order matches the reference enumerator
// exactly. Lockset masks exist only for nodes in nontrivial SCCs — the only
// nodes ChainSearch visits — and each component's masks span only the locks
// its own members hold. Data members are public: ChainSearch and
// run_partitioned below read them directly.
class SccEngine {
 public:
  SccEngine(const LockDependency& dep, const DetectorOptions& options)
      : dep_(dep), options_(options), tuple_of_(dep.unique) {
    index_locks();
    build_masks(partition());
  }

  // Fills thread_/lock_, the per-node held-lock lists and the holder index,
  // all over dense lock ids.
  void index_locks() {
    const std::size_t n = tuple_of_.size();
    std::vector<LockId> locks;
    ThreadId max_thread = -1;
    for (std::size_t u : tuple_of_) {
      const LockTuple& t = dep_.tuples[u];
      locks.push_back(t.lock);
      locks.insert(locks.end(), t.lockset.begin(), t.lockset.end());
      max_thread = std::max(max_thread, t.thread);
    }
    std::sort(locks.begin(), locks.end());
    locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
    auto dense = [&locks](LockId l) {
      return static_cast<std::uint32_t>(
          std::lower_bound(locks.begin(), locks.end(), l) - locks.begin());
    };
    lock_count_ = locks.size();
    thread_words_ = words_for(static_cast<std::size_t>(max_thread + 1));

    thread_.reserve(n);
    lock_.reserve(n);
    held_begin_.reserve(n + 1);
    held_begin_.push_back(0);
    holder_begin_.assign(lock_count_ + 1, 0);
    for (std::size_t u : tuple_of_) {
      const LockTuple& t = dep_.tuples[u];
      thread_.push_back(t.thread);
      lock_.push_back(dense(t.lock));
      for (LockId l : t.lockset) {
        held_.push_back(dense(l));
        ++holder_begin_[held_.back() + 1];
      }
      held_begin_.push_back(held_.size());
    }
    for (std::size_t l = 0; l < lock_count_; ++l)
      holder_begin_[l + 1] += holder_begin_[l];
    holder_nodes_.resize(held_.size());
    std::vector<std::size_t> fill(holder_begin_.begin(),
                                  holder_begin_.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      for (std::uint32_t l : held(i))
        holder_nodes_[fill[l]++] = static_cast<std::uint32_t>(i);
  }

  // Tarjan-partitions the tuple digraph (η → η' iff η' holds lock(η) and the
  // threads differ — every edge a deadlock chain can take). A cycle through
  // a tuple is a digraph cycle, hence confined to the tuple's SCC; only
  // components with ≥ 2 nodes can carry one (self loops are impossible:
  // a thread is never its own neighbor).
  std::vector<std::vector<Digraph::Node>> partition() {
    const std::size_t n = tuple_of_.size();
    Digraph graph(static_cast<int>(n));
    for (std::size_t u = 0; u < n; ++u)
      for (std::uint32_t v : holders(lock_[u]))
        if (thread_[v] != thread_[u])
          graph.add_edge_fast(static_cast<Digraph::Node>(u),
                              static_cast<Digraph::Node>(v));
    comp_.assign(n, 0);
    auto components = graph.strongly_connected_components();
    std::uint64_t nontrivial = 0;
    for (std::size_t c = 0; c < components.size(); ++c) {
      for (Digraph::Node node : components[c])
        comp_[static_cast<std::size_t>(node)] = static_cast<std::uint32_t>(c);
      if (components[c].size() >= 2) ++nontrivial;
    }
    kSccsVisited.add(nontrivial);
    return components;
  }

  // Each nontrivial component numbers the locks its members hold 0..h-1 and
  // gives every member an h-bit lockset mask; a chain never leaves its start
  // component, so one component's numbering covers every test the search
  // makes. Every member's requested lock gets a bit too: a member has an
  // edge inside the component, i.e. another member holds that lock.
  void build_masks(const std::vector<std::vector<Digraph::Node>>& components) {
    constexpr std::uint32_t kUnnumbered = ~std::uint32_t{0};
    std::vector<std::uint32_t> numbered_by(lock_count_, kUnnumbered);
    std::vector<std::uint32_t> bit(lock_count_, 0);
    const std::size_t n = tuple_of_.size();
    mask_at_.assign(n, 0);
    lock_bit_.assign(n, 0);
    comp_words_.assign(components.size(), 0);
    for (std::size_t c = 0; c < components.size(); ++c) {
      if (components[c].size() < 2) continue;
      const auto label = static_cast<std::uint32_t>(c);
      std::uint32_t bits = 0;
      for (Digraph::Node node : components[c])
        for (std::uint32_t l : held(static_cast<std::size_t>(node)))
          if (numbered_by[l] != label) {
            numbered_by[l] = label;
            bit[l] = bits++;
          }
      const std::size_t words = words_for(bits);
      comp_words_[c] = words;
      max_comp_words_ = std::max(max_comp_words_, words);
      for (Digraph::Node node : components[c]) {
        const auto i = static_cast<std::size_t>(node);
        mask_at_[i] = lockset_.size();
        lockset_.resize(lockset_.size() + words, 0);
        Word* mask = &lockset_[mask_at_[i]];
        for (std::uint32_t l : held(i)) flip_bit(mask, bit[l]);
        WOLF_CHECK(numbered_by[lock_[i]] == label);
        lock_bit_[i] = bit[lock_[i]];
      }
    }
    kMaskWords.add(lockset_.size());
  }

  std::size_t size() const { return tuple_of_.size(); }

  bool in_nontrivial_scc(std::size_t node) const {
    return comp_words_[comp_[node]] != 0;
  }

  std::span<const std::uint32_t> held(std::size_t node) const {
    return {held_.data() + held_begin_[node],
            held_.data() + held_begin_[node + 1]};
  }

  std::span<const std::uint32_t> holders(std::uint32_t lock) const {
    return {holder_nodes_.data() + holder_begin_[lock],
            holder_nodes_.data() + holder_begin_[lock + 1]};
  }

  const Word* lockset(std::size_t node) const {
    return &lockset_[mask_at_[node]];
  }

  const LockDependency& dep_;
  const DetectorOptions& options_;
  // node → index into dep.tuples: dep.unique, which outlives the engine
  // (one engine lives inside one enumerate_cycles_scc call).
  const std::vector<std::size_t>& tuple_of_;
  std::size_t lock_count_ = 0;                // distinct locks in the view
  std::size_t thread_words_ = 1;
  std::vector<ThreadId> thread_;
  std::vector<std::uint32_t> lock_;  // node → dense requested lock
  std::vector<std::uint32_t> held_;         // dense held locks, node-major
  std::vector<std::size_t> held_begin_;     // node → offset into held_
  std::vector<std::uint32_t> holder_nodes_;  // holders, lock-major, node order
  std::vector<std::size_t> holder_begin_;   // dense lock → offset
  std::vector<std::uint32_t> comp_;  // node → SCC id
  // Masks of nontrivial-SCC nodes only; the two per-node arrays below are
  // meaningful only for those nodes.
  std::vector<Word> lockset_;
  std::vector<std::size_t> mask_at_;     // node → offset into lockset_
  std::vector<std::uint32_t> lock_bit_;  // node → its lock's bit in its SCC
  std::vector<std::size_t> comp_words_;  // SCC → mask words (0 = trivial)
  std::size_t max_comp_words_ = 1;
};

// The DFS: bitset chain state sized once, reused across starts.
struct ChainSearch {
  explicit ChainSearch(const SccEngine& engine)
      : e(engine),
        chain_threads(engine.thread_words_, 0),
        chain_locks(engine.max_comp_words_, 0) {}

  void run_from(std::uint32_t start) {
    first_thread = e.thread_[start];
    start_comp = e.comp_[start];
    lock_words = e.comp_words_[start_comp];
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
    for (std::size_t w = 0; w < lock_words; ++w) chain_locks[w] ^= mask[w];
  }

  void pop(std::uint32_t node) {
    const Word* mask = e.lockset(node);
    for (std::size_t w = 0; w < lock_words; ++w) chain_locks[w] ^= mask[w];
    flip_bit(chain_threads.data(),
             static_cast<std::size_t>(e.thread_[node]));
    chain.pop_back();
  }

  void extend(std::uint32_t last) {
    if (out.size() >= e.options_.max_cycles) return;
    const std::uint32_t first = chain.front();

    if (chain.size() >= 2 && test_bit(e.lockset(first), e.lock_bit_[last])) {
      kCyclesFound.add();
      PotentialDeadlock cycle;
      cycle.tuple_idx.reserve(chain.size());
      for (std::uint32_t node : chain)
        cycle.tuple_idx.push_back(e.tuple_of_[node]);
      out.push_back(std::move(cycle));
    }
    if (static_cast<int>(chain.size()) >= e.options_.max_cycle_length)
      return;

    for (std::uint32_t next : e.holders(e.lock_[last])) {
      if (out.size() >= e.options_.max_cycles) return;
      if (e.thread_[next] <= first_thread) continue;
      if (e.comp_[next] != start_comp) continue;
      if (test_bit(chain_threads.data(),
                   static_cast<std::size_t>(e.thread_[next])))
        continue;
      const Word* mask = e.lockset(next);
      bool overlap = false;
      for (std::size_t w = 0; w < lock_words; ++w)
        overlap |= (chain_locks[w] & mask[w]) != 0;
      if (overlap) continue;
      push(next);
      extend(next);
      pop(next);
    }
  }

  const SccEngine& e;
  ThreadId first_thread = kInvalidThread;
  std::uint32_t start_comp = 0;
  std::size_t lock_words = 0;  // mask width of the start's component
  std::vector<std::uint32_t> chain;
  std::vector<Word> chain_threads;
  std::vector<Word> chain_locks;
  std::vector<PotentialDeadlock> out;
};

// Runs the search from every start in a nontrivial SCC, in canonical
// (node) order, until the cycle cap.
EnumerationResult run_partitioned(const SccEngine& e) {
  std::vector<std::uint32_t> starts;  // canonical (node) order
  for (std::size_t i = 0; i < e.size(); ++i)
    if (e.in_nontrivial_scc(i)) starts.push_back(static_cast<std::uint32_t>(i));

  ChainSearch search(e);
  for (std::size_t k = 0; k < starts.size(); ++k) {
    if (search.out.size() >= e.options_.max_cycles) break;
    search.run_from(starts[k]);
    obs::progress_tick("detect", k + 1, starts.size());
  }
  EnumerationResult result;
  result.cycles = std::move(search.out);
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
                                       const DetectorOptions& options) {
  return run_partitioned(SccEngine(dep, options));
}

}  // namespace wolf
