#include "core/lock_dependency.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "obs/counters.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wolf {

namespace {
const obs::Counter kTuplesCounter("detector.tuples");
}  // namespace

std::size_t TupleKeyHash::operator()(const TupleKey& k) const {
  std::uint64_t h =
      mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.thread))
             << 32) ^
            static_cast<std::uint32_t>(k.lock));
  for (SiteId s : k.sites)
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(s)) +
                   0x9e3779b97f4a7c15ULL));
  return static_cast<std::size_t>(h);
}

TupleKey key_of(const LockTuple& t) {
  TupleKey key;
  key.thread = t.thread;
  key.lock = t.lock;
  key.sites.reserve(t.context.size());
  for (const ExecIndex& idx : t.context) key.sites.push_back(idx.site);
  return key;
}

ExecIndex LockTuple::mu(LockId l) const {
  if (l == lock) return context.back();
  for (std::size_t i = 0; i < lockset.size(); ++i)
    if (lockset[i] == l) return context[i];
  WOLF_CHECK_MSG(false, "µ: lock " << l << " not in tuple " << to_string());
  return {};
}

bool LockTuple::holds(LockId l) const {
  return std::find(lockset.begin(), lockset.end(), l) != lockset.end();
}

std::string LockTuple::to_string() const {
  std::ostringstream os;
  os << "(t" << thread << ", {";
  for (std::size_t i = 0; i < lockset.size(); ++i) {
    if (i != 0) os << ",";
    os << "l" << lockset[i];
  }
  os << "}, l" << lock << ", {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i != 0) os << ",";
    os << context[i].to_string();
  }
  os << "}, " << tau << ")";
  return os.str();
}

LockDependencyBuilder::HeldStack& LockDependencyBuilder::held_stack(
    ThreadId thread) {
  if (thread >= 0) {
    const std::size_t i = static_cast<std::size_t>(thread);
    if (i >= held_.size()) held_.resize(i + 1);
    return held_[i];
  }
  return held_other_[thread];
}

void LockDependencyBuilder::add(const Event& e) {
  const std::size_t pos = pos_++;
  clocks_.apply(e);
  switch (e.kind) {
    case EventKind::kLockAcquire: {
      auto& stack = held_stack(e.thread);
      LockTuple tuple;
      tuple.thread = e.thread;
      tuple.lock = e.lock;
      tuple.tau = clocks_.timestamp(e.thread);
      tuple.trace_pos = pos;
      for (const auto& [l, idx] : stack) {
        tuple.lockset.push_back(l);
        tuple.context.push_back(idx);
      }
      tuple.context.push_back(e.index());
      kTuplesCounter.add();
      dep_.tuples.push_back(std::move(tuple));
      stack.emplace_back(e.lock, e.index());
      break;
    }
    case EventKind::kLockRelease: {
      auto& stack = held_stack(e.thread);
      auto it = std::find_if(stack.rbegin(), stack.rend(),
                             [&](const auto& h) { return h.first == e.lock; });
      WOLF_CHECK_MSG(it != stack.rend(),
                     "trace releases lock " << e.lock << " not held by t"
                                            << e.thread);
      stack.erase(std::next(it).base());
      break;
    }
    default:
      break;
  }
}

namespace {

// Deduplicate by (thread, lock, context site signature): the canonical
// representative is the first occurrence. Hash-indexed — the ordered map
// this replaces paid an O(|context|) lexicographic compare per tree level
// on every lookup, which dominated D_σ construction on long traces.
void compute_unique(LockDependency& dep) {
  std::unordered_map<TupleKey, std::size_t, TupleKeyHash> seen;
  seen.reserve(dep.tuples.size());
  dep.unique.clear();
  for (std::size_t i = 0; i < dep.tuples.size(); ++i) {
    if (seen.emplace(key_of(dep.tuples[i]), i).second) dep.unique.push_back(i);
  }
}

}  // namespace

LockDependency LockDependencyBuilder::take_dependency() {
  compute_unique(dep_);
  LockDependency out = std::move(dep_);
  dep_ = LockDependency{};
  return out;
}

LockDependency LockDependencyBuilder::snapshot_dependency() const {
  LockDependency copy = dep_;
  compute_unique(copy);
  return copy;
}

LockDependency LockDependencyBuilder::snapshot_subset(
    const std::vector<std::size_t>& indices) const {
  LockDependency sub;
  sub.tuples.reserve(indices.size());
  for (std::size_t i : indices) sub.tuples.push_back(dep_.tuples[i]);
  compute_unique(sub);
  return sub;
}

std::size_t LockDependencyBuilder::compact(const RemovalHook& on_remove) {
  std::unordered_map<TupleKey, std::size_t, TupleKeyHash> seen;
  seen.reserve(dep_.tuples.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < dep_.tuples.size(); ++i) {
    if (!seen.emplace(key_of(dep_.tuples[i]), i).second) {
      if (on_remove) on_remove(dep_.tuples[i]);
      continue;
    }
    if (kept != i) dep_.tuples[kept] = std::move(dep_.tuples[i]);
    ++kept;
  }
  const std::size_t removed = dep_.tuples.size() - kept;
  dep_.tuples.resize(kept);
  dep_.tuples.shrink_to_fit();
  return removed;
}

std::size_t LockDependencyBuilder::evict_oldest(std::size_t max_tuples,
                                                const RemovalHook& on_remove) {
  if (dep_.tuples.size() <= max_tuples) return 0;
  const std::size_t evicted = dep_.tuples.size() - max_tuples;
  // Tuples are in trace order, so the oldest are the front.
  if (on_remove)
    for (std::size_t i = 0; i < evicted; ++i) on_remove(dep_.tuples[i]);
  dep_.tuples.erase(dep_.tuples.begin(),
                    dep_.tuples.begin() + static_cast<std::ptrdiff_t>(evicted));
  dep_.tuples.shrink_to_fit();
  return evicted;
}

void LockDependencyBuilder::clear() {
  dep_ = LockDependency{};
  clocks_ = ClockTracker{};
  held_.clear();
  held_other_.clear();
  pos_ = 0;
}

LockDependency LockDependency::from_trace(const Trace& trace) {
  LockDependencyBuilder builder;
  for (const Event& e : trace.events) builder.add(e);
  return builder.take_dependency();
}

std::vector<std::size_t> LockDependency::thread_prefix(
    ThreadId thread, std::size_t last_pos) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (tuples[i].thread != thread) continue;
    if (tuples[i].trace_pos > last_pos) break;
    out.push_back(i);
  }
  return out;
}

DependencyIndex DependencyIndex::build(const LockDependency& dep) {
  DependencyIndex index;
  index.dep_ = &dep;
  const std::size_t n = dep.tuples.size();

  // Count pass: each tuple lands once in its thread's sequence and once in
  // its (thread, lock) sequence, so the pool is exactly 2n entries.
  for (const LockTuple& t : dep.tuples) {
    ++index.by_thread_[t.thread].length;
    ++index.by_thread_lock_[key(t.thread, t.lock)].length;
  }
  index.pool_.resize(2 * n);

  // Offsets in first-appearance (trace) order, then the fill. Tuples are in
  // trace order, so each sequence comes out sorted by trace_pos for free.
  std::uint32_t next = 0;
  auto place = [&](Range& r, std::size_t i) {
    if (!r.assigned) {
      r.offset = next;
      next += r.length;
      r.assigned = true;
    }
    index.pool_[r.offset + r.filled++] = i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const LockTuple& t = dep.tuples[i];
    place(index.by_thread_[t.thread], i);
    place(index.by_thread_lock_[key(t.thread, t.lock)], i);
  }
  return index;
}

std::span<const std::size_t> DependencyIndex::prefix_of(
    const Range* range, std::size_t last_pos) const {
  if (range == nullptr) return {};
  const std::size_t* first = pool_.data() + range->offset;
  const std::size_t* last = first + range->length;
  auto end = std::upper_bound(
      first, last, last_pos,
      [&](std::size_t pos, std::size_t i) { return pos < dep_->tuples[i].trace_pos; });
  return {first, static_cast<std::size_t>(end - first)};
}

std::span<const std::size_t> DependencyIndex::thread_prefix(
    ThreadId thread, std::size_t last_pos) const {
  auto it = by_thread_.find(thread);
  return prefix_of(it == by_thread_.end() ? nullptr : &it->second, last_pos);
}

std::span<const std::size_t> DependencyIndex::thread_lock_prefix(
    ThreadId thread, LockId lock, std::size_t last_pos) const {
  auto it = by_thread_lock_.find(key(thread, lock));
  return prefix_of(it == by_thread_lock_.end() ? nullptr : &it->second,
                   last_pos);
}

}  // namespace wolf
