#include "core/lock_dependency.hpp"

#include <algorithm>
#include <sstream>

#include "obs/counters.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wolf {

namespace {

const obs::Counter kTuplesCounter("detector.tuples");

// Key hashing, shared by TupleKeyHash, key_hash and the builder's hashing
// of an arriving acquisition, so all three agree: mix the (thread, lock)
// word, then chain each context site.
std::uint64_t key_seed(ThreadId thread, LockId lock) {
  return mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(thread))
                << 32) ^
               static_cast<std::uint32_t>(lock));
}

std::uint64_t key_step(std::uint64_t h, SiteId site) {
  return mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(site)) +
                    0x9e3779b97f4a7c15ULL));
}

// TupleKeyHash{}(key_of(t)) and key_of(a) == key_of(b), computed on the
// tuples themselves: the builder's index never builds a TupleKey.
std::uint64_t key_hash(const LockTuple& t) {
  std::uint64_t h = key_seed(t.thread, t.lock);
  for (const ExecIndex& idx : t.context) h = key_step(h, idx.site);
  return h;
}

bool same_key(const LockTuple& a, const LockTuple& b) {
  if (a.thread != b.thread || a.lock != b.lock ||
      a.context.size() != b.context.size())
    return false;
  for (std::size_t i = 0; i < a.context.size(); ++i)
    if (a.context[i].site != b.context[i].site) return false;
  return true;
}

}  // namespace

std::size_t TupleKeyHash::operator()(const TupleKey& k) const {
  std::uint64_t h = key_seed(k.thread, k.lock);
  for (SiteId s : k.sites) h = key_step(h, s);
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
  const std::size_t i = static_cast<std::size_t>(thread);
  if (i >= held_.size()) held_.resize(i + 1);
  return held_[i];
}

void LockDependencyBuilder::add(const Event& e) {
  const std::size_t pos = pos_++;
  clocks_.apply(e);
  switch (e.kind) {
    case EventKind::kLockAcquire: {
      auto& stack = held_stack(e.thread);
      // Hash the key straight from the held stack and start fetching its
      // home slot, so the likely cache miss overlaps building the tuple.
      std::uint64_t hash = key_seed(e.thread, e.lock);
      for (const auto& held : stack) hash = key_step(hash, held.second.site);
      hash = key_step(hash, e.site);
      reserve_slot();
      __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
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
      const bool first = index_tuple(tuple, hash, dep_.tuples.size());
      dep_.tuples.push_back(std::move(tuple));
      canonical_.push_back(first);
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

void LockDependencyBuilder::reserve_slot() {
  if (4 * (dep_.unique.size() + 1) > 3 * slots_.size()) grow_index();
}

bool LockDependencyBuilder::index_tuple(const LockTuple& tuple,
                                        std::uint64_t hash, std::size_t pos) {
  const auto tag = static_cast<std::uint32_t>(hash);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.ordinal == kNoOrdinal) {
      WOLF_CHECK_MSG(dep_.unique.size() < kNoOrdinal,
                     "more canonical tuples than the index can number");
      slot.hash = tag;
      slot.ordinal = static_cast<std::uint32_t>(dep_.unique.size());
      dep_.unique.push_back(pos);
      return true;
    }
    if (slot.hash == tag &&
        same_key(dep_.tuples[dep_.unique[slot.ordinal]], tuple))
      return false;
  }
}

void LockDependencyBuilder::grow_index() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const std::size_t mask = slots_.size() - 1;
  // The stored hash places each slot again; no tuple is rehashed.
  for (const Slot& slot : old) {
    if (slot.ordinal == kNoOrdinal) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].ordinal != kNoOrdinal) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void LockDependencyBuilder::rebuild_index() {
  slots_.clear();
  dep_.unique.clear();
  canonical_.clear();
  for (std::size_t i = 0; i < dep_.tuples.size(); ++i) {
    reserve_slot();
    canonical_.push_back(
        index_tuple(dep_.tuples[i], key_hash(dep_.tuples[i]), i));
  }
}

LockDependency LockDependencyBuilder::take_dependency() {
  LockDependency out = std::move(dep_);
  dep_ = LockDependency{};
  slots_ = {};
  canonical_ = {};
  return out;
}

LockDependency LockDependencyBuilder::snapshot_subset(
    const std::vector<std::size_t>& indices) const {
  LockDependency sub;
  sub.tuples.reserve(indices.size());
  for (std::size_t i : indices) {
    if (canonical_[i]) sub.unique.push_back(sub.tuples.size());
    sub.tuples.push_back(dep_.tuples[i]);
  }
  return sub;
}

std::size_t LockDependencyBuilder::compact() {
  const std::size_t kept = dep_.unique.size();
  const std::size_t removed = dep_.tuples.size() - kept;
  // unique[k] >= k, so moving canonical k down to k never overwrites a
  // canonical tuple not yet moved.
  for (std::size_t k = 0; k < kept; ++k) {
    const std::size_t i = dep_.unique[k];
    if (i != k) dep_.tuples[k] = std::move(dep_.tuples[i]);
    dep_.unique[k] = k;
  }
  dep_.tuples.resize(kept);
  dep_.tuples.shrink_to_fit();
  canonical_.assign(kept, true);
  return removed;
}

std::size_t LockDependencyBuilder::evict_oldest(std::size_t max_tuples) {
  if (dep_.tuples.size() <= max_tuples) return 0;
  const std::size_t evicted = dep_.tuples.size() - max_tuples;
  // Tuples are in trace order, so the oldest are the front.
  dep_.tuples.erase(dep_.tuples.begin(),
                    dep_.tuples.begin() + static_cast<std::ptrdiff_t>(evicted));
  dep_.tuples.shrink_to_fit();
  rebuild_index();
  return evicted;
}

void LockDependencyBuilder::clear() {
  dep_ = LockDependency{};
  slots_ = {};
  canonical_ = {};
  clocks_ = ClockTracker{};
  held_.clear();
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
