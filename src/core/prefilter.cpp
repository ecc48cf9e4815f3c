#include "core/prefilter.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "support/check.hpp"

namespace wolf {

namespace {
const obs::Counter kEdgesCounter("prefilter.edges");
const obs::Counter kChecksCounter("prefilter.checks");
const obs::Counter kExpiriesCounter("prefilter.edge_expiries");
}  // namespace

GuardMask lockset_mask(const std::vector<LockId>& lockset) {
  GuardMask mask;
  for (LockId l : lockset)
    mask.set(static_cast<std::size_t>(static_cast<std::uint32_t>(l)));
  return mask;
}

int LockGraph::intern(LockId lock) {
  auto [it, inserted] = lock_ids_.emplace(lock, static_cast<int>(locks_.size()));
  if (inserted) {
    locks_.push_back(lock);
    out_.emplace_back();
    scc_.add_node();  // dense node ids stay aligned with locks_
  }
  return it->second;
}

void LockGraph::on_tuple(const LockTuple& tuple) {
  if (tuple.lockset.empty()) return;  // top-of-stack acquisitions add no edge
  const int to = intern(tuple.lock);
  const GuardMask guards = lockset_mask(tuple.lockset);
  scc_.mark_dirty(to);
  for (LockId held : tuple.lockset) {
    const int from = intern(held);
    scc_.mark_dirty(from);
    std::vector<Edge>& edges = out_[static_cast<std::size_t>(from)];
    auto it = std::find_if(edges.begin(), edges.end(),
                           [&](const Edge& e) { return e.to == to; });
    if (it == edges.end()) {
      Edge e;
      e.to = to;
      e.refcount = 1;
      e.first_thread = tuple.thread;
      e.guard_mask = guards;
      edges.push_back(e);
      ++edge_count_;
      kEdgesCounter.add();
      scc_.add_edge(from, to);
      continue;
    }
    // Existing edge: count the contributor, widen the thread set, narrow the
    // guard intersection. The dirty marks above are unconditional because
    // every fed tuple is a new canonical one, even on an edge already here.
    ++it->refcount;
    if (it->first_thread != tuple.thread) it->multi_thread = true;
    it->guard_mask &= guards;
  }
}

void LockGraph::on_tuple_removed(const LockTuple& tuple) {
  if (tuple.lockset.empty()) return;
  auto to_it = lock_ids_.find(tuple.lock);
  WOLF_CHECK_MSG(to_it != lock_ids_.end(),
                 "on_tuple_removed: unknown request lock " << tuple.lock);
  const int to = to_it->second;
  for (LockId held : tuple.lockset) {
    auto from_it = lock_ids_.find(held);
    WOLF_CHECK_MSG(from_it != lock_ids_.end(),
                   "on_tuple_removed: unknown held lock " << held);
    const int from = from_it->second;
    std::vector<Edge>& edges = out_[static_cast<std::size_t>(from)];
    auto it = std::find_if(edges.begin(), edges.end(),
                           [&](const Edge& e) { return e.to == to; });
    WOLF_CHECK_MSG(it != edges.end() && it->refcount > 0,
                   "on_tuple_removed: edge " << held << "->" << tuple.lock
                                             << " has no live contributor");
    if (--it->refcount > 0) continue;  // survivors keep (stale, sound) masks
    edges.erase(it);
    --edge_count_;
    kExpiriesCounter.add();
    scc_.remove_edge(from, to);
    // An expiry can only shrink the component's cycle set, but the cached
    // verdict may now be stale-suspicious; mark so it gets re-evaluated.
    scc_.mark_dirty(from);
    scc_.mark_dirty(to);
  }
}

bool LockGraph::evaluate(int comp) const {
  const std::vector<DynamicScc::Node>& mem = scc_.members(comp);
  // A suspicious SCC spans >= 2 locks, its edges come from >= 2 distinct
  // threads, and no lock is held by every contributing tuple of every
  // internal edge (see header for why each test is sound).
  if (mem.size() < 2) return false;
  ThreadId first_thread = kInvalidThread;
  bool multi_thread = false;
  GuardMask common = GuardMask::all();
  for (DynamicScc::Node v : mem) {
    for (const Edge& e : out_[static_cast<std::size_t>(v)]) {
      if (scc_.component_of(e.to) != comp) continue;
      common &= e.guard_mask;
      if (e.multi_thread) {
        multi_thread = true;
      } else if (first_thread == kInvalidThread) {
        first_thread = e.first_thread;
      } else if (first_thread != e.first_thread) {
        multi_thread = true;
      }
    }
  }
  return multi_thread && !common.any();
}

void LockGraph::refresh_verdicts() const {
  if (!scc_.has_dirty()) return;
  kChecksCounter.add();
  // dirty_components() applies pending lazy splits first (they add their own
  // marks), so the label space is final before the cache is sized.
  const std::vector<int> dirty = scc_.dirty_components();
  comp_suspicious_.resize(scc_.component_capacity(), 0);
  for (int c : dirty) {
    char& flag = comp_suspicious_[static_cast<std::size_t>(c)];
    const char now = evaluate(c) ? 1 : 0;
    if (now && !flag) suspicious_.push_back(c);
    flag = now;
  }
  // Drop labels that turned benign or were retired by a merge or split.
  // Labels are never reused, so a retired label can never be counted again.
  std::size_t kept = 0;
  for (int c : suspicious_) {
    const auto ci = static_cast<std::size_t>(c);
    if (comp_suspicious_[ci] && scc_.component_alive(c)) {
      suspicious_[kept++] = c;
    } else {
      comp_suspicious_[ci] = 0;
    }
  }
  suspicious_.resize(kept);
}

bool LockGraph::suspicious() const {
  refresh_verdicts();
  return !suspicious_.empty();
}

std::size_t LockGraph::suspicious_scc_count() const {
  refresh_verdicts();
  return suspicious_.size();
}

std::vector<LockId> LockGraph::drain_dirty_suspicious_locks() {
  refresh_verdicts();
  std::vector<LockId> result;
  for (int comp : scc_.drain_dirty()) {
    if (!comp_suspicious_[static_cast<std::size_t>(comp)]) continue;
    for (DynamicScc::Node v : scc_.members(comp))
      result.push_back(locks_[static_cast<std::size_t>(v)]);
  }
  return result;
}

bool LockGraph::has_dirty() const { return scc_.has_dirty(); }

void LockGraph::clear() {
  lock_ids_.clear();
  locks_.clear();
  out_.clear();
  edge_count_ = 0;
  scc_.clear();
  comp_suspicious_.clear();
  suspicious_.clear();
}

}  // namespace wolf
