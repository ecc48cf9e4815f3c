#include "core/prefilter.hpp"

#include <algorithm>

#include "obs/counters.hpp"

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

int LockGraph::node_of(LockId lock) const {
  auto it = lock_ids_.find(lock);
  return it == lock_ids_.end() ? -1 : it->second;
}

int LockGraph::on_tuple(const LockTuple& tuple) {
  if (tuple.lockset.empty()) return -1;  // top-of-stack acquisitions add no edge
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
      e.first_thread = tuple.thread;
      e.guard_mask = guards;
      edges.push_back(e);
      ++edge_count_;
      kEdgesCounter.add();
      scc_.add_edge(from, to);
      continue;
    }
    // Existing edge: widen the thread set, narrow the guard intersection.
    // The dirty marks above are unconditional because every fed tuple is a
    // new canonical one, even on an edge already here.
    if (it->first_thread != tuple.thread) it->multi_thread = true;
    it->guard_mask &= guards;
  }
  return to;
}

void LockGraph::rebuild(const LockDependency& dep) {
  std::vector<LockId> carried;
  carried.reserve(scc_.dirty_nodes().size());
  for (DynamicScc::Node v : scc_.dirty_nodes()) carried.push_back(lock_of(v));
  kExpiriesCounter.add(edge_count_);
  clear();
  for (std::size_t i : dep.unique) on_tuple(dep.tuples[i]);
  // Every node is new and marked: evaluate each component once, then keep
  // only the carried marks.
  refresh_verdicts();
  (void)scc_.drain_dirty();
  for (LockId lock : carried) {
    const int node = node_of(lock);
    if (node >= 0) scc_.mark_dirty(node);
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
  const std::vector<int> dirty = scc_.dirty_components();
  comp_suspicious_.resize(scc_.component_capacity(), 0);
  for (int c : dirty) {
    char& flag = comp_suspicious_[static_cast<std::size_t>(c)];
    const char now = evaluate(c) ? 1 : 0;
    if (now && !flag) suspicious_.push_back(c);
    flag = now;
  }
  // Drop labels that turned benign or were retired by a merge. Labels are
  // not reused until a rebuild clears them all, so a retired label can
  // never be counted again.
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

std::vector<int> LockGraph::drain_dirty_suspicious_nodes() {
  refresh_verdicts();
  std::vector<int> result;
  for (int comp : scc_.drain_dirty()) {
    if (!comp_suspicious_[static_cast<std::size_t>(comp)]) continue;
    const std::vector<DynamicScc::Node>& members = scc_.members(comp);
    result.insert(result.end(), members.begin(), members.end());
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
