#include "graph/dynamic_scc.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace wolf {

int DynamicScc::new_component_label() const {
  members_.emplace_back();
  ord_.push_back(0);
  pending_flag_.push_back(0);
  stamp_.push_back(0);
  return static_cast<int>(members_.size()) - 1;
}

DynamicScc::Node DynamicScc::add_node() {
  const Node v = static_cast<Node>(out_.size());
  out_.emplace_back();
  in_.emplace_back();
  const int label = new_component_label();
  members_[static_cast<std::size_t>(label)].push_back(v);
  // A fresh isolated node has no order constraints; park it after every
  // existing position so no reorder is needed.
  ord_[static_cast<std::size_t>(label)] = next_ord_++;
  ++live_components_;
  comp_.push_back(label);
  dirty_flag_.push_back(0);
  mark_dirty(v);
  return v;
}

void DynamicScc::mark_dirty(Node v) {
  const auto vi = static_cast<std::size_t>(v);
  if (dirty_flag_[vi]) return;
  dirty_flag_[vi] = 1;
  dirty_nodes_.push_back(v);
}

bool DynamicScc::has_dirty() const {
  return !dirty_nodes_.empty() || !pending_split_.empty();
}

std::vector<int> DynamicScc::dirty_components() const {
  flush();
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<int> comps;
  for (Node v : dirty_nodes_) {
    const int c = comp_[static_cast<std::size_t>(v)];
    const auto ci = static_cast<std::size_t>(c);
    if (stamp_[ci] == gen) continue;
    stamp_[ci] = gen;
    comps.push_back(c);
  }
  return comps;
}

std::vector<int> DynamicScc::drain_dirty() {
  std::vector<int> comps = dirty_components();
  for (Node v : dirty_nodes_) dirty_flag_[static_cast<std::size_t>(v)] = 0;
  dirty_nodes_.clear();
  return comps;
}

void DynamicScc::bounded_search(int start, std::int64_t lo, std::int64_t hi,
                                bool forward,
                                std::vector<int>& visited) const {
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<int> stack{start};
  stamp_[static_cast<std::size_t>(start)] = gen;
  while (!stack.empty()) {
    const int c = stack.back();
    stack.pop_back();
    visited.push_back(c);
    for (Node v : members_[static_cast<std::size_t>(c)]) {
      const auto& adj =
          forward ? out_[static_cast<std::size_t>(v)] : in_[static_cast<std::size_t>(v)];
      for (Node w : adj) {
        const int cw = comp_[static_cast<std::size_t>(w)];
        const auto cwi = static_cast<std::size_t>(cw);
        if (cw == c || stamp_[cwi] == gen) continue;
        if (ord_[cwi] < lo || ord_[cwi] > hi) continue;
        stamp_[cwi] = gen;
        stack.push_back(cw);
      }
    }
  }
}

bool DynamicScc::add_edge(Node u, Node v) {
  flush();
  out_[static_cast<std::size_t>(u)].push_back(v);
  in_[static_cast<std::size_t>(v)].push_back(u);
  const int cu = comp_[static_cast<std::size_t>(u)];
  const int cv = comp_[static_cast<std::size_t>(v)];
  if (cu == cv) return false;  // intra-component (incl. self loops): no change
  const std::int64_t ou = ord_[static_cast<std::size_t>(cu)];
  const std::int64_t ov = ord_[static_cast<std::size_t>(cv)];
  // Order already consistent with the new edge — the common case, O(1).
  if (ou < ov) return false;

  // Bounded discovery (Pearce–Kelly): every component on a cv→…→cu path has
  // its order inside [ov, ou] (the order was valid before this edge), so two
  // searches restricted to that range see everything that matters.
  std::vector<int> forward_set, backward_set;
  bounded_search(cv, ov, ou, /*forward=*/true, forward_set);
  bounded_search(cu, ov, ou, /*forward=*/false, backward_set);

  std::sort(forward_set.begin(), forward_set.end());
  std::sort(backward_set.begin(), backward_set.end());
  std::vector<int> on_cycle;
  std::set_intersection(forward_set.begin(), forward_set.end(),
                        backward_set.begin(), backward_set.end(),
                        std::back_inserter(on_cycle));
  // Ancestors of cu and descendants of cv that the edge leaves outside
  // the cycle (all of them when it closes none).
  std::vector<int> ancestors, descendants;
  std::set_difference(backward_set.begin(), backward_set.end(),
                      on_cycle.begin(), on_cycle.end(),
                      std::back_inserter(ancestors));
  std::set_difference(forward_set.begin(), forward_set.end(),
                      on_cycle.begin(), on_cycle.end(),
                      std::back_inserter(descendants));

  // Every affected component's position, each once (all lie in [ov, ou]).
  std::vector<std::int64_t> pool;
  pool.reserve(ancestors.size() + on_cycle.size() + descendants.size());
  for (const auto* set : {&ancestors, &on_cycle, &descendants})
    for (int c : *set) pool.push_back(ord_[static_cast<std::size_t>(c)]);
  std::sort(pool.begin(), pool.end());

  int merged = -1;
  if (!on_cycle.empty()) {
    // cv reaches cu: the new edge closes a cycle through exactly the
    // components in the intersection. Collapse them into the one with the
    // most members (smaller-into-larger keeps total relabel work
    // O(n log n) over the graph's lifetime).
    ++merges_;
    merged = on_cycle.front();
    for (int c : on_cycle)
      if (members_[static_cast<std::size_t>(c)].size() >
          members_[static_cast<std::size_t>(merged)].size())
        merged = c;
    auto& into = members_[static_cast<std::size_t>(merged)];
    for (int c : on_cycle) {
      if (c == merged) continue;
      for (Node m : members_[static_cast<std::size_t>(c)]) {
        comp_[static_cast<std::size_t>(m)] = merged;
        into.push_back(m);
        mark_dirty(m);
      }
      members_[static_cast<std::size_t>(c)].clear();
      members_[static_cast<std::size_t>(c)].shrink_to_fit();
      --live_components_;
    }
    mark_dirty(u);  // the merged component's membership changed
    mark_dirty(v);
  }

  // Restore the order on the positions the affected components held:
  // ancestors take the smallest (keeping their relative order), then the
  // merged component if there is one (the cycle holds at least cu and cv,
  // so its slot is free), then descendants the largest. Each ancestor moves
  // down and each descendant up, so edges to and from unaffected
  // components stay forward, and the merged component stays inside
  // [ov, ou]. No descendant→ancestor edge exists: it would close a cycle
  // and put both on it (PK Thm. 1, extended to the collapse). Local work
  // only — no pass over every label ever created.
  auto by_ord = [&](int a, int b) {
    return ord_[static_cast<std::size_t>(a)] < ord_[static_cast<std::size_t>(b)];
  };
  std::sort(ancestors.begin(), ancestors.end(), by_ord);
  std::sort(descendants.begin(), descendants.end(), by_ord);
  std::size_t slot = 0;
  for (int c : ancestors) ord_[static_cast<std::size_t>(c)] = pool[slot++];
  if (merged >= 0) ord_[static_cast<std::size_t>(merged)] = pool[slot];
  slot = pool.size() - descendants.size();
  for (int c : descendants) ord_[static_cast<std::size_t>(c)] = pool[slot++];
  return merged >= 0;
}

void DynamicScc::remove_edge(Node u, Node v) {
  auto& succ = out_[static_cast<std::size_t>(u)];
  auto it = std::find(succ.begin(), succ.end(), v);
  WOLF_CHECK_MSG(it != succ.end(),
                 "DynamicScc::remove_edge: edge " << u << "->" << v
                                                  << " not present");
  succ.erase(it);
  auto& pred = in_[static_cast<std::size_t>(v)];
  pred.erase(std::find(pred.begin(), pred.end(), u));

  const int cu = comp_[static_cast<std::size_t>(u)];
  if (cu != comp_[static_cast<std::size_t>(v)])
    return;  // cross-component: drops a constraint, never splits or reorders
  // Intra-component: the SCC may have split. Queue a bounded rebuild of this
  // component only; a batch of expiries pays one rebuild per touched
  // component when the next read flushes.
  const auto cui = static_cast<std::size_t>(cu);
  if (!pending_flag_[cui]) {
    pending_flag_[cui] = 1;
    pending_split_.push_back(cu);
  }
}

void DynamicScc::rebuild_component(int comp) const {
  const auto ci = static_cast<std::size_t>(comp);
  if (members_[ci].size() < 2) return;  // singletons cannot split
  std::vector<std::vector<Node>> sccs = tarjan_over(members_[ci]);
  if (sccs.size() < 2) return;  // still strongly connected
  ++splits_;
  // Keep the old label for the largest piece (least relabel churn), fresh
  // labels for the rest. Every member is dirty: its component's membership
  // changed, so consumers must re-examine the tuples hanging off it.
  std::size_t largest = 0;
  for (std::size_t i = 1; i < sccs.size(); ++i)
    if (sccs[i].size() > sccs[largest].size()) largest = i;
  for (std::size_t i = 0; i < sccs.size(); ++i) {
    int label = comp;
    if (i != largest) {
      label = new_component_label();
      ord_[static_cast<std::size_t>(label)] = next_ord_++;  // fixed by caller
      ++live_components_;
    }
    members_[static_cast<std::size_t>(label)] = sccs[i];
    for (Node m : sccs[i]) {
      comp_[static_cast<std::size_t>(m)] = label;
      const_cast<DynamicScc*>(this)->mark_dirty(m);
    }
  }
}

void DynamicScc::flush() const {
  if (pending_split_.empty()) return;
  const std::size_t splits_before = splits_;
  for (int comp : pending_split_) {
    pending_flag_[static_cast<std::size_t>(comp)] = 0;
    rebuild_component(comp);
  }
  pending_split_.clear();
  // A split changed the condensation's shape; one global order pass keeps
  // every position consistent (cheap: the condensation is the lock graph's,
  // orders of magnitude smaller than the tuple store this layer gates).
  if (splits_ != splits_before) recompute_order();
}

void DynamicScc::recompute_order() const {
  ++order_rebuilds_;
  // Iterative DFS over the condensation; reverse postorder = topological
  // order (the condensation is acyclic by construction).
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<int> postorder;
  postorder.reserve(live_components_);
  std::vector<std::pair<int, std::size_t>> frames;  // (comp, member+edge cursor)
  for (std::size_t root = 0; root < members_.size(); ++root) {
    if (members_[root].empty()) continue;
    const int rc = static_cast<int>(root);
    if (stamp_[root] == gen) continue;
    stamp_[root] = gen;
    frames.emplace_back(rc, 0);
    while (!frames.empty()) {
      auto& [c, cursor] = frames.back();
      const auto& nodes = members_[static_cast<std::size_t>(c)];
      // Flattened (member, successor) cursor over the component's out edges.
      bool descended = false;
      std::size_t seen = 0;
      for (Node m : nodes) {
        const auto& succ = out_[static_cast<std::size_t>(m)];
        if (cursor >= seen + succ.size()) {
          seen += succ.size();
          continue;
        }
        while (cursor < seen + succ.size()) {
          const Node w = succ[cursor - seen];
          ++cursor;
          const int cw = comp_[static_cast<std::size_t>(w)];
          const auto cwi = static_cast<std::size_t>(cw);
          if (cw == c || stamp_[cwi] == gen) continue;
          stamp_[cwi] = gen;
          frames.emplace_back(cw, 0);
          descended = true;
          break;
        }
        if (descended) break;
        seen += succ.size();
      }
      if (descended) continue;
      postorder.push_back(c);
      frames.pop_back();
    }
  }
  std::int64_t position = static_cast<std::int64_t>(postorder.size());
  for (int c : postorder)
    ord_[static_cast<std::size_t>(c)] = --position >= 0
                                            ? position
                                            : 0;  // descending: reverse postorder
  next_ord_ = static_cast<std::int64_t>(postorder.size());
}

std::vector<std::vector<DynamicScc::Node>> DynamicScc::tarjan_over(
    const std::vector<Node>& nodes) const {
  // Iterative Tarjan restricted to `nodes` (empty = every node); edges with
  // an endpoint outside the set are ignored.
  const int n = static_cast<int>(out_.size());
  std::vector<std::vector<Node>> sccs;
  if (n == 0) return sccs;
  std::vector<int> index(static_cast<std::size_t>(n), -1);
  std::vector<int> low(static_cast<std::size_t>(n), 0);
  std::vector<char> on_stack(static_cast<std::size_t>(n), 0);
  std::vector<char> in_set;
  const bool restricted = !nodes.empty() &&
                          nodes.size() != static_cast<std::size_t>(n);
  if (restricted) {
    in_set.assign(static_cast<std::size_t>(n), 0);
    for (Node v : nodes) in_set[static_cast<std::size_t>(v)] = 1;
  }
  auto included = [&](Node v) {
    return !restricted || in_set[static_cast<std::size_t>(v)] != 0;
  };
  std::vector<Node> stack;
  std::vector<std::pair<Node, std::size_t>> frames;
  int next_index = 0;
  auto roots = nodes;
  if (roots.empty())
    for (Node v = 0; v < n; ++v) roots.push_back(v);
  for (Node root : roots) {
    if (index[static_cast<std::size_t>(root)] != -1) continue;
    frames.emplace_back(root, 0);
    while (!frames.empty()) {
      auto& [v, cursor] = frames.back();
      const auto vi = static_cast<std::size_t>(v);
      if (cursor == 0) {
        index[vi] = low[vi] = next_index++;
        stack.push_back(v);
        on_stack[vi] = 1;
      }
      const auto& succ = out_[vi];
      if (cursor < succ.size()) {
        const Node w = succ[cursor++];
        const auto wi = static_cast<std::size_t>(w);
        if (!included(w)) continue;
        if (index[wi] == -1) {
          frames.emplace_back(w, 0);
        } else if (on_stack[wi]) {
          low[vi] = std::min(low[vi], index[wi]);
        }
        continue;
      }
      if (low[vi] == index[vi]) {
        sccs.emplace_back();
        for (;;) {
          const Node w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = 0;
          sccs.back().push_back(w);
          if (w == v) break;
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const auto pi = static_cast<std::size_t>(frames.back().first);
        low[pi] = std::min(low[pi], low[vi]);
      }
    }
  }
  return sccs;
}

std::vector<std::vector<DynamicScc::Node>> DynamicScc::tarjan_components()
    const {
  flush();
  return tarjan_over({});
}

int DynamicScc::component_of(Node v) const {
  flush();
  return comp_[static_cast<std::size_t>(v)];
}

bool DynamicScc::same_component(Node u, Node v) const {
  flush();
  return comp_[static_cast<std::size_t>(u)] == comp_[static_cast<std::size_t>(v)];
}

std::size_t DynamicScc::component_count() const {
  flush();
  return live_components_;
}

const std::vector<DynamicScc::Node>& DynamicScc::members(int comp) const {
  flush();
  return members_[static_cast<std::size_t>(comp)];
}

bool DynamicScc::component_alive(int comp) const {
  flush();
  return comp >= 0 && static_cast<std::size_t>(comp) < members_.size() &&
         !members_[static_cast<std::size_t>(comp)].empty();
}

std::size_t DynamicScc::component_capacity() const {
  flush();
  return members_.size();
}

std::int64_t DynamicScc::order_of(int comp) const {
  flush();
  return ord_[static_cast<std::size_t>(comp)];
}

void DynamicScc::clear() {
  out_.clear();
  in_.clear();
  comp_.clear();
  members_.clear();
  ord_.clear();
  live_components_ = 0;
  pending_split_.clear();
  pending_flag_.clear();
  dirty_nodes_.clear();
  dirty_flag_.clear();
  stamp_.clear();
  stamp_gen_ = 0;
  next_ord_ = 0;
  merges_ = 0;
  splits_ = 0;
  order_rebuilds_ = 0;
}

}  // namespace wolf
