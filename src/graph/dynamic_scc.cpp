#include "graph/dynamic_scc.hpp"

#include <algorithm>

namespace wolf {

DynamicScc::Node DynamicScc::add_node() {
  const Node v = static_cast<Node>(out_.size());
  out_.emplace_back();
  in_.emplace_back();
  // A fresh isolated node is its own component with no order constraints;
  // park it after every existing position so no reorder is needed.
  members_.push_back({v});
  ord_.push_back(next_ord_++);
  stamp_.push_back(0);
  ++live_components_;
  comp_.push_back(static_cast<int>(members_.size()) - 1);
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

std::vector<int> DynamicScc::dirty_components() const {
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

bool DynamicScc::component_alive(int comp) const {
  return comp >= 0 && static_cast<std::size_t>(comp) < members_.size() &&
         !members_[static_cast<std::size_t>(comp)].empty();
}

void DynamicScc::clear() {
  out_.clear();
  in_.clear();
  comp_.clear();
  members_.clear();
  ord_.clear();
  live_components_ = 0;
  next_ord_ = 0;
  merges_ = 0;
  dirty_nodes_.clear();
  dirty_flag_.clear();
  stamp_.clear();
  stamp_gen_ = 0;
}

}  // namespace wolf
