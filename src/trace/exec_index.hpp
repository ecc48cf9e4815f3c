// Execution indices — the paper's cross-run identification of dynamic
// instructions (§3.1 footnote 2: "Identifies instructions, objects and
// threads across runs").
//
// An ExecIndex names the k-th dynamic execution of static site `site` by
// thread `thread`. Because thread ids are themselves stable across runs (see
// ids.hpp), an ExecIndex recorded during detection denotes the same dynamic
// instruction during replay, which is what lets the Generator's
// synchronization dependency graph constrain a *re-execution*.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

#include "trace/ids.hpp"

namespace wolf {

struct ExecIndex {
  ThreadId thread = kInvalidThread;
  SiteId site = kInvalidSite;
  std::int32_t occurrence = 0;  // 0-based per (thread, site) counter

  friend bool operator==(const ExecIndex&, const ExecIndex&) = default;
  friend auto operator<=>(const ExecIndex& a, const ExecIndex& b) {
    return std::tie(a.thread, a.site, a.occurrence) <=>
           std::tie(b.thread, b.site, b.occurrence);
  }

  bool valid() const { return thread != kInvalidThread && site != kInvalidSite; }

  std::string to_string() const {
    std::string s = "t";
    s += std::to_string(thread);
    s += "@s";
    s += std::to_string(site);
    if (occurrence != 0) {
      s += '#';
      s += std::to_string(occurrence);
    }
    return s;
  }
};

struct ExecIndexHash {
  std::size_t operator()(const ExecIndex& e) const {
    std::size_t h = std::hash<std::int64_t>{}(
        (static_cast<std::int64_t>(e.thread) << 40) ^
        (static_cast<std::int64_t>(e.site) << 16) ^ e.occurrence);
    return h;
  }
};

}  // namespace wolf
