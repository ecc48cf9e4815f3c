// Stable identifiers used across recording and replay.
//
// The paper (§4) assigns each thread a unique identifier during detection and
// reuses the same assignment strategy during replay so that corresponding
// threads can be identified across runs. We make that strategy deterministic:
// the main thread is id 0 and every spawned thread is named by its parent's
// id plus the parent's per-spawn counter, which is invariant under scheduling
// as long as the program's spawn structure is fixed.
//
// Locks are likewise named by their allocation site plus a per-site counter
// (the execution-index naming of [14] applied to allocation), so a lock can
// be matched with "the same" lock in a re-execution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace wolf {

using ThreadId = std::int32_t;  // 0 = main thread; -1 = invalid
using LockId = std::int32_t;    // dense per-program lock index; -1 = invalid
using SiteId = std::int32_t;    // static program location; -1 = invalid

inline constexpr ThreadId kInvalidThread = -1;
inline constexpr LockId kInvalidLock = -1;
inline constexpr SiteId kInvalidSite = -1;

// Thread ids are dense from 0 (see above), and analysis sizes per-thread
// state by the largest id it sees: vector clocks, held-lock stacks, and the
// Pruner's T×T clock matrix, which at this bound is about 8 MiB. An event
// naming a thread at or above it is malformed input (ClockTracker rejects
// it; a salvage read ends its prefix there). Every built-in program, test
// stream and benchmark stream uses fewer than 64 threads.
inline constexpr ThreadId kThreadIdBound = 1 << 10;

// Logical timestamp per Algorithm 1. kTsBottom (⊥) marks "thread not started"
// and unset vector-clock entries; live timestamps start at 1.
using Timestamp = std::int32_t;
inline constexpr Timestamp kTsBottom = 0;

// A static program location. The Java original reports file:line source
// locations; workloads in this repo register symbolic locations that play the
// same role (defect deduplication and replay site matching).
struct SourceLoc {
  std::string function;  // e.g. "SynchronizedList.equals"
  int line = 0;

  std::string to_string() const {
    return function + ":" + std::to_string(line);
  }

  friend bool operator==(const SourceLoc&, const SourceLoc&) = default;
};

// Registry of static sites. SiteIds are dense indices into this table.
// intern() sits on the instrumentation hot path (every workload op names a
// site), so lookups go through a hash index keyed on (function, line);
// ids are still assigned in first-intern order, so the dense numbering is
// identical to the linear-scan implementation this replaces.
class SiteTable {
 public:
  SiteId intern(const std::string& function, int line) {
    auto [it, inserted] = index_.try_emplace(Key{function, line}, size());
    if (inserted) locs_.push_back(SourceLoc{function, line});
    return it->second;
  }

  const SourceLoc& loc(SiteId id) const {
    WOLF_CHECK_MSG(id >= 0 && id < size(), "bad site id " << id);
    return locs_[static_cast<std::size_t>(id)];
  }

  SiteId size() const { return static_cast<SiteId>(locs_.size()); }

  std::string name(SiteId id) const {
    if (id == kInvalidSite) return "<none>";
    return loc(id).to_string();
  }

 private:
  using Key = std::pair<std::string, int>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::string>{}(k.first) * 1000003u ^
             static_cast<std::size_t>(k.second);
    }
  };

  std::vector<SourceLoc> locs_;
  std::unordered_map<Key, SiteId, KeyHash> index_;
};

}  // namespace wolf
