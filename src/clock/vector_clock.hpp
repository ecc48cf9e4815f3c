// (S, J)-pair vector clocks — the paper's §3.2 extension.
//
// Each thread t keeps a scalar timestamp τ_t (bumped on every start/join it
// performs) and a vector V_t of ordered pairs, one per thread t':
//
//   S = V_t(t').S : every operation of t' with timestamp < S always completes
//                   before t begins executing (no overlap possible).
//   J = V_t(t').J : every operation of t with timestamp >= J always executes
//                   after t' has been joined (no overlap possible).
//
// kTsBottom (⊥) marks unset entries. These clocks identify the maximal
// non-overlapping regions between thread pairs that follow from start/join
// edges; the Pruner consumes them.
#pragma once

#include <string>
#include <vector>

#include "trace/ids.hpp"

namespace wolf {

struct SJPair {
  Timestamp S = kTsBottom;
  Timestamp J = kTsBottom;

  friend bool operator==(const SJPair&, const SJPair&) = default;

  std::string to_string() const {
    auto fmt = [](Timestamp v) {
      return v == kTsBottom ? std::string("_") : std::to_string(v);
    };
    std::string s = "(";
    s += fmt(S);
    s += ',';
    s += fmt(J);
    s += ')';
    return s;
  }
};

// A growable vector of SJPairs indexed by ThreadId; entries default to (⊥,⊥).
class VectorClock {
 public:
  const SJPair& at(ThreadId t) const {
    static const SJPair kBottom{};
    if (t < 0 || static_cast<std::size_t>(t) >= pairs_.size()) return kBottom;
    return pairs_[static_cast<std::size_t>(t)];
  }

  SJPair& mutable_at(ThreadId t) {
    WOLF_CHECK(t >= 0);
    if (static_cast<std::size_t>(t) >= pairs_.size())
      pairs_.resize(static_cast<std::size_t>(t) + 1);
    return pairs_[static_cast<std::size_t>(t)];
  }

  std::size_t size() const { return pairs_.size(); }

  std::string to_string() const {
    std::string out = "<";
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (i != 0) out += ",";
      out += pairs_[i].to_string();
    }
    out += ">";
    return out;
  }

 private:
  std::vector<SJPair> pairs_;
};

}  // namespace wolf
