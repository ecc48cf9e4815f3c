// The lock dependency relation D_σ (paper §3.1–3.2).
//
// During execution σ, when thread t acquires lock ℓ while holding the locks
// L_t (acquired at the execution indices C_t) at timestamp τ_t, the tuple
// η = (t, L_t, ℓ, C_t, τ_t) is added to D_σ. This module rebuilds D_σ
// offline from a recorded trace, running a ClockTracker alongside to stamp
// each tuple with the acquiring thread's timestamp — i.e. the "Extended
// Dynamic Cycle Detector" data of Algorithm 1 without re-executing anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clock/clock_tracker.hpp"
#include "trace/event.hpp"
#include "trace/exec_index.hpp"
#include "trace/ids.hpp"

namespace wolf {

struct LockTuple {
  ThreadId thread = kInvalidThread;
  // Locks held at the acquisition, in acquisition order (the paper's L_t).
  std::vector<LockId> lockset;
  LockId lock = kInvalidLock;  // the lock being acquired
  // Execution indices of the lockset acquisitions, in the same order as
  // `lockset`, followed by the index of this acquisition itself (the paper's
  // C_t; cf. Fig. 5 where η1 = (1,{},ℓ1,{11})).
  std::vector<ExecIndex> context;
  Timestamp tau = kTsBottom;   // τ_t at the acquisition (§3.2)
  std::size_t trace_pos = 0;   // position of the acquire event in the trace

  // µ (paper §3.1): maps each lock in the lockset — and the acquired lock
  // itself — to its execution index.
  ExecIndex mu(LockId l) const;

  bool holds(LockId l) const;
  const ExecIndex& acquire_index() const { return context.back(); }

  std::string to_string() const;
};

// Dedup key of a tuple: its thread, acquired lock, and context site
// signature. Tuples with equal keys are duplicates — `unique` keeps the
// first of them and compaction drops the rest. Equality is exact; the hash
// only indexes. LockDependencyBuilder hashes and compares the tuples
// themselves, the same way, and never builds one of these; live cycle
// dedup (core/governor) keys on them.
struct TupleKey {
  ThreadId thread = kInvalidThread;
  LockId lock = kInvalidLock;
  std::vector<SiteId> sites;

  friend bool operator==(const TupleKey&, const TupleKey&) = default;
};

struct TupleKeyHash {
  std::size_t operator()(const TupleKey& k) const;
};

TupleKey key_of(const LockTuple& t);

struct LockDependency {
  // Every top-level acquisition of the trace, in trace order.
  std::vector<LockTuple> tuples;
  // Indices into `tuples` of the canonical (first-occurrence) tuples after
  // deduplication by (thread, lock, context sites): repeated executions of
  // the same code path produce one representative, exactly as iGoodLock's
  // set-based D_σ collapses them. Cycle enumeration runs over this view;
  // the Generator walks the full sequence. LockDependencyBuilder keeps it
  // current as tuples arrive.
  std::vector<std::size_t> unique;

  static LockDependency from_trace(const Trace& trace);

  // Tuples of `thread` up to and including position `last_pos` in trace
  // order — the paper's D'_σ restricted to one thread.
  std::vector<std::size_t> thread_prefix(ThreadId thread,
                                         std::size_t last_pos) const;
};

// Incremental construction of D_σ plus the τ/V clock state, one event at a
// time. This is the single build path behind LockDependency::from_trace
// (offline), OnlineAnalysisSink (during execution), detect_reader and every
// wolf::Session (block-by-block off a TraceReader) — because all of them
// feed the same builder, batch and streaming detection cannot diverge.
//
// `unique` is kept at insert: a flat open-addressing index (linear probing)
// maps each key to its canonical ordinal k (the tuple at
// pending().unique[k]). A slot holds the key hash's low 32 bits and k; a
// probe compares hashes first and then the stored tuple's fields, so each
// tuple is hashed once, on arrival, and an insert allocates nothing beyond
// amortized growth.
class LockDependencyBuilder {
 public:
  // Feeds the next event in trace order. Clocks are applied before any tuple
  // is constructed (Algorithm 1 order); the tuple's trace_pos is the running
  // event position — the vector index for a materialized trace, equivalently
  // the dense sequence number of a recorder-produced stream.
  void add(const Event& e);

  std::size_t tuple_count() const { return dep_.tuples.size(); }
  std::size_t events_seen() const { return pos_; }
  const ClockTracker& clocks() const { return clocks_; }

  // Moves the relation out (`unique` is already current) and starts a new,
  // empty one. The clock state and held-lock stacks stay in place, so
  // callers can still read clocks() afterwards; clear() resets everything.
  LockDependency take_dependency();
  void clear();

  // ---- governed-store surface (core/governor.hpp) -----------------------
  // The accumulating relation, read-only, `unique` current through the
  // last add(): a tuple is canonical iff it is the first retained one of
  // its key.
  const LockDependency& pending() const { return dep_; }

  // Copy of just the tuples at `indices` (ascending positions into
  // pending().tuples); `unique` marks the canonical ones. `indices` must be
  // closed under TupleKey — every retained tuple of each key it touches,
  // e.g. all tuples of some request locks — so that the canonical tuples
  // are exactly the first occurrences within the subset. The governor
  // enumerates dirty-SCC tuple subsets through this instead of
  // snapshotting the whole store.
  LockDependency snapshot_subset(const std::vector<std::size_t>& indices) const;

  // Site-table compaction: drops every non-canonical duplicate tuple,
  // keeping exactly `unique` in order — canonical k lands at position k, so
  // the index and every canonical ordinal stay as they were. Cycle
  // enumeration runs over the canonical view only, so the cycle set is
  // unchanged; returns the number of tuples removed.
  std::size_t compact();

  // Aging: drops the *oldest* tuples until at most `max_tuples` remain, and
  // rebuilds the index over the rest (a later tuple of an evicted key
  // becomes canonical). Lossy — evicted tuples can carry cycles — so
  // callers must surface the returned count as lost coverage. Nothing is
  // told which tuples went: state derived from the store is re-read from
  // pending() afterwards (the governor re-keys its by-lock index, and its
  // insert-only lock graph stays a sound superset until it is rebuilt).
  // Clock and held-lock state are untouched (they are O(threads + locks),
  // not O(trace)).
  std::size_t evict_oldest(std::size_t max_tuples);

 private:
  // Per-thread held-lock state: (lock, acquisition index), acquisition order.
  using HeldStack = std::vector<std::pair<LockId, ExecIndex>>;
  HeldStack& held_stack(ThreadId thread);

  // One index slot: the low 32 bits of key_hash and the canonical ordinal,
  // kNoOrdinal when empty.
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t ordinal = kNoOrdinal;
  };
  static constexpr std::uint32_t kNoOrdinal = 0xffffffffu;

  // Indexes `tuple`, about to be stored at `pos`, under its key's hash: a
  // new key gets the next ordinal and `pos` joins `unique`. Returns whether
  // it is canonical. The caller reserves the slot first.
  bool index_tuple(const LockTuple& tuple, std::uint64_t hash,
                   std::size_t pos);
  // Grows the index when one more key would fill it past 3/4.
  void reserve_slot();
  void grow_index();
  // Drops the index and `unique` and re-indexes every stored tuple.
  void rebuild_index();

  LockDependency dep_;
  std::vector<Slot> slots_;      // power-of-two size, at most 3/4 full
  std::vector<bool> canonical_;  // per stored tuple: in `unique`?
  ClockTracker clocks_;
  // Indexed by thread id: clocks_ rejects ids outside [0, kThreadIdBound)
  // before an event reaches them.
  std::vector<HeldStack> held_;
  std::size_t pos_ = 0;
};

// Trace-level scaffolding shared by every Gs the Generator builds for one
// Detection (DESIGN.md §10). The per-thread and per-(thread, lock)
// acquisition orders depend only on the trace, not on the cycle under
// classification, so they are computed once and every generate() call
// slices them by the cycle's cutoff positions instead of rescanning the
// whole tuple sequence. Read-only after build(): safe to share across the
// parallel classification workers.
//
// Storage is one pool of 2n entries: every per-key sequence is an
// offset+length range into a single contiguous vector instead of its own
// heap vector, so build() does one large allocation rather than
// O(threads + thread·lock pairs) small ones. Move-only (the spans handed
// out point into the pool, whose buffer a move carries over).
class DependencyIndex {
 public:
  static DependencyIndex build(const LockDependency& dep);

  DependencyIndex(DependencyIndex&&) = default;
  DependencyIndex& operator=(DependencyIndex&&) = default;

  // Indices of `thread`'s tuples with trace_pos <= last_pos, in trace order —
  // the same sequence LockDependency::thread_prefix returns, as a view.
  std::span<const std::size_t> thread_prefix(ThreadId thread,
                                             std::size_t last_pos) const;

  // Indices of `thread`'s acquisitions *of* `lock` (tuple.lock == lock) with
  // trace_pos <= last_pos, in trace order. Powers the Generator's type-C
  // source enumeration.
  std::span<const std::size_t> thread_lock_prefix(ThreadId thread, LockId lock,
                                                  std::size_t last_pos) const;

 private:
  DependencyIndex() = default;

  // One per-key sequence: pool_[offset, offset + length). `filled` is
  // build()'s write cursor and equals length afterwards.
  struct Range {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint32_t filled = 0;
    bool assigned = false;
  };

  std::span<const std::size_t> prefix_of(const Range* range,
                                         std::size_t last_pos) const;

  const LockDependency* dep_ = nullptr;  // not owned; must outlive the index
  std::vector<std::size_t> pool_;  // all sequences, concatenated
  std::unordered_map<ThreadId, Range> by_thread_;
  std::unordered_map<std::uint64_t, Range>
      by_thread_lock_;  // key: (thread, lock) packed

  static std::uint64_t key(ThreadId thread, LockId lock) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(thread))
            << 32) |
           static_cast<std::uint32_t>(lock);
  }
};

}  // namespace wolf
