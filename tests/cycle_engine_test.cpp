// Differential tests of the SCC cycle engine against the reference DFS
// (DESIGN.md §12):
//
//   equivalence — the SCC engine emits the bit-identical cycle sequence of
//                 enumerate_cycles_reference, over fixed workloads, the
//                 layered/mixed/phased lock shapes and randomized programs,
//                 and at the max_cycles cap;
//   truncation  — Detection::truncated/cycle_cap surface the cap identically
//                 in both engines, and detector.cycles counts exactly the
//                 cap;
//   memory      — lockset masks are sized by the nontrivial SCCs searched,
//                 never by the largest lock id (detector.mask_words).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/cycle_engine.hpp"
#include "core/detector.hpp"
#include "core/pruner.hpp"
#include "graph/digraph.hpp"
#include "obs/counters.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/suite.hpp"

namespace wolf {
namespace {

DetectorOptions options_for(std::size_t max_cycles = 100000) {
  DetectorOptions options;
  options.max_cycles = max_cycles;
  return options;
}

void expect_same_cycles(const std::vector<PotentialDeadlock>& a,
                        const std::vector<PotentialDeadlock>& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].tuple_idx, b[i].tuple_idx) << what << " cycle " << i;
}

// Detections must agree bit-for-bit in everything enumeration controls.
void expect_equivalent(const Detection& a, const Detection& b,
                       const char* what) {
  expect_same_cycles(a.cycles, b.cycles, what);
  EXPECT_EQ(a.truncated, b.truncated) << what;
  EXPECT_EQ(a.cycle_cap, b.cycle_cap) << what;
  ASSERT_EQ(a.defects.size(), b.defects.size()) << what;
  for (std::size_t i = 0; i < a.defects.size(); ++i) {
    EXPECT_EQ(a.defects[i].signature, b.defects[i].signature) << what;
    EXPECT_EQ(a.defects[i].cycle_idx, b.defects[i].cycle_idx) << what;
  }
}

// The oracle: the Detection finish_detection would build, with the cycles
// enumerated by the reference DFS instead of the SCC engine.
Detection reference_detection(const Trace& trace,
                              std::size_t max_cycles = 100000) {
  Detection det;
  det.dep = LockDependency::from_trace(trace);
  EnumerationResult res =
      enumerate_cycles_reference(det.dep, options_for(max_cycles));
  det.cycles = std::move(res.cycles);
  det.truncated = res.truncated;
  det.cycle_cap = res.truncated ? max_cycles : 0;
  det.defects = group_defects(det.cycles, det.dep);
  return det;
}

// Runs the reference and scc on one trace and asserts bit-identity; returns
// the reference detection for further checks.
Detection check_engines_agree(const Trace& trace,
                              std::size_t max_cycles = 100000) {
  Detection ref = reference_detection(trace, max_cycles);
  Detection scc = detect(trace, options_for(max_cycles));
  expect_equivalent(ref, scc, "reference vs scc");
  return ref;
}

Trace record_workload(const char* name) {
  for (workloads::Benchmark& b : workloads::standard_suite())
    if (b.name == name) {
      auto trace = sim::record_trace(b.program, 2014, 60);
      EXPECT_TRUE(trace.has_value()) << name;
      return trace.value_or(Trace{});
    }
  ADD_FAILURE() << "unknown workload " << name;
  return {};
}

TEST(CycleEngineTest, EnginesAgreeOnSuiteWorkloads) {
  for (const char* name : {"HashMap", "ArrayList", "TreeMap", "Stack"}) {
    SCOPED_TRACE(name);
    Trace trace = record_workload(name);
    if (trace.empty()) continue;
    Detection ref = check_engines_agree(trace);
    EXPECT_FALSE(ref.truncated);
    EXPECT_EQ(ref.cycle_cap, 0u);
  }
}

TEST(CycleEngineTest, EnginesAgreeOnPhilosophersRing) {
  // A 5-ring: one big nontrivial SCC, cycle length = ring size.
  auto program = workloads::make_philosophers(5).program;
  auto trace = sim::record_trace(program, 7, 60);
  ASSERT_TRUE(trace.has_value());
  Detection ref = check_engines_agree(*trace);
  EXPECT_FALSE(ref.cycles.empty());
}

TEST(CycleEngineTest, TruncationIsIdenticalAcrossEnginesAndJobs) {
  Trace trace = record_workload("HashMap");
  ASSERT_FALSE(trace.empty());
  Detection full = reference_detection(trace);
  ASSERT_GE(full.cycles.size(), 2u) << "workload too small for a cap test";

  for (std::size_t cap = 1; cap <= full.cycles.size(); ++cap) {
    SCOPED_TRACE(cap);
    Detection ref = check_engines_agree(trace, cap);
    EXPECT_EQ(ref.cycles.size(), cap);
    EXPECT_TRUE(ref.truncated);
    EXPECT_EQ(ref.cycle_cap, cap);
    // One serial search stops at the cap, so the counter is exact.
    EXPECT_EQ(test::counter_delta(
                  [&] { detect(trace, options_for(cap)); })
                  .value("detector.cycles"),
              cap);
    // The capped enumeration is the prefix of the full one.
    for (std::size_t i = 0; i < cap; ++i)
      EXPECT_EQ(ref.cycles[i].tuple_idx, full.cycles[i].tuple_idx);
  }
}

// The layered, mixed and phased lock shapes, small enough for the reference
// DFS to take milliseconds (the ring shape is the philosophers ring above).
test::LockShapeConfig layered_shape() {
  test::LockShapeConfig config;
  config.layered_threads = 16;
  config.layered_locks = 20;
  config.layered_pairs = 6;
  return config;
}

test::LockShapeConfig mixed_shape() {
  test::LockShapeConfig config = layered_shape();
  config.ring_threads = 5;
  config.ring_degree = 2;
  return config;
}

test::LockShapeConfig phased_shape() {
  test::LockShapeConfig config;
  config.ring_threads = 4;
  config.ring_degree = 2;
  config.generations = 2;
  return config;
}

TEST(CycleEngineTest, EnginesAgreeOnLockShapes) {
  struct Shape {
    const char* name;
    test::LockShapeConfig config;
    std::size_t tuples;
    std::size_t cycles;
  };
  // layered: every SCC trivial; mixed: a ring amid acyclic noise the SCC
  // engine never searches from; phased: a ring run twice.
  for (const Shape& shape : {Shape{"layered", layered_shape(), 192, 0},
                             Shape{"mixed", mixed_shape(), 212, 12},
                             Shape{"phased", phased_shape(), 32, 56}}) {
    SCOPED_TRACE(shape.name);
    auto trace =
        sim::record_trace(test::lock_shape_program(shape.config), 2014, 60);
    ASSERT_TRUE(trace.has_value());
    Detection ref = check_engines_agree(*trace);
    EXPECT_EQ(ref.dep.unique.size(), shape.tuples);
    EXPECT_EQ(ref.cycles.size(), shape.cycles);
  }
}

TEST(CycleEngineTest, PruneKeepsExactlyTheSingleGenerationCycles) {
  // Two generations of a 4-ring behind a join barrier: Algorithm 2 proves
  // every cross-generation cycle infeasible and no other.
  const sim::Program program = test::lock_shape_program(phased_shape());
  auto trace = sim::record_trace(program, 2014, 60);
  ASSERT_TRUE(trace.has_value());
  Detection det = detect(*trace);
  ASSERT_EQ(det.cycles.size(), 56u);

  auto generation = [&](std::size_t tuple) {  // "gen<g>-<i>" → "gen<g>"
    const std::string& name = program.thread(det.dep.tuples[tuple].thread).name;
    return name.substr(0, name.find('-'));
  };
  const std::vector<PruneVerdict> verdicts = prune(det);
  ASSERT_EQ(verdicts.size(), det.cycles.size());
  std::size_t survivors = 0;
  for (std::size_t c = 0; c < det.cycles.size(); ++c) {
    const std::vector<std::size_t>& tuples = det.cycles[c].tuple_idx;
    bool one_generation = true;
    for (std::size_t idx : tuples)
      one_generation &= generation(idx) == generation(tuples.front());
    EXPECT_EQ(is_false(verdicts[c]), !one_generation) << "cycle " << c;
    if (one_generation) ++survivors;
  }
  EXPECT_EQ(survivors, 14u);
}

TEST(CycleEngineTest, EmptyAndAcyclicDependenciesProduceNoCycles) {
  // Globally ordered locks: every tuple digraph edge points one way, all
  // SCCs are trivial, and the scc engine must do (and emit) nothing.
  LockDependency dep;
  DetectorOptions options;
  EnumerationResult empty = enumerate_cycles_scc(dep, options);
  EXPECT_TRUE(empty.cycles.empty());
  EXPECT_FALSE(empty.truncated);

  Trace trace = record_workload("LinkedList");
  if (!trace.empty()) check_engines_agree(trace);
}

// The file's random programs: varying shape, fork/join structure and lock
// nesting, one per seed index. nullopt when every recording run deadlocked.
constexpr int kRandomPrograms = 20;

std::optional<Trace> random_program_trace(int seed_index) {
  Rng rng(static_cast<std::uint64_t>(seed_index) * 0x9e3779b97f4a7c15ULL + 5);
  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(4));
  config.locks = 2 + static_cast<int>(rng.below(4));
  config.blocks_per_worker = 2 + static_cast<int>(rng.below(3));
  config.max_nesting = 2 + static_cast<int>(rng.below(3));
  config.nest_probability = 0.35 + 0.4 * rng.uniform();
  config.chained_start_probability = 0.5 * rng.uniform();
  config.early_join_probability = 0.5 * rng.uniform();
  sim::Program program = test::random_program(rng, config);
  return sim::record_trace(program, rng(), 40);
}

// Randomized differential test: scc must agree with the reference.
class CycleEnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CycleEnginePropertyTest, EnginesAgreeOnRandomPrograms) {
  auto trace = random_program_trace(GetParam());
  if (!trace.has_value()) GTEST_SKIP() << "every recording run deadlocked";

  Detection ref = check_engines_agree(*trace);

  // Re-run capped at half the cycles: truncation must match the reference.
  if (ref.cycles.size() >= 2)
    check_engines_agree(*trace, ref.cycles.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CycleEnginePropertyTest,
                         ::testing::Range(0, kRandomPrograms));

// ------------------------------------------------------------ mask memory

// detector.mask_words of one SCC-engine run over dep.unique.
std::uint64_t mask_words(const LockDependency& dep) {
  return test::counter_delta(
             [&] { enumerate_cycles_scc(dep, options_for()); })
      .value("detector.mask_words");
}

// The bound, computed independently of the engine: tuples in nontrivial SCCs
// of the tuple digraph (η → η' iff η' holds lock(η), threads differ) ×
// (the distinct locks those tuples hold / 64 + 1).
std::uint64_t mask_word_bound(const LockDependency& dep) {
  const int n = static_cast<int>(dep.unique.size());
  auto tuple = [&dep](int i) -> const LockTuple& {
    return dep.tuples[dep.unique[static_cast<std::size_t>(i)]];
  };
  std::unordered_map<LockId, std::vector<int>> holders;
  for (int i = 0; i < n; ++i)
    for (LockId l : tuple(i).lockset) holders[l].push_back(i);
  Digraph graph(n);
  for (int i = 0; i < n; ++i)
    for (int j : holders[tuple(i).lock])
      if (tuple(j).thread != tuple(i).thread) graph.add_edge(i, j);
  std::uint64_t nodes = 0;
  std::set<LockId> held;
  for (const auto& comp : graph.strongly_connected_components()) {
    if (comp.size() < 2) continue;
    nodes += comp.size();
    for (int i : comp)
      for (LockId l : tuple(i).lockset) held.insert(l);
  }
  return nodes * (held.size() / 64 + 1);
}

// Checks the bound on one trace; returns the words allocated.
std::uint64_t check_mask_bound(const Trace& trace) {
  const LockDependency dep = LockDependency::from_trace(trace);
  const std::uint64_t words = mask_words(dep);
  EXPECT_LE(words, mask_word_bound(dep));
  return words;
}

TEST(CycleEngineTest, MaskWordsStayWithinTheNontrivialSccBound) {
  std::uint64_t total = 0;
  for (const workloads::Benchmark& b : workloads::standard_suite()) {
    SCOPED_TRACE(b.name);
    auto trace = sim::record_trace(b.program, 2014, 60);
    ASSERT_TRUE(trace.has_value());
    total += check_mask_bound(*trace);
  }
  {
    SCOPED_TRACE("philosophers");
    auto program = workloads::make_philosophers(5).program;
    auto trace = sim::record_trace(program, 7, 60);
    ASSERT_TRUE(trace.has_value());
    total += check_mask_bound(*trace);
  }
  for (int seed = 0; seed < kRandomPrograms; ++seed) {
    SCOPED_TRACE(seed);
    auto trace = random_program_trace(seed);
    if (trace.has_value()) total += check_mask_bound(*trace);
  }
  EXPECT_GT(total, 0u) << "no trace had a nontrivial SCC to bound";
}

// The churn shape: 10⁵ filler tuples on fresh lock ids (each filler thread
// nests la → lb with la < lb, so no filler closes a cycle) plus one AB/BA
// pair. Masks sized by the largest lock id would take ~10⁵ × 1563 words
// here; sized by the one nontrivial SCC they take two.
TEST(CycleEngineTest, FreshLockIdsCostNoMaskMemory) {
  Trace trace;
  auto add = [&trace](EventKind kind, ThreadId t, LockId l, SiteId site) {
    Event e;
    e.seq = trace.events.size();
    e.kind = kind;
    e.thread = t;
    e.lock = l;
    e.site = site;
    e.occurrence = 1;
    trace.events.push_back(e);
  };
  constexpr std::size_t kFillerTuples = 100000;
  LockId next_lock = 1000;
  SiteId next_site = 1000;
  for (std::size_t i = 0; i < kFillerTuples / 2; ++i) {
    const auto t = static_cast<ThreadId>(3 + i % 4);
    const LockId la = next_lock++, lb = next_lock++;
    add(EventKind::kLockAcquire, t, la, next_site++);
    add(EventKind::kLockAcquire, t, lb, next_site++);
    add(EventKind::kLockRelease, t, lb, kInvalidSite);
    add(EventKind::kLockRelease, t, la, kInvalidSite);
  }
  const LockId ra = next_lock++, rb = next_lock++;
  add(EventKind::kLockAcquire, 1, ra, next_site++);
  add(EventKind::kLockAcquire, 1, rb, next_site++);
  add(EventKind::kLockRelease, 1, rb, kInvalidSite);
  add(EventKind::kLockRelease, 1, ra, kInvalidSite);
  add(EventKind::kLockAcquire, 2, rb, next_site++);
  add(EventKind::kLockAcquire, 2, ra, next_site++);
  add(EventKind::kLockRelease, 2, ra, kInvalidSite);
  add(EventKind::kLockRelease, 2, rb, kInvalidSite);

  const LockDependency dep = LockDependency::from_trace(trace);
  ASSERT_EQ(dep.unique.size(), kFillerTuples + 4);
  const EnumerationResult ref = enumerate_cycles_reference(dep, options_for());
  ASSERT_EQ(ref.cycles.size(), 1u);
  const EnumerationResult scc = enumerate_cycles_scc(dep, options_for());
  expect_same_cycles(ref.cycles, scc.cycles, "reference vs scc");
  EXPECT_FALSE(scc.truncated);
  EXPECT_LT(mask_words(dep), 10u);
}

}  // namespace
}  // namespace wolf
