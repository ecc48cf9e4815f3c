// Chaos campaign: the whole analysis stack under randomized fault
// schedules (ISSUE: robustness tentpole).
//
// Each seed drives one schedule: a random program is recorded, serialized
// in a random format, corrupted by a random combination of byte-level
// faults (torn write, bit flips, text garbling, fractional truncation),
// salvage-read, and finally analyzed by a governed wolf::Session under
// random memory budgets, window sizes, deadlines and injected detection
// faults — per-window throws and faults inside the cycle engine's search
// included.
//
// The invariant under EVERY schedule:
//
//     never crash, never emit silently-wrong output — either the verdict
//     claims complete coverage and the defect signatures equal batch
//     analysis of the same (salvaged) event stream, or the verdict is
//     structurally degraded and says why.
//
// The differential reference is batch detection over the salvaged prefix:
// corruption upstream of the reader is allowed to lose suffix events (the
// salvage contract, tested byte-by-byte in property_test), but whatever
// events the reader delivered must be analyzed correctly or flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "core/detector.hpp"
#include "robust/fault.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "trace/serialize.hpp"
#include "wolf.hpp"

namespace wolf {
namespace {

std::set<DefectSignature> signatures_of(const Detection& det) {
  std::set<DefectSignature> sigs;
  for (const PotentialDeadlock& cycle : det.cycles)
    sigs.insert(signature_of(cycle, det.dep));
  return sigs;
}

struct Schedule {
  TraceFormat format = TraceFormat::kV3;
  robust::FaultPlan corruption;  // applied to the serialized bytes
  robust::FaultPlan detection;   // applied inside the governed session
  Config session;
  bool enumeration_fault = false;  // every enumeration throws (testutil)
};

// Draws one randomized fault schedule. Every knob is independent, so the
// campaign covers the cross product: clean bytes under memory pressure,
// torn writes with detection faults, bit flips with tiny windows, …
Schedule draw_schedule(Rng& rng, std::size_t trace_bytes) {
  Schedule s;
  const TraceFormat formats[] = {TraceFormat::kV1, TraceFormat::kV2,
                                 TraceFormat::kV3};
  s.format = formats[rng.below(3)];

  if (rng.chance(0.3))
    s.corruption.io_tear_after =
        static_cast<std::int64_t>(rng.below(trace_bytes + 1));
  if (rng.chance(0.3))
    s.corruption.bitflip_count = 1 + static_cast<int>(rng.below(4));
  if (rng.chance(0.2))
    s.corruption.garble_line = static_cast<int>(rng.below(40));
  if (rng.chance(0.2))
    s.corruption.truncate_fraction =
        static_cast<double>(rng.below(100)) / 100.0;

  if (rng.chance(0.4))
    s.detection.detect_throw_window = static_cast<int>(rng.below(8));
  s.enumeration_fault = rng.chance(0.15);

  s.session.window_events = 8 + rng.below(120);
  if (rng.chance(0.4))
    s.session.memory_budget_mb = 1;  // tiny: forces log trims/aging
  if (rng.chance(0.3)) s.session.window_deadline_ms = 1 + rng.below(20);
  // Unused draws, kept so every seed still derives the same later values
  // and corruption seed.
  (void)rng.chance(0.3);
  (void)rng.below(3);
  (void)rng.chance(0.5);
  // NOTE: session.fault is wired by the caller — pointing it at s.detection
  // here would dangle once the Schedule is returned by value.
  return s;
}

class ChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosTest, NeverCrashesNeverLiesUnderRandomFaultSchedules) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 5);

  test::RandomProgramConfig config;
  config.workers = 2 + static_cast<int>(rng.below(3));
  config.locks = 2 + static_cast<int>(rng.below(3));
  sim::Program program = test::random_program(rng, config);
  auto trace = sim::record_trace(program, rng(), 40);
  if (!trace.has_value()) GTEST_SKIP() << "recording deadlocked";

  // Serialize, corrupt, salvage. The reader must survive arbitrary
  // corruption (property_test covers the byte-by-byte guarantees); what it
  // hands back is the event stream the detectors actually see.
  std::string bytes = trace_to_string(*trace, TraceFormat::kV3);
  Schedule schedule = draw_schedule(rng, bytes.size());
  schedule.session.fault = &schedule.detection;
  bytes = trace_to_string(*trace, schedule.format);
  if (schedule.corruption.garble_line >= 0 ||
      schedule.corruption.truncate_fraction >= 0.0)
    bytes = robust::corrupt_trace_text(std::move(bytes), schedule.corruption);
  bytes = robust::corrupt_trace_bytes(std::move(bytes), schedule.corruption,
                                      rng());
  SalvageReport salvaged = salvage_trace_from_string(bytes);

  // Differential reference: plain batch detection over the salvaged
  // events, same engine configuration, no faults.
  DetectorOptions reference_options = schedule.session.detector;
  Detection reference = detect(salvaged.trace, reference_options);

  // Governed run under the full fault schedule. A counting subscriber
  // reads the windows, so schedules with no budget or deadline close them
  // too (subscription never changes what finish() returns).
  std::size_t delivered = 0;
  schedule.session.on_cycle = [&delivered](const LiveCycle&) { ++delivered; };
  std::optional<test::EnumerationFault> enumeration_fault;
  if (schedule.enumeration_fault) enumeration_fault.emplace();
  Session governed = Session::open(schedule.session);
  governed.feed(salvaged.trace.events);
  Session::Verdict v = governed.finish();
  enumeration_fault.reset();
  const Detection& detection = v.detection;
  const GovernorVerdict& verdict = v.governor;
  EXPECT_EQ(delivered, governed.cycles_surfaced_live());

  // Structural consistency of the verdict, under every schedule.
  EXPECT_EQ(verdict.windows, v.windows.size());
  std::size_t evicted = 0, degraded = 0;
  for (const WindowReport& w : v.windows) {
    evicted += w.tuples_evicted;
    if (w.degraded()) ++degraded;
    if (w.tuples_evicted > 0) {
      EXPECT_EQ(w.level, DetectionLevel::kShedding) << w.index;
    }
    if (schedule.session.memory_budget_mb > 0) {
      EXPECT_LE(w.store_bytes, schedule.session.memory_budget_mb << 20)
          << "window " << w.index << " blew the memory budget";
    }
  }
  EXPECT_EQ(evicted, verdict.tuples_evicted);
  EXPECT_EQ(degraded, verdict.degraded_windows);
  // Eviction is always lossy. (An enumeration fault is NOT asserted here: it
  // fires only when an enumeration has a start tuple in a nontrivial SCC,
  // which depends on the random graph.)
  if (verdict.tuples_evicted > 0) {
    EXPECT_FALSE(verdict.coverage_complete);
  }

  // The honesty contract: complete coverage means the answer IS the batch
  // answer; anything less must be declared.
  if (verdict.coverage_complete) {
    EXPECT_EQ(signatures_of(detection), signatures_of(reference))
        << "governed run claimed complete coverage but diverged from batch "
           "analysis (seed "
        << GetParam() << ")";
    EXPECT_EQ(detection.cycles.size(), reference.cycles.size());
  } else {
    EXPECT_TRUE(verdict.degraded());
    EXPECT_FALSE(verdict.notes.empty())
        << "incomplete coverage must carry an explanation";
    // Degraded output never *invents* defects: every reported signature
    // exists in the reference enumeration over the same events. (Eviction
    // and faults can only lose cycles — tuples are dropped, never altered.)
    std::set<DefectSignature> ref = signatures_of(reference);
    for (const DefectSignature& sig : signatures_of(detection))
      EXPECT_TRUE(ref.count(sig) != 0)
          << "degraded run fabricated a defect signature";
  }
}

// 120 randomized schedules (the ISSUE floor is 100).
INSTANTIATE_TEST_SUITE_P(Schedules, ChaosTest, ::testing::Range(0, 120));

// Expiry-heavy family: streams built to churn the store — mostly fresh
// canonical tuples (eviction fodder), some duplicates (log-trim fodder) —
// under a 1 MiB budget and small windows, so nearly every window trims the
// log or evicts while the lock graph keeps the evicted tuples' edges
// (a superset of the retained view's graph until it doubles and is
// rebuilt). Each schedule must report the lossy budget honestly, never
// fabricate a defect batch detection would not find, and deliver every
// first-sighted cycle to a live subscriber.
class ExpiryChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(ExpiryChaosTest, ChurnUnderBudgetKeepsBothPathsHonestAndEqual) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xbf58476d1ce4e5b9ULL + 11);

  Trace trace;
  SiteId next_site = 1;
  std::uint64_t seq = 0;
  auto push = [&](EventKind kind, ThreadId t, LockId l, SiteId site) {
    Event e;
    e.kind = kind;
    e.thread = t;
    e.lock = l;
    e.site = site;
    e.occurrence = 1;
    e.seq = seq++;
    trace.events.push_back(e);
  };
  // Sized to overflow a 1 MiB store with margin, so the tail windows all
  // trim the log and evict. Fresh reps are depth-4
  // nests: every tuple is canonical (eviction fodder) and carries a fat
  // lockset/context. The recurring AB/BA pair at recurring sites mixes in
  // duplicate acquisitions and keeps a real defect alive through the churn.
  const int reps = 3200 + static_cast<int>(rng.below(400));
  for (int rep = 0; rep < reps; ++rep) {
    const ThreadId t = static_cast<ThreadId>(1 + rng.below(3));
    if (rng.chance(0.8)) {
      LockId nest[4];
      SiteId site[4];
      for (int d = 0; d < 4; ++d) {
        nest[d] = static_cast<LockId>(1000 + 4 * rep + d);
        site[d] = next_site++;
        push(EventKind::kLockAcquire, t, nest[d], site[d]);
      }
      for (int d = 3; d >= 0; --d)
        push(EventKind::kLockRelease, t, nest[d], site[d]);
    } else {
      const bool ba = rng.chance(0.5);
      const LockId a = ba ? 20 : 10, b = ba ? 10 : 20;
      const SiteId sa = ba ? 3 : 1, sb = ba ? 4 : 2;
      push(EventKind::kLockAcquire, t, a, sa);
      push(EventKind::kLockAcquire, t, b, sb);
      push(EventKind::kLockRelease, t, b, sb);
      push(EventKind::kLockRelease, t, a, sa);
    }
  }

  Config cfg;
  cfg.window_events = 16 + rng.below(112);
  cfg.memory_budget_mb = 1;

  Detection reference = detect(trace, cfg.detector);

  std::size_t delivered = 0;
  cfg.on_cycle = [&](const LiveCycle&) { ++delivered; };
  Session governed = Session::open(cfg);
  governed.feed(trace.events);
  const Session::Verdict v = governed.finish();
  const Detection& det = v.detection;
  EXPECT_EQ(delivered, governed.cycles_surfaced_live());

  // The budget genuinely bit (that is the point of this family), so the
  // verdict must say so — and degraded output never fabricates defects.
  const GovernorVerdict& verdict = v.governor;
  EXPECT_GT(verdict.tuples_evicted, 0u) << "schedule failed to force churn";
  EXPECT_FALSE(verdict.coverage_complete);
  EXPECT_FALSE(verdict.notes.empty());
  std::set<DefectSignature> ref = signatures_of(reference);
  for (const DefectSignature& sig : signatures_of(det))
    EXPECT_TRUE(ref.count(sig) != 0)
        << "churned run fabricated a defect signature";
}

INSTANTIATE_TEST_SUITE_P(Schedules, ExpiryChaosTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace wolf
