// Quickstart: the WOLF pipeline end to end on a minimal two-thread,
// two-lock program.
//
//   1. describe the program (or attach the instrumentation to your own),
//   2. record an execution trace,
//   3. detect potential deadlock cycles (extended iGoodLock),
//   4. prune infeasible cycles with the (S, J) vector clocks,
//   5. build the synchronization dependency graph Gs,
//   6. replay under Gs until the execution provably deadlocks.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/pipeline.hpp"
#include "sim/scheduler.hpp"

using namespace wolf;

int main() {
  // --- 1. A tiny program: main starts two workers that nest two mutexes in
  // opposite orders (the classic AB/BA deadlock).
  sim::Program program;
  program.name = "quickstart";
  LockId a = program.add_lock("A", program.site("Account.ctor", 1));
  LockId b = program.add_lock("B", program.site("Account.ctor", 2));
  ThreadId main_thread = program.add_thread("main");
  ThreadId alice = program.add_thread("alice");
  ThreadId bob = program.add_thread("bob");

  SiteId s_transfer_out = program.site("transfer(from)", 10);
  SiteId s_transfer_in = program.site("transfer(to)", 11);
  SiteId s_exit1 = program.site("transfer(release-to)", 12);
  SiteId s_exit2 = program.site("transfer(release-from)", 13);

  auto transfer = [&](ThreadId t, LockId from, LockId to) {
    program.lock(t, from, s_transfer_out);
    program.lock(t, to, s_transfer_in);
    program.unlock(t, to, s_exit1);
    program.unlock(t, from, s_exit2);
  };
  transfer(alice, a, b);  // alice: A then B
  transfer(bob, b, a);    // bob:   B then A

  SiteId s_spawn = program.site("main.spawn", 20);
  SiteId s_join = program.site("main.join", 21);
  program.start(main_thread, alice, s_spawn);
  program.start(main_thread, bob, s_spawn);
  program.join(main_thread, alice, s_join);
  program.join(main_thread, bob, s_join);
  program.finalize();

  // --- 2-6. One call runs record → detect → prune → generate → replay.
  WolfOptions options;
  options.seed = 42;
  options.replay.attempts = 10;
  WolfReport report = run_wolf(program, options);

  std::cout << "recorded trace with " << report.detection.dep.log.size()
            << " lock-dependency tuples\n";
  std::cout << "detected " << report.detection.cycles.size()
            << " potential deadlock cycle(s), "
            << report.detection.defects.size() << " defect(s)\n\n";

  for (const CycleReport& cycle : report.cycles) {
    const PotentialDeadlock& theta =
        report.detection.cycles[cycle.cycle_index];
    std::cout << "cycle " << cycle.cycle_index << ": "
              << theta.to_string(report.detection.dep) << '\n';
    std::cout << "  verdict: " << to_string(cycle.classification);
    if (cycle.classification == Classification::kReproduced)
      std::cout << " (deadlocked after "
                << cycle.replay_stats.attempts << " replay attempt(s))";
    std::cout << '\n';
  }

  std::cout << '\n' << report.summary(program.sites());

  // Show the synchronization dependency graph of the first cycle as DOT —
  // paste into GraphViz to see the Fig. 7-style structure.
  if (!report.detection.cycles.empty()) {
    GeneratorResult gen =
        generate(report.detection.cycles[0], report.detection.dep);
    std::cout << "\nGs for cycle 0 (" << gen.gs.vertex_count()
              << " vertices, " << (gen.feasible ? "acyclic" : "CYCLIC")
              << "):\n"
              << gen.gs.to_dot(program.sites());
  }
  return 0;
}
