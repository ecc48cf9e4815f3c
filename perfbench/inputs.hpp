// Input generators of the four workloads. Each takes the run's seed; the
// same seed gives the same inputs. The generators follow the repo's own
// harnesses (bench/perf_pipeline.cpp, perf_online.cpp, perf_serve.cpp) so
// the benchmark measures the shapes those harnesses were sized on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/program.hpp"
#include "trace/event.hpp"

namespace perfbench {

// Ring of `threads` locks where thread i nests (l_i, l_{i+d}) for every
// chain degree d in 1..degree: hundreds of short enumerable cycles.
wolf::sim::Program make_stress(int threads, int degree);

// perf_online's dedup-realistic stream (8 workers, 48 locks, 8 phases, an
// AB/BA ring every events/64), written as a v3 file at `path`. Returns the
// file size in bytes.
std::uint64_t write_online_trace(const std::string& path,
                                 std::uint64_t events, std::uint64_t seed);

// perf_online's every-window-churn stream: each window opens with an AB/BA
// ring on a fresh lock pair (a new cycle per window), then fills with
// ordered fresh lock pairs. The seed moves the id bases and the filler
// thread rotation, never the amount of work.
std::vector<wolf::Event> churn_events(std::uint64_t events,
                                      std::uint64_t window,
                                      std::uint64_t seed);

// perf_serve's payload, v3-encoded: four workers take ordered lock pairs at
// fixed sites, plus an AB/BA ring every events/64. The seed rotates the
// worker and slot order, never the amount of work.
std::string serve_payload(std::uint64_t events, std::uint64_t seed);

}  // namespace perfbench
