// Progress heartbeats — throttled stderr ticks for long enumerations
// (DESIGN.md §13). Off by default; the CLI enables them with --progress.
//
// Hot loops call progress_tick(phase, done, total) freely: when disabled it
// is one relaxed load; when enabled, a CAS on the next-due monotonic
// deadline makes exactly one thread print per interval, so heartbeats never
// serialize concurrent callers (serve sessions enumerating at once).
//
// Determinism: heartbeats write to stderr only and read nothing back, so
// enabling them cannot change detection output.
#pragma once

#include <cstdint>

namespace wolf::obs {

bool progress_enabled();
void set_progress_enabled(bool on);

// Minimum milliseconds between printed heartbeats (default 500).
void set_progress_interval_ms(std::uint64_t ms);

// Replace the line writer (stderr by default). Pass nullptr to restore the
// default. Test hook; not thread-safe against concurrent ticks.
using ProgressWriter = void (*)(const char* line);
void set_progress_writer(ProgressWriter writer);

// Report that `done` units of `phase` are finished out of `total` (pass
// total=0 when the bound is unknown). Throttled; safe to call from any
// thread at any frequency.
void progress_tick(const char* phase, std::uint64_t done, std::uint64_t total);

}  // namespace wolf::obs
