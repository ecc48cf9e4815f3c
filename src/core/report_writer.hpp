// Markdown report generation: turns a WolfReport into the kind of artifact
// a CI job would attach — a classification summary, the ranked defect list,
// per-cycle detail with Gs statistics and replay evidence, and phase
// timings.
#pragma once

#include <string>

#include "core/pipeline.hpp"

namespace wolf {

// The report section of wolf::Config (Config::report, wolf.hpp).
struct ReportWriterOptions {
  std::string title = "WOLF deadlock analysis";
  bool include_ranking = true;
  bool include_cycles = true;   // per-cycle detail section
  bool include_timings = true;
};

std::string write_markdown_report(const WolfReport& report,
                                  const SiteTable& sites,
                                  const ReportWriterOptions& options = {});

// One sentence describing a truncated enumeration ("cycle enumeration
// stopped at --max-cycles=N; more potential deadlocks may exist"), shared
// by the CLI stderr warning and the markdown report so the texts cannot
// drift. Empty when the detection was not truncated.
std::string truncation_message(const Detection& detection);

// One sentence describing a degraded governed run (evictions, detection
// faults, ladder demotions) — the governed analogue of truncation_message,
// shared by the CLI stderr warning and the markdown report. Empty when the
// verdict is clean.
std::string degradation_message(const GovernorVerdict& verdict);

}  // namespace wolf
