#include "core/report_writer.hpp"

#include <sstream>

#include "core/ranking.hpp"

namespace wolf {

namespace {

std::string signature_text(const DefectSignature& signature,
                           const SiteTable& sites) {
  std::ostringstream os;
  for (std::size_t i = 0; i < signature.size(); ++i) {
    if (i != 0) os << " / ";
    os << '`' << sites.name(signature[i]) << '`';
  }
  return os.str();
}

}  // namespace

std::string truncation_message(const Detection& detection) {
  if (!detection.truncated) return std::string();
  std::ostringstream os;
  os << "cycle enumeration stopped at --max-cycles=" << detection.cycle_cap
     << "; more potential deadlocks may exist";
  return os.str();
}

std::string degradation_message(const GovernorVerdict& verdict) {
  if (!verdict.degraded()) return std::string();
  std::ostringstream os;
  if (!verdict.coverage_complete) {
    os << "governed detection is INCOMPLETE — ";
    if (verdict.tuples_evicted > 0)
      os << verdict.tuples_evicted
         << " dependency tuples were evicted under the memory budget";
    if (verdict.tuples_evicted > 0 && verdict.detection_faults > 0) os << " and ";
    if (verdict.detection_faults > 0)
      os << verdict.detection_faults << " detection fault(s) occurred";
    // Neither eviction nor a fault: the one other cause is poisoning.
    if (verdict.tuples_evicted == 0 && verdict.detection_faults == 0)
      os << "a malformed event stopped ingestion";
    os << "; absence of a defect below is not evidence of absence";
  } else {
    os << "governed detection degraded in " << verdict.degraded_windows
       << " of " << verdict.windows
       << " window(s) (final level " << to_string(verdict.final_level)
       << ") but retained full coverage";
  }
  return os.str();
}

std::string write_markdown_report(const WolfReport& report,
                                  const SiteTable& sites,
                                  const ReportWriterOptions& options) {
  std::ostringstream os;
  os << "# " << options.title << "\n\n";

  if (!report.trace_recorded) {
    os << "**No completed execution could be recorded** — every recording "
          "run deadlocked. The program deadlocks almost deterministically; "
          "run it under the runtime's wait-for-graph detector instead.\n";
    return os.str();
  }

  os << "## Summary\n\n";
  os << "| Metric | Count |\n|---|---|\n";
  os << "| Potential deadlock cycles | " << report.cycles.size() << " |\n";
  os << "| Source-location defects | " << report.defects.size() << " |\n";
  os << "| Confirmed real (reproduced) | "
     << report.count_defects(Classification::kReproduced) << " |\n";
  os << "| False positives (Pruner) | "
     << report.count_defects(Classification::kFalseByPruner) << " |\n";
  os << "| False positives (Generator) | "
     << report.count_defects(Classification::kFalseByGenerator) << " |\n";
  os << "| Left for manual analysis | "
     << report.count_defects(Classification::kUnknown) << " |\n\n";

  if (report.detection.truncated) {
    os << "> **Warning:** " << truncation_message(report.detection)
       << ". Re-run with a larger `--max-cycles` for exhaustive "
          "enumeration.\n\n";
  }

  if (report.governed || report.governor.degraded()) {
    const std::string degraded = degradation_message(report.governor);
    if (!degraded.empty()) os << "> **Warning:** " << degraded << ".\n\n";
    os << "## Governed streaming\n\n";
    os << report.governor.summary() << "\n\n";
    if (!report.governor.notes.empty()) {
      for (const std::string& note : report.governor.notes)
        os << "- " << note << "\n";
      os << '\n';
    }
  }

  if (options.include_ranking && !report.defects.empty()) {
    os << "## Defects, most actionable first\n\n";
    int position = 1;
    for (const RankedDefect& r : rank_defects(report)) {
      const DefectReport& d = report.defects[r.defect_index];
      os << position++ << ". " << signature_text(d.signature, sites)
         << " — **" << to_string(d.classification) << "** ("
         << d.cycle_indices.size() << " dynamic cycle(s))\n";
    }
    os << '\n';
  }

  if (options.include_cycles && !report.cycles.empty()) {
    os << "## Cycle detail\n\n";
    os << "| # | Classification | |Vs| | Replay attempts | Hits | "
          "Wrong-site deadlocks |\n|---|---|---|---|---|---|\n";
    for (const CycleReport& c : report.cycles) {
      os << "| " << c.cycle_index << " | " << to_string(c.classification)
         << " | " << c.gs_vertices << " | " << c.replay_stats.attempts
         << " | " << c.replay_stats.hits << " | "
         << c.replay_stats.other_deadlocks << " |\n";
    }
    os << '\n';
  }

  if (options.include_timings) {
    os << "## Phase timings\n\n";
    auto ms = [](double seconds) {
      std::ostringstream o;
      o << seconds * 1e3 << " ms";
      return o.str();
    };
    os << "| Phase | Time |\n|---|---|\n";
    os << "| Record | " << ms(report.timings.record_seconds) << " |\n";
    os << "| Detect (D_σ + cycles) | " << ms(report.timings.detect_seconds)
       << " |\n";
    os << "| Prune | " << ms(report.timings.prune_seconds) << " |\n";
    os << "| Generate Gs | " << ms(report.timings.generate_seconds) << " |\n";
    os << "| Replay | " << ms(report.timings.replay_seconds) << " |\n";
  }
  return os.str();
}

}  // namespace wolf
