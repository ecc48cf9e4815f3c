// Structured run reports — versioned JSON for a run's span tree, counter
// snapshot and per-cycle funnel verdicts (DESIGN.md §13). This is the
// machine-readable form of PAPER.md Tables 1–2: detected → pruned →
// infeasible → confirmed, per cycle, plus where the time went.
//
// Two serialization modes:
//   * full (default) — everything, with %.17g doubles (enough digits to
//     recover each double exactly);
//   * stable — for byte-identical output across --jobs levels: timings,
//     span/thread ids and the jobs field are omitted, spans are sorted by
//     (name, tag) with the parent given by name, and only counters
//     registered `stable` are kept.
//
// obs stays dependency-free: the pipeline-shaped collect_metrics() helpers
// that fill RunMetrics from a WolfReport/MultiRunReport/DfReport live with
// those report types (core/metrics, baseline/df_pipeline).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace wolf::obs {

inline constexpr int kMetricsSchemaVersion = 1;

// One cycle's trip through the funnel. `run` is the multi-trace run index
// (0 for single-run pipelines); `outcome` is one of "pruned", "infeasible",
// "confirmed", "unconfirmed", "error"; `degraded` marks verdicts reached on
// a salvaged/partial basis.
struct FunnelEntry {
  std::uint64_t run = 0;
  std::uint64_t cycle = 0;
  std::string outcome;
  bool degraded = false;
};

struct RunMetrics {
  int schema_version = kMetricsSchemaVersion;
  std::string tool = "wolf";  // "wolf", "wolf-multi", "df", ...
  int jobs = 0;
  std::vector<SpanRecord> spans;
  CounterSnapshot counters;
  std::vector<FunnelEntry> funnel;
};

// Serializes `metrics` (see modes above). Output ends with a newline.
std::string to_json(const RunMetrics& metrics, bool stable = false);

// The body of a JSON string literal for `s`, without the quotes: `"`, `\`
// and every control character are escaped, the common ones by their short
// forms (\n \t \r \b \f), the rest as \u00XX. The one escaper in the
// tree: to_json and the serve protocol's lines both use it.
std::string json_escape(std::string_view s);

// Writes to_json(metrics, stable) to `path` ("-" for stdout). On failure
// returns false and sets *error when non-null.
bool write_metrics_file(const RunMetrics& metrics, const std::string& path,
                        bool stable, std::string* error);

}  // namespace wolf::obs
