#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>

namespace wolf::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

// %.17g prints enough digits that strtod recovers the exact double.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

std::string parent_name(const std::vector<SpanRecord>& spans, SpanId parent) {
  if (parent == kNoSpan) return std::string();
  for (const SpanRecord& s : spans)
    if (s.id == parent) return s.name;
  return std::string();
}

}  // namespace

std::string to_json(const RunMetrics& metrics, bool stable) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema_version\": ";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%d", metrics.schema_version);
  out += buf;
  out += ",\n  \"tool\": ";
  append_escaped(out, metrics.tool);
  if (!stable) {
    out += ",\n  \"jobs\": ";
    std::snprintf(buf, sizeof(buf), "%d", metrics.jobs);
    out += buf;
  }

  std::vector<SpanRecord> spans = metrics.spans;
  if (stable)
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                if (a.name != b.name) return a.name < b.name;
                return a.tag < b.tag;
              });
  out += ",\n  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_escaped(out, s.name);
    out += ", \"tag\": ";
    append_u64(out, s.tag);
    if (stable) {
      out += ", \"parent\": ";
      append_escaped(out, parent_name(metrics.spans, s.parent));
    } else {
      out += ", \"id\": ";
      std::snprintf(buf, sizeof(buf), "%d", s.id);
      out += buf;
      out += ", \"parent\": ";
      std::snprintf(buf, sizeof(buf), "%d", s.parent);
      out += buf;
      out += ", \"thread\": ";
      append_u64(out, s.thread);
      out += ", \"start\": ";
      append_double(out, s.start_seconds);
      out += ", \"duration\": ";
      append_double(out, s.duration_seconds);
    }
    out += "}";
  }
  out += spans.empty() ? "]" : "\n  ]";

  out += ",\n  \"counters\": [";
  bool first = true;
  for (const CounterSample& c : metrics.counters.samples) {
    if (stable && !c.stable) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    append_escaped(out, c.name);
    out += ", \"value\": ";
    append_u64(out, c.value);
    if (!stable) out += c.stable ? ", \"stable\": true" : ", \"stable\": false";
    out += "}";
  }
  out += first ? "]" : "\n  ]";

  std::vector<FunnelEntry> funnel = metrics.funnel;
  if (stable)
    std::sort(funnel.begin(), funnel.end(),
              [](const FunnelEntry& a, const FunnelEntry& b) {
                if (a.run != b.run) return a.run < b.run;
                return a.cycle < b.cycle;
              });
  out += ",\n  \"funnel\": [";
  for (std::size_t i = 0; i < funnel.size(); ++i) {
    const FunnelEntry& f = funnel[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"run\": ";
    append_u64(out, f.run);
    out += ", \"cycle\": ";
    append_u64(out, f.cycle);
    out += ", \"outcome\": ";
    append_escaped(out, f.outcome);
    out += f.degraded ? ", \"degraded\": true" : ", \"degraded\": false";
    out += "}";
  }
  out += funnel.empty() ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

bool write_metrics_file(const RunMetrics& metrics, const std::string& path,
                        bool stable, std::string* error) {
  const std::string body = to_json(metrics, stable);
  if (path == "-") {
    std::fwrite(body.data(), 1, body.size(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) ==
                     body.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    if (error != nullptr) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace wolf::obs
