#include "serve/protocol.hpp"

#include "obs/report.hpp"
#include "support/str.hpp"

namespace wolf::serve {

namespace {

const char* const kNumericKeys[] = {"window", "budget-mb", "deadline-ms",
                                    "live"};

bool known_key(std::string_view key) {
  if (key == "name") return true;
  for (const char* k : kNumericKeys)
    if (key == k) return true;
  return false;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  out += obs::json_escape(s);
  out += '"';
}

void append_string_array(std::string& out, const std::vector<std::string>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_json_string(out, v[i]);
  }
  out += ']';
}

// ---- structural scanning of our own fixed-layout lines -------------------

// Positions `pos` just past `"key":`. The builders never nest objects, so a
// plain search for the quoted key is unambiguous.
bool find_value(const std::string& line, std::string_view key,
                std::size_t& pos) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  pos = at + needle.size();
  return true;
}

bool scan_string(const std::string& s, std::size_t& pos, std::string& out) {
  if (pos >= s.size() || s[pos] != '"') return false;
  ++pos;
  out.clear();
  while (pos < s.size()) {
    const char c = s[pos];
    if (c == '"') {
      ++pos;
      return true;
    }
    if (c == '\\') {
      if (pos + 1 >= s.size()) return false;
      const char e = s[pos + 1];
      pos += 2;
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > s.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          pos += 4;
          // The builders only emit \u00XX (control bytes).
          out += static_cast<char>(code & 0xff);
          break;
        }
        default: return false;
      }
      continue;
    }
    out += c;
    ++pos;
  }
  return false;  // unterminated
}

bool scan_u64(const std::string& s, std::size_t& pos, std::uint64_t& out) {
  std::size_t end = pos;
  while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
  if (end == pos) return false;
  long long v = 0;
  if (!parse_int(std::string_view(s).substr(pos, end - pos), v)) return false;
  out = static_cast<std::uint64_t>(v);
  pos = end;
  return true;
}

bool scan_bool(const std::string& s, std::size_t& pos, bool& out) {
  if (s.compare(pos, 4, "true") == 0) {
    out = true;
    pos += 4;
    return true;
  }
  if (s.compare(pos, 5, "false") == 0) {
    out = false;
    pos += 5;
    return true;
  }
  return false;
}

bool scan_string_array(const std::string& s, std::size_t& pos,
                       std::vector<std::string>& out) {
  out.clear();
  if (pos >= s.size() || s[pos] != '[') return false;
  ++pos;
  if (pos < s.size() && s[pos] == ']') {
    ++pos;
    return true;
  }
  for (;;) {
    std::string item;
    if (!scan_string(s, pos, item)) return false;
    out.push_back(std::move(item));
    if (pos >= s.size()) return false;
    if (s[pos] == ',') {
      ++pos;
      continue;
    }
    if (s[pos] == ']') {
      ++pos;
      return true;
    }
    return false;
  }
}

bool get_string(const std::string& line, std::string_view key,
                std::string& out) {
  std::size_t pos = 0;
  return find_value(line, key, pos) && scan_string(line, pos, out);
}

bool get_u64(const std::string& line, std::string_view key,
             std::uint64_t& out) {
  std::size_t pos = 0;
  return find_value(line, key, pos) && scan_u64(line, pos, out);
}

bool get_bool(const std::string& line, std::string_view key, bool& out) {
  std::size_t pos = 0;
  return find_value(line, key, pos) && scan_bool(line, pos, out);
}

}  // namespace

bool parse_hello(const std::string& line, HelloRequest& out,
                 std::string& error) {
  const std::vector<std::string> tokens =
      split(std::string_view(trim(line)), ' ');
  if (tokens.empty() || tokens[0] != kProtocolTag) {
    error = "expected a '";
    error += kProtocolTag;
    error += " ...' hello line";
    return false;
  }
  if (tokens.size() < 2) {
    error = "hello line has no verb (session|status|stop)";
    return false;
  }
  out = HelloRequest{};
  if (tokens[1] == "status") {
    out.kind = HelloRequest::Kind::kStatus;
  } else if (tokens[1] == "stop") {
    out.kind = HelloRequest::Kind::kStop;
  } else if (tokens[1] == "session") {
    out.kind = HelloRequest::Kind::kSession;
  } else {
    error = "unknown hello verb '" + tokens[1] + "'";
    return false;
  }
  if (out.kind != HelloRequest::Kind::kSession) {
    if (tokens.size() > 2) {
      error = "'" + tokens[1] + "' takes no arguments";
      return false;
    }
    return true;
  }
  out.name = "anon";
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i].empty()) continue;  // collapsed double spaces
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      error = "malformed parameter '" + tokens[i] + "' (want key=value)";
      return false;
    }
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (!known_key(key)) {
      error = "unknown session parameter '" + key + "'";
      return false;
    }
    if (key == "name") {
      out.name = value;
      continue;
    }
    long long parsed = 0;
    if (!parse_int(value, parsed) || parsed < 0) {
      error = "parameter '" + key + "' wants a non-negative integer, got '" +
              value + "'";
      return false;
    }
    // parse_int trims and accepts leading zeros: keep the number, not the
    // text, so format_hello re-renders a line that parses the same.
    out.params[key] = std::to_string(parsed);
  }
  return true;
}

std::string format_hello(const std::string& name,
                         const std::map<std::string, std::string>& params) {
  std::string line(kProtocolTag);
  line += " session name=";
  line += name;
  for (const auto& [key, value] : params) {
    line += ' ';
    line += key;
    line += '=';
    line += value;
  }
  return line;
}

bool apply_params(const std::map<std::string, std::string>& params,
                  Config& config, std::string& error) {
  for (const auto& [key, value] : params) {
    long long v = 0;
    if (!parse_int(value, v) || v < 0) {
      error = "parameter '" + key + "' wants a non-negative integer";
      return false;
    }
    if (key == "window") {
      if (v == 0) {
        error = "window must be >= 1";
        return false;
      }
      config.window_events = static_cast<std::size_t>(v);
    } else if (key == "budget-mb") {
      config.memory_budget_mb = static_cast<std::size_t>(v);
    } else if (key == "deadline-ms") {
      config.window_deadline_ms = v;
    } else if (key == "live") {
      config.live = v != 0;
    } else {
      error = "unknown session parameter '" + key + "'";
      return false;
    }
  }
  return true;
}

std::string hello_line(std::uint64_t session_id, const std::string& name,
                       const Config& config) {
  std::string line = "{\"type\":\"hello\",\"session\":";
  line += std::to_string(session_id);
  line += ",\"name\":";
  append_json_string(line, name);
  line += ",\"window_events\":";
  line += std::to_string(config.window_events);
  line += ",\"memory_budget_mb\":";
  line += std::to_string(config.memory_budget_mb);
  line += ",\"window_deadline_ms\":";
  line += std::to_string(config.window_deadline_ms);
  line += ",\"live\":";
  line += config.live ? "true" : "false";
  line += "}\n";
  return line;
}

std::string live_line(const SessionCycle& cycle) {
  std::string line = "{\"type\":\"live\",\"window\":";
  line += std::to_string(cycle.window);
  line += ",\"sequence\":";
  line += std::to_string(cycle.sequence);
  line += ",\"cycle\":";
  append_json_string(line, cycle.description);
  line += "}\n";
  return line;
}

std::string verdict_line(const Session::Verdict& verdict, bool stream_complete,
                         const std::string& stream_note,
                         std::uint64_t events_seen) {
  const GovernorVerdict& g = verdict.governor;
  const bool complete = stream_complete && g.coverage_complete &&
                        !verdict.detection.truncated;
  std::string line = "{\"type\":\"verdict\",\"complete\":";
  line += complete ? "true" : "false";
  line += ",\"stream_complete\":";
  line += stream_complete ? "true" : "false";
  line += ",\"coverage_complete\":";
  line += g.coverage_complete ? "true" : "false";
  line += ",\"events\":";
  line += std::to_string(events_seen);
  line += ",\"windows\":";
  line += std::to_string(g.windows);
  line += ",\"suspicious\":";
  line += std::to_string(g.suspicious_windows);
  line += ",\"degraded\":";
  line += std::to_string(g.degraded_windows);
  line += ",\"tuples_compacted\":";
  line += std::to_string(g.tuples_compacted);
  line += ",\"tuples_evicted\":";
  line += std::to_string(g.tuples_evicted);
  line += ",\"detection_faults\":";
  line += std::to_string(g.detection_faults);
  line += ",\"final_level\":";
  append_json_string(line, to_string(g.final_level));
  line += ",\"truncated\":";
  line += verdict.detection.truncated ? "true" : "false";
  line += ",\"cycles\":";
  std::vector<std::string> cycles;
  cycles.reserve(verdict.detection.cycles.size());
  for (const PotentialDeadlock& c : verdict.detection.cycles)
    cycles.push_back(c.to_string(verdict.detection.dep));
  append_string_array(line, cycles);
  line += ",\"defects\":";
  line += std::to_string(verdict.detection.defects.size());
  line += ",\"summary\":";
  append_json_string(line, g.summary());
  line += ",\"stream_note\":";
  append_json_string(line, stream_note);
  line += ",\"notes\":";
  append_string_array(line, g.notes);
  line += "}\n";
  return line;
}

std::string done_line() { return "{\"type\":\"done\"}\n"; }

std::string error_line(const std::string& message) {
  std::string line = "{\"type\":\"error\",\"message\":";
  append_json_string(line, message);
  line += "}\n";
  return line;
}

std::string line_type(const std::string& line) {
  std::string type;
  if (!get_string(line, "type", type)) return std::string();
  return type;
}

bool parse_live_line(const std::string& line, SessionCycle& out) {
  if (line_type(line) != "live") return false;
  std::uint64_t window = 0;
  std::uint64_t sequence = 0;
  if (!get_u64(line, "window", window) ||
      !get_u64(line, "sequence", sequence) ||
      !get_string(line, "cycle", out.description))
    return false;
  out.window = static_cast<std::size_t>(window);
  out.sequence = static_cast<std::size_t>(sequence);
  return true;
}

bool parse_verdict_line(const std::string& line, VerdictFields& out) {
  if (line_type(line) != "verdict") return false;
  std::size_t pos = 0;
  return get_bool(line, "complete", out.complete) &&
         get_bool(line, "stream_complete", out.stream_complete) &&
         get_bool(line, "coverage_complete", out.coverage_complete) &&
         get_u64(line, "events", out.events) &&
         get_u64(line, "windows", out.windows) &&
         get_string(line, "summary", out.summary) &&
         get_string(line, "stream_note", out.stream_note) &&
         find_value(line, "cycles", pos) &&
         scan_string_array(line, pos, out.cycles);
}

bool parse_error_line(const std::string& line, std::string& message) {
  if (line_type(line) != "error") return false;
  return get_string(line, "message", message);
}

}  // namespace wolf::serve
