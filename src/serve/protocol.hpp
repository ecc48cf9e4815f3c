// The serve sidecar's wire protocol (DESIGN.md §18).
//
// A connection opens with one text line from the client:
//
//   WOLFSERVE/1 session name=<n> [window=N] [budget-mb=N] [deadline-ms=N]
//                               [live=0|1]
//   WOLFSERVE/1 status
//   WOLFSERVE/1 stop
//
// After a `session` hello the client streams a v3 (or v1/v2) trace as raw
// bytes on the same connection and half-closes its write side; everything
// the server says back is newline-delimited JSON, one object per line:
//
//   {"type":"hello",...}     accepted; analysis parameters echoed
//   {"type":"live",...}      one first-sighted cycle (session opted in)
//   {"type":"verdict",...}   the authoritative end-of-session verdict
//   {"type":"done"}          end of response stream
//   {"type":"error",...}     protocol/admission failure; connection ends
//
// The builders below are the *only* producers of these lines — the server
// formats with them and the differential tests re-render a locally computed
// reference Session through the same functions, so "byte-identical verdicts
// over the socket" is checked against the same code that writes them, not a
// parallel formatter that could drift.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "wolf.hpp"

namespace wolf::serve {

inline constexpr std::string_view kProtocolTag = "WOLFSERVE/1";

struct HelloRequest {
  enum class Kind { kSession, kStatus, kStop };
  Kind kind = Kind::kSession;
  std::string name;                              // session hellos only
  std::map<std::string, std::string> params;     // raw key=value pairs
};

// Parses a hello line. Returns false and fills `error` on anything
// malformed — unknown verb, bad key=value syntax, unknown key, or a
// non-integer value for a numeric key.
bool parse_hello(const std::string& line, HelloRequest& out,
                 std::string& error);

// Renders a session hello line (no trailing newline) for clients.
std::string format_hello(const std::string& name,
                         const std::map<std::string, std::string>& params);

// Applies a hello's params onto a session Config (server defaults). Returns
// false and fills `error` on out-of-range values.
bool apply_params(const std::map<std::string, std::string>& params,
                  Config& config, std::string& error);

// ---- JSON line builders (each returns one line ending in '\n') -----------
// Strings in them are escaped by obs::json_escape (obs/report.hpp).

std::string hello_line(std::uint64_t session_id, const std::string& name,
                       const Config& config);
std::string live_line(const SessionCycle& cycle);
// The end-of-session verdict. stream_complete reports transport/framing
// honesty (v3 footer seen, no salvage diagnostics, no eviction);
// coverage_complete comes from the governor. "complete" is their AND — the
// one bit a client must check. "suspicious" counts the windows the
// pre-filter flagged (WindowReport::suspicious): a canonical tuple — the
// first of its thread, lock and context sites — arrived or was evicted
// while the lock graph held a suspicious SCC. A window that only re-ran
// code paths already seen brings duplicates alone and is never counted.
std::string verdict_line(const Session::Verdict& verdict, bool stream_complete,
                         const std::string& stream_note,
                         std::uint64_t events_seen);
std::string done_line();
std::string error_line(const std::string& message);

// ---- client-side line inspection ------------------------------------------
// Substring-free structural parse of the fixed field layout the builders
// emit (this is a private protocol; both ends are this file).

// "type" of one response line; empty when the line is not ours.
std::string line_type(const std::string& line);
// Extracts window/sequence/description from a live line. Returns false when
// the line is not a live line.
bool parse_live_line(const std::string& line, SessionCycle& out);
// Extracts the fields of a verdict line a client acts on.
struct VerdictFields {
  bool complete = false;
  bool stream_complete = false;
  bool coverage_complete = false;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::string summary;
  std::string stream_note;
  std::vector<std::string> cycles;  // canonical descriptions, final order
};
bool parse_verdict_line(const std::string& line, VerdictFields& out);
// Message of an error line.
bool parse_error_line(const std::string& line, std::string& message);

}  // namespace wolf::serve
