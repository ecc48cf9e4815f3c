// Client side of the serve protocol: the library behind `wolf emit`, the
// fairness/chaos tests, and perfbench's serve workload.
//
// emit_* opens a connection, sends the session hello, then streams the
// trace bytes in configurable chunks while a dedicated reader thread drains
// the server's response lines — full duplex, so a server streaming live
// cycles can never deadlock against a client still uploading (both sides
// writing, nobody reading). The chunking knobs double as chaos axes:
// throttle_ms makes a pathological slow consumer, kill_after_bytes tears
// the stream mid-frame, and vanish picks between a half-close (the server's
// verdict still reaches us) and a full close (a kill -9 shaped exit).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"
#include "trace/serialize.hpp"

namespace wolf::serve {

struct EmitOptions {
  std::string socket_path;
  std::string name = "client";
  // Extra hello parameters (window=, budget-mb=, deadline-ms=, live=).
  std::map<std::string, std::string> params;
  // Upload chunking. Small chunks + throttle = a slow consumer.
  std::size_t chunk_bytes = 64 * 1024;
  std::int64_t throttle_ms = 0;  // sleep between chunks
  // Chaos: stop uploading after this many bytes (< 0 = send everything).
  std::int64_t kill_after_bytes = -1;
  // With kill_after_bytes: true = close both directions at once (a killed
  // process; we read nothing more), false = half-close the write side (the
  // server still answers with its honest torn-stream verdict).
  bool vanish = false;
  // Observation hook: every server line, in arrival order.
  std::function<void(const std::string&)> on_line;
};

struct EmitResult {
  bool connected = false;
  bool done = false;      // server closed the exchange with a done line
  bool complete = false;  // verdict line's "complete" bit
  std::string error;      // transport/protocol failure, or server error line
  std::uint64_t bytes_sent = 0;
  std::vector<std::string> lines;       // every server line, in order
  std::vector<std::string> live_lines;  // the live subset, in order
  std::string hello_reply;              // raw hello JSON line
  std::string verdict_line;             // raw verdict JSON line
  VerdictFields verdict;                // parsed from verdict_line

  bool ok() const { return error.empty() && done; }
};

// Streams pre-encoded trace bytes (any on-disk format; v3 is the native
// one) through one session.
EmitResult emit_trace_bytes(const EmitOptions& options,
                            std::string_view bytes);
// Encodes `trace` to `format` and streams it.
EmitResult emit_trace(const EmitOptions& options, const Trace& trace,
                      TraceFormat format = TraceFormat::kV3);

// Fetches the status endpoint: every line before "done", in order. Returns
// false and fills `error` on transport failure.
bool fetch_status(const std::string& socket_path,
                  std::vector<std::string>& lines, std::string* error);

// Asks the server to stop (graceful drain). True once acknowledged.
bool send_stop(const std::string& socket_path, std::string* error);

}  // namespace wolf::serve
