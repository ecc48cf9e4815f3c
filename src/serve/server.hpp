// The always-on detection sidecar (DESIGN.md §18): a long-running server
// that accepts v3 wire-format event streams from many producer processes
// concurrently over a unix-domain socket and runs one wolf::Session per
// client.
//
// Isolation model — the "one misbehaving client can never poison another"
// contract, mechanically:
//   * one thread + one Session per connection: sessions share no mutable
//     analysis state (a Session owns its detector, its windows and its
//     degradation ladder), so a slow, torn, or malicious stream can
//     only ever burn its own lane;
//   * per-session containment: the connection handler is wrapped in a
//     catch-everything that turns any escape into a kFailed entry and an
//     error line, never a server death; malformed events poison only their
//     session (Session::feed); torn/corrupt streams go through the salvage
//     reader and end in an honest stream_complete=false verdict;
//   * bounded per-client memory: the socket is read and decoded on a
//     producer thread behind a fixed 4-block queue
//     (trace/PipelinedTraceReader), so a producer that outruns detection
//     parks in the queue (backpressure propagates to the client's send
//     buffer) instead of queueing unbounded state server-side;
//   * lifecycle: idle sessions are evicted by a receive timeout, runaway
//     sessions by a wall-clock deadline, and stop() drains gracefully —
//     accepting nothing new, giving live sessions drain_deadline_ms to end
//     on their own, then force-ending the stragglers' reads. Every exit
//     path still emits an honest verdict.
//
// Observability: each session records obs spans (session/ingest,
// session/finish) into its own SpanSink and its registry entry keeps event/
// window/latency tallies; the `status` hello dumps all of it as
// newline-JSON, one line per session plus a server roll-up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "wolf.hpp"

namespace wolf::serve {

struct ServeOptions {
  std::string socket_path;
  // Concurrent session cap; connections past it get an error line.
  int max_sessions = 16;
  // Receive-idle eviction budget per connection (covers the hello too).
  // 0 = never evict.
  std::int64_t idle_timeout_ms = 30000;
  // Wall-clock cap on one session's ingest, 0 = none. Exceeding it ends
  // the stream early with an honest incomplete verdict.
  std::int64_t session_deadline_ms = 0;
  // stop(): how long live sessions get to finish before their reads are
  // force-ended.
  std::int64_t drain_deadline_ms = 5000;
  // Per-session analysis defaults; a session hello's parameters override
  // individual fields (protocol.hpp apply_params). live defaults on so
  // clients get cycles streamed as windows close.
  Config session;

  ServeOptions() { session.live = true; }
};

enum class SessionState : std::uint8_t {
  kHandshake,  // accepted, hello not parsed yet
  kStreaming,  // ingesting trace bytes
  kFinishing,  // stream ended, authoritative enumeration running
  kDone,       // clean end: complete stream, verdict delivered
  kTorn,       // stream ended mid-frame / failed salvage checks
  kEvicted,    // idle timeout or session deadline ended it
  kRejected,   // admission or hello failure; no session ran
  kFailed,     // contained internal failure (see note)
};
const char* to_string(SessionState state);

// One registry entry's public snapshot (sessions() / the status endpoint).
struct SessionStats {
  std::uint64_t id = 0;
  std::string name;
  SessionState state = SessionState::kHandshake;
  bool session_kind = false;  // false: status/stop/unparsed connections
  std::uint64_t events = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t windows = 0;
  std::uint64_t live_cycles = 0;  // live lines actually written
  std::uint64_t cycles = 0;       // final verdict cycle count
  bool complete = false;          // the verdict line's "complete" bit
  double p99_window_seconds = 0;  // p99 of per-window detection latency
  double ingest_seconds = 0;
  double finish_seconds = 0;
  std::string note;  // stream_note / failure detail
  std::vector<obs::SpanRecord> spans;  // session/ingest, session/finish
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_done = 0;
  std::uint64_t sessions_torn = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t sessions_failed = 0;
  std::uint64_t rejected = 0;

  std::uint64_t finished() const {
    return sessions_done + sessions_torn + sessions_evicted + sessions_failed;
  }
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();  // stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Validates the default session Config, binds the socket and starts
  // accepting. False + error on the first fatal config issue ("config: …",
  // nothing bound) or on bind failure.
  bool start(std::string* error);

  // Graceful drain: stop accepting, give live sessions drain_deadline_ms,
  // force-end the rest, join everything. Idempotent.
  void stop();

  bool running() const;
  // True once a client sent the `stop` hello; the host loop (wolf serve)
  // polls this and calls stop().
  bool stop_requested() const;

  const ServeOptions& options() const;
  ServerStats stats() const;
  std::vector<SessionStats> sessions() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wolf::serve
