#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "support/stopwatch.hpp"
#include "trace/trace_reader.hpp"

namespace wolf::serve {

namespace {

// Scheduling-dependent tallies: how many sessions a server run saw is a
// property of the clients, not of pipeline semantics — all unstable.
const obs::Counter c_started("serve.sessions_started", /*stable=*/false);
const obs::Counter c_done("serve.sessions_done", /*stable=*/false);
const obs::Counter c_torn("serve.sessions_torn", /*stable=*/false);
const obs::Counter c_evicted("serve.sessions_evicted", /*stable=*/false);
const obs::Counter c_failed("serve.sessions_failed", /*stable=*/false);
const obs::Counter c_rejected("serve.sessions_rejected", /*stable=*/false);
const obs::Counter c_events("serve.events_ingested", /*stable=*/false);
const obs::Counter c_live("serve.live_cycles_streamed", /*stable=*/false);

double p99_window_seconds(const std::vector<WindowReport>& windows) {
  if (windows.empty()) return 0;
  std::vector<double> lat;
  lat.reserve(windows.size());
  for (const WindowReport& w : windows) lat.push_back(w.detect_seconds);
  std::sort(lat.begin(), lat.end());
  // Nearest-rank p99: ceil(0.99 * n) - 1, clamped.
  std::size_t idx = (99 * lat.size() + 99) / 100;
  idx = idx == 0 ? 0 : idx - 1;
  if (idx >= lat.size()) idx = lat.size() - 1;
  return lat[idx];
}

// Blocks each session's socket decode may run ahead of its detection. The
// producer thread pays for itself: on the perfbench serve workload (two
// clients x 4e6 events, 4-CPU Linux host) decoding inline on the session
// thread raised wall time from 0.81 s to 1.03 s (five alternating pairs,
// every inline run slower) — socket reads and v3 decode then wait on
// window detection instead of overlapping it.
constexpr std::size_t kSocketQueueDepth = 4;

bool is_active(SessionState s) {
  return s == SessionState::kHandshake || s == SessionState::kStreaming ||
         s == SessionState::kFinishing;
}

}  // namespace

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kHandshake: return "handshake";
    case SessionState::kStreaming: return "streaming";
    case SessionState::kFinishing: return "finishing";
    case SessionState::kDone: return "done";
    case SessionState::kTorn: return "torn";
    case SessionState::kEvicted: return "evicted";
    case SessionState::kRejected: return "rejected";
    case SessionState::kFailed: return "failed";
  }
  return "?";
}

struct Server::Impl {
  explicit Impl(ServeOptions opts) : options(std::move(opts)) {}

  // One registry entry per accepted connection. A session's entry is kept
  // after the session ends (the status endpoint reports history); any other
  // connection's entry is erased once its handler is joined. All mutable
  // fields are guarded by `mu` except `spans`, which locks itself.
  // `stats.spans` stays empty: snapshots read `spans` instead. `thread` is
  // assigned and moved out by the accept thread only.
  struct Entry {
    SessionStats stats;
    int fd = -1;  // valid while the handler owns the socket; -1 after
    std::thread thread;
    obs::SpanSink spans;
  };

  ServeOptions options;
  UnixListener listener;
  std::thread accept_thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> stopped{false};

  mutable std::mutex mu;
  std::vector<std::unique_ptr<Entry>> entries;
  // Entries whose handler has returned and whose thread is not joined yet.
  std::vector<Entry*> ended;
  ServerStats stats;
  std::uint64_t next_id = 1;

  void accept_loop();
  void reap_ended_handlers();
  void run_connection(Entry* e, Fd fd);
  void run_session(Entry* e, const Fd& fd, std::istream& in, FdInBuf& inbuf,
                   const HelloRequest& req);
  void handle_status(int fd);
  void finish_entry(Entry* e, SessionState state, const std::string& note);
  SessionStats snapshot_entry_locked(const Entry& e) const;
};

// Joins the handler threads whose connection has ended: a finished thread
// keeps its stack mapped until it is joined, so a server that joined only
// at stop() would map one more stack per connection it ever served. The
// accept thread is the only joiner besides stop(), which joins it first.
// Then it drops the joined entries that never became a session (status,
// stop, failed hellos): status never lists them, and keeping them would
// grow the registry, and every admission scan of it, by one per call.
void Server::Impl::reap_ended_handlers() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (Entry* e : ended) threads.push_back(std::move(e->thread));
    ended.clear();
  }
  if (threads.empty()) return;
  for (std::thread& t : threads) t.join();
  // Every entry's thread was assigned before this call (the accept thread
  // does both), so an entry without one is exactly a joined entry.
  std::lock_guard<std::mutex> lock(mu);
  std::erase_if(entries, [](const std::unique_ptr<Entry>& e) {
    return !e->stats.session_kind && !e->thread.joinable();
  });
}

void Server::Impl::accept_loop() {
  while (!stopping.load(std::memory_order_relaxed)) {
    reap_ended_handlers();
    const int fd = listener.accept_for(/*timeout_ms=*/200);
    if (fd == UnixListener::kTimeout) continue;
    if (fd == UnixListener::kClosed) break;
    Fd client(fd);
    Entry* e = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++stats.accepted;
      auto entry = std::make_unique<Entry>();
      entry->stats.id = next_id++;
      entry->fd = client.get();
      e = entry.get();
      entries.push_back(std::move(entry));
    }
    // The handler thread owns the socket from here; Entry::fd stays
    // registered (under mu) so stop() can force-end a lingering read.
    std::thread handler(
        [this, e](Fd sock) { run_connection(e, std::move(sock)); },
        std::move(client));
    {
      std::lock_guard<std::mutex> lock(mu);
      e->thread = std::move(handler);
    }
  }
}

void Server::Impl::finish_entry(Entry* e, SessionState state,
                                const std::string& note) {
  std::lock_guard<std::mutex> lock(mu);
  e->stats.state = state;
  if (!note.empty()) e->stats.note = note;
  // Lifecycle tallies cover analysis sessions only — a status/stop exchange
  // also ends kDone but is not a "session served". Rejections are counted
  // for every connection kind (they are the protocol-failure signal).
  if (!e->stats.session_kind && state != SessionState::kRejected) return;
  switch (state) {
    case SessionState::kDone:
      ++stats.sessions_done;
      c_done.add();
      break;
    case SessionState::kTorn:
      ++stats.sessions_torn;
      c_torn.add();
      break;
    case SessionState::kEvicted:
      ++stats.sessions_evicted;
      c_evicted.add();
      break;
    case SessionState::kFailed:
      ++stats.sessions_failed;
      c_failed.add();
      break;
    case SessionState::kRejected:
      ++stats.rejected;
      c_rejected.add();
      break;
    default:
      break;
  }
}

void Server::Impl::run_connection(Entry* e, Fd fd) {
  try {
    if (options.idle_timeout_ms > 0)
      set_recv_timeout_ms(fd.get(), options.idle_timeout_ms);
    FdInBuf inbuf(fd.get());
    std::istream in(&inbuf);
    std::string hello;
    if (!std::getline(in, hello)) {
      // Connected and said nothing (or died) — nothing to answer.
      finish_entry(e, SessionState::kRejected,
                   inbuf.timed_out() ? "idle before hello" : "empty hello");
    } else {
      HelloRequest req;
      std::string err;
      if (!parse_hello(hello, req, err)) {
        write_all(fd.get(), error_line(err));
        finish_entry(e, SessionState::kRejected, err);
      } else {
        switch (req.kind) {
          case HelloRequest::Kind::kStatus:
            handle_status(fd.get());
            finish_entry(e, SessionState::kDone, "status");
            break;
          case HelloRequest::Kind::kStop:
            stop_requested.store(true, std::memory_order_relaxed);
            write_all(fd.get(), std::string("{\"type\":\"stopping\"}\n") +
                                    done_line());
            finish_entry(e, SessionState::kDone, "stop");
            break;
          case HelloRequest::Kind::kSession:
            run_session(e, fd, in, inbuf, req);
            break;
        }
      }
    }
  } catch (const std::exception& ex) {
    // Containment: whatever one session's handler throws, the server and
    // every other session keep going. The client gets an error line if its
    // socket still works; the registry records the failure either way.
    write_all(fd.get(), error_line(std::string("internal: ") + ex.what()));
    finish_entry(e, SessionState::kFailed,
                 std::string("internal: ") + ex.what());
  } catch (...) {
    write_all(fd.get(), error_line("internal: unknown exception"));
    finish_entry(e, SessionState::kFailed, "internal: unknown exception");
  }
  // Deregister the fd under the lock *before* the Fd destructor closes it,
  // so stop() can never shutdown() a number the kernel already reused.
  {
    std::lock_guard<std::mutex> lock(mu);
    e->fd = -1;
    ended.push_back(e);
  }
}

void Server::Impl::run_session(Entry* e, const Fd& fd, std::istream& in,
                               FdInBuf& inbuf, const HelloRequest& req) {
  // Admission: count *other* live session lanes.
  std::size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& other : entries)
      if (other.get() != e && other->stats.session_kind &&
          is_active(other->stats.state))
        ++active;
    e->stats.session_kind = true;
    e->stats.name = req.name;
    if (active >= static_cast<std::size_t>(options.max_sessions)) {
      ++stats.rejected;
      c_rejected.add();
      e->stats.state = SessionState::kRejected;
      e->stats.note = "busy";
    }
  }
  if (active >= static_cast<std::size_t>(options.max_sessions)) {
    write_all(fd.get(), error_line("busy: " + std::to_string(active) +
                                   " active sessions (max " +
                                   std::to_string(options.max_sessions) + ")"));
    return;
  }

  Config cfg = options.session;
  std::string err;
  if (!apply_params(req.params, cfg, err)) {
    write_all(fd.get(), error_line(err));
    finish_entry(e, SessionState::kRejected, err);
    return;
  }
  for (const ConfigIssue& issue : cfg.validate()) {
    if (!issue.fatal) continue;
    write_all(fd.get(), error_line("config: " + issue.message));
    finish_entry(e, SessionState::kRejected, issue.message);
    return;
  }

  Session session = Session::open(cfg);
  {
    std::lock_guard<std::mutex> lock(mu);
    e->stats.state = SessionState::kStreaming;
    ++stats.sessions_started;
  }
  c_started.add();
  if (!write_all(fd.get(), hello_line(e->stats.id, req.name, cfg))) {
    finish_entry(e, SessionState::kTorn, "client gone before hello reply");
    return;
  }

  // The trace arrives as ordinary v1/v2/v3 bytes; the salvage-mode stream
  // reader gives torn and corrupted streams the same treatment as damaged
  // files — keep every intact block, diagnose the rest, never throw.
  StreamTraceReader raw(in, StreamTraceReader::Mode::kSalvage);
  // Per-client backpressure: decode may run at most kSocketQueueDepth blocks
  // ahead of detection; past that the producer parks and the kernel socket
  // buffer fills, pushing back on the client itself.
  std::optional<PipelinedTraceReader> piped(std::in_place, raw,
                                            kSocketQueueDepth);

  Stopwatch wall;
  bool deadline_hit = false;
  bool live_ok = true;
  std::uint64_t live_written = 0;
  double ingest_seconds = 0;
  {
    obs::Span ingest_span(&e->spans, "session/ingest");
    Stopwatch ingest_clock;
    std::vector<Event> block;
    while (piped->next_block(block)) {
      session.feed(block);
      {
        std::lock_guard<std::mutex> lock(mu);
        e->stats.events = session.events_seen();
        ++e->stats.blocks;
        e->stats.bytes_in = inbuf.bytes_read();
        e->stats.windows = session.windows_closed();
      }
      if (cfg.live && live_ok) {
        for (const SessionCycle& c : session.poll()) {
          if (!write_all(fd.get(), live_line(c))) {
            live_ok = false;  // client stopped listening; keep analyzing
            break;
          }
          ++live_written;
          c_live.add();
        }
      }
      if (options.session_deadline_ms > 0 &&
          wall.seconds() * 1000.0 >
              static_cast<double>(options.session_deadline_ms)) {
        deadline_hit = true;
        break;
      }
    }
    if (deadline_hit) {
      // The producer may be parked in recv(); end its read before joining.
      shutdown_read(fd.get());
    }
    piped.reset();  // join the producer: the reader's state is final now
    ingest_seconds = ingest_clock.seconds();
  }

  const bool timed_out = inbuf.timed_out();
  const bool io_err = inbuf.io_error();
  // Snapshot before finish(): finish moves the builder's state into the
  // detection, so events_seen() is only authoritative until then.
  const std::uint64_t events_seen = session.events_seen();
  {
    std::lock_guard<std::mutex> lock(mu);
    e->stats.state = SessionState::kFinishing;
    e->stats.events = events_seen;
    e->stats.bytes_in = inbuf.bytes_read();
  }
  c_events.add(events_seen);

  double finish_seconds = 0;
  Session::Verdict verdict;
  {
    obs::Span finish_span(&e->spans, "session/finish");
    Stopwatch finish_clock;
    verdict = session.finish();  // never throws
    finish_seconds = finish_clock.seconds();
  }
  // finish() closes the trailing window, which can first-sight cycles.
  if (cfg.live && live_ok) {
    for (const SessionCycle& c : session.poll()) {
      if (!write_all(fd.get(), live_line(c))) {
        live_ok = false;
        break;
      }
      ++live_written;
      c_live.add();
    }
  }

  std::string stream_note;
  if (timed_out) {
    stream_note = "idle timeout: no bytes for " +
                  std::to_string(options.idle_timeout_ms) + "ms, evicted";
  } else if (deadline_hit) {
    stream_note = "session deadline exceeded (" +
                  std::to_string(options.session_deadline_ms) + "ms)";
  } else if (io_err) {
    stream_note = "socket read error";
  } else if (!raw.complete()) {
    stream_note = "torn stream: " +
                  (raw.diagnostics().empty() ? std::string("incomplete")
                                             : raw.diagnostics().front()) +
                  " (" + std::to_string(raw.diagnostics().size()) +
                  " diagnostics, " + std::to_string(raw.events_dropped()) +
                  " events dropped)";
  }
  const bool stream_complete =
      raw.complete() && !timed_out && !io_err && !deadline_hit;

  const std::string out =
      verdict_line(verdict, stream_complete, stream_note, events_seen) +
      done_line();
  write_all(fd.get(), out);  // a vanished client just doesn't hear it

  const SessionState final_state =
      (timed_out || deadline_hit) ? SessionState::kEvicted
      : !stream_complete          ? SessionState::kTorn
                                  : SessionState::kDone;
  {
    std::lock_guard<std::mutex> lock(mu);
    e->stats.windows = verdict.governor.windows;
    e->stats.live_cycles = live_written;
    e->stats.cycles = verdict.detection.cycles.size();
    e->stats.complete = stream_complete &&
                        verdict.governor.coverage_complete &&
                        !verdict.detection.truncated;
    e->stats.p99_window_seconds = p99_window_seconds(verdict.windows);
    e->stats.ingest_seconds = ingest_seconds;
    e->stats.finish_seconds = finish_seconds;
  }
  finish_entry(e, final_state, stream_note);
}

SessionStats Server::Impl::snapshot_entry_locked(const Entry& e) const {
  SessionStats s = e.stats;
  s.spans = e.spans.snapshot();
  return s;
}

void Server::Impl::handle_status(int fd) {
  std::vector<SessionStats> sessions;
  ServerStats st;
  std::size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& e : entries) {
      if (!e->stats.session_kind) continue;
      sessions.push_back(snapshot_entry_locked(*e));
      if (is_active(e->stats.state)) ++active;
    }
    st = stats;
  }
  std::string out;
  for (const SessionStats& s : sessions) {
    out += "{\"type\":\"session\",\"session\":";
    out += std::to_string(s.id);
    out += ",\"name\":\"";
    out += obs::json_escape(s.name);
    out += "\",\"state\":\"";
    out += to_string(s.state);
    out += "\",\"events\":";
    out += std::to_string(s.events);
    out += ",\"blocks\":";
    out += std::to_string(s.blocks);
    out += ",\"bytes_in\":";
    out += std::to_string(s.bytes_in);
    out += ",\"windows\":";
    out += std::to_string(s.windows);
    out += ",\"live_cycles\":";
    out += std::to_string(s.live_cycles);
    out += ",\"cycles\":";
    out += std::to_string(s.cycles);
    out += ",\"complete\":";
    out += s.complete ? "true" : "false";
    out += ",\"p99_window_ms\":";
    out += std::to_string(s.p99_window_seconds * 1e3);
    out += ",\"ingest_seconds\":";
    out += std::to_string(s.ingest_seconds);
    out += ",\"finish_seconds\":";
    out += std::to_string(s.finish_seconds);
    out += ",\"spans\":[";
    bool first = true;
    for (const obs::SpanRecord& span : s.spans) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += obs::json_escape(span.name);
      out += "\",\"seconds\":";
      out += std::to_string(span.duration_seconds);
      out += '}';
    }
    out += "],\"note\":\"";
    out += obs::json_escape(s.note);
    out += "\"}\n";
  }
  out += "{\"type\":\"server\",\"accepted\":";
  out += std::to_string(st.accepted);
  out += ",\"started\":";
  out += std::to_string(st.sessions_started);
  out += ",\"active\":";
  out += std::to_string(active);
  out += ",\"done\":";
  out += std::to_string(st.sessions_done);
  out += ",\"torn\":";
  out += std::to_string(st.sessions_torn);
  out += ",\"evicted\":";
  out += std::to_string(st.sessions_evicted);
  out += ",\"failed\":";
  out += std::to_string(st.sessions_failed);
  out += ",\"rejected\":";
  out += std::to_string(st.rejected);
  out += "}\n";
  out += done_line();
  write_all(fd, out);
}

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  // A fatal issue in the default session Config would reject every session
  // that does not override it; refuse to start instead.
  for (const ConfigIssue& issue : impl_->options.session.validate()) {
    if (!issue.fatal) continue;
    if (error != nullptr) *error = "config: " + issue.message;
    return false;
  }
  if (!impl_->listener.bind(impl_->options.socket_path, error)) return false;
  impl_->running.store(true, std::memory_order_relaxed);
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  return true;
}

void Server::stop() {
  if (impl_->stopped.exchange(true)) return;
  impl_->stopping.store(true, std::memory_order_relaxed);
  // The accept loop polls its stop flag every 200ms; joining it first means
  // nobody touches the listener concurrently with close().
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  impl_->listener.close();

  // Drain: give live sessions their grace period...
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(impl_->options.drain_deadline_ms);
  for (;;) {
    bool active = false;
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      for (const auto& e : impl_->entries)
        if (is_active(e->stats.state)) {
          active = true;
          break;
        }
    }
    if (!active || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // ...then force-end the stragglers' reads. Their handlers run the normal
  // end-of-stream path — honest (incomplete) verdict, registry update.
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& e : impl_->entries)
      if (is_active(e->stats.state) && e->fd >= 0) shutdown_read(e->fd);
  }
  {
    // Handler threads never take long once their read is gone; join all
    // the accept thread has not reaped. (Joining outside mu: the accept
    // thread, the only other joiner, has exited.)
    std::vector<std::thread*> to_join;
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      for (const auto& e : impl_->entries)
        if (e->thread.joinable()) to_join.push_back(&e->thread);
    }
    for (std::thread* t : to_join) t->join();
  }
  impl_->running.store(false, std::memory_order_relaxed);
}

bool Server::running() const {
  return impl_->running.load(std::memory_order_relaxed);
}

bool Server::stop_requested() const {
  return impl_->stop_requested.load(std::memory_order_relaxed);
}

const ServeOptions& Server::options() const { return impl_->options; }

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

std::vector<SessionStats> Server::sessions() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<SessionStats> out;
  out.reserve(impl_->entries.size());
  for (const auto& e : impl_->entries)
    out.push_back(impl_->snapshot_entry_locked(*e));
  return out;
}

}  // namespace wolf::serve
