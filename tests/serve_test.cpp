// The serve sidecar's test suite (DESIGN.md §18): protocol round trips,
// the socket-vs-local byte-identity differential, client-kill isolation,
// multi-client fairness against a pathological slow consumer, lifecycle
// (idle eviction, deadlines, busy rejection, graceful drain), and a chaos
// family proving the two server invariants — never crash, never silently
// wrong — under randomized torn/corrupt/slow/concurrent streams.
//
// The byte-identity tests work because protocol.hpp's builders are the only
// producers of response lines: the reference transcript below re-renders a
// locally computed Session through the same functions the server uses, so
// comparing strings compares analysis results, not formatter luck.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "robust/fault.hpp"
#include "serve/client.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_reader.hpp"
#include "wolf.hpp"
#include "workloads/suite.hpp"

namespace wolf::serve {
namespace {

// ---- fixtures -------------------------------------------------------------

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/wolfserve-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// One recorded HashMap trace, shared by every test (recording is the slow
// part; the serve layer only ever sees its serialized bytes).
const Trace& hashmap_trace() {
  static const Trace trace = [] {
    for (workloads::Benchmark& b : workloads::standard_suite())
      if (b.name == "HashMap") {
        auto t = sim::record_trace(b.program, /*seed=*/7);
        EXPECT_TRUE(t.has_value());
        return *t;
      }
    ADD_FAILURE() << "HashMap workload missing";
    return Trace{};
  }();
  return trace;
}

std::string hashmap_bytes() {
  return trace_to_string(hashmap_trace(), TraceFormat::kV3);
}

// A started server on a fresh socket; stops on destruction.
struct TestServer {
  explicit TestServer(ServeOptions opts) : server([&] {
    opts.socket_path = unique_socket_path();
    return opts;
  }()) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~TestServer() { server.stop(); }

  const std::string& path() const { return server.options().socket_path; }

  Server server;
  bool started = false;
};

// What the server should say for this exact trace and config: the same
// Session the server opens, drained the same way (block feed + per-block
// poll), rendered through the same protocol builders.
struct Transcript {
  std::vector<std::string> live;
  std::string verdict;
};

Transcript reference_transcript(const std::string& bytes, Config cfg) {
  Transcript out;
  Session session = Session::open(cfg);
  std::istringstream is(bytes);
  StreamTraceReader raw(is, StreamTraceReader::Mode::kSalvage);
  std::vector<Event> block;
  while (raw.next_block(block)) {
    session.feed(block);
    for (const SessionCycle& c : session.poll())
      out.live.push_back(live_line(c));
  }
  const std::uint64_t events = session.events_seen();
  Session::Verdict verdict = session.finish();
  for (const SessionCycle& c : session.poll())
    out.live.push_back(live_line(c));
  out.verdict =
      verdict_line(verdict, /*stream_complete=*/raw.complete(),
                   /*stream_note=*/std::string(), events);
  return out;
}

// The server-side session Config that a hello with `params` produces, given
// the server's defaults.
Config session_config(const ServeOptions& opts,
                      const std::map<std::string, std::string>& params) {
  Config cfg = opts.session;
  std::string error;
  EXPECT_TRUE(apply_params(params, cfg, error)) << error;
  return cfg;
}

// Strips the trailing '\n' the builders append, for line-list comparison
// against EmitResult's getline-split lines.
std::string chomp(std::string line) {
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

// ---- protocol unit tests --------------------------------------------------

TEST(ServeProtocolTest, HelloFormatParseRoundTrip) {
  std::map<std::string, std::string> params{{"window", "64"},
                                            {"budget-mb", "32"}};
  const std::string line = format_hello("worker-1", params);
  HelloRequest req;
  std::string error;
  ASSERT_TRUE(parse_hello(line, req, error)) << error;
  EXPECT_EQ(req.kind, HelloRequest::Kind::kSession);
  EXPECT_EQ(req.name, "worker-1");
  EXPECT_EQ(req.params, params);

  // parse_int trims and takes leading zeros, so the request must hold the
  // number, not the text: "64\t" rendered last would lose its tab.
  ASSERT_TRUE(parse_hello(
      "WOLFSERVE/1 session name=a window=64\t live=1 budget-mb=007", req,
      error))
      << error;
  const std::map<std::string, std::string> canonical{
      {"budget-mb", "7"}, {"live", "1"}, {"window", "64"}};
  EXPECT_EQ(req.params, canonical);
  ASSERT_TRUE(parse_hello(format_hello(req.name, req.params), req, error))
      << error;
  EXPECT_EQ(req.params, canonical);

  ASSERT_TRUE(parse_hello("WOLFSERVE/1 status", req, error)) << error;
  EXPECT_EQ(req.kind, HelloRequest::Kind::kStatus);
  ASSERT_TRUE(parse_hello("WOLFSERVE/1 stop", req, error)) << error;
  EXPECT_EQ(req.kind, HelloRequest::Kind::kStop);
}

TEST(ServeProtocolTest, HelloRejectsMalformedLines) {
  HelloRequest req;
  std::string error;
  EXPECT_FALSE(parse_hello("GET / HTTP/1.1", req, error));
  EXPECT_FALSE(parse_hello("WOLFSERVE/2 session", req, error));
  EXPECT_FALSE(parse_hello("WOLFSERVE/1 shrug", req, error));
  EXPECT_FALSE(parse_hello("WOLFSERVE/1 session name=a window=abc",
                           req, error));
  EXPECT_FALSE(parse_hello("WOLFSERVE/1 session name=a unknown-key=1",
                           req, error));
  EXPECT_FALSE(parse_hello("WOLFSERVE/1 session name=a incremental=1",
                           req, error));
  EXPECT_NE(error.find("unknown session parameter"), std::string::npos)
      << error;
  EXPECT_FALSE(parse_hello("WOLFSERVE/1 session name=a jobs=1", req, error));
  EXPECT_NE(error.find("unknown session parameter 'jobs'"), std::string::npos)
      << error;
}

TEST(ServeProtocolTest, ApplyParamsOverridesServerDefaults) {
  Config cfg;
  cfg.window_events = 1000;
  std::string error;
  ASSERT_TRUE(apply_params({{"window", "64"},
                            {"budget-mb", "8"},
                            {"deadline-ms", "250"},
                            {"live", "0"}},
                           cfg, error))
      << error;
  EXPECT_EQ(cfg.window_events, 64u);
  EXPECT_EQ(cfg.memory_budget_mb, 8u);
  EXPECT_EQ(cfg.window_deadline_ms, 250);
  EXPECT_FALSE(cfg.live);
}

TEST(ServeProtocolTest, JsonLinesRoundTripThroughTheirParsers) {
  // A live line whose description exercises every escape class.
  SessionCycle in{3, 7, "cycle \"a\"\\b\n\tend\x01"};
  SessionCycle out;
  ASSERT_TRUE(parse_live_line(live_line(in), out));
  EXPECT_EQ(out.window, in.window);
  EXPECT_EQ(out.sequence, in.sequence);
  EXPECT_EQ(out.description, in.description);

  std::string message;
  ASSERT_TRUE(parse_error_line(error_line("busy: 3 active"), message));
  EXPECT_EQ(message, "busy: 3 active");

  EXPECT_EQ(line_type(done_line()), "done");
  EXPECT_EQ(line_type("not json"), "");
}

TEST(ServeProtocolTest, VerdictLineRoundTripsThroughParser) {
  // Run a real governed session so the verdict carries real cycles.
  Config cfg;
  cfg.live = true;
  cfg.window_events = 8;
  Session session = Session::open(cfg);
  VectorTraceReader reader(hashmap_trace());
  session.ingest(reader);
  const std::uint64_t events = session.events_seen();
  Session::Verdict verdict = session.finish();
  const std::string line =
      verdict_line(verdict, /*stream_complete=*/true, "", events);

  VerdictFields fields;
  ASSERT_TRUE(parse_verdict_line(line, fields));
  EXPECT_TRUE(fields.complete);
  EXPECT_TRUE(fields.stream_complete);
  EXPECT_TRUE(fields.coverage_complete);
  EXPECT_EQ(fields.events, hashmap_trace().size());
  EXPECT_EQ(fields.windows, verdict.governor.windows);
  EXPECT_EQ(fields.summary, verdict.governor.summary());
  ASSERT_EQ(fields.cycles.size(), verdict.detection.cycles.size());
  for (std::size_t i = 0; i < fields.cycles.size(); ++i)
    EXPECT_EQ(fields.cycles[i],
              verdict.detection.cycles[i].to_string(verdict.detection.dep));
}

// ---- Session facade unit tests --------------------------------------------

TEST(ServeSessionTest, PollCollectsTheSameCyclesThePushSubscriberSees) {
  Config cfg;
  cfg.jobs = 1;
  cfg.window_events = 8;
  cfg.live = true;
  std::vector<std::string> pushed;
  cfg.on_cycle = [&](const LiveCycle& lc) {
    pushed.push_back(lc.cycle->to_string(*lc.dep));
  };
  Session session = Session::open(cfg);
  std::vector<std::string> polled;
  for (const Event& e : hashmap_trace().events) {
    session.feed(e);
    for (const SessionCycle& c : session.poll())
      polled.push_back(c.description);
  }
  session.finish();
  for (const SessionCycle& c : session.poll())
    polled.push_back(c.description);
  EXPECT_FALSE(polled.empty());
  EXPECT_EQ(polled, pushed);
}

// ---- the byte-identity differential ---------------------------------------

TEST(ServeServerTest, SocketSessionMatchesLocalSessionByteForByte) {
  ServeOptions opts;
  opts.session.window_events = 64;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  EmitOptions emit;
  emit.socket_path = ts.path();
  emit.name = "differential";
  emit.params["window"] = "16";  // multi-window coverage
  EmitResult result = emit_trace_bytes(emit, hashmap_bytes());
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.complete);

  const Transcript ref = reference_transcript(
      hashmap_bytes(), session_config(ts.server.options(), emit.params));
  ASSERT_EQ(result.live_lines.size(), ref.live.size());
  for (std::size_t i = 0; i < ref.live.size(); ++i)
    EXPECT_EQ(result.live_lines[i], chomp(ref.live[i])) << "live line " << i;
  EXPECT_EQ(result.verdict_line, chomp(ref.verdict));
  EXPECT_FALSE(ref.live.empty()) << "trace surfaced no cycles; test is vacuous";
}

// ---- torn streams and isolation -------------------------------------------

TEST(ServeServerTest, TornHalfCloseGetsAnHonestIncompleteVerdict) {
  TestServer ts(ServeOptions{});
  ASSERT_TRUE(ts.started);

  EmitOptions emit;
  emit.socket_path = ts.path();
  emit.name = "torn";
  emit.kill_after_bytes =
      static_cast<std::int64_t>(hashmap_bytes().size() / 2);
  EmitResult result = emit_trace_bytes(emit, hashmap_bytes());
  ASSERT_TRUE(result.done) << result.error;
  EXPECT_FALSE(result.complete);
  EXPECT_FALSE(result.verdict.stream_complete);
  EXPECT_NE(result.verdict.stream_note.find("torn stream"), std::string::npos)
      << result.verdict.stream_note;

  const ServerStats stats = ts.server.stats();
  EXPECT_EQ(stats.sessions_torn, 1u);
  EXPECT_TRUE(ts.server.running());
}

TEST(ServeServerTest, VanishedClientNeverPoisonsAConcurrentSession) {
  ServeOptions opts;
  opts.session.window_events = 32;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  // Solo run first: the reference for the well-behaved client.
  const Transcript ref = reference_transcript(
      hashmap_bytes(), session_config(ts.server.options(), {}));

  // A client that dies mid-frame without even half-closing, concurrent with
  // a clean one.
  std::thread killer([&] {
    EmitOptions emit;
    emit.socket_path = ts.path();
    emit.name = "killed";
    emit.kill_after_bytes = 37;  // mid-header: maximally rude
    emit.vanish = true;
    emit_trace_bytes(emit, hashmap_bytes());
  });
  EmitOptions clean;
  clean.socket_path = ts.path();
  clean.name = "clean";
  EmitResult result = emit_trace_bytes(clean, hashmap_bytes());
  killer.join();

  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.verdict_line, chomp(ref.verdict));
  EXPECT_TRUE(ts.server.running());
  // The killed client waits for nothing, so the server may still be ending
  // its session here; give it up to 5 s to record both sessions.
  ServerStats stats = ts.server.stats();
  for (int i = 0; i < 500 && stats.sessions_done + stats.sessions_torn < 2;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = ts.server.stats();
  }
  EXPECT_EQ(stats.sessions_done, 1u);
  EXPECT_EQ(stats.sessions_torn, 1u);
}

// ---- multi-client fairness ------------------------------------------------

TEST(ServeServerTest, SlowConsumerDoesNotPerturbOtherSessionsVerdicts) {
  ServeOptions opts;
  opts.session.window_events = 64;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  const Transcript ref = reference_transcript(
      hashmap_bytes(), session_config(ts.server.options(), {}));

  // One pathological slow consumer dribbling bytes...
  std::thread slow([&] {
    EmitOptions emit;
    emit.socket_path = ts.path();
    emit.name = "slow";
    emit.chunk_bytes = 16;
    emit.throttle_ms = 10;
    EmitResult r = emit_trace_bytes(emit, hashmap_bytes());
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.complete);
  });

  // ...while three normal clients stream concurrently. Each must match the
  // solo reference byte-for-byte: fairness is isolation, not throughput.
  std::vector<std::thread> normals;
  std::vector<EmitResult> results(3);
  for (int i = 0; i < 3; ++i)
    normals.emplace_back([&, i] {
      EmitOptions emit;
      emit.socket_path = ts.path();
      emit.name = "normal-" + std::to_string(i);
      results[static_cast<std::size_t>(i)] =
          emit_trace_bytes(emit, hashmap_bytes());
    });
  for (std::thread& t : normals) t.join();

  for (const EmitResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.verdict_line, chomp(ref.verdict));
    ASSERT_EQ(r.live_lines.size(), ref.live.size());
    for (std::size_t i = 0; i < ref.live.size(); ++i)
      EXPECT_EQ(r.live_lines[i], chomp(ref.live[i]));
  }
  slow.join();

  // The registry recorded per-session latency for every lane.
  for (const SessionStats& s : ts.server.sessions()) {
    if (s.session_kind && s.state == SessionState::kDone) {
      EXPECT_LT(s.p99_window_seconds, 60.0);
    }
  }
}

// Eight clients at once, each streaming a recorded lock ring through many
// small windows: every session's live transcript and verdict must equal the
// solo reference, and all eight must end complete.
TEST(ServeServerTest, EightConcurrentSessionsMatchTheSoloReference) {
  ServeOptions opts;
  opts.session.window_events = 8;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  test::LockShapeConfig shape;
  shape.ring_threads = 6;
  shape.ring_degree = 2;
  shape.generations = 2;
  const auto trace =
      sim::record_trace(test::lock_shape_program(shape), /*seed=*/7);
  ASSERT_TRUE(trace.has_value());
  const std::string bytes = trace_to_string(*trace, TraceFormat::kV3);
  const Transcript ref =
      reference_transcript(bytes, session_config(ts.server.options(), {}));
  // 146 events at window 8 close 19 windows and surface 352 live cycles.
  VerdictFields ref_verdict;
  ASSERT_TRUE(parse_verdict_line(chomp(ref.verdict), ref_verdict));
  ASSERT_TRUE(ref_verdict.complete);
  EXPECT_GT(ref_verdict.windows, 8u);
  ASSERT_FALSE(ref.live.empty()) << "payload surfaced no live cycle";

  constexpr int kClients = 8;
  std::vector<EmitResult> results(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      EmitOptions emit;
      emit.socket_path = ts.path();
      emit.name = "client-" + std::to_string(i);
      results[static_cast<std::size_t>(i)] = emit_trace_bytes(emit, bytes);
    });
  for (std::thread& t : clients) t.join();

  for (const EmitResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.verdict_line, chomp(ref.verdict));
    ASSERT_EQ(r.live_lines.size(), ref.live.size());
    for (std::size_t i = 0; i < ref.live.size(); ++i)
      EXPECT_EQ(r.live_lines[i], chomp(ref.live[i])) << "live line " << i;
  }
  // Each verdict is written before its session's registry entry is closed,
  // so give the server up to 5 s to count all eight.
  ServerStats stats = ts.server.stats();
  for (int i = 0; i < 500 && stats.sessions_done < kClients; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = ts.server.stats();
  }
  EXPECT_EQ(stats.sessions_done, static_cast<std::uint64_t>(kClients));
}

// ---- lifecycle ------------------------------------------------------------

TEST(ServeServerTest, BusyServerRejectsWithoutHarmingActiveSessions) {
  ServeOptions opts;
  opts.max_sessions = 1;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  // Occupy the only lane with a slow client.
  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    EmitOptions emit;
    emit.socket_path = ts.path();
    emit.name = "occupant";
    emit.chunk_bytes = 16;
    emit.throttle_ms = 50;
    EmitResult r = emit_trace_bytes(emit, hashmap_bytes());
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.complete);
    slow_done.store(true);
  });
  // Wait until the occupant is actually streaming.
  while (true) {
    bool streaming = false;
    for (const SessionStats& s : ts.server.sessions())
      if (s.state == SessionState::kStreaming) streaming = true;
    if (streaming || slow_done.load()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  EmitOptions emit;
  emit.socket_path = ts.path();
  emit.name = "rejected";
  EmitResult r = emit_trace_bytes(emit, hashmap_bytes());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("busy"), std::string::npos) << r.error;
  slow.join();
  EXPECT_GE(ts.server.stats().rejected, 1u);
}

TEST(ServeServerTest, IdleSessionIsEvictedWithAnHonestVerdict) {
  ServeOptions opts;
  opts.idle_timeout_ms = 200;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  // Hand-rolled client: hello, then silence. The server must evict and
  // still answer with a verdict + done, not just drop the connection.
  std::string error;
  Fd fd = unix_connect(ts.path(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string hello = format_hello("sleeper", {});
  hello += '\n';
  ASSERT_TRUE(write_all(fd.get(), hello));

  FdInBuf buf(fd.get());
  std::istream is(&buf);
  std::string line;
  bool saw_verdict = false;
  bool saw_done = false;
  VerdictFields fields;
  while (std::getline(is, line)) {
    if (line_type(line) == "verdict")
      saw_verdict = parse_verdict_line(line, fields);
    if (line_type(line) == "done") saw_done = true;
  }
  EXPECT_TRUE(saw_verdict);
  EXPECT_TRUE(saw_done);
  EXPECT_FALSE(fields.complete);
  EXPECT_NE(fields.stream_note.find("idle timeout"), std::string::npos)
      << fields.stream_note;
  EXPECT_EQ(ts.server.stats().sessions_evicted, 1u);
}

TEST(ServeServerTest, GarbageHelloGetsErrorLineAndServerKeepsServing) {
  TestServer ts(ServeOptions{});
  ASSERT_TRUE(ts.started);

  std::string error;
  Fd fd = unix_connect(ts.path(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  ASSERT_TRUE(write_all(fd.get(), std::string("GET / HTTP/1.1\n")));
  shutdown_write(fd.get());
  FdInBuf buf(fd.get());
  std::istream is(&buf);
  std::string line;
  bool saw_error = false;
  while (std::getline(is, line))
    if (line_type(line) == "error") saw_error = true;
  EXPECT_TRUE(saw_error);

  // The next, well-formed client is unaffected.
  EmitOptions emit;
  emit.socket_path = ts.path();
  EmitResult r = emit_trace_bytes(emit, hashmap_bytes());
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.complete);
}

TEST(ServeServerTest, OverflowingBudgetHelloGetsAnErrorLine) {
  TestServer ts(ServeOptions{});
  ASSERT_TRUE(ts.started);

  // 2^44 MiB: its byte count wraps size_t, so Config::validate() rejects it.
  EmitOptions emit;
  emit.socket_path = ts.path();
  emit.params["budget-mb"] = "17592186044416";
  EmitResult r = emit_trace_bytes(emit, hashmap_bytes());
  EXPECT_FALSE(r.ok());
  bool saw_error = false;
  for (const std::string& line : r.lines)
    if (line_type(line) == "error") saw_error = true;
  EXPECT_TRUE(saw_error);
  EXPECT_NE(r.error.find("memory_budget_mb"), std::string::npos) << r.error;
  EXPECT_TRUE(ts.server.running());
}

TEST(ServeServerTest, FatalDefaultConfigFailsStartBeforeBinding) {
  ServeOptions opts;
  opts.socket_path = unique_socket_path();
  opts.session.memory_budget_mb = static_cast<std::size_t>(-1);
  Server server(opts);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_EQ(error.rfind("config: memory_budget_mb must be < 2^44", 0), 0u)
      << error;
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(std::filesystem::exists(opts.socket_path));
}

TEST(ServeServerTest, GarbageStreamYieldsTornVerdictNotACrash) {
  TestServer ts(ServeOptions{});
  ASSERT_TRUE(ts.started);

  EmitOptions emit;
  emit.socket_path = ts.path();
  emit.name = "garbage";
  EmitResult r = emit_trace_bytes(emit, "this is not a trace\nof any kind\n");
  ASSERT_TRUE(r.done) << r.error;
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(ts.server.running());
}

TEST(ServeServerTest, StopDrainsStragglersAndStaysIdempotent) {
  ServeOptions opts;
  opts.drain_deadline_ms = 100;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  // A client slow enough to still be streaming when stop() lands.
  std::thread slow([&] {
    EmitOptions emit;
    emit.socket_path = ts.path();
    emit.name = "straggler";
    emit.chunk_bytes = 32;
    emit.throttle_ms = 20;
    EmitResult r = emit_trace_bytes(emit, hashmap_bytes());
    // The drain force-ended the read: the verdict must still arrive and be
    // honestly incomplete (or, if the client squeaked through, complete).
    EXPECT_TRUE(r.done) << r.error;
  });
  while (ts.server.stats().sessions_started == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ts.server.stop();
  ts.server.stop();  // idempotent
  slow.join();
  EXPECT_FALSE(ts.server.running());
  EXPECT_EQ(ts.server.stats().finished(), ts.server.stats().sessions_started);
}

// Lines of /proc/self/maps: one per mapping of this process's address space.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(maps, line)) ++lines;
  return lines;
}

// Each connection runs on its own handler thread, and an ended handler must
// be joined while the server runs, not only at stop(): an unjoined thread
// keeps its stack and guard page mapped, two mappings per connection, which
// would be 128 over the 64 calls below. A joined status connection's
// registry entry goes too.
TEST(ServeServerTest, EndedConnectionsReleaseTheirHandlerThreads) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the thread sanitizer maps per-thread state of its own";
#endif
  TestServer ts(ServeOptions{});
  ASSERT_TRUE(ts.started);
  std::vector<std::string> lines;
  std::string error;
  ASSERT_TRUE(fetch_status(ts.path(), lines, &error)) << error;
  const std::size_t before = mapping_count();
  if (before == 0) GTEST_SKIP() << "no /proc/self/maps";
  for (int i = 0; i < 64; ++i) {
    lines.clear();
    ASSERT_TRUE(fetch_status(ts.path(), lines, &error)) << error;
  }
  const std::size_t after = mapping_count();
  EXPECT_LT(after, before + 16) << before << " -> " << after;
  EXPECT_EQ(ts.server.stats().accepted, 65u);
  // No status connection became a session, so once the accept loop has
  // reaped the last handler the registry holds nothing.
  std::size_t entries = ts.server.sessions().size();
  for (int i = 0; i < 500 && entries != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    entries = ts.server.sessions().size();
  }
  EXPECT_EQ(entries, 0u);
}

// ---- chaos ----------------------------------------------------------------

// Randomized adversarial clients: corrupt bytes, mid-frame kills, slow
// dribbles, several at once. Two invariants, every seed: the server never
// dies, and every verdict that is delivered is honest (a complete verdict
// only ever comes from an untouched full stream — checked by matching the
// clean reference).
TEST(ServeChaosTest, NeverCrashesNeverSilentlyWrong) {
  ServeOptions opts;
  opts.session.window_events = 32;
  TestServer ts(opts);
  ASSERT_TRUE(ts.started);

  const std::string bytes = hashmap_bytes();
  const Transcript ref =
      reference_transcript(bytes, session_config(ts.server.options(), {}));

  Rng rng(0xC4A05u);
  for (int seed = 0; seed < 6; ++seed) {
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      const bool corrupt = rng.chance(0.5);
      const bool kill = rng.chance(0.34);
      const bool vanish = kill && rng.chance(0.5);
      // Strictly mid-stream: a kill at the full length would deliver every
      // byte and honestly complete, which is not the axis under test.
      const std::int64_t kill_after =
          kill ? rng.range(1, static_cast<std::int64_t>(bytes.size()) - 1)
               : -1;
      const std::int64_t throttle = rng.chance(0.34) ? 1 : 0;
      const std::uint64_t flip_seed = rng();
      clients.emplace_back([&, corrupt, kill, vanish, kill_after, throttle,
                            flip_seed, seed, c] {
        std::string payload = bytes;
        if (corrupt) {
          robust::FaultPlan plan;
          plan.bitflip_count = 3;
          payload = robust::corrupt_trace_bytes(std::move(payload), plan,
                                                flip_seed);
        }
        EmitOptions emit;
        emit.socket_path = ts.path();
        emit.name = "chaos-" + std::to_string(seed) + "-" + std::to_string(c);
        emit.kill_after_bytes = kill_after;
        emit.vanish = vanish;
        emit.throttle_ms = throttle;
        emit.chunk_bytes = 512;
        EmitResult r = emit_trace_bytes(emit, payload);
        if (kill && vanish) return;  // we read nothing; nothing to check
        ASSERT_TRUE(r.done) << r.error;
        // Honesty: a complete verdict implies an untouched full stream.
        if (r.complete) {
          EXPECT_FALSE(corrupt);
          EXPECT_FALSE(kill);
          EXPECT_EQ(r.verdict_line, chomp(ref.verdict));
        }
        if (corrupt || kill) {
          EXPECT_FALSE(r.verdict.stream_complete);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    ASSERT_TRUE(ts.server.running()) << "server died at seed " << seed;
  }

  // After the storm: a clean client still gets the exact reference answer.
  EmitOptions emit;
  emit.socket_path = ts.path();
  emit.name = "control";
  EmitResult r = emit_trace_bytes(emit, bytes);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.verdict_line, chomp(ref.verdict));
}

}  // namespace
}  // namespace wolf::serve
