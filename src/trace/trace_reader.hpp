// Pull-based streaming trace readers.
//
// A TraceReader hands out a recorded trace block-by-block, so consumers —
// detection via detect_reader(), `wolf analyze` on file input — process
// traces of any length without materializing the whole std::vector<Event>.
// Producers:
//
//   * VectorTraceReader — adapter over an in-memory Trace (borrowed);
//   * StreamTraceReader — incremental reader over an std::istream or a
//     file path, in any on-disk format (text v1/v2 or binary v3,
//     auto-detected), the streaming equivalent of read_trace /
//     read_trace_salvage. All three batch readers in serialize.cpp are
//     thin drains over this class, so streaming and batch consumption can
//     never diverge.
//
// Usage:
//
//   StreamTraceReader reader(file);           // strict by default
//   std::vector<Event> block;
//   while (reader.next_block(block)) consume(block);
//   if (!reader.ok()) complain(reader.error());
//
// In kStrict mode the first defect stops the stream with error() set; in
// kSalvage mode defects become diagnostics() and the reader keeps going —
// recovering the longest valid prefix of a text trace, and every intact
// block of a v3 trace up to the first damaged block header (a block whose
// payload is damaged is skipped by name while the blocks after it still
// load; a damaged tag or header breaks the framing and ends the scan).
//
// There is one v3 loop (DESIGN.md §15). The path constructor opens the
// file as a binary std::ifstream, so files, `wolf convert` and `wolf serve`
// sockets all read the same way: each frame header comes off the stream
// buffer, a block's payload and checksum land in one reused buffer, and
// the footer block index is validated (trailer offset included) but never
// used to seek.
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/ring_queue.hpp"
#include "trace/event.hpp"

namespace wolf {

class TraceReader {
 public:
  virtual ~TraceReader() = default;

  // Replaces `out` with the next block of events. Returns false when the
  // stream is exhausted (or, for StreamTraceReader in strict mode, on the
  // first defect); `out` is empty after a false return.
  virtual bool next_block(std::vector<Event>& out) = 0;
};

// Streams an in-memory trace in fixed-size blocks. Borrows the trace; the
// caller keeps it alive while reading.
class VectorTraceReader final : public TraceReader {
 public:
  explicit VectorTraceReader(const Trace& trace) : trace_(&trace) {}
  bool next_block(std::vector<Event>& out) override;

 private:
  const Trace* trace_;
  std::size_t pos_ = 0;
};

class StreamTraceReader final : public TraceReader {
 public:
  enum class Mode { kStrict, kSalvage };

  // Borrows `is`; the caller keeps the stream alive while reading. v3
  // streams must be opened in binary mode.
  explicit StreamTraceReader(std::istream& is, Mode mode = Mode::kStrict);
  // Opens `path` itself, in binary mode, on the first next_block().
  explicit StreamTraceReader(const std::string& path,
                             Mode mode = Mode::kStrict);
  ~StreamTraceReader();

  bool next_block(std::vector<Event>& out) override;

  // Valid once next_block has returned false.
  bool ok() const { return error_.empty(); }        // strict: no defect
  const std::string& error() const { return error_; }

  // Salvage-mode accounting (mirrors SalvageReport).
  int version() const { return version_; }
  bool complete() const {
    return diagnostics_.empty() && events_dropped_ == 0;
  }
  std::size_t events_dropped() const { return events_dropped_; }
  const std::vector<std::string>& diagnostics() const { return diagnostics_; }
  std::uint64_t events_read() const { return count_; }
  // True once a v3 footer block index was read and found valid.
  bool index_present() const { return index_present_; }

 private:
  enum class Stage { kStart, kText, kBinary, kDone };

  // Records a defect: strict mode sets error_ and ends the stream; salvage
  // mode appends a (capped) diagnostic and leaves the stage alone.
  void defect(std::string msg);
  bool start();
  bool next_text(std::vector<Event>& out);
  bool next_binary(std::vector<Event>& out);
  // One parsed text line; returns true when an event was appended to `out`.
  bool consume_text_line(std::string_view text, std::vector<Event>& out);
  void finish_footer_checks(bool dropped_any);
  // Consumes the index section (tag already read) to the end of input;
  // defects on any damage.
  void consume_index_section();

  // v3 byte reads off in_; each advances offset_ by what it consumed.
  int get_byte();
  bool get_varint(std::uint64_t& out);
  bool get_u64le(std::uint64_t& out);
  // Reads up to `n` bytes into frame_; returns how many arrived.
  std::size_t get_frame(std::size_t n);

  std::istream* is_ = nullptr;           // borrowed or owned (file_)
  std::unique_ptr<std::istream> file_;   // path constructor's stream
  std::string path_;                     // empty for the istream ctor
  Mode mode_;
  Stage stage_ = Stage::kStart;
  int version_ = 0;
  std::string error_;
  std::vector<std::string> diagnostics_;
  std::size_t events_dropped_ = 0;

  // Shared event-stream state.
  std::uint64_t count_ = 0;
  std::uint64_t checksum_;
  bool have_prev_ = false;
  std::uint64_t prev_seq_ = 0;
  bool footer_seen_ = false;
  std::uint64_t footer_count_ = 0;
  std::uint64_t footer_checksum_ = 0;

  // Text state.
  int lineno_ = 0;
  bool prefix_open_ = true;
  std::string pending_first_line_;  // headerless salvage: reparse line 1
  bool reparse_first_ = false;

  // Binary state.
  std::streambuf* in_ = nullptr;  // is_'s buffer, read directly
  std::uint64_t offset_ = 0;      // bytes consumed: the next byte's offset
  std::string frame_;             // one block's payload + checksum, reused
  std::size_t next_block_index_ = 0;
  bool index_present_ = false;
};

// Stage-pipelining adapter (DESIGN.md §17): moves a source reader's block
// production onto a dedicated producer thread, handing decoded blocks to the
// caller through a bounded queue (support/ring_queue.hpp). The serve sidecar
// wraps each session's socket reader in one, so socket reads and decode
// overlap that session's detection instead of alternating with it.
//
// Delivery is trivially bit-identical to draining the source directly: the
// queue preserves block order and block contents, and next_block() returns
// false only after the producer exhausted the source. Backpressure is the
// queue's fixed depth — the producer holds at most `depth` queued blocks
// plus the one it is pushing, so a slow consumer bounds the pipeline's
// memory, not the trace length. A producer-side exception is captured and
// rethrown from the consumer's next next_block() call, after the producer
// has been joined.
//
// The source reader is borrowed and must outlive this adapter. While the
// adapter is alive the producer thread owns the source: do not touch it from
// the consumer side until next_block() has returned false (or the adapter is
// destroyed) — after either, the source's error/salvage accessors are safe
// again and reflect the whole stream.
class PipelinedTraceReader final : public TraceReader {
 public:
  PipelinedTraceReader(TraceReader& source, std::size_t depth);
  ~PipelinedTraceReader() override;

  PipelinedTraceReader(const PipelinedTraceReader&) = delete;
  PipelinedTraceReader& operator=(const PipelinedTraceReader&) = delete;

  bool next_block(std::vector<Event>& out) override;

 private:
  void produce();
  void join();

  TraceReader* source_;
  RingQueue<std::vector<Event>> queue_;
  std::thread producer_;
  bool joined_ = false;
  // Written by the producer before it closes the queue; read by the
  // consumer only after pop() has observed the close (which synchronizes).
  // A consumer that destroys the adapter before draining to false never
  // sees the exception — the destructor cannot throw, so that case is
  // counted on the "trace.pipeline_abandoned_errors" obs counter instead
  // of being silently swallowed (error_delivered_ tells the two apart).
  std::exception_ptr producer_error_;
  bool error_delivered_ = false;
};

}  // namespace wolf
