// Trace (de)serialization: text v1/v2 and binary v3.
//
// WOLF's pipeline is offline: detection consumes a recorded trace, possibly
// from an earlier process, so the on-disk format must both round-trip exactly
// and fail loudly when a recording run died mid-write. Three versions exist,
// all fully readable and writable (`wolf convert` translates between them):
//
// v1/v2 are line-oriented text:
//
//   # wolf-trace v2
//   <seq> <kind> <thread> <site> <occurrence> <lock> <other>
//   ...
//   # wolf-trace-end <count> <checksum-hex>
//
// with kind as the short names from event.cpp. v2 appends a footer carrying
// the event count and a chained mix64 checksum over every event's fields;
// the strict reader rejects a v2 trace whose footer is missing or does not
// match (a truncated or corrupted file). v1 traces (no footer) still load.
//
// v3 is binary and block-framed (wire format in trace/wire.hpp): an 8-byte
// magic, then blocks of up to 512 events — each block a 1-byte tag, varint
// event count, varint payload size, varint/delta-encoded events (kinds are
// one byte; seq is delta-1 coded, so the common +1 step costs one 0x00
// byte), and a per-block mix64 checksum — then a footer with the total
// count and the same whole-trace checksum a v2 footer carries. Blocks are
// independently decodable, so read_trace_salvage recovers at block
// granularity: a corrupt block is dropped and named in the diagnostics
// while the blocks after it still load. v3 runs ~3x smaller than v2 and
// decodes without any text parsing.
//
// Sequence numbers must be strictly increasing in every version.
//
// Readers auto-detect the format from the first byte. Two are provided:
//   * read_trace — strict: any defect returns nullopt with a message;
//   * read_trace_salvage — recovers everything recoverable from a damaged
//     file (the longest valid prefix for text, all intact blocks for v3),
//     with per-defect diagnostics, so a crash-truncated recording can still
//     feed detection.
// For block-by-block consumption without materializing the whole event
// vector, see trace/trace_reader.hpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event.hpp"
#include "trace/wire.hpp"

namespace wolf {

enum class TraceFormat : std::uint8_t {
  kV1,  // text, header only (legacy)
  kV2,  // text, header + count/checksum footer
  kV3,  // binary, block-framed varint/delta encoding
};

const char* to_string(TraceFormat format);
// Parses "v1"/"v2"/"v3" (CLI --format values); nullopt otherwise.
std::optional<TraceFormat> trace_format_from_string(std::string_view name);

// Incremental trace writer: the streaming dual of StreamTraceReader. Feed
// events in strictly increasing seq order (any mix of single events and
// batches), then call finish() exactly once to emit the footer. `wolf
// convert` pumps a 10^8-event trace through this in O(block) memory; the
// batch write_trace below is a thin wrapper, so the two paths can never
// produce different bytes.
//
// For v3 the writer tracks every block's file offset, seq range, count,
// and running checksum, and finish() appends the footer block index
// (wire.hpp), which readers validate and tools may seek by. Readers treat
// the index as optional, so a v3 file cut just before it still loads.
class StreamTraceWriter {
 public:
  // Writes the header/magic immediately. v3 streams must be binary.
  StreamTraceWriter(std::ostream& os, TraceFormat format);
  void write(const Event& e);
  void write(const std::vector<Event>& events) {
    for (const Event& e : events) write(e);
  }
  // Flushes the pending block and writes the footer (+ index). Must be
  // called exactly once; no writes may follow.
  void finish();

  std::uint64_t events_written() const { return count_; }
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  void flush_block();

  std::ostream& os_;
  TraceFormat format_;
  bool finished_ = false;
  std::uint64_t bytes_ = 0;  // v3: file offset of the next byte
  std::uint64_t count_ = 0;
  std::uint64_t checksum_;
  bool have_prev_ = false;
  std::uint64_t prev_seq_ = 0;
  std::vector<Event> block_;    // v3: events pending in the open block
  std::string scratch_;         // v3: encode buffer reused across blocks
  std::vector<wire::IndexEntry> index_;
};

// Streams opened for v3 traffic should be binary; text formats tolerate
// either. Writers require strictly increasing sequence numbers.
void write_trace(std::ostream& os, const Trace& trace,
                 TraceFormat format = TraceFormat::kV2);
std::string trace_to_string(const Trace& trace,
                            TraceFormat format = TraceFormat::kV2);

// The checksum a v2 or v3 footer carries for `trace`; identical across
// formats, so conversion preserves it.
std::uint64_t trace_checksum(const Trace& trace);

// Strict readers: return nullopt and fill *error on malformed input.
std::optional<Trace> read_trace(std::istream& is, std::string* error = nullptr);
// Path overload: opens the file itself (binary). It runs the same reader
// as the stream form, so it accepts and rejects exactly the same inputs.
std::optional<Trace> read_trace(const std::string& path,
                                std::string* error = nullptr);
std::optional<Trace> trace_from_string(const std::string& text,
                                       std::string* error = nullptr);

// Result of a salvage read: every recoverable event plus diagnostics
// describing everything that had to be dropped.
struct SalvageReport {
  Trace trace;              // the recovered events
  int version = 0;          // 0 when the header is missing/unrecognized
  bool complete = false;    // true iff nothing was wrong (strict would pass)
  // Non-comment lines (text) or header-counted events (v3) dropped.
  std::size_t events_dropped = 0;
  std::vector<std::string> diagnostics;  // per-defect messages (capped)

  std::string summary() const;  // one human-readable line
};

// Tolerant readers: never fail. A missing header, a garbled line, a
// truncated tail, or a bad footer ends the text prefix (or adds a
// diagnostic); a damaged v3 block is skipped by name while later blocks
// still load.
SalvageReport read_trace_salvage(std::istream& is);
// Path overload: the same recovery and diagnostics as the stream form.
SalvageReport read_trace_salvage(const std::string& path);
SalvageReport salvage_trace_from_string(const std::string& text);

}  // namespace wolf
