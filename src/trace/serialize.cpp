#include "trace/serialize.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "support/check.hpp"
#include "trace/trace_reader.hpp"
#include "trace/wire.hpp"

namespace wolf {

const char* to_string(TraceFormat format) {
  switch (format) {
    case TraceFormat::kV1:
      return "v1";
    case TraceFormat::kV2:
      return "v2";
    case TraceFormat::kV3:
      return "v3";
  }
  return "?";
}

std::optional<TraceFormat> trace_format_from_string(std::string_view name) {
  if (name == "v1") return TraceFormat::kV1;
  if (name == "v2") return TraceFormat::kV2;
  if (name == "v3") return TraceFormat::kV3;
  return std::nullopt;
}

StreamTraceWriter::StreamTraceWriter(std::ostream& os, TraceFormat format,
                                     Options options)
    : os_(os),
      format_(format),
      options_(options),
      checksum_(wire::kChecksumSeed) {
  if (format_ == TraceFormat::kV3) {
    os_.write(wire::kMagicV3, sizeof wire::kMagicV3);
    bytes_ = sizeof wire::kMagicV3;
    block_.reserve(wire::kBlockEvents);
  } else {
    os_ << (format_ == TraceFormat::kV1 ? wire::kHeaderV1 : wire::kHeaderV2)
        << '\n';
  }
}

void StreamTraceWriter::write(const Event& e) {
  WOLF_CHECK_MSG(!finished_, "trace writer already finished");
  WOLF_CHECK_MSG(!have_prev_ || e.seq > prev_seq_,
                 "trace writer requires strictly increasing seq");
  prev_seq_ = e.seq;
  have_prev_ = true;
  checksum_ = wire::checksum_event(checksum_, e);
  ++count_;
  if (format_ == TraceFormat::kV3) {
    block_.push_back(e);
    if (block_.size() >= wire::kBlockEvents) flush_block();
    return;
  }
  os_ << e.seq << ' ' << to_string(e.kind) << ' ' << e.thread << ' ' << e.site
      << ' ' << e.occurrence << ' ' << e.lock << ' ' << e.other << '\n';
}

void StreamTraceWriter::flush_block() {
  if (block_.empty()) return;
  std::string& payload = scratch_;
  payload.clear();
  std::uint64_t block_checksum = wire::kChecksumSeed;
  std::uint64_t prev = 0;
  for (std::size_t j = 0; j < block_.size(); ++j) {
    const Event& e = block_[j];
    wire::put_event(payload, e, j == 0, prev);
    prev = e.seq;
    block_checksum = wire::checksum_event(block_checksum, e);
  }
  std::string frame;
  frame.push_back(wire::kBlockTag);
  wire::put_varint(frame, block_.size());
  wire::put_varint(frame, payload.size());
  const std::size_t header_bytes = frame.size();
  wire::IndexEntry entry;
  entry.offset = bytes_;
  entry.first_seq = block_.front().seq;
  entry.last_seq = block_.back().seq;
  entry.count = block_.size();
  entry.chain = checksum_;  // write() already chained this block's events
  index_.push_back(entry);
  os_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  os_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  frame.clear();
  wire::put_u64le(frame, block_checksum);
  os_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  bytes_ += header_bytes + payload.size() + 8;
  block_.clear();
}

void StreamTraceWriter::finish() {
  WOLF_CHECK_MSG(!finished_, "trace writer already finished");
  finished_ = true;
  if (format_ != TraceFormat::kV3) {
    if (format_ == TraceFormat::kV2) {
      os_ << wire::kFooterPrefix << ' ' << count_ << ' '
          << wire::to_hex(checksum_) << '\n';
    }
    return;
  }
  flush_block();
  std::string frame;
  frame.push_back(wire::kFooterTag);
  wire::put_varint(frame, count_);
  wire::put_u64le(frame, checksum_);
  os_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  bytes_ += frame.size();
  if (options_.index) {
    frame.clear();
    wire::put_index_section(frame, index_, bytes_);
    os_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    bytes_ += frame.size();
  }
}

void write_trace(std::ostream& os, const Trace& trace, TraceFormat format,
                 StreamTraceWriter::Options options) {
  StreamTraceWriter writer(os, format, options);
  writer.write(trace.events);
  writer.finish();
}

std::string trace_to_string(const Trace& trace, TraceFormat format,
                            StreamTraceWriter::Options options) {
  std::ostringstream os;
  write_trace(os, trace, format, options);
  return os.str();
}

std::uint64_t trace_checksum(const Trace& trace) {
  std::uint64_t checksum = wire::kChecksumSeed;
  for (const Event& e : trace.events)
    checksum = wire::checksum_event(checksum, e);
  return checksum;
}

// Both batch readers drain the streaming reader (trace_reader.cpp), so the
// batch and block-by-block paths accept exactly the same inputs and report
// exactly the same defects.

namespace {

std::optional<Trace> drain_strict(StreamTraceReader& reader,
                                  std::string* error) {
  Trace trace;
  std::vector<Event> block;
  while (reader.next_block(block))
    trace.events.insert(trace.events.end(), block.begin(), block.end());
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  return trace;
}

}  // namespace

std::optional<Trace> read_trace(std::istream& is, std::string* error) {
  StreamTraceReader reader(is, StreamTraceReader::Mode::kStrict);
  return drain_strict(reader, error);
}

std::optional<Trace> read_trace(const std::string& path, std::string* error) {
  StreamTraceReader reader(path, StreamTraceReader::Mode::kStrict);
  return drain_strict(reader, error);
}

std::optional<Trace> trace_from_string(const std::string& text,
                                       std::string* error) {
  std::istringstream is{text};
  return read_trace(is, error);
}

namespace {

// What is wrong with thread id `t` ("" when nothing): analysis accepts
// [0, kThreadIdBound). `role` prefixes "thread id" in the message.
std::string thread_id_violation(ThreadId t, const char* role) {
  if (t < 0) return std::string("negative ") + role + "thread id " +
                    std::to_string(t);
  if (t >= kThreadIdBound)
    return std::string(role) + "thread id " + std::to_string(t) +
           " is not below the bound " + std::to_string(kThreadIdBound);
  return {};
}

// Semantic lock-discipline validation over salvaged events. Format-level
// salvage catches framing damage (and v3 checksums catch payload damage),
// but a flipped bit inside a *text* trace can yield a line that still
// parses — e.g. a release naming a lock its thread never acquired — and
// such an event would fire invariant checks deep inside analysis. The
// salvage contract is that the returned prefix is safe to analyze, so walk
// the events with per-thread held stacks and cut at the first violation.
void validate_salvaged_events(SalvageReport& report) {
  std::unordered_map<ThreadId, std::vector<LockId>> held;
  // What `e` violates ("" when nothing); applies it to `held` otherwise.
  // The message is built only at a violation.
  auto violation = [&held](const Event& e) -> std::string {
    std::string bad = thread_id_violation(e.thread, "");
    if (bad.empty() && (e.kind == EventKind::kThreadStart ||
                        e.kind == EventKind::kThreadJoin))
      bad = thread_id_violation(e.other, "child ");
    if (!bad.empty()) return bad;
    if (e.kind == EventKind::kLockAcquire) {
      held[e.thread].push_back(e.lock);
    } else if (e.kind == EventKind::kLockRelease) {
      auto& stack = held[e.thread];
      auto it = std::find(stack.rbegin(), stack.rend(), e.lock);
      if (it == stack.rend())
        return "t" + std::to_string(e.thread) + " releases lock " +
               std::to_string(e.lock) + " it does not hold";
      stack.erase(std::next(it).base());
    }
    return {};
  };
  std::vector<Event>& events = report.trace.events;
  for (std::size_t bad = 0; bad < events.size(); ++bad) {
    const std::string what = violation(events[bad]);
    if (what.empty()) continue;
    const std::size_t dropped = events.size() - bad;
    std::ostringstream os;
    os << "event " << bad << " (seq " << events[bad].seq << "): " << what
       << "; dropping it and the " << (dropped - 1) << " event(s) after it";
    events.resize(bad);
    report.events_dropped += dropped;
    report.complete = false;
    report.diagnostics.push_back(os.str());
    return;
  }
}

// Drains a salvage-mode reader into a batch report, applying the semantic
// prefix validation both the stream and path entry points share.
SalvageReport drain_salvage(StreamTraceReader& reader) {
  SalvageReport report;
  std::vector<Event> block;
  while (reader.next_block(block))
    report.trace.events.insert(report.trace.events.end(), block.begin(),
                               block.end());
  report.version = reader.version();
  report.complete = reader.complete();
  report.events_dropped = reader.events_dropped();
  report.diagnostics = reader.diagnostics();
  validate_salvaged_events(report);
  return report;
}

}  // namespace

SalvageReport read_trace_salvage(std::istream& is) {
  StreamTraceReader reader(is, StreamTraceReader::Mode::kSalvage);
  return drain_salvage(reader);
}

SalvageReport read_trace_salvage(const std::string& path) {
  StreamTraceReader reader(path, StreamTraceReader::Mode::kSalvage);
  return drain_salvage(reader);
}

SalvageReport salvage_trace_from_string(const std::string& text) {
  std::istringstream is{text};
  return read_trace_salvage(is);
}

std::string SalvageReport::summary() const {
  std::ostringstream os;
  os << "salvaged " << trace.events.size() << " event(s)";
  if (version > 0) os << " from a v" << version << " trace";
  if (complete) {
    os << " (complete)";
  } else {
    os << " (incomplete: " << events_dropped << " dropped";
    if (!diagnostics.empty()) os << "; " << diagnostics.front();
    os << ")";
  }
  return os.str();
}

}  // namespace wolf
