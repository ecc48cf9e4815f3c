#include "trace/trace_reader.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>

#include "obs/counters.hpp"
#include "support/str.hpp"
#include "trace/wire.hpp"

namespace wolf {

namespace {

const obs::Counter kBlocksRead("trace.blocks");
const obs::Counter kEventsRead("trace.events");
const obs::Counter kSalvageRepairs("trace.salvage_repairs");

constexpr int kEof = std::istream::traits_type::eof();

// Block-size cap accepted by the reader. Writers emit wire::kBlockEvents;
// anything a reader could not sanely buffer is structural corruption.
constexpr std::uint64_t kMaxBlockEvents = 1u << 24;

// The frame buffer grows at most this much past the bytes that actually
// arrived, so a damaged header claiming a huge payload costs what the input
// holds, not what it claims.
constexpr std::size_t kFrameChunk = 64 * 1024;

// A defect in the region after the 'E' footer (the optional block index).
// Worded to name both the footer boundary and the index, because tests and
// users probing a truncated file search for either.
const char kBadIndexMsg[] =
    "malformed data after wolf-trace v3 footer (block index)";

std::string block_defect(std::size_t block, const char* what) {
  return "block " + std::to_string(block) + ": " + what;
}

// Decodes one block's payload against its stored checksum. Returns nullptr
// on success, else what is wrong with the block; `out` holds the decoded
// events (partial on failure — the caller discards it then).
const char* decode_block_events(std::string_view payload, std::uint64_t count,
                                std::uint64_t stored_checksum,
                                std::vector<Event>& out) {
  wire::ByteReader r(payload);
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  std::uint64_t block_checksum = wire::kChecksumSeed;
  std::uint64_t prev = 0;
  for (std::uint64_t j = 0; j < count; ++j) {
    Event e;
    if (!wire::get_event(r, j == 0, prev, e)) return "malformed event";
    prev = e.seq;
    block_checksum = wire::checksum_event(block_checksum, e);
    out.push_back(e);
  }
  if (r.remaining() != 0) return "trailing bytes in payload";
  if (block_checksum != stored_checksum) return "checksum mismatch";
  return nullptr;
}

}  // namespace

bool VectorTraceReader::next_block(std::vector<Event>& out) {
  out.clear();
  if (pos_ >= trace_->events.size()) return false;
  const std::size_t n =
      std::min(wire::kBlockEvents, trace_->events.size() - pos_);
  out.assign(trace_->events.begin() + static_cast<std::ptrdiff_t>(pos_),
             trace_->events.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  kBlocksRead.add();
  kEventsRead.add(n);
  return true;
}

StreamTraceReader::StreamTraceReader(std::istream& is, Mode mode)
    : is_(&is), mode_(mode), checksum_(wire::kChecksumSeed) {}

StreamTraceReader::StreamTraceReader(const std::string& path, Mode mode)
    : path_(path), mode_(mode), checksum_(wire::kChecksumSeed) {}

StreamTraceReader::~StreamTraceReader() = default;

void StreamTraceReader::defect(std::string msg) {
  if (mode_ == Mode::kStrict) {
    if (error_.empty()) error_ = std::move(msg);
    stage_ = Stage::kDone;
    return;
  }
  kSalvageRepairs.add();
  if (diagnostics_.size() < wire::kMaxDiagnostics)
    diagnostics_.push_back(std::move(msg));
}

bool StreamTraceReader::next_block(std::vector<Event>& out) {
  out.clear();
  bool more = false;
  if (stage_ == Stage::kStart && !start()) return false;
  if (stage_ == Stage::kText)
    more = next_text(out);
  else if (stage_ == Stage::kBinary)
    more = next_binary(out);
  if (more) {
    kBlocksRead.add();
    kEventsRead.add(out.size());
  }
  return more;
}

bool StreamTraceReader::start() {
  if (is_ == nullptr) {
    auto file = std::make_unique<std::ifstream>(path_, std::ios::binary);
    if (!*file) {
      defect("cannot open trace file '" + path_ + "'");
      stage_ = Stage::kDone;
      return false;
    }
    file_ = std::move(file);
    is_ = file_.get();
  }
  const int first = is_->peek();
  if (first == kEof) {
    defect(mode_ == Mode::kStrict ? "missing wolf-trace header"
                                  : "empty input");
    stage_ = Stage::kDone;
    return false;
  }
  if (first == (wire::kMagicV3[0] & 0xff)) {
    char magic[8];
    if (!is_->read(magic, 8) ||
        std::memcmp(magic, wire::kMagicV3, sizeof magic) != 0) {
      defect("bad wolf-trace v3 magic");
      stage_ = Stage::kDone;
      return false;
    }
    version_ = 3;
    in_ = is_->rdbuf();
    offset_ = sizeof wire::kMagicV3;
    stage_ = Stage::kBinary;
    return true;
  }
  std::string line;
  std::getline(*is_, line);
  lineno_ = 1;
  const auto header = trim(line);
  if (header == wire::kHeaderV1) {
    version_ = 1;
  } else if (header == wire::kHeaderV2) {
    version_ = 2;
  } else {
    defect("missing wolf-trace header");
    if (mode_ == Mode::kStrict) return false;  // defect() ended the stream
    // Maybe only the header was lost: reparse line 1 as an event.
    pending_first_line_ = std::string(header);
    reparse_first_ = true;
  }
  stage_ = Stage::kText;
  return true;
}

// ----------------------------------------------------------------- text ----

bool StreamTraceReader::consume_text_line(std::string_view text,
                                          std::vector<Event>& out) {
  if (text.empty()) return false;
  if (text.front() == '#') {
    // Footer lines matter for v2 and for headerless input (which may be a
    // v2 trace whose first line was lost); under v1 they are comments.
    if (version_ != 1 && starts_with(text, wire::kFooterPrefix)) {
      if (footer_seen_) {
        defect("duplicate wolf-trace footer at line " +
               std::to_string(lineno_));
        return false;
      }
      if (!wire::parse_footer(text, footer_count_, footer_checksum_)) {
        defect("malformed wolf-trace footer at line " +
               std::to_string(lineno_));
        return false;
      }
      footer_seen_ = true;
    }
    return false;
  }
  if (!prefix_open_ || footer_seen_) {
    if (footer_seen_ && prefix_open_)
      defect("event after wolf-trace footer at line " +
             std::to_string(lineno_));
    if (mode_ == Mode::kStrict) return false;
    prefix_open_ = false;
    ++events_dropped_;
    return false;
  }
  Event e;
  std::string err;
  if (!wire::parse_event_line(text, lineno_, e, err)) {
    defect(std::move(err));
    prefix_open_ = false;
    ++events_dropped_;
    return false;
  }
  if (have_prev_ && e.seq <= prev_seq_) {
    defect("non-monotonic sequence number at line " + std::to_string(lineno_));
    prefix_open_ = false;
    ++events_dropped_;
    return false;
  }
  prev_seq_ = e.seq;
  have_prev_ = true;
  checksum_ = wire::checksum_event(checksum_, e);
  ++count_;
  out.push_back(e);
  return true;
}

bool StreamTraceReader::next_text(std::vector<Event>& out) {
  if (reparse_first_) {
    reparse_first_ = false;
    consume_text_line(pending_first_line_, out);
  }
  std::string line;
  while (stage_ == Stage::kText && out.size() < wire::kBlockEvents &&
         std::getline(*is_, line)) {
    ++lineno_;
    consume_text_line(trim(line), out);
  }
  if (stage_ == Stage::kDone) {  // strict defect mid-stream
    out.clear();
    return false;
  }
  if (out.size() >= wire::kBlockEvents) return true;
  // End of input: run the footer checks, then deliver the final partial
  // block (unless a strict check just failed).
  if (version_ == 2 && !footer_seen_) {
    defect("missing wolf-trace footer (truncated trace?)");
  } else if (footer_seen_) {
    if (footer_count_ != count_) {
      defect("footer event count mismatch (footer says " +
             std::to_string(footer_count_) + ", " +
             (mode_ == Mode::kStrict ? "trace has " : "salvaged ") +
             std::to_string(count_) + ")");
    } else if (footer_checksum_ != checksum_) {
      defect("trace checksum mismatch");
    }
  }
  const bool failed = stage_ == Stage::kDone;  // strict footer defect
  stage_ = Stage::kDone;
  if (failed || out.empty()) {
    out.clear();
    return false;
  }
  return true;
}

// ------------------------------------------------------------ binary ----

int StreamTraceReader::get_byte() {
  const int c = in_->sbumpc();
  if (c != kEof) ++offset_;
  return c;
}

bool StreamTraceReader::get_varint(std::uint64_t& out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = get_byte();
    if (c == kEof) return false;
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

bool StreamTraceReader::get_u64le(std::uint64_t& out) {
  char buf[8];
  const auto n = in_->sgetn(buf, sizeof buf);
  offset_ += static_cast<std::uint64_t>(n);
  wire::ByteReader r(std::string_view(buf, static_cast<std::size_t>(n)));
  return r.get_u64le(out);
}

std::size_t StreamTraceReader::get_frame(std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const std::size_t want = std::min(n - got, std::max(got, kFrameChunk));
    if (frame_.size() < got + want) frame_.resize(got + want);
    const auto read = static_cast<std::size_t>(
        in_->sgetn(frame_.data() + got, static_cast<std::streamsize>(want)));
    got += read;
    offset_ += read;
    if (read < want) break;
  }
  return got;
}

bool StreamTraceReader::next_binary(std::vector<Event>& out) {
  while (stage_ == Stage::kBinary) {
    const int tag = get_byte();
    if (tag == kEof) {
      if (!footer_seen_)
        defect("missing wolf-trace v3 footer (truncated trace?)");
      else
        finish_footer_checks(events_dropped_ > 0);
      stage_ = Stage::kDone;
      break;
    }
    if (footer_seen_) {
      if (tag == wire::kIndexTag) {
        consume_index_section();
        continue;
      }
      defect("data after wolf-trace v3 footer");
      stage_ = Stage::kDone;
      break;
    }
    if (tag == wire::kFooterTag) {
      if (!get_varint(footer_count_) || !get_u64le(footer_checksum_)) {
        defect("malformed wolf-trace v3 footer");
        stage_ = Stage::kDone;
        break;
      }
      footer_seen_ = true;
      continue;
    }
    if (tag != wire::kBlockTag) {
      defect("bad wolf-trace v3 block tag (block " +
             std::to_string(next_block_index_) + ")");
      stage_ = Stage::kDone;
      break;
    }

    const std::size_t block = next_block_index_++;
    std::uint64_t count = 0, payload_size = 0;
    if (!get_varint(count) || !get_varint(payload_size)) {
      defect(block_defect(block, "truncated header"));
      stage_ = Stage::kDone;
      break;
    }
    if (count == 0 || count > kMaxBlockEvents ||
        payload_size < count * wire::kMinEventBytes ||
        payload_size > count * wire::kMaxEventBytes) {
      defect(block_defect(block, "malformed header"));
      stage_ = Stage::kDone;
      break;
    }
    // Payload and its trailing checksum arrive in one read.
    const auto payload_bytes = static_cast<std::size_t>(payload_size);
    const std::size_t got = get_frame(payload_bytes + 8);
    if (got < payload_bytes + 8) {
      defect(block_defect(block, got < payload_bytes ? "truncated payload"
                                                     : "truncated checksum"));
      events_dropped_ += count;
      stage_ = Stage::kDone;
      break;
    }
    const std::string_view frame(frame_.data(), payload_bytes + 8);
    std::uint64_t stored_checksum = 0;
    wire::ByteReader(frame.substr(payload_bytes)).get_u64le(stored_checksum);

    // Framing is intact from here on, so in salvage mode a defect drops
    // only this block and the loop moves on to the next one.
    const char* bad = decode_block_events(frame.substr(0, payload_bytes),
                                          count, stored_checksum, out);
    if (bad == nullptr && have_prev_ && out.front().seq <= prev_seq_)
      bad = "non-monotonic sequence number";
    if (bad != nullptr) {
      defect(block_defect(block, bad));
      events_dropped_ += count;
      continue;  // salvage: skip this block; strict: stage_ is kDone
    }
    for (const Event& e : out) checksum_ = wire::checksum_event(checksum_, e);
    prev_seq_ = out.back().seq;
    have_prev_ = true;
    count_ += count;
    return true;
  }
  out.clear();
  return false;
}

void StreamTraceReader::consume_index_section() {
  // The index is the last section of the input; read the remainder (it is
  // small — ~14 bytes per 512-event block) and validate it wholesale: it
  // must end in the 16-byte trailer, whose offset points back at the tag.
  const std::uint64_t tag_at = offset_ - 1;
  const std::string rest{std::istreambuf_iterator<char>(in_),
                         std::istreambuf_iterator<char>()};
  bool ok = rest.size() >= wire::kIndexTrailerBytes;
  std::vector<wire::IndexEntry> entries;
  if (ok) {
    const std::size_t trailer = rest.size() - wire::kIndexTrailerBytes;
    wire::ByteReader tail(std::string_view(rest).substr(trailer));
    std::uint64_t section_offset = 0;
    tail.get_u64le(section_offset);
    ok = section_offset == tag_at &&
         std::memcmp(rest.data() + trailer + 8, wire::kIndexMagic,
                     sizeof wire::kIndexMagic) == 0;
    if (ok) {
      wire::ByteReader r(std::string_view(rest).substr(0, trailer));
      ok = wire::get_index_entries(r, entries);
    }
  }
  if (ok) ok = entries.size() == next_block_index_;
  if (!ok) {
    defect(kBadIndexMsg);
    return;  // salvage: nothing after the index region is deliverable
  }
  index_present_ = true;
}

void StreamTraceReader::finish_footer_checks(bool dropped_any) {
  // With blocks dropped the totals necessarily disagree — the per-block
  // diagnostics already explain why, so only intact salvages (and strict
  // reads) compare against the footer.
  if (mode_ == Mode::kSalvage && dropped_any) return;
  if (footer_count_ != count_) {
    defect("footer event count mismatch (footer says " +
           std::to_string(footer_count_) + ", " +
           (mode_ == Mode::kStrict ? "trace has " : "salvaged ") +
           std::to_string(count_) + ")");
  } else if (footer_checksum_ != checksum_) {
    defect("trace checksum mismatch");
  }
}

PipelinedTraceReader::PipelinedTraceReader(TraceReader& source,
                                           std::size_t depth)
    : source_(&source), queue_(depth) {
  producer_ = std::thread([this] { produce(); });
}

PipelinedTraceReader::~PipelinedTraceReader() {
  // Unblocks a producer stalled on a full ring; it observes the close,
  // stops reading the source, and exits.
  queue_.close();
  join();
  // Early destruction (consumer abandoned the stream before draining to
  // false) can leave a producer exception nobody will ever rethrow. A
  // destructor cannot surface it, but it must not vanish either: count it.
  // Unstable — whether a consumer bails before seeing the error is a
  // scheduling artifact, not pipeline semantics.
  if (producer_error_ && !error_delivered_) {
    static const obs::Counter abandoned("trace.pipeline_abandoned_errors",
                                        /*stable=*/false);
    abandoned.add();
  }
}

void PipelinedTraceReader::produce() {
  try {
    std::vector<Event> block;
    while (source_->next_block(block)) {
      if (!queue_.push(std::move(block))) break;  // consumer gone
      block.clear();  // moved-from: restore a known state for reuse
    }
  } catch (...) {
    producer_error_ = std::current_exception();
  }
  queue_.close();
}

void PipelinedTraceReader::join() {
  if (joined_) return;
  joined_ = true;
  if (producer_.joinable()) producer_.join();
}

bool PipelinedTraceReader::next_block(std::vector<Event>& out) {
  if (queue_.pop(out)) return true;
  out.clear();
  // Closed and drained: the producer is done (or dying) — join it so the
  // source's error state is fully published, then surface its exception.
  join();
  if (producer_error_) {
    error_delivered_ = true;
    std::rethrow_exception(producer_error_);
  }
  return false;
}

}  // namespace wolf
