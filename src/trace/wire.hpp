// Wire primitives of the binary trace format v3 (serialize.hpp), shared by
// the batch (de)serializer and the streaming reader.
//
// v3 is block-framed:
//
//   magic (8 bytes):  89 'W' 'O' 'L' 'F' '3' 0D 0A
//   block*:           'B' varint(count) varint(payload_bytes)
//                     payload  u64le(block_checksum)
//   footer:           'E' varint(total_count) u64le(trace_checksum)
//
// The magic follows the PNG convention: the high bit catches 7-bit
// transmission damage and the trailing CRLF catches newline translation.
// Each block's payload encodes `count` events:
//
//   kind (1 byte)
//   seq:        varint — absolute for the block's first event, then
//               varint(seq - prev_seq - 1); sequence numbers are strictly
//               increasing, so the common delta-1 case is a single 0x00
//   thread, site, occurrence, lock, other: zigzag varints (-1 → 1 byte)
//
// Every block is therefore decodable in isolation (its first seq is
// absolute), which is what lets read_trace_salvage skip a corrupt block and
// keep salvaging the blocks after it. block_checksum chains mix64 over the
// block's events from the fixed seed; the footer checksum is
// trace_checksum() — the same value a v2 footer carries, so converting
// between v2 and v3 preserves the checksum.
// The text v1/v2 line grammar helpers live here too, so the batch readers
// in serialize.cpp and the streaming reader in trace_reader.cpp parse with
// the same code.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"
#include "support/str.hpp"
#include "trace/event.hpp"

namespace wolf::wire {

// ---------------------------------------------------------------- checksums

inline constexpr std::uint64_t kChecksumSeed = 0x9e3779b97f4a7c15ULL;

// Chains one event into a running mix64 checksum; used per block (v3) and
// over the whole trace (v2/v3 footers).
inline std::uint64_t checksum_event(std::uint64_t h, const Event& e) {
  h = mix64(h ^ e.seq);
  h = mix64(h ^ static_cast<std::uint64_t>(e.kind));
  h = mix64(h ^ static_cast<std::uint64_t>(e.thread));
  h = mix64(h ^ static_cast<std::uint64_t>(e.site));
  h = mix64(h ^ static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(e.occurrence)));
  h = mix64(h ^ static_cast<std::uint64_t>(e.lock));
  h = mix64(h ^ static_cast<std::uint64_t>(e.other));
  return h;
}

// ------------------------------------------------------------- text grammar

inline constexpr const char* kHeaderV1 = "# wolf-trace v1";
inline constexpr const char* kHeaderV2 = "# wolf-trace v2";
inline constexpr const char* kFooterPrefix = "# wolf-trace-end";
inline constexpr std::size_t kMaxDiagnostics = 8;

inline std::optional<EventKind> kind_from_string(std::string_view s) {
  if (s == "begin") return EventKind::kThreadBegin;
  if (s == "end") return EventKind::kThreadEnd;
  if (s == "acquire") return EventKind::kLockAcquire;
  if (s == "release") return EventKind::kLockRelease;
  if (s == "start") return EventKind::kThreadStart;
  if (s == "join") return EventKind::kThreadJoin;
  return std::nullopt;
}

inline std::string to_hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

inline bool parse_hex(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit);
  }
  out = v;
  return true;
}

// Parses one event line; on failure fills `err` with a message naming
// `lineno`.
inline bool parse_event_line(std::string_view text, int lineno, Event& out,
                             std::string& err) {
  std::istringstream fields{std::string(text)};
  std::string kind_str;
  long long seq = 0, thread = 0, site = 0, occ = 0, lock = 0, other = 0;
  if (!(fields >> seq >> kind_str >> thread >> site >> occ >> lock >> other)) {
    err = "malformed event at line " + std::to_string(lineno);
    return false;
  }
  auto kind = kind_from_string(kind_str);
  if (!kind) {
    err = "unknown event kind '" + kind_str + "' at line " +
          std::to_string(lineno);
    return false;
  }
  out.seq = static_cast<std::uint64_t>(seq);
  out.kind = *kind;
  out.thread = static_cast<ThreadId>(thread);
  out.site = static_cast<SiteId>(site);
  out.occurrence = static_cast<std::int32_t>(occ);
  out.lock = static_cast<LockId>(lock);
  out.other = static_cast<ThreadId>(other);
  return true;
}

// Parses "# wolf-trace-end <count> <checksum-hex>".
inline bool parse_footer(std::string_view text, std::uint64_t& count,
                         std::uint64_t& checksum) {
  std::string_view rest =
      trim(text.substr(std::string_view(kFooterPrefix).size()));
  std::vector<std::string> parts = split(rest, ' ');
  // split may produce empties on repeated spaces; filter them.
  std::vector<std::string> fields;
  for (std::string& p : parts)
    if (!p.empty()) fields.push_back(std::move(p));
  if (fields.size() != 2) return false;
  long long n = 0;
  if (!parse_int(fields[0], n) || n < 0) return false;
  if (!parse_hex(fields[1], checksum)) return false;
  count = static_cast<std::uint64_t>(n);
  return true;
}

// ------------------------------------------------------------ v3 framing --

inline constexpr char kMagicV3[8] = {'\x89', 'W', 'O', 'L', 'F', '3', '\r',
                                     '\n'};
inline constexpr char kBlockTag = 'B';
inline constexpr char kFooterTag = 'E';
// Events per block: large enough to amortize framing (< 0.03 bytes/event of
// overhead), small enough that salvage loses little at block granularity.
inline constexpr std::size_t kBlockEvents = 512;
// Bounds on one encoded event (1 kind byte + a 10-byte seq varint + five
// 10-byte zigzag varints); block headers claiming sizes outside
// [count * kMinEventBytes, count * kMaxEventBytes] are structurally invalid.
inline constexpr std::size_t kMinEventBytes = 7;
inline constexpr std::size_t kMaxEventBytes = 61;

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_zigzag(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

inline void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// Bounded cursor over an encoded byte range; every get_* returns false
// instead of reading past the end.
struct ByteReader {
  const unsigned char* p = nullptr;
  const unsigned char* end = nullptr;

  explicit ByteReader(std::string_view bytes)
      : p(reinterpret_cast<const unsigned char*>(bytes.data())),
        end(p + bytes.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  bool get_u8(std::uint8_t& out) {
    if (p == end) return false;
    out = *p++;
    return true;
  }

  bool get_varint(std::uint64_t& out) {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        out = v;
        return true;
      }
    }
    return false;  // > 10 continuation bytes: not a valid varint
  }

  bool get_zigzag(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!get_varint(v)) return false;
    out = unzigzag(v);
    return true;
  }

  bool get_u64le(std::uint64_t& out) {
    if (remaining() < 8) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(*p++) << (8 * i);
    out = v;
    return true;
  }
};

// Appends one encoded event to `out`. `first_in_block` selects absolute vs
// delta-1 sequence encoding; `prev_seq` is the previous event's seq.
inline void put_event(std::string& out, const Event& e, bool first_in_block,
                      std::uint64_t prev_seq) {
  out.push_back(static_cast<char>(e.kind));
  put_varint(out, first_in_block ? e.seq : e.seq - prev_seq - 1);
  put_zigzag(out, e.thread);
  put_zigzag(out, e.site);
  put_zigzag(out, e.occurrence);
  put_zigzag(out, e.lock);
  put_zigzag(out, e.other);
}

// ------------------------------------------------------- v3 footer index --
//
// An indexed v3 file appends one extra section after the 'E' footer:
//
//   index:    'I' varint(block_count)
//             entry*: varint(offset_delta) varint(first_seq_delta)
//                     varint(last_seq - first_seq) varint(count)
//                     u64le(chain)
//             u64le(index_checksum)
//   trailer:  u64le(index_section_offset)  index magic (8 bytes)
//
// Each entry names one block: the file offset of its 'B' tag (delta-coded
// against the previous entry; the first entry is absolute), its first and
// last sequence numbers (first_seq is delta-1 coded against the previous
// entry's last_seq, mirroring the event encoding), its event count, and
// `chain` — the running whole-trace checksum after that block, so a tool
// that seeks to block i can verify it against entry i-1's chain without
// replaying the prefix (the last entry's chain equals the footer
// checksum). index_checksum chains mix64 over every decoded entry field.
//
// The fixed-size trailer is the random-access hook: a tool checks the last
// 8 bytes for the index magic and jumps straight to the section. The index
// is optional, and StreamTraceReader never seeks by it: its one sequential
// pass validates the section (entries, checksum, and a trailer offset that
// points back at the 'I' tag) and reports any damage as a defect.

inline constexpr char kIndexTag = 'I';
inline constexpr char kIndexMagic[8] = {'\x89', 'W', 'I', 'D', 'X', '3',
                                        '\r', '\n'};
// u64le(index_section_offset) + kIndexMagic.
inline constexpr std::size_t kIndexTrailerBytes = 16;

struct IndexEntry {
  std::uint64_t offset = 0;     // file offset of the block's 'B' tag
  std::uint64_t first_seq = 0;  // seq of the block's first event
  std::uint64_t last_seq = 0;   // seq of the block's last event
  std::uint64_t count = 0;      // events in the block
  std::uint64_t chain = 0;      // whole-trace checksum after this block
};

inline std::uint64_t index_checksum(const std::vector<IndexEntry>& entries) {
  std::uint64_t h = kChecksumSeed;
  for (const IndexEntry& e : entries) {
    h = mix64(h ^ e.offset);
    h = mix64(h ^ e.first_seq);
    h = mix64(h ^ e.last_seq);
    h = mix64(h ^ e.count);
    h = mix64(h ^ e.chain);
  }
  return h;
}

// Appends the whole index section + trailer. `section_offset` is the file
// offset at which this section will land (i.e. bytes written so far).
inline void put_index_section(std::string& out,
                              const std::vector<IndexEntry>& entries,
                              std::uint64_t section_offset) {
  out.push_back(kIndexTag);
  put_varint(out, entries.size());
  std::uint64_t prev_offset = 0;
  std::uint64_t prev_last_seq = 0;
  bool first = true;
  for (const IndexEntry& e : entries) {
    put_varint(out, e.offset - prev_offset);
    put_varint(out, first ? e.first_seq : e.first_seq - prev_last_seq - 1);
    put_varint(out, e.last_seq - e.first_seq);
    put_varint(out, e.count);
    put_u64le(out, e.chain);
    prev_offset = e.offset;
    prev_last_seq = e.last_seq;
    first = false;
  }
  put_u64le(out, index_checksum(entries));
  put_u64le(out, section_offset);
  out.append(kIndexMagic, sizeof kIndexMagic);
}

// Parses the index section from `r`, which must be positioned just after
// the 'I' tag and end just before the trailer. Returns false on any
// structural defect, on trailing bytes, or when the checksum disagrees
// with the decoded entries.
inline bool get_index_entries(ByteReader& r, std::vector<IndexEntry>& out) {
  out.clear();
  std::uint64_t n = 0;
  if (!r.get_varint(n)) return false;
  // Every entry encodes to at least 12 bytes, so a count that cannot fit
  // in the remaining bytes is structural corruption (and an OOM guard).
  if (n > r.remaining() / 12) return false;
  out.reserve(static_cast<std::size_t>(n));
  std::uint64_t prev_offset = 0;
  std::uint64_t prev_last_seq = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t d_off = 0, d_first = 0, span = 0, count = 0, chain = 0;
    if (!r.get_varint(d_off) || !r.get_varint(d_first) ||
        !r.get_varint(span) || !r.get_varint(count) || !r.get_u64le(chain))
      return false;
    IndexEntry e;
    e.offset = prev_offset + d_off;
    e.first_seq = out.empty() ? d_first : prev_last_seq + 1 + d_first;
    e.last_seq = e.first_seq + span;
    e.count = count;
    e.chain = chain;
    prev_offset = e.offset;
    prev_last_seq = e.last_seq;
    out.push_back(e);
  }
  std::uint64_t stored = 0;
  if (!r.get_u64le(stored)) return false;
  if (r.remaining() != 0) return false;
  return stored == index_checksum(out);
}

// Decodes one event; mirrors put_event. Returns false on truncated input or
// an out-of-range kind byte.
inline bool get_event(ByteReader& r, bool first_in_block,
                      std::uint64_t prev_seq, Event& out) {
  std::uint8_t kind = 0;
  if (!r.get_u8(kind)) return false;
  if (kind > static_cast<std::uint8_t>(EventKind::kThreadJoin)) return false;
  std::uint64_t seq_field = 0;
  std::int64_t thread = 0, site = 0, occ = 0, lock = 0, other = 0;
  if (!r.get_varint(seq_field) || !r.get_zigzag(thread) ||
      !r.get_zigzag(site) || !r.get_zigzag(occ) || !r.get_zigzag(lock) ||
      !r.get_zigzag(other))
    return false;
  out.kind = static_cast<EventKind>(kind);
  out.seq = first_in_block ? seq_field : prev_seq + 1 + seq_field;
  out.thread = static_cast<ThreadId>(thread);
  out.site = static_cast<SiteId>(site);
  out.occurrence = static_cast<std::int32_t>(occ);
  out.lock = static_cast<LockId>(lock);
  out.other = static_cast<ThreadId>(other);
  return true;
}

}  // namespace wolf::wire
