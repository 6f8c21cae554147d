#include "clog2/clog2.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "util/fs.hpp"
#include "util/mmapio.hpp"
#include "util/strings.hpp"

namespace clog2 {

namespace {

constexpr std::array<char, 8> kMagic = {'P', 'C', 'L', 'O', 'G', '2', '\0', '\0'};

void kind(util::ByteWriter& w, RecordKind k) { w.u8(static_cast<std::uint8_t>(k)); }

}  // namespace

void append_event(util::ByteWriter& w, double timestamp, std::int32_t rank,
                  std::int32_t event_id, std::string_view text) {
  kind(w, RecordKind::kEvent);
  w.f64(timestamp);
  w.i32(rank);
  w.i32(event_id);
  w.str(text);
}

void append_record(util::ByteWriter& w, const MsgRec& m) {
  kind(w, RecordKind::kMsg);
  w.f64(m.timestamp);
  w.i32(m.rank);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.i32(m.partner);
  w.i32(m.tag);
  w.u32(m.size);
}

void append_record(util::ByteWriter& w, const SyncRec& s) {
  kind(w, RecordKind::kSync);
  w.i32(s.rank);
  w.f64(s.local_time);
  w.f64(s.ref_time);
}

void append_record(util::ByteWriter& w, const Record& rec) {
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, EventDef>) {
          kind(w, RecordKind::kEventDef);
          w.i32(r.event_id);
          w.str(r.name);
          w.str(r.color);
          w.str(r.format);
        } else if constexpr (std::is_same_v<T, StateDef>) {
          kind(w, RecordKind::kStateDef);
          w.i32(r.state_id);
          w.i32(r.start_event_id);
          w.i32(r.end_event_id);
          w.str(r.name);
          w.str(r.color);
          w.str(r.format);
        } else if constexpr (std::is_same_v<T, ConstDef>) {
          kind(w, RecordKind::kConstDef);
          w.str(r.name);
          w.i64(r.value);
        } else if constexpr (std::is_same_v<T, EventRec>) {
          append_event(w, r.timestamp, r.rank, r.event_id, r.text);
        } else {
          append_record(w, r);
        }
      },
      rec);
}

// Both timed kinds store their f64 timestamp right after the kind byte.
double record_time(const std::uint8_t* rec) { return util::ByteReader(rec + 1, 8).f64(); }

void set_record_time(std::uint8_t* rec, double t) {
  std::uint64_t bits;
  std::memcpy(&bits, &t, sizeof bits);
  for (std::size_t i = 0; i < 8; ++i)
    rec[1 + i] = static_cast<std::uint8_t>(bits >> (8 * i));
}

void append_header(util::ByteWriter& w, std::int32_t nranks, std::string_view comment,
                   std::uint64_t nrecords, std::uint32_t version) {
  w.raw(kMagic.data(), kMagic.size());
  w.u32(version);
  w.i32(nranks);
  w.str(comment);
  w.u64(nrecords);
}

void append_end(util::ByteWriter& w) { kind(w, RecordKind::kEndLog); }

std::size_t timed_record_size(const std::uint8_t* p, std::size_t n) {
  util::ByteReader r(p, n);
  const auto k = static_cast<RecordKind>(r.u8());
  if (k == RecordKind::kEvent) {
    r.skip(16);  // time, rank, event id
    r.skip(r.u32());
  } else if (k == RecordKind::kMsg || k == RecordKind::kSync) {
    r.skip(k == RecordKind::kMsg ? 25 : 20);
  } else {
    throw util::IoError(util::strprintf("clog2: record kind %u is not a timed record",
                                        static_cast<unsigned>(k)));
  }
  return r.pos();
}

namespace {

// Shared by the whole-file ByteReader and the live-stream ProbeReader.
template <typename Reader>
Record read_record_any(Reader& r) {
  const auto kind = static_cast<RecordKind>(r.u8());
  switch (kind) {
    case RecordKind::kEventDef: {
      EventDef d;
      d.event_id = r.i32();
      d.name = r.str();
      d.color = r.str();
      d.format = r.str();
      return d;
    }
    case RecordKind::kStateDef: {
      StateDef d;
      d.state_id = r.i32();
      d.start_event_id = r.i32();
      d.end_event_id = r.i32();
      d.name = r.str();
      d.color = r.str();
      d.format = r.str();
      return d;
    }
    case RecordKind::kConstDef: {
      ConstDef d;
      d.name = r.str();
      d.value = r.i64();
      return d;
    }
    case RecordKind::kEvent: {
      EventRec e;
      e.timestamp = r.f64();
      e.rank = r.i32();
      e.event_id = r.i32();
      e.text = r.str();
      return e;
    }
    case RecordKind::kMsg: {
      MsgRec m;
      m.timestamp = r.f64();
      m.rank = r.i32();
      m.kind = static_cast<MsgRec::Kind>(r.u8());
      if (m.kind != MsgRec::Kind::kSend && m.kind != MsgRec::Kind::kRecv)
        throw util::IoError("clog2: bad msg record kind");
      m.partner = r.i32();
      m.tag = r.i32();
      m.size = r.u32();
      return m;
    }
    case RecordKind::kSync: {
      SyncRec s;
      s.rank = r.i32();
      s.local_time = r.f64();
      s.ref_time = r.f64();
      return s;
    }
    default:
      throw util::IoError(util::strprintf("clog2: unknown record kind %u at offset %zu",
                                          static_cast<unsigned>(kind), r.pos() - 1));
  }
}

// Header fields up to (and including) the validated record count.
struct StreamHeader {
  std::uint32_t version = 0;
  std::int32_t nranks = 0;
  std::string comment;
  std::size_t nrecords = 0;
};

template <typename Reader>
StreamHeader read_stream_header(Reader& r) {
  const std::uint8_t* magic = r.take(kMagic.size());
  for (std::size_t i = 0; i < kMagic.size(); ++i)
    if (magic[i] != static_cast<std::uint8_t>(kMagic[i]))
      throw util::IoError("clog2: bad magic (not a CLOG-2 file)");
  StreamHeader h;
  h.version = r.u32();
  if (h.version != kFormatVersion)
    throw util::IoError(util::strprintf("clog2: unsupported version %u (expected %u)",
                                        h.version, kFormatVersion));
  h.nranks = r.i32();
  check_nranks(h.nranks);
  h.comment = r.str();
  // Smallest record on disk is a kind byte plus payload; validating the
  // count against the remaining bytes turns a corrupted count field into a
  // parse error instead of a giant reserve().
  h.nrecords = r.checked_count(r.u64(), 2);
  return h;
}

void append_record_text(std::string& out, const Record& rec) {
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, EventDef>) {
          out += util::strprintf("  eventdef id=%d name=\"%s\" color=%s fmt=\"%s\"\n",
                                 r.event_id, r.name.c_str(), r.color.c_str(),
                                 r.format.c_str());
        } else if constexpr (std::is_same_v<T, StateDef>) {
          out += util::strprintf(
              "  statedef id=%d start=%d end=%d name=\"%s\" color=%s fmt=\"%s\"\n",
              r.state_id, r.start_event_id, r.end_event_id, r.name.c_str(),
              r.color.c_str(), r.format.c_str());
        } else if constexpr (std::is_same_v<T, ConstDef>) {
          out += util::strprintf("  constdef %s=%lld\n", r.name.c_str(),
                                 static_cast<long long>(r.value));
        } else if constexpr (std::is_same_v<T, EventRec>) {
          out += util::strprintf("  event t=%.9f rank=%d id=%d text=\"%s\"\n",
                                 r.timestamp, r.rank, r.event_id, r.text.c_str());
        } else if constexpr (std::is_same_v<T, MsgRec>) {
          out += util::strprintf("  msg t=%.9f rank=%d %s partner=%d tag=%d size=%u\n",
                                 r.timestamp, r.rank,
                                 r.kind == MsgRec::Kind::kSend ? "send" : "recv",
                                 r.partner, r.tag, r.size);
        } else if constexpr (std::is_same_v<T, SyncRec>) {
          out += util::strprintf("  sync rank=%d local=%.9f ref=%.9f\n", r.rank,
                                 r.local_time, r.ref_time);
        }
      },
      rec);
}

// Thrown (privately) by ProbeReader when a decode runs off the end of the
// buffered stream bytes: unlike a whole-file parse, running out of bytes on
// a live stream is retryable, not corruption.
struct NeedMoreData {};

// ByteReader-shaped decoder over the StreamReader's buffered bytes. Overrun
// throws NeedMoreData instead of IoError; element counts cannot be bounded
// by "remaining input" on a stream, so checked_count passes them through —
// the end-of-log marker (or EOF) validates the declared count instead, and
// nothing in the stream path allocates proportionally to a declared count.
class ProbeReader {
public:
  ProbeReader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str() {
    const std::uint32_t len = u32();
    if (len > StreamReader::kMaxRecordBytes)
      throw util::IoError(util::strprintf(
          "clog2: string length %u exceeds the %zu-byte record bound", len,
          StreamReader::kMaxRecordBytes));
    const std::uint8_t* p = take(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }

  const std::uint8_t* take(std::size_t n) {
    if (n > n_ - pos_) throw NeedMoreData{};
    const std::uint8_t* p = p_ + pos_;
    pos_ += n;
    return p;
  }

  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t /*min_bytes*/) const {
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }

private:
  template <typename T>
  T get_le() {
    const std::uint8_t* p = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

}  // namespace

Record read_record(util::ByteReader& r) { return read_record_any(r); }

void check_nranks(std::int32_t nranks) {
  if (nranks < 0 || nranks > kMaxRanks)
    throw util::IoError(util::strprintf("clog2: rank count %d outside [0, %d]",
                                        nranks, kMaxRanks));
}

// Out of line, so the passing path of check_rank / check_timestamp stays
// small enough to inline into the readers' per-record loops.
void throw_rank_error(std::uint64_t index, const char* what, std::int32_t r,
                      std::int32_t nranks) {
  throw util::IoError(util::strprintf("clog2: record %llu: %s %d outside [0, %d)",
                                      static_cast<unsigned long long>(index), what,
                                      r, nranks));
}

void throw_timestamp_error(std::uint64_t index) {
  throw util::IoError(util::strprintf("clog2: record %llu: timestamp not finite",
                                      static_cast<unsigned long long>(index)));
}

void check_record(const Record& rec, std::int32_t nranks, std::uint64_t index) {
  if (const auto* ev = std::get_if<EventRec>(&rec)) {
    check_rank("rank", ev->rank, nranks, index);
    check_timestamp(ev->timestamp, index);
  } else if (const auto* m = std::get_if<MsgRec>(&rec)) {
    check_rank("rank", m->rank, nranks, index);
    check_rank("partner", m->partner, nranks, index);
    check_timestamp(m->timestamp, index);
  } else if (const auto* sy = std::get_if<SyncRec>(&rec)) {
    check_rank("rank", sy->rank, nranks, index);
  }
}

void StreamReader::feed(const void* data, std::size_t n) {
  if (n == 0) return;
  if (finished_)
    throw util::IoError("clog2: stream bytes after the end-of-log marker");
  // Compact the consumed prefix before growing so the buffer stays at
  // O(unconsumed), not O(stream).
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

StreamReader::Status StreamReader::next(Record* out) {
  if (finished_) {
    if (buffered_bytes() > 0)
      throw util::IoError("clog2: stream bytes after the end-of-log marker");
    return Status::kEnd;
  }
  const auto need_more = [this]() -> Status {
    if (buffered_bytes() >= kMaxRecordBytes)
      throw util::IoError(util::strprintf(
          "clog2: record exceeds the %zu-byte stream bound", kMaxRecordBytes));
    return Status::kNeedMoreData;
  };
  if (!header_done_) {
    ProbeReader r(buf_.data() + pos_, buffered_bytes());
    try {
      const StreamHeader h = read_stream_header(r);
      version_ = h.version;
      nranks_ = h.nranks;
      comment_ = h.comment;
      nrecords_ = h.nrecords;
    } catch (const NeedMoreData&) {
      return need_more();
    }
    pos_ += r.pos();
    consumed_ += r.pos();
    header_done_ = true;
  }
  if (records_read_ == nrecords_) {
    if (buffered_bytes() == 0) return Status::kNeedMoreData;
    if (buf_[pos_] != static_cast<std::uint8_t>(RecordKind::kEndLog))
      throw util::IoError("clog2: missing end-of-log marker");
    ++pos_;
    ++consumed_;
    finished_ = true;
    if (buffered_bytes() > 0)
      throw util::IoError("clog2: stream bytes after the end-of-log marker");
    return Status::kEnd;
  }
  ProbeReader r(buf_.data() + pos_, buffered_bytes());
  Record rec;
  try {
    rec = read_record_any(r);
  } catch (const NeedMoreData&) {
    return need_more();
  }
  check_record(rec, nranks_, records_read_);
  pos_ += r.pos();
  consumed_ += r.pos();
  ++records_read_;
  if (out) *out = std::move(rec);
  return Status::kRecord;
}

std::vector<std::uint8_t> serialize(const File& file) {
  util::ByteWriter w;
  append_header(w, file.nranks, file.comment, file.records.size(), file.version);
  for (const auto& rec : file.records) append_record(w, rec);
  append_end(w);
  return w.take();
}

File parse(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader r(bytes);
  const StreamHeader h = read_stream_header(r);
  File file;
  file.version = h.version;
  file.nranks = h.nranks;
  file.comment = h.comment;
  file.records.reserve(h.nrecords);
  for (std::uint64_t i = 0; i < h.nrecords; ++i) {
    file.records.push_back(read_record_any(r));
    check_record(file.records.back(), h.nranks, i);
  }
  if (r.u8() != static_cast<std::uint8_t>(RecordKind::kEndLog))
    throw util::IoError("clog2: missing end-of-log marker");
  return file;
}

void write_file(const std::filesystem::path& path, const File& file) {
  util::write_file(path, serialize(file));
}

File read_file(const std::filesystem::path& path) {
  return parse(util::read_file(path));
}

std::string to_text(const File& file) {
  std::string out;
  out += util::strprintf("CLOG-2 v%u  ranks=%d  records=%zu  comment=\"%s\"\n",
                         file.version, file.nranks, file.records.size(),
                         file.comment.c_str());
  for (const auto& rec : file.records) append_record_text(out, rec);
  return out;
}

void stream_text(const std::filesystem::path& path,
                 const std::function<void(const std::string&)>& sink) {
  // Both passes decode page-cache slices of one mapping with parse()'s
  // reader, one record in memory at a time.
  const util::MappedFile map(path);
  // Validation pass: decode everything and discard, so a bad file rejects
  // (with parse()'s verdict) before a single byte of text is emitted.
  {
    util::ByteReader r(map.data(), map.size());
    const StreamHeader h = read_stream_header(r);
    for (std::uint64_t i = 0; i < h.nrecords; ++i)
      check_record(read_record_any(r), h.nranks, i);
    if (r.u8() != static_cast<std::uint8_t>(RecordKind::kEndLog))
      throw util::IoError("clog2: missing end-of-log marker");
  }
  util::ByteReader r(map.data(), map.size());
  const StreamHeader h = read_stream_header(r);
  sink(util::strprintf("CLOG-2 v%u  ranks=%d  records=%zu  comment=\"%s\"\n",
                       h.version, h.nranks, h.nrecords, h.comment.c_str()));
  std::string line;
  for (std::uint64_t i = 0; i < h.nrecords; ++i) {
    line.clear();
    append_record_text(line, read_record_any(r));
    sink(line);
  }
}

}  // namespace clog2
