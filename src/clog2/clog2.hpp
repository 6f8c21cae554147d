// CLOG-2: the "raw" trace format produced by the MPE layer at Finish_log.
//
// Clean-room format with the same architecture as Argonne's CLOG-2: a flat,
// time-merged stream of fixed-vocabulary records —
//   * definition records (solo events, states, integer constants),
//   * timestamped event instances (with optional popup text),
//   * message events (send/recv halves matched later by the converter),
//   * clock-sync sample points.
// CLOG-2 deliberately knows nothing about pairing or nesting; that analysis
// happens in the CLOG-2 → SLOG-2 converter, which is exactly why the paper
// calls the two-step pipeline "preferred": a defective program still yields
// a parseable CLOG-2 file that can be inspected with clog2print.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "util/bytebuf.hpp"

namespace clog2 {

/// Current on-disk format version.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Largest rank count a header may declare. Every per-rank table downstream
/// (the Trace index, vector clocks, tracegen's per-rank state) is sized by
/// it, so 16384 keeps them within a few MB while comfortably covering the
/// 10k-rank task-substrate sweeps; a larger count is almost always a
/// corrupted or typo'd header and would silently eat memory instead.
inline constexpr std::int32_t kMaxRanks = 16384;

/// Definition of a solo event kind (one timestamp, drawn as a bubble).
struct EventDef {
  std::int32_t event_id = 0;
  std::string name;
  std::string color;   ///< X11-style colour name (validated at MPE layer)
  std::string format;  ///< popup text template, e.g. "Line: %d"
};

/// Definition of a state kind (start/end event pair, drawn as a rectangle).
struct StateDef {
  std::int32_t state_id = 0;
  std::int32_t start_event_id = 0;
  std::int32_t end_event_id = 0;
  std::string name;
  std::string color;
  std::string format;
};

/// Miscellaneous named integer constant (world size, options in force, ...).
struct ConstDef {
  std::string name;
  std::int64_t value = 0;
};

/// One timestamped event instance. Instances of a StateDef's start/end
/// events delimit a state; instances of an EventDef are solo bubbles.
struct EventRec {
  double timestamp = 0.0;  ///< seconds, already clock-sync corrected
  std::int32_t rank = 0;
  std::int32_t event_id = 0;
  std::string text;  ///< popup payload (MPE caps it at 40 bytes)
};

/// One half of a message (the converter pairs sends with receives).
struct MsgRec {
  enum class Kind : std::uint8_t { kSend = 0, kRecv = 1 };
  double timestamp = 0.0;
  std::int32_t rank = 0;  ///< the rank that logged this half
  Kind kind = Kind::kSend;
  std::int32_t partner = 0;  ///< peer rank
  std::int32_t tag = 0;
  std::uint32_t size = 0;  ///< payload bytes
};

/// Clock-sync sample: rank-local clock vs the rank-0 reference clock at the
/// same instant. Used by tools to judge sync quality after the fact.
struct SyncRec {
  std::int32_t rank = 0;
  double local_time = 0.0;
  double ref_time = 0.0;
};

using Record = std::variant<EventDef, StateDef, ConstDef, EventRec, MsgRec, SyncRec>;

/// A parsed / to-be-written CLOG-2 file.
///
/// The checked record language bounds ranks: 0 <= nranks <= kMaxRanks, and
/// every Event, Msg and Sync record names a rank (a Msg also a partner) in
/// [0, nranks). Event and Msg timestamps are finite, so instance order is a
/// strict weak order. Every reader, the query::Trace build and the SLOG-2
/// pairing pass enforce it through check_nranks / check_record.
struct File {
  std::uint32_t version = kFormatVersion;
  std::int32_t nranks = 0;
  std::string comment;
  std::vector<Record> records;

  /// Number of records of type T.
  template <typename T>
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (const auto& r : records)
      if (std::holds_alternative<T>(r)) ++n;
    return n;
  }
};

/// Throws util::IoError ("clog2: rank count N outside [0, 16384]") unless
/// 0 <= nranks <= kMaxRanks.
void check_nranks(std::int32_t nranks);

/// Throws util::IoError ("clog2: record I: rank R outside [0, N)", or
/// "partner P") unless the record's rank, and a message's partner, lie in
/// [0, nranks), and ("clog2: record I: timestamp not finite") unless an
/// Event or Msg timestamp is finite. `index` is the record's 0-based
/// position in the file, for the message. Definition records carry neither
/// and always pass.
void check_record(const Record& rec, std::int32_t nranks, std::uint64_t index);

/// Append one record in the on-disk layout (used by the robust-log spill
/// files, which are bare record streams without the file header).
void append_record(util::ByteWriter& w, const Record& rec);

/// Read one record; throws util::IoError on a malformed or truncated
/// record. Callers streaming a possibly-truncated spill catch the error at
/// the tail and keep what parsed.
Record read_record(util::ByteReader& r);

/// Serialize to the on-disk byte layout.
std::vector<std::uint8_t> serialize(const File& file);

/// Parse; throws util::IoError on malformed/truncated input or a record
/// check_record rejects.
File parse(const std::vector<std::uint8_t>& bytes);

void write_file(const std::filesystem::path& path, const File& file);
File read_file(const std::filesystem::path& path);

/// Human-readable dump (the clog2print tool).
std::string to_text(const File& file);

/// Stream the to_text() dump of an on-disk trace through `sink`. The file
/// is mapped (util::MappedFile, which reads it into a buffer where mmap is
/// unavailable) and decoded with parse()'s own reader, one record at a
/// time, so the record vector is never materialized. A validation pass runs
/// first, with exactly parse()'s verdicts and messages, so a corrupt or
/// truncated file throws util::IoError before any output is emitted (no
/// partial dump). Output is byte-identical to to_text(read_file(path)).
void stream_text(const std::filesystem::path& path,
                 const std::function<void(const std::string&)>& sink);

/// Incremental, resumable CLOG-2 decoder for live ingest (pilot-traced).
///
/// feed() appends raw bytes as they arrive from a socket or FIFO; next()
/// decodes the header and then one record per call. A partial trailing
/// block — the normal state of a stream that is still being written — is
/// reported as Status::kNeedMoreData (retryable after more feed()) instead
/// of the hard util::IoError a whole-file parse() gives truncation.
/// Structural corruption (bad magic, unsupported version, unknown record
/// kind, bad message kind, an impossibly large record, a record
/// check_record rejects) still throws util::IoError, so a corrupt stream fails
/// loudly at the first bad byte.
///
/// The accepted record language is parse()'s minus one safety bound: a
/// string longer than kMaxRecordBytes throws util::IoError here ("exceeds
/// the ... record bound") while parse() accepts it. Otherwise feeding a
/// complete file through in any chunking yields the same record sequence
/// parse() yields, and a file parse() rejects makes next() throw (possibly
/// only once the whole file has been fed — a count/end-marker mismatch is
/// not detectable earlier on a stream).
class StreamReader {
public:
  enum class Status : std::uint8_t {
    kNeedMoreData = 0,  ///< partial trailing block; retry after feed()
    kRecord = 1,        ///< *out holds the next record
    kEnd = 2,           ///< end-of-log marker consumed; stream complete
  };

  /// A single record larger than this is treated as corruption instead of
  /// "need more data", so a hostile length field cannot make an ingest
  /// buffer grow without bound while the reader waits forever.
  static constexpr std::size_t kMaxRecordBytes = 16 * 1024 * 1024;

  /// Append raw stream bytes. Throws util::IoError if bytes arrive after
  /// the end-of-log marker (trailing garbage).
  void feed(const void* data, std::size_t n);

  /// Decode the next item out of the buffered bytes.
  Status next(Record* out);

  [[nodiscard]] bool header_done() const { return header_done_; }
  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] std::int32_t nranks() const { return nranks_; }
  [[nodiscard]] const std::string& comment() const { return comment_; }
  /// Declared record count (valid once header_done()). Untrusted until the
  /// end-of-log marker confirms it.
  [[nodiscard]] std::uint64_t nrecords() const { return nrecords_; }
  [[nodiscard]] std::uint64_t records_read() const { return records_read_; }
  /// True once the end-of-log marker has been consumed.
  [[nodiscard]] bool finished() const { return finished_; }
  /// Bytes fed but not yet consumed by a completed decode.
  [[nodiscard]] std::size_t buffered_bytes() const { return buf_.size() - pos_; }
  /// Total bytes consumed by completed decodes.
  [[nodiscard]] std::uint64_t bytes_consumed() const { return consumed_; }

private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::uint64_t consumed_ = 0;
  bool header_done_ = false;
  bool finished_ = false;
  std::uint32_t version_ = 0;
  std::int32_t nranks_ = 0;
  std::string comment_;
  std::uint64_t nrecords_ = 0;
  std::uint64_t records_read_ = 0;
};

}  // namespace clog2
