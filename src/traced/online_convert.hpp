// Online CLOG-2 → SLOG-2 conversion: the incremental core of pilot-traced.
//
// OnlineConverter consumes CLOG-2 records one at a time, as they arrive
// from a live stream, and maintains exactly the intermediate state the
// offline converter (slog2::convert) would have accumulated over the same
// prefix — so finalize() hands the shared assemble() tail the same
// commit-ordered drawable lists and produces a byte-identical SLOG-2 file
// (pinned by traced_test.cpp across chunk sizes and fixtures).
//
// Memory is bounded by the *disorder* of the stream, not its length:
//   * raw bytes are decoded and dropped immediately (clog2::StreamReader),
//   * instances sit in a small reorder heap only until the watermark
//     passes them (see OnlineOptions::max_disorder),
//   * committed drawables accumulate in a bounded tail; once the tail
//     exceeds seal_bytes it is encoded into an immutable sealed chunk and
//     (when a spill path is configured) written to disk,
//   * what remains resident is the tail, the reorder heap, per-rank open
//     state stacks, unmatched message halves, and the chunk directory.
// finalize() streams the sealed chunks back in commit order, so the full
// trace is materialized only at the moment the offline converter would
// have materialized it anyway.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "clog2/clog2.hpp"
#include "slog2/convert_internal.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"

namespace traced {

struct OnlineOptions {
  /// Options handed to the shared conversion tail at finalize(); identical
  /// options must be used for the offline run when comparing outputs.
  slog2::ConvertOptions convert;

  /// Maximum timestamp disorder the stream may exhibit, in seconds. An
  /// instance is admitted to pairing once the watermark (max timestamp
  /// seen) has advanced more than this far past it; a record arriving more
  /// than this far *behind* the watermark is a hard error. The CLOG-2
  /// merge step emits nearly sorted streams, so the reorder window — and
  /// with it the heap — stays small.
  double max_disorder = 0.05;

  /// Seal the committed-drawable tail into an immutable chunk once its
  /// payload accounting reaches this many bytes.
  std::uint64_t seal_bytes = 256 * 1024;

  /// Directory for sealed-chunk spill files. Empty = keep sealed chunks in
  /// memory in their compact encoded form (tests); pilot-traced always
  /// configures a spill directory so per-session RSS stays bounded.
  std::filesystem::path spill_dir;
};

/// Resource accounting for one converter (the bounded-memory guarantee in
/// docs/TRACED.md is asserted against these numbers in tests and benches).
struct OnlineUsage {
  std::uint64_t records = 0;          ///< instance records admitted or pending
  std::uint64_t live_bytes = 0;       ///< tail + heap + open/unmatched state
  std::uint64_t peak_live_bytes = 0;  ///< high-water mark of live_bytes
  std::uint64_t sealed_chunks = 0;
  std::uint64_t sealed_bytes = 0;  ///< encoded size of all sealed chunks
};

/// Incremental converter for one session. Not thread-safe; the session
/// manager serializes access per session.
class OnlineConverter {
public:
  explicit OnlineConverter(const OnlineOptions& opts = {});
  ~OnlineConverter();
  OnlineConverter(const OnlineConverter&) = delete;
  OnlineConverter& operator=(const OnlineConverter&) = delete;

  /// Start a conversion for a trace with `nranks` ranks (from the CLOG-2
  /// stream header).
  void begin(std::int32_t nranks);

  /// Consume one record. Definition records must precede all instance
  /// records (the offline converter scans definitions up front; a live
  /// stream cannot). Throws util::IoError on a definition after an
  /// instance or on an instance more than max_disorder behind the
  /// watermark.
  void push(const clog2::Record& rec);

  /// Highest instance timestamp seen so far.
  [[nodiscard]] double watermark() const { return watermark_; }
  /// Timestamps at or below this are final: every drawable that can ever
  /// be committed at or before this instant already has been.
  [[nodiscard]] double admitted_frontier() const;

  [[nodiscard]] const OnlineUsage& usage() const { return usage_; }
  [[nodiscard]] std::int32_t nranks() const { return nranks_; }
  [[nodiscard]] const std::vector<slog2::Category>& categories() const {
    return categories_;
  }

  /// Visit committed drawables intersecting [a, b] (same intersection
  /// rules as slog2::File::visit_window). Sealed chunks whose time range
  /// misses the window are not decoded. Const-correct in spirit only: a
  /// decode may populate the chunk cache.
  void visit_window(double a, double b,
                    const std::function<void(const slog2::StateDrawable&)>& on_state,
                    const std::function<void(const slog2::EventDrawable&)>& on_event,
                    const std::function<void(const slog2::ArrowDrawable&)>& on_arrow);

  /// Build a renderable SLOG-2 file from every *committed* drawable — the
  /// live prefix of the trace. Still-open states and unmatched message
  /// halves are not included (they have no end yet). The converter keeps
  /// running; snapshot() can be called any number of times mid-stream.
  [[nodiscard]] slog2::File snapshot();

  /// Flush the reorder heap, close dangling states, and run the shared
  /// conversion tail. The result is byte-identical (after slog2::serialize)
  /// to slog2::convert() over the same records with `opts.convert`. The
  /// converter is spent afterwards; push() throws.
  [[nodiscard]] slog2::File finalize(std::vector<std::string>* warnings = nullptr);

private:
  struct PendingInst {
    slog2::detail::InstKey key;
    clog2::Record rec;  // EventRec or MsgRec only
    bool operator>(const PendingInst& o) const { return o.key < key; }
  };

  struct RankState {
    std::vector<slog2::detail::OpenState> stack;
    std::uint64_t scan_warns = 0;  // per-rank cap, mirrors TimelineOut
  };

  using MsgKey = std::tuple<std::int32_t, std::int32_t, std::int32_t>;
  struct MsgQueues {
    std::deque<clog2::MsgRec> sends;  // unmatched halves, admitted order
    std::deque<clog2::MsgRec> recvs;
  };

  struct Chunk {
    std::uint64_t offset = 0;  // into the spill file (spill mode)
    std::uint64_t length = 0;  // encoded bytes
    std::uint64_t nstates = 0, nevents = 0, narrows = 0;
    double t_lo = 0.0, t_hi = 0.0;  // drawable time range, for query pruning
    std::vector<std::uint8_t> bytes;  // encoded payload (in-memory mode)
  };

  void admit(const PendingInst& inst);
  void admit_event(const clog2::EventRec& e);
  void admit_msg(const clog2::MsgRec& m);
  void note_tail(double lo, double hi, std::uint64_t bytes);
  void maybe_seal();
  void seal_tail();
  void drain_heap_until(double limit);
  void account();
  [[nodiscard]] std::vector<std::uint8_t> encode_tail() const;
  [[nodiscard]] slog2::detail::Collected decode_chunk(std::size_t index);
  [[nodiscard]] std::shared_ptr<const slog2::Frame> cached_chunk(std::size_t index);
  void scan_warn(std::int32_t rank, const std::string& msg);
  [[nodiscard]] slog2::detail::Collected collect_all();
  void fill_pairing_stats(slog2::ConvertStats& stats) const;

  OnlineOptions opts_;
  bool begun_ = false;
  bool finalized_ = false;
  std::int32_t nranks_ = 0;

  // Category table + event-id index, grown from definition records.
  std::vector<slog2::Category> categories_;
  slog2::detail::EventIdIndex index_;
  std::int32_t next_cat_ = 1;
  bool any_instance_ = false;

  // Reorder stage.
  std::priority_queue<PendingInst, std::vector<PendingInst>, std::greater<>> heap_;
  std::uint64_t heap_bytes_ = 0;
  double watermark_ = 0.0;
  double last_admitted_t_ = 0.0;
  std::uint64_t inst_idx_ = 0;
  double last_time_seen_ = 0.0;

  // Pairing stage (mirrors the offline per-rank / per-key task state).
  std::map<std::int32_t, RankState> ranks_;
  std::map<MsgKey, MsgQueues> msgs_;
  std::uint64_t open_bytes_ = 0;   // open stacks + unmatched halves

  // Committed tail, in commit order per kind.
  std::vector<slog2::StateDrawable> tail_states_;
  std::vector<slog2::EventDrawable> tail_events_;
  std::vector<slog2::ArrowDrawable> tail_arrows_;
  std::uint64_t tail_bytes_ = 0;
  double tail_lo_ = 0.0, tail_hi_ = 0.0;
  bool tail_any_ = false;

  // Sealed chunks + spill file (append-only). Decoded chunks live in the
  // process-wide slog2::FrameCache under this converter's private owner id,
  // so N concurrent sessions share one byte-sized budget.
  std::vector<Chunk> chunks_;
  std::filesystem::path spill_file_;
  slog2::FrameCache::Owner cache_owner_ = 0;

  // Warnings and counters, replayed at finalize in the offline order.
  std::vector<std::string> scan_warnings_;
  std::uint64_t unmatched_state_ends_ = 0;
  std::uint64_t unknown_event_ids_ = 0;

  OnlineUsage usage_;
};

}  // namespace traced
