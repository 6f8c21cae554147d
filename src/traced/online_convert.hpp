// Online CLOG-2 → SLOG-2 conversion: the incremental core of pilot-traced.
//
// OnlineConverter consumes CLOG-2 records one at a time, as they arrive
// from a live stream, and pairs them with the same slog2::detail::Pairer
// the offline converter (slog2::convert) runs: a reorder heap hands the
// pairer its instances in InstKey order, the order convert() admits them
// in. finalize() ends the pairer and moves the same commit-ordered drawable
// lists into the shared serial assemble() tail, so the SLOG-2 file is
// byte-identical (pinned by traced_test.cpp across chunk sizes and
// fixtures). What is this converter's own is the reorder heap, sealing,
// spill, usage accounting and the live window visit.
//
// Memory is bounded by the *disorder* of the stream, not its length:
//   * raw bytes are decoded and dropped immediately (clog2::StreamReader),
//   * instances sit in a small reorder heap only until the watermark
//     passes them (see OnlineOptions::max_disorder),
//   * committed drawables accumulate in a bounded tail; once the tail
//     exceeds seal_bytes it is encoded into an immutable sealed chunk and
//     (when a spill path is configured) written to disk,
//   * what remains resident is the tail, the reorder heap, the pairer's
//     open states and unmatched message halves, and the chunk directory.
// finalize() streams the sealed chunks back in commit order, so the full
// trace is materialized only at the moment the offline converter would
// have materialized it anyway.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <queue>
#include <string>
#include <utility>
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
  /// instance, on a record clog2::check_record rejects, or on an instance
  /// more than max_disorder behind the watermark. The record is taken by
  /// value: a caller done with it moves it in, texts and all, and the
  /// reorder heap keeps it without a copy.
  void push(clog2::Record rec);

  /// Highest instance timestamp seen so far.
  [[nodiscard]] double watermark() const { return watermark_; }
  /// Timestamps at or below this are final: every drawable that can ever
  /// be committed at or before this instant already has been.
  [[nodiscard]] double admitted_frontier() const;

  [[nodiscard]] const OnlineUsage& usage() const { return usage_; }
  [[nodiscard]] std::int32_t nranks() const { return nranks_; }
  [[nodiscard]] const std::vector<slog2::Category>& categories() const {
    return pairer_.categories();
  }

  /// Time span of every committed drawable: the t_min/t_max the shared
  /// conversion tail would compute over them, (0, 0) while none is
  /// committed.
  [[nodiscard]] std::pair<double, double> committed_span() const;

  /// Visit committed drawables intersecting [a, b] (same intersection
  /// rules as slog2::File::visit_window). Sealed chunks whose time range
  /// misses the window are not decoded. Const-correct in spirit only: a
  /// decode may populate the chunk cache.
  void visit_window(double a, double b,
                    const std::function<void(const slog2::StateDrawable&)>& on_state,
                    const std::function<void(const slog2::EventDrawable&)>& on_event,
                    const std::function<void(const slog2::ArrowDrawable&)>& on_arrow);

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

  struct Chunk {
    std::uint64_t offset = 0;  // into the spill file (spill mode)
    std::uint64_t length = 0;  // encoded bytes
    std::uint64_t nstates = 0, nevents = 0, narrows = 0;
    slog2::detail::Span span;  // drawable time range, for query pruning
    std::vector<std::uint8_t> bytes;  // encoded payload (in-memory mode)
  };

  void admit(const PendingInst& inst);
  void note_tail(slog2::detail::Span& kind, double lo, double hi,
                 std::uint64_t bytes);
  void maybe_seal();
  void seal_tail();
  void drain_heap_until(double limit);
  void account();
  [[nodiscard]] slog2::Frame decode_chunk(std::size_t index) const;
  [[nodiscard]] std::shared_ptr<const slog2::Frame> cached_chunk(std::size_t index);
  [[nodiscard]] slog2::detail::Collected collect_all();

  OnlineOptions opts_;
  bool begun_ = false;
  bool finalized_ = false;
  std::int32_t nranks_ = 0;

  // Pairing, shared with slog2::convert. records_pushed_ is the next
  // record's stream index, named by the record check's error.
  slog2::detail::Pairer pairer_;
  std::uint64_t records_pushed_ = 0;

  // Reorder stage.
  std::priority_queue<PendingInst, std::vector<PendingInst>, std::greater<>> heap_;
  std::uint64_t heap_bytes_ = 0;
  double watermark_ = 0.0;

  // Committed tail, in commit order per kind; sealed chunks hold the same
  // drawables in the frame-payload codec.
  slog2::Frame tail_;
  std::uint64_t tail_bytes_ = 0;
  slog2::detail::Span tail_span_;
  // Spans of every committed state, event and arrow, in commit order.
  slog2::detail::Span committed_states_, committed_events_, committed_arrows_;

  // Sealed chunks + spill file (append-only). Decoded chunks live in the
  // process-wide slog2::FrameCache under this converter's private owner id,
  // so N concurrent sessions share one byte-sized budget.
  std::vector<Chunk> chunks_;
  std::filesystem::path spill_file_;
  slog2::FrameCache::Owner cache_owner_ = 0;

  OnlineUsage usage_;
};

}  // namespace traced
