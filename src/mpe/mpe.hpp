// MPE-style logging layer (the measurement infrastructure the paper adapts).
//
// Mirrors the real MPE architecture:
//  * event IDs are allocated up front (get_event_number) and given
//    name/colour properties via define_event / define_state;
//  * each rank appends instances to a private in-memory buffer — logging a
//    record costs a few nanoseconds, which is why the paper measures MPE
//    overhead as "extremely slight";
//  * log_send / log_receive record the two halves of a message, later paired
//    into arrows by the CLOG-2 → SLOG-2 converter;
//  * log_sync_clocks estimates each rank's clock offset/skew against rank 0
//    via min-RTT ping-pong (call it at start and end to correct skew too);
//  * finish_log gathers all buffers at rank 0, applies the clock
//    correction, time-merges, and writes a single CLOG-2 file — the paper's
//    measured "wrap-up" cost.
//
// Like real MPE, everything rides on ordinary messages, so if the program
// aborts (MPI_Abort), the log is lost — the paper's Section III-B discusses
// exactly this limitation, and the Pilot integration reproduces it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "clog2/clog2.hpp"
#include "mpisim/world.hpp"

namespace mpe {

/// MPE caps optional event text at 40 bytes (paper, Section III).
inline constexpr std::size_t kMaxTextBytes = 40;

/// Linear clock correction ref(t) = a + b * t fitted from sync samples.
struct ClockFit {
  double a = 0.0;
  double b = 1.0;
  [[nodiscard]] double apply(double local) const { return a + b * local; }
};

/// Fit a correction from (local, ref) samples: identity for none, offset
/// for one, least-squares line for two or more.
ClockFit fit_clock(const std::vector<clog2::SyncRec>& samples);

/// K-way time-merge of per-stream record sequences into one chronological
/// stream. Each input stream is expected to be time-ordered already (a rank
/// logs with a monotonic clock, and a linear clock correction with positive
/// slope preserves that order); the rare post-correction inversion — a
/// degenerate fit with non-positive slope, or an explicitly stamped
/// out-of-order record — is detected and repaired with a local stable sort
/// of that stream only. The merge is a heap over one cursor per stream
/// (O(n log k) comparisons, no global sort, no intermediate copy of the
/// trace) and is tie-broken by stream index, so the output is byte-for-byte
/// what concatenating the streams in order and stable-sorting by timestamp
/// used to produce.
std::vector<clog2::Record> merge_timed(std::vector<std::vector<clog2::Record>> streams);

/// Timestamp of a timed record (EventRec/MsgRec); definition records carry
/// no clock and sort as 0. This is the key merge_timed orders by, exposed so
/// benches and tests can reproduce the seed's sort path exactly.
double record_time(const clog2::Record& rec);

class Logger {
public:
  struct Options {
    std::string comment;
    /// Popup-text cap (MPE hardwires 40; kept configurable for tests).
    std::size_t max_text_bytes = kMaxTextBytes;
    /// Ping-pong rounds per sync point (min-RTT sample wins).
    int sync_rounds = 5;
    /// Virtual-seconds cost model for the finalize gather+merge+write, so
    /// the "wrap-up time" the paper measures (~0.8 s) exists in simulated
    /// time: cost = base + per_record * records.
    double merge_base_cost = 0.05;
    double merge_cost_per_record = 35e-6;

    /// Robust-log spill (the paper's future work: don't lose the log on
    /// abort). When non-empty, every record is also appended — and flushed
    /// — to "<spill_base>.rank<r>.spill" as it is logged, so mpe::salvage
    /// can reconstruct a trace even after MPI_Abort killed the gather.
    /// Costs a buffered write + flush per record instead of MPE's
    /// memory-only append.
    std::string spill_base;

    /// Fault-injection hooks (chaos testing; see src/fault/). `on_record` is
    /// called after a rank buffers (and spills) its nth instance record
    /// (1-based, per rank); it may throw to simulate the rank dying — the
    /// already-spilled prefix is exactly what mpe::salvage recovers.
    std::function<void(int rank, std::uint64_t nth)> on_record;
    /// Spill-write fault: how many of the nth spill write's `nbytes` to
    /// actually write. Returning less truncates the write and permanently
    /// breaks that rank's spill stream; records still buffer in memory, so
    /// a clean finish is unaffected and salvage drops the torn tail.
    std::function<std::size_t(int rank, std::uint64_t nth, std::size_t nbytes)>
        spill_fault;
  };

  Logger(mpisim::World& world, Options opts);

  // --- definition phase (thread-safe; typically before logging starts) ----
  /// Allocate a fresh event ID (MPE_Log_get_event_number).
  int get_event_number();

  /// Define a solo event (drawn as a bubble). Colour names are validated.
  void define_event(int event_id, std::string name, std::string color,
                    std::string format = {});

  /// Define a state (MPE_Describe_state): start/end event pair, drawn as a
  /// rectangle from the start instance to the end instance.
  void define_state(int start_event_id, int end_event_id, std::string name,
                    std::string color, std::string format = {});

  // --- logging (called from rank threads; wait-free per rank) -------------
  /// MPE_Log_event: record an instance of `event_id` now, with optional
  /// popup text (silently truncated to max_text_bytes, like MPE).
  void log_event(mpisim::Comm& comm, int event_id, std::string_view text = {});

  /// Same, but at an explicit rank-local timestamp (used by the Pilot layer
  /// to stamp milestones like per-message arrival instants).
  void log_event_at(mpisim::Comm& comm, double local_time, int event_id,
                    std::string_view text = {});

  /// MPE_Log_send / MPE_Log_receive: the two halves of a message arrow.
  void log_send(mpisim::Comm& comm, int dst, int tag, std::size_t bytes);
  void log_receive(mpisim::Comm& comm, int src, int tag, std::size_t bytes);
  /// Receive half stamped at an explicit time (Pilot logs the arrival
  /// moment it observed rather than "now").
  void log_receive_at(mpisim::Comm& comm, double local_time, int src, int tag,
                      std::size_t bytes);

  /// MPE_Log_sync_clocks: collective; every rank must call it. Estimates
  /// this rank's offset against rank 0 by min-RTT ping-pong and records a
  /// sync sample. Call once near start and once near end to correct skew.
  void log_sync_clocks(mpisim::Comm& comm);

  /// MPE_Finish_log: collective. Gathers all per-rank buffers at rank 0,
  /// applies clock corrections, merges by corrected time and writes `out`.
  /// Returns the wrap-up duration in virtual seconds on rank 0 (0 elsewhere).
  double finish_log(mpisim::Comm& comm, const std::filesystem::path& out);

  /// Records buffered by `rank` so far (tests / diagnostics).
  [[nodiscard]] std::size_t buffered(int rank) const;

  /// Write the definition table to "<spill_base>.defs.spill" (robust mode;
  /// call after all define_* calls, before logging starts).
  void write_spill_defs();

  /// Build the merged file in memory (what finish_log writes); callable
  /// after finish_log has run, or directly in single-threaded tests.
  [[nodiscard]] const std::optional<clog2::File>& merged() const { return merged_; }

private:
  struct RankBuffer {
    std::vector<clog2::Record> records;     // EventRec / MsgRec, local clock
    std::vector<clog2::SyncRec> sync_samples;  // (local, ref) pairs
    std::unique_ptr<std::ofstream> spill;   // robust mode only
    std::uint64_t logged = 0;        // instance records buffered so far
    std::uint64_t spill_writes = 0;  // spill writes attempted so far
    bool spill_broken = false;       // stream hit a (possibly injected) fault
  };

  clog2::File merge_all(std::vector<RankBuffer> buffers);
  [[nodiscard]] std::string clip(std::string_view text) const;
  void spill_record(int rank, const clog2::Record& rec);
  void record_logged(int rank);
  void remove_spill_files();

  mpisim::World& world_;
  Options opts_;

  std::mutex defs_mu_;
  int next_event_id_ = 1;
  std::vector<clog2::EventDef> event_defs_;
  std::vector<clog2::StateDef> state_defs_;
  std::map<int, std::string> known_event_ids_;  // id -> owning def name

  std::vector<RankBuffer> buffers_;  // index = rank; touched only by that rank
  std::optional<clog2::File> merged_;
};

/// Reconstruct a trace from robust-mode spill files (the paper's future
/// work). Reads "<spill_base>.defs.spill" and every
/// "<spill_base>.rank<r>.spill" that exists; a truncated tail (the record
/// being written when the program died) is dropped, and so is the rest of
/// a stream from a record logged under another rank, naming a partner
/// outside [0, clog2::kMaxRanks), or carrying a non-finite time (before or
/// after its clock correction). The header's nranks is 1 + the largest
/// rank or partner among the kept records, so the result always passes
/// clog2::check_record. Clock corrections use whatever sync samples made
/// it to disk. Throws util::IoError if no spill files exist at all.
clog2::File salvage(const std::string& spill_base,
                    const std::string& comment = "salvaged after abort");

}  // namespace mpe
