// Cross-run trace diffing: align a reference CLOG-2 trace with a suspect
// run of the same program (same .prl, same seed) and localize where — and
// on which rank — the two executions part ways.
//
// Two families of signal feed the verdict:
//
//  * structural — per-rank timestamp-free projections (event ids + masked
//    popup text, message endpoints/tags/sizes) compared record by record.
//    The first position where a rank's projections differ is that rank's
//    divergence point; the globally earliest one (by reference timestamp)
//    is the prime suspect, corroborated by vector clocks from the shared
//    causal engine in src/query/.
//  * timing — per-edge message-latency inflation and per-rank state-
//    duration skew between the runs, for faults (e.g. injected delays)
//    that leave the event sequence intact but stretch it.
//
// Diagnostics are TD1xx (comparability), TD2xx (behavioral deltas), and
// TD3xx (suspect ranking); `diff_traces(A, A)` returns an empty report.
#pragma once

#include <string>
#include <vector>

#include "analyze/diagnostics.hpp"
#include "clog2/clog2.hpp"

namespace analyze {

struct TraceDiffOptions {
  /// Floors below which a timing delta is noise, in seconds.
  double min_latency_delta = 1e-3;
  double min_duration_delta = 1e-3;
  /// A suspect latency/duration must also exceed ratio * reference.
  double latency_ratio = 1.5;
  double duration_ratio = 1.5;
  /// How many ranked suspects to report (TD301 + TD302).
  int top_suspects = 3;
  /// Worker threads for the trace builds and rollups
  /// (0 = one per hardware thread). The verdict is byte-identical at any
  /// value — parallelism never changes the report.
  int threads = 1;
};

/// Per-rank comparison outcome.
struct RankDelta {
  enum class Shape {
    kMatch,         ///< projections identical
    kMismatch,      ///< records differ at ref_pos
    kSuspectShort,  ///< suspect is a strict prefix of the reference
    kSuspectLong,   ///< reference is a strict prefix of the suspect
  };

  int rank = 0;
  Shape shape = Shape::kMatch;
  bool structural = false;       ///< shape != kMatch
  std::size_t ref_pos = 0;       ///< divergence index into the rank's steps
  double ref_time = 0.0;         ///< reference timestamp at the divergence
  std::string detail;            ///< human description of the divergence
  int line = 0;                  ///< source line parsed from "L%d" text, 0 if none
  double latency_inflation = 0.0;   ///< sum of matched-message latency deltas
                                    ///< attributed to this rank as sender
  double duration_inflation = 0.0;  ///< sum of state-duration deltas
  double first_anomaly_time = 0.0;  ///< reference time of earliest signal
  bool has_anomaly_time = false;
  double score = 0.0;            ///< display score; ranking uses the full key
};

struct TraceDiffResult {
  bool comparable = true;         ///< false when rank counts differ
  bool structural_diverged = false;
  bool timing_diverged = false;
  std::vector<RankDelta> deltas;    ///< one per rank, rank order
  std::vector<RankDelta> suspects;  ///< ranked, most suspicious first
  Report report;

  [[nodiscard]] bool diverged() const {
    return structural_diverged || timing_diverged || !comparable;
  }
};

/// Diff `suspect` against `reference`. Both files must outlive the call only.
TraceDiffResult diff_traces(const clog2::File& reference,
                            const clog2::File& suspect,
                            const TraceDiffOptions& opts = {});

}  // namespace analyze
