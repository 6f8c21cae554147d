// Budgeted trace summaries: pilot-tracedigest's library half.
//
// A digest answers "what happened in this run?" in a bounded number of
// bytes — small enough to paste into a bug report or feed to a log
// aggregator — instead of the full slog2print dump. Three ideas:
//
//  * pattern dedup: the per-rank sequence of outermost states is collapsed
//    with run/period detection ("(Compute Send)x512"), and ranks whose
//    collapsed sequence is identical are reported once as a rank range —
//    the common SPMD case where 4096 ranks did the same thing costs one
//    line, not 4096;
//  * anomaly scoring: ranks whose busy time deviates from the fleet mean
//    and edges whose mean message latency dwarfs the median edge are
//    surfaced first, so an injected `delay=` fault (or a real straggler)
//    is on the first screen;
//  * a hard byte budget: sections are rendered in priority order
//    (header > anomalies > ranks > states > edges > motifs) and the output
//    NEVER exceeds Options::budget, in either text or JSON mode.
//
// Determinism contract: same trace bytes + same Options (seed included)
// produce byte-identical output. Iteration is over ordered containers,
// floats are printed with fixed formats, and the only randomness — the
// exemplar-text sampler — is a seeded SplitMix64 over the deterministic
// visit order.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "slog2/slog2.hpp"

namespace digest {

struct Options {
  /// Hard cap on the rendered output, in bytes. Never exceeded.
  std::size_t budget = 4096;
  /// Seeds the exemplar-text sampler (which representative popup text is
  /// quoted per state category). Same seed -> byte-identical digest.
  std::uint64_t seed = 0;
  bool json = false;
  /// Time window; defaults cover the whole trace.
  double t0 = -std::numeric_limits<double>::infinity();
  double t1 = std::numeric_limits<double>::infinity();
  /// A rank is anomalous when its busy time is >= skew_threshold times the
  /// mean (or <= mean / skew_threshold).
  double skew_threshold = 2.0;
  /// An edge is anomalous when its mean arrow latency is >=
  /// latency_threshold times the median edge's mean latency.
  double latency_threshold = 4.0;
  /// Worker threads for the legend sweep and the per-rank motif collapse
  /// (0 = one per hardware thread); frame decode is serial. The digest stays
  /// a pure function of (trace, options): output is byte-identical at any
  /// value.
  int threads = 1;
};

/// One scored anomaly, most severe first after analysis.
struct Anomaly {
  std::string kind;    ///< "rank_busy_high" | "rank_busy_low" | "edge_latency"
  double score = 0.0;  ///< ratio to the fleet baseline; larger = worse
  std::string detail;  ///< one human-readable line
};

struct RankRow {
  std::int32_t rank = 0;
  double busy = 0.0;
  std::uint64_t states = 0;
  std::uint64_t events = 0;
  std::uint64_t arrows_out = 0;
  std::uint64_t arrows_in = 0;
};

struct StateRow {
  std::int32_t category_id = 0;
  std::string name;
  std::uint64_t count = 0;
  double inclusive = 0.0;
  double exclusive = 0.0;
  std::string exemplar;  ///< sampled popup text ("" when none was logged)
};

struct EdgeRow {
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double mean_latency = 0.0;
};

struct MotifRow {
  std::vector<std::int32_t> ranks;  ///< ascending; identical collapsed motif
  std::string motif;                ///< e.g. "Init (Compute Send)x512"
  std::uint64_t states = 0;         ///< outermost states per rank in the motif
};

/// The structured digest; render() turns it into bounded text/JSON.
struct Digest {
  std::int32_t nranks = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  slog2::FrameEncoding encoding = slog2::FrameEncoding::kV1;
  std::uint64_t states = 0;
  std::uint64_t events = 0;
  std::uint64_t arrows = 0;
  bool clean = true;                 ///< ConvertStats::clean()
  std::vector<Anomaly> anomalies;    ///< sorted by score, descending
  std::vector<RankRow> ranks;        ///< by rank
  std::vector<StateRow> top_states;  ///< by inclusive time, descending
  std::vector<EdgeRow> edges;        ///< by count, descending
  std::vector<MotifRow> motifs;      ///< by first rank
};

/// One pass over the navigator's [t0, t1] window (decoding only the frames
/// it intersects) feeding the query rollups + the motif/anomaly analysis.
Digest analyze(slog2::Navigator& nav, const Options& opts = {});

/// Render to text or JSON. The result's size is <= opts.budget, always:
/// text drops whole lines from the back (lowest priority first) and marks
/// the cut; JSON shrinks its lists until the document fits.
std::string render(const Digest& d, const Options& opts = {});

/// analyze() + render().
std::string summarize(slog2::Navigator& nav, const Options& opts = {});

}  // namespace digest
