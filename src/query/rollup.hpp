// Per-rank rollups over a Trace: the aggregate shapes every analysis keeps
// reinventing — state-duration totals and histograms (per rank, per state),
// message-edge statistics (count, bytes, latency per sender/receiver/tag),
// and disjoint-interval unions for occupancy math.
//
// Rollups are plain data; the differ compares two of them, tracecheck's
// stall accounting consumes the intervals, and tools print them.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "query/clocks.hpp"
#include "query/trace.hpp"

namespace query {

/// Log-scale duration histogram: bucket i holds durations in
/// [10^(i-7), 10^(i-6)) seconds, i.e. from <1us up to >=10s.
inline constexpr std::size_t kDurationBuckets = 8;
std::size_t duration_bucket(double seconds);

struct StateStats {
  std::uint64_t count = 0;       ///< completed instances
  double total_seconds = 0.0;    ///< sum of instance durations
  std::array<std::uint32_t, kDurationBuckets> histogram{};
};

/// Completed state instances per (rank, state id), via the same per-rank
/// LIFO stack sweep the checker and the converter use. Orphan ends and
/// still-open starts are ignored here — the checker diagnoses those.
struct StateDurations {
  std::map<std::pair<int, std::int32_t>, StateStats> by_rank_state;

  [[nodiscard]] const StateStats* find(int rank, std::int32_t state_id) const;
  /// Sum of total_seconds over every state of one rank.
  [[nodiscard]] double rank_total(int rank) const;
};

/// The rollup of `trace`, sharded per rank across `threads` workers (0 =
/// hardware). Keys are (rank, state), so shards own disjoint key sets, and
/// within one rank the sweep replays the rank's steps in stream order — the
/// result is byte-identical at any worker count.
StateDurations state_durations(const Trace& trace, int threads = 1);

struct EdgeStats {
  std::uint64_t sent = 0;
  std::uint64_t matched = 0;
  std::uint64_t bytes = 0;
  double total_latency = 0.0;  ///< sum of recv_time - send_time over matched

  [[nodiscard]] double mean_latency() const {
    return matched > 0 ? total_latency / static_cast<double>(matched) : 0.0;
  }
};

/// Message-edge rollup keyed (sender, receiver, tag), from a matched graph.
struct MessageEdges {
  std::map<TagKey, EdgeStats> edges;
};

/// The rollup of `graph`, sharded per sender across `threads` workers (0 =
/// hardware). TagKey sorts sender-first, so shards own disjoint key ranges;
/// within a sender the messages fold in graph order, making the result
/// byte-identical at any worker count.
MessageEdges message_edges(const MsgGraph& graph, int threads = 1);

// --- interval algebra --------------------------------------------------------

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Merge intervals into a disjoint, sorted union.
std::vector<Interval> merge_intervals(std::vector<Interval> v);

}  // namespace query
