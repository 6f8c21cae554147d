// SLOG-2 drawable rollups: the accumulation engines behind Jumpshot's
// legend table and window-statistics picture, lifted out of the jumpshot
// module so any analysis can fold drawables into the same numbers.
//
// Both sweeps are feed-forward: the caller streams drawables in (usually
// from slog2::File::visit_window, preserving its frame-preorder iteration
// order — double accumulation order is part of the pinned output), then
// reads the totals. LegendSweep buffers states per rank for the nesting
// sort; WindowOccupancy accumulates immediately.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "slog2/slog2.hpp"

namespace query {

/// Per-category totals of one legend sweep.
struct LegendTotals {
  std::uint64_t count = 0;
  double inclusive = 0.0;  ///< states only; 0 for events/arrows
  double exclusive = 0.0;  ///< inclusive minus directly nested substates
};

/// Count + inclusive/exclusive time per category. Exclusive time uses a
/// per-rank stack sweep in start order (outer-first on ties): a state's
/// duration is subtracted from its innermost enclosing state — the
/// converter guarantees LIFO nesting within a rank.
class LegendSweep {
 public:
  void add_state(const slog2::StateDrawable& s);
  void add_event(const slog2::EventDrawable& e);
  void add_arrow(const slog2::ArrowDrawable& a);

  /// Totals per category id; call once after the last add_*. The per-rank
  /// sort + nesting sweeps are sharded across `threads` workers (0 =
  /// hardware). Each shard emits its rank's contribution list instead of
  /// touching shared accumulators; the lists replay serially in rank order,
  /// so the floating-point accumulation order — and every downstream byte —
  /// is the same at any worker count.
  [[nodiscard]] std::map<std::int32_t, LegendTotals> totals(int threads = 1) const;

 private:
  std::map<std::int32_t, std::vector<slog2::StateDrawable>> per_rank_;
  std::map<std::int32_t, std::uint64_t> event_counts_;  // category -> count
};

/// Per-rank occupancy of one window [a, b]: state time clipped to the
/// window, instance counts anchored in it, arrow endpoints.
class WindowOccupancy {
 public:
  WindowOccupancy(std::int32_t nranks, double a, double b);

  void add_state(const slog2::StateDrawable& s);
  void add_event(const slog2::EventDrawable& e);
  void add_arrow(const slog2::ArrowDrawable& a);

  struct Rank {
    std::map<std::int32_t, double> state_time;
    std::map<std::int32_t, std::uint64_t> state_count;
    std::map<std::int32_t, std::uint64_t> event_count;
    std::uint64_t arrows_out = 0;
    std::uint64_t arrows_in = 0;
  };
  [[nodiscard]] const std::vector<Rank>& ranks() const { return ranks_; }

 private:
  [[nodiscard]] Rank* slot(std::int32_t rank);

  double a_;
  double b_;
  std::vector<Rank> ranks_;
};

}  // namespace query
