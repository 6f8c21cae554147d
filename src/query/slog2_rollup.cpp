#include "query/slog2_rollup.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/parallel.hpp"

namespace query {

namespace {

struct OpenInterval {
  double end;
  std::int32_t category_id;
};

// Below this many buffered states the sort is cheaper than a thread spawn.
constexpr std::size_t kParallelStates = std::size_t{64} * 1024;

/// What one state adds to the totals, with the nesting resolved: replaying
/// these in rank order performs the exact additions — same values, same
/// order — the serial sweep performs.
struct Contribution {
  std::int32_t category_id = 0;
  std::int32_t parent_id = 0;  ///< valid only when nested
  bool nested = false;
  double dur = 0.0;
};

}  // namespace

void LegendSweep::add_state(const slog2::StateDrawable& s) {
  per_rank_[s.rank].push_back(s);
}

void LegendSweep::add_event(const slog2::EventDrawable& e) {
  ++event_counts_[e.category_id];
}

void LegendSweep::add_arrow(const slog2::ArrowDrawable&) {
  ++event_counts_[slog2::kArrowCategoryId];
}

std::map<std::int32_t, LegendTotals> LegendSweep::totals(int threads) const {
  std::map<std::int32_t, LegendTotals> out;
  for (const auto& [id, n] : event_counts_) out[id].count += n;

  std::size_t nstates = 0;
  for (const auto& [rank, v] : per_rank_) nstates += v.size();
  const int nworkers =
      nstates < kParallelStates ? 1 : util::resolve_threads(threads);

  // Shard the per-rank sort + nesting sweeps. Workers write only their
  // rank's contribution slot; the accumulators are fed below, serially.
  std::vector<const std::vector<slog2::StateDrawable>*> ranks;
  ranks.reserve(per_rank_.size());
  for (const auto& [rank, v] : per_rank_) ranks.push_back(&v);
  std::vector<std::vector<Contribution>> per_rank_ops(ranks.size());
  util::parallel_for(ranks.size(), nworkers, [&](std::size_t ri) {
    auto states = *ranks[ri];
    std::sort(states.begin(), states.end(),
              [](const slog2::StateDrawable& a, const slog2::StateDrawable& b) {
                if (a.start_time != b.start_time) return a.start_time < b.start_time;
                return a.end_time > b.end_time;  // outer first on ties
              });
    std::vector<OpenInterval> stack;
    std::vector<Contribution>& ops = per_rank_ops[ri];
    ops.reserve(states.size());
    for (const auto& s : states) {
      Contribution c;
      c.category_id = s.category_id;
      c.dur = s.end_time - s.start_time;
      while (!stack.empty() && stack.back().end <= s.start_time) stack.pop_back();
      if (!stack.empty() && stack.back().end >= s.end_time) {
        // Nested: parent loses this much exclusive time.
        c.nested = true;
        c.parent_id = stack.back().category_id;
      }
      stack.push_back(OpenInterval{s.end_time, s.category_id});
      ops.push_back(c);
    }
  });

  // Replay in rank order — the serial accumulation sequence, bit for bit.
  std::map<std::int32_t, double> exclusive;  // category -> seconds
  for (const auto& ops : per_rank_ops) {
    for (const Contribution& c : ops) {
      LegendTotals& t = out[c.category_id];
      ++t.count;
      t.inclusive += c.dur;
      exclusive[c.category_id] += c.dur;
      if (c.nested) exclusive[c.parent_id] -= c.dur;
    }
  }
  for (auto& [id, t] : out) {
    const auto it = exclusive.find(id);
    t.exclusive = it != exclusive.end() ? it->second : 0.0;
  }
  return out;
}

WindowOccupancy::WindowOccupancy(std::int32_t nranks, double a, double b)
    : a_(a), b_(b) {
  ranks_.resize(static_cast<std::size_t>(std::max(nranks, 0)));
}

WindowOccupancy::Rank* WindowOccupancy::slot(std::int32_t rank) {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return nullptr;
  return &ranks_[static_cast<std::size_t>(rank)];
}

void WindowOccupancy::add_state(const slog2::StateDrawable& s) {
  if (Rank* r = slot(s.rank)) {
    const double lo = std::max(s.start_time, a_);
    const double hi = std::min(s.end_time, b_);
    if (hi > lo) r->state_time[s.category_id] += hi - lo;
    ++r->state_count[s.category_id];
  }
}

void WindowOccupancy::add_event(const slog2::EventDrawable& e) {
  if (Rank* r = slot(e.rank)) ++r->event_count[e.category_id];
}

void WindowOccupancy::add_arrow(const slog2::ArrowDrawable& a) {
  if (Rank* src = slot(a.src_rank)) ++src->arrows_out;
  if (Rank* dst = slot(a.dst_rank)) ++dst->arrows_in;
}

}  // namespace query
