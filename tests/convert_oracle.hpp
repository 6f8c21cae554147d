// Serial reference implementation of the SLOG-2 conversion tail.
//
// slog2::detail::assemble builds the frame tree by splitting per-kind index
// arrays in place and moving each drawable once, and finds Equal Drawables
// with one sort per kind. These are the forms it replaced, kept here as test
// oracles: the recursive build_frame, which moves every drawable into fresh
// left/here/right lists at each tree level, and the Equal-Drawables scan
// that inserts every drawable's key into a std::set in commit order. The
// new tail must agree with them exactly: the same frames, the same lists in
// the same order, the same previews bit for bit, the same duplicate count
// and the same warning text.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "slog2/convert_internal.hpp"
#include "slog2/slog2.hpp"
#include "util/strings.hpp"

namespace convert_oracle {

using slog2::ConvertOptions;
using slog2::ConvertStats;
using slog2::Frame;
using slog2::detail::Collected;
using slog2::detail::event_bytes;
using slog2::detail::kArrowBytes;
using slog2::detail::kMaxWarningMessages;
using slog2::detail::state_bytes;

// Recursive bounded-frame builder: drawables that fit entirely inside a
// child half-interval sink down until the payload fits the frame-size bound.
// Appends the node and then its subtree to `frames` (preorder, left before
// right) and returns the node's index.
inline std::int32_t build_frame(std::vector<Frame>& frames, Collected items,
                                double a, double b, int depth,
                                const ConvertOptions& opts, ConvertStats& stats) {
  const auto index = static_cast<std::int32_t>(frames.size());
  const auto at = static_cast<std::size_t>(index);
  frames.emplace_back();
  frames[at].t0 = a;
  frames[at].t1 = b;
  frames[at].depth = depth;

  std::size_t bytes = 0;
  for (const auto& s : items.states) bytes += state_bytes(s);
  for (const auto& e : items.events) bytes += event_bytes(e);
  bytes += items.arrows.size() * kArrowBytes;

  const bool can_split = depth < opts.max_depth && b > a &&
                         (b - a) / 2.0 > 0.0 && bytes > opts.frame_size;
  if (!can_split) {
    frames[at].states = std::move(items.states);
    frames[at].events = std::move(items.events);
    frames[at].arrows = std::move(items.arrows);
    ++stats.frames;
    ++stats.leaf_frames;
    stats.tree_depth = std::max(stats.tree_depth, depth);
    return index;
  }

  const double mid = 0.5 * (a + b);
  Collected left, right, here;
  auto place = [&](auto member, auto&& drawable, double s, double e) {
    if (e <= mid) {
      (left.*member).push_back(std::move(drawable));
    } else if (s >= mid) {
      (right.*member).push_back(std::move(drawable));
    } else {
      (here.*member).push_back(std::move(drawable));
    }
  };
  for (auto& s : items.states) {
    const double st = s.start_time;
    const double en = s.end_time;
    place(&Collected::states, std::move(s), st, en);
  }
  for (auto& e : items.events) {
    const double t = e.time;
    place(&Collected::events, std::move(e), t, t);
  }
  for (auto& ar : items.arrows) {
    const double lo = std::min(ar.start_time, ar.end_time);
    const double hi = std::max(ar.start_time, ar.end_time);
    place(&Collected::arrows, std::move(ar), lo, hi);
  }
  frames[at].states = std::move(here.states);
  frames[at].events = std::move(here.events);
  frames[at].arrows = std::move(here.arrows);

  ++stats.frames;
  if (!left.states.empty() || !left.events.empty() || !left.arrows.empty()) {
    const std::int32_t child =
        build_frame(frames, std::move(left), a, mid, depth + 1, opts, stats);
    frames[at].left = child;
  }
  if (!right.states.empty() || !right.events.empty() || !right.arrows.empty()) {
    const std::int32_t child =
        build_frame(frames, std::move(right), mid, b, depth + 1, opts, stats);
    frames[at].right = child;
  }
  stats.tree_depth = std::max(stats.tree_depth, depth);
  return index;
}

/// The conversion tail as one serial pass in its former form: the
/// std::set Equal-Drawables scans (each kind's task run in turn), drawable
/// totals, the time span, build_frame, and the previews.
inline void assemble(slog2::File& out, Collected items, bool any_instance,
                     const ConvertOptions& opts, std::vector<std::string>* warnings) {
  // --- "Equal Drawables" detection -------------------------------------------
  // The three drawable kinds are independent scans; emit their warnings in
  // the fixed kind order (arrows, states, events).
  {
    std::array<std::vector<std::string>, 3> kind_warns;
    std::array<std::uint64_t, 3> kind_counts{};
    for (std::size_t kind = 0; kind < 3; ++kind) {
      // Counts one duplicate; true while its message still fits under the
      // cap, so a message is formatted only when it is kept.
      const auto count_duplicate = [&] {
        ++kind_counts[kind];
        return kind_warns[kind].size() < kMaxWarningMessages;
      };
      if (kind == 0) {
        std::set<std::tuple<std::int32_t, std::int32_t, double, double>> seen;
        for (const auto& a : items.arrows)
          if (!seen.insert({a.src_rank, a.dst_rank, a.start_time, a.end_time})
                   .second &&
              count_duplicate())
            kind_warns[kind].push_back(util::strprintf(
                "Equal Drawables: arrows %d->%d share start=%.9f end=%.9f",
                a.src_rank, a.dst_rank, a.start_time, a.end_time));
      } else if (kind == 1) {
        std::set<std::tuple<std::int32_t, std::int32_t, double, double>> seen;
        for (const auto& s : items.states)
          if (!seen.insert({s.category_id, s.rank, s.start_time, s.end_time})
                   .second &&
              count_duplicate())
            kind_warns[kind].push_back(util::strprintf(
                "Equal Drawables: states cat=%d rank=%d share start=%.9f "
                "end=%.9f",
                s.category_id, s.rank, s.start_time, s.end_time));
      } else {
        std::set<std::tuple<std::int32_t, std::int32_t, double>> seen;
        for (const auto& e : items.events)
          if (!seen.insert({e.category_id, e.rank, e.time}).second &&
              count_duplicate())
            kind_warns[kind].push_back(util::strprintf(
                "Equal Drawables: events cat=%d rank=%d share t=%.9f",
                e.category_id, e.rank, e.time));
      }
    }
    for (std::size_t kind = 0; kind < 3; ++kind) {
      out.stats.equal_drawables += kind_counts[kind];
      for (const auto& msg : kind_warns[kind]) slog2::detail::warn(warnings, msg);
    }
  }

  out.stats.total_states = items.states.size();
  out.stats.total_events = items.events.size();
  out.stats.total_arrows = items.arrows.size();

  // --- time span -------------------------------------------------------------
  if (any_instance) {
    slog2::detail::Span span;
    for (const auto& s : items.states) span.widen(s.start_time, s.end_time);
    for (const auto& e : items.events) span.widen(e.time, e.time);
    for (const auto& a : items.arrows)
      span.widen(std::min(a.start_time, a.end_time),
                 std::max(a.start_time, a.end_time));
    if (span.lo <= span.hi) {
      out.t_min = span.lo;
      out.t_max = span.hi;
    }
  }

  // --- frame tree + previews --------------------------------------------------
  build_frame(out.frames, std::move(items), out.t_min, out.t_max, 0, opts, out.stats);
  slog2::detail::fill_previews(out.frames, opts.preview_buckets);
}

}  // namespace convert_oracle
