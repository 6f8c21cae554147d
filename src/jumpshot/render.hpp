// Headless timeline renderer: draws an SLOG-2 window as SVG with Jumpshot's
// visual vocabulary — timelines per rank on a dark canvas, state rectangles
// (nested states inset), solo-event bubbles, white message arrows, a time
// axis in seconds, and the legend table. Popup contents become SVG <title>
// tooltips, so every figure in the paper can be regenerated and inspected.
//
// When a rank has more states in the window than `preview_threshold`, its
// row is drawn in Jumpshot's zoomed-out "outline form": per time bucket,
// stripes whose sizes give the relative proportion of each colour (how
// Fig. 1 renders the full thumbnail run).
//
// The picture depends only on the window's drawables, not on the reader or
// the frame layout that hands them out: each rank's states draw in
// (depth, start, end, category, start_text, end_text) order, each rank's
// events in (time, category, text) order, and arrows in (start, end, src,
// dst, tag, size) order, with times compared by std::strong_order.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "slog2/slog2.hpp"

namespace jumpshot {

struct RenderOptions {
  /// Window; NaN means "whole file".
  double t0 = std::numeric_limits<double>::quiet_NaN();
  double t1 = std::numeric_limits<double>::quiet_NaN();
  int width = 1200;        ///< total image width in px
  int row_height = 26;     ///< timeline row height
  int row_gap = 8;
  bool draw_arrows = true;
  bool draw_events = true;
  bool draw_legend = true;
  /// States per rank in the window beyond which the row switches to
  /// zoomed-out preview striping.
  std::size_t preview_threshold = 400;
  /// Navigator renders only: frame-payload bytes the window may decode
  /// before the render falls back to the stored preview histograms
  /// (outline form) instead of touching leaf payloads at all.
  std::uint64_t lod_payload_budget = 4 * 1024 * 1024;
  /// Accepted for existing callers and not read by the renderer: a
  /// window's frames are decoded serially. (pilot-jumpshot also passes it to
  /// the legend's per-rank sweeps.)
  int threads = 1;
  std::string title;
  /// Y-axis labels; defaults to "0".."N-1" (PI_SetName feeds real names).
  std::vector<std::string> rank_names;
};

/// What the timeline renderer needs from a trace: the rank count, the time
/// span a NaN window bound falls back to, the category table, and a visit of
/// the drawables intersecting [a, b]. The visited references need only live
/// for the duration of their callback.
struct TimelineSource {
  using StateCb = std::function<void(const slog2::StateDrawable&)>;
  using EventCb = std::function<void(const slog2::EventDrawable&)>;
  using ArrowCb = std::function<void(const slog2::ArrowDrawable&)>;

  std::int32_t nranks = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  const std::vector<slog2::Category>* categories = nullptr;
  std::function<void(double, double, const StateCb&, const EventCb&,
                     const ArrowCb&)>
      visit;
};

/// Render any source's window as a timeline with the swatch legend (names
/// and colours only). pilot-traced draws live sessions through this.
std::string render_svg(const TimelineSource& src, const RenderOptions& opts = {});

/// Render to an SVG document string.
std::string render_svg(const slog2::File& file, const RenderOptions& opts = {});

/// Render and write to `path`.
void render_to_file(const std::filesystem::path& path, const slog2::File& file,
                    const RenderOptions& opts = {});

/// Render a window straight from the on-disk frame directory: only frames
/// intersecting [t0, t1] are decoded, so a zoomed-in render of a huge trace
/// costs O(window + log frames), not O(trace). When the window's payload
/// exceeds `lod_payload_budget`, no payload is decoded at all — the stored
/// preview histogram of the covering frame is striped instead (the SVG then
/// carries a "preview-lod" marker comment).
std::string render_svg(slog2::Navigator& nav, const RenderOptions& opts = {});

void render_to_file(const std::filesystem::path& path, slog2::Navigator& nav,
                    const RenderOptions& opts = {});

/// Jumpshot's "statistics picture" for a user-selected duration (the paper
/// highlights it for spotting load imbalance): one horizontal bar per rank,
/// stacked by state category and scaled by busy time within [t0, t1], with
/// the imbalance factor in the header. NaN bounds mean the whole file.
struct StatsRenderOptions {
  double t0 = std::numeric_limits<double>::quiet_NaN();
  double t1 = std::numeric_limits<double>::quiet_NaN();
  int width = 900;
  std::string title;
  std::vector<std::string> rank_names;
};

std::string render_stats_svg(const slog2::File& file,
                             const StatsRenderOptions& opts = {});
void render_stats_to_file(const std::filesystem::path& path, const slog2::File& file,
                          const StatsRenderOptions& opts = {});

}  // namespace jumpshot
