// The "statistics picture": per-rank stacked busy-time bars for a selected
// window. A glance shows load imbalance — the use the paper recommends for
// deciding to adjust work granularity or switch to dynamic allocation.
#include <algorithm>
#include <cmath>

#include "jumpshot/render.hpp"
#include "jumpshot/stats.hpp"
#include "jumpshot/svg.hpp"
#include "util/fs.hpp"

namespace jumpshot {

namespace {
using svg::emit;
using svg::Escaped;
using svg::Fixed;
using svg::Seconds;

constexpr const char* kCanvas = "#101014";
constexpr const char* kText = "#c8c8c8";
constexpr int kMarginLeft = 96;
constexpr int kMarginRight = 110;
constexpr int kRowH = 22;
constexpr int kRowGap = 8;
constexpr int kTop = 56;
}  // namespace

std::string render_stats_svg(const slog2::File& file, const StatsRenderOptions& opts) {
  const double a = std::isnan(opts.t0) ? file.t_min : opts.t0;
  const double b = std::isnan(opts.t1) ? file.t_max : opts.t1;
  const auto ws = window_stats(file, a, b);
  const svg::Palette pal(file.categories);

  double max_busy = 0.0;
  for (const auto& r : ws.ranks) max_busy = std::max(max_busy, r.total_state_time());
  if (max_busy <= 0.0) max_busy = 1.0;

  const int nranks = static_cast<int>(ws.ranks.size());
  const int legend_lines = static_cast<int>(file.categories.size());
  const int height =
      kTop + std::max(nranks, 1) * (kRowH + kRowGap) + 24 + legend_lines * 16 + 12;
  const int plot_w = opts.width - kMarginLeft - kMarginRight;

  std::string out;
  emit(out, "<svg xmlns='http://www.w3.org/2000/svg' width='", opts.width,
       "' height='", height, "'>\n<rect width='", opts.width, "' height='", height,
       "' fill='", kCanvas, "'/>\n<text x='", kMarginLeft, "' y='20' fill='", kText,
       "' font-size='14' font-family='sans-serif'>",
       Escaped{opts.title.empty() ? "duration statistics" : opts.title},
       "</text>\n<text x='", kMarginLeft, "' y='40' fill='", kText,
       "' font-size='12' font-family='monospace'>window [", Seconds{a}, " .. ",
       Seconds{b}, "]   load imbalance (max/mean busy) = ", Fixed{ws.imbalance(), 3},
       "</text>\n");

  for (int r = 0; r < nranks; ++r) {
    const auto& rank = ws.ranks[static_cast<std::size_t>(r)];
    const double y = kTop + r * (kRowH + kRowGap);
    const Fixed label_y{y + kRowH * 0.7, 1};
    emit(out, "<text x='", kMarginLeft - 8, "' y='", label_y, "' fill='", kText,
         "' font-size='12' text-anchor='end' font-family='monospace'>");
    if (r < static_cast<int>(opts.rank_names.size()))
      emit(out, Escaped{opts.rank_names[static_cast<std::size_t>(r)]});
    else
      emit(out, r);
    out += "</text>\n";

    double x = kMarginLeft;
    for (const auto& [cat, secs] : rank.state_time) {
      const double w = secs / max_busy * plot_w;
      if (w <= 0) continue;
      const auto& sw = pal[cat];
      emit(out, "<rect x='", Fixed{x, 2}, "' y='", Fixed{y, 1}, "' width='",
           Fixed{std::max(w, 0.5), 2}, "' height='", kRowH, "' fill='", sw.hex,
           "'><title>", sw.name, ": ", Seconds{secs}, "</title></rect>\n");
      x += w;
    }
    emit(out, "<text x='", Fixed{x + 6, 1}, "' y='", label_y, "' fill='", kText,
         "' font-size='11' font-family='monospace'>",
         Seconds{rank.total_state_time()}, "</text>\n");
  }

  // Category legend.
  int ly = kTop + std::max(nranks, 1) * (kRowH + kRowGap) + 18;
  for (const auto& c : file.categories) {
    if (c.kind != slog2::CategoryKind::kState) continue;
    emit(out, "<rect x='", kMarginLeft, "' y='", ly - 9,
         "' width='10' height='10' fill='", pal[c.id].hex, "'/><text x='",
         kMarginLeft + 16, "' y='", ly, "' fill='", kText,
         "' font-size='11' font-family='monospace'>", Escaped{c.name}, "</text>\n");
    ly += 16;
  }
  out += "</svg>\n";
  return out;
}

void render_stats_to_file(const std::filesystem::path& path, const slog2::File& file,
                          const StatsRenderOptions& opts) {
  util::write_file(path, render_stats_svg(file, opts));
}

}  // namespace jumpshot
