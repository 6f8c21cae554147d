#include "jumpshot/render.hpp"

#include <algorithm>
#include <cmath>
#include <compare>
#include <functional>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "jumpshot/stats.hpp"
#include "jumpshot/svg.hpp"
#include "util/fs.hpp"

namespace jumpshot {

namespace {

using svg::emit;
using svg::Escaped;
using svg::Fixed;
using svg::Palette;
using svg::Seconds;

// Jumpshot-like dark canvas.
constexpr const char* kCanvasColor = "#101014";
constexpr const char* kAxisColor = "#c8c8c8";
constexpr const char* kGridColor = "#2e2e36";
constexpr int kMarginLeft = 96;
constexpr int kMarginRight = 16;
constexpr int kMarginTop = 52;
constexpr int kMarginBottom = 16;
constexpr int kLegendRow = 18;

struct Layout {
  double a = 0.0;
  double b = 1.0;
  int plot_width = 0;
  int nranks = 0;
  int row_height = 0;
  int row_gap = 0;

  [[nodiscard]] double x(double t) const {
    return kMarginLeft + (t - a) / (b - a) * plot_width;
  }
  [[nodiscard]] double row_top(int rank) const {
    return kMarginTop + static_cast<double>(rank) * (row_height + row_gap);
  }
  [[nodiscard]] double row_center(int rank) const {
    return row_top(rank) + row_height / 2.0;
  }
};

// Choose ~`target` round tick spacing covering [a, b].
double tick_step(double a, double b, int target) {
  const double raw = (b - a) / std::max(target, 1);
  if (raw <= 0) return 1.0;
  const double mag = std::pow(10.0, std::floor(std::log10(raw)));
  for (double m : {1.0, 2.0, 5.0, 10.0}) {
    if (raw <= m * mag) return m * mag;
  }
  return 10.0 * mag;
}

void draw_axis(std::string& svg, const Layout& lay) {
  const double bottom =
      lay.row_top(lay.nranks) - lay.row_gap + 4.0;
  const double step = tick_step(lay.a, lay.b, 8);
  const double first = std::ceil(lay.a / step) * step;
  for (double t = first; t <= lay.b + step * 1e-9; t += step) {
    const Fixed px{lay.x(t), 1};
    emit(svg, "<line x1='", px, "' y1='", kMarginTop - 6, "' x2='", px, "' y2='",
         Fixed{bottom, 1}, "' stroke='", kGridColor, "' stroke-width='1'/>\n");
    emit(svg, "<text x='", px, "' y='", kMarginTop - 10, "' fill='", kAxisColor,
         "' font-size='11' text-anchor='middle' font-family='monospace'>",
         Seconds{t}, "</text>\n");
  }
}

// The draw order is a total key over every drawable field, so the picture
// depends only on the window's drawables, never on the order a reader or a
// frame layout hands them out. Doubles compare by std::strong_order: NaN and
// ±0 from hostile files still give a strict weak order.
struct TimeKey {
  double v;
  friend std::strong_ordering operator<=>(TimeKey x, TimeKey y) {
    return std::strong_order(x.v, y.v);
  }
  friend bool operator==(TimeKey x, TimeKey y) { return std::is_eq(x <=> y); }
};

auto draw_key(const slog2::StateDrawable& s) {
  return std::tuple<std::int32_t, TimeKey, TimeKey, std::int32_t,
                    const std::string&, const std::string&>(
      s.depth, TimeKey{s.start_time}, TimeKey{s.end_time}, s.category_id,
      s.start_text, s.end_text);
}
auto draw_key(const slog2::EventDrawable& e) {
  return std::tuple<TimeKey, std::int32_t, const std::string&>(
      TimeKey{e.time}, e.category_id, e.text);
}
auto draw_key(const slog2::ArrowDrawable& a) {
  return std::tuple(TimeKey{a.start_time}, TimeKey{a.end_time}, a.src_rank,
                    a.dst_rank, a.tag, a.size);
}

// The key's leading depth and time, copied beside each pointer by
// sort_for_drawing so most comparisons never follow the pointers.
struct DrawLead {
  std::int32_t depth;
  TimeKey t;
  auto operator<=>(const DrawLead&) const = default;
};
DrawLead draw_lead(const slog2::StateDrawable& s) { return {s.depth, {s.start_time}}; }
DrawLead draw_lead(const slog2::EventDrawable& e) { return {0, {e.time}}; }
DrawLead draw_lead(const slog2::ArrowDrawable& a) { return {0, {a.start_time}}; }

template <class T>
void sort_for_drawing(std::vector<const T*>& items) {
  std::vector<std::pair<DrawLead, const T*>> order;
  order.reserve(items.size());
  for (const T* x : items) order.emplace_back(draw_lead(*x), x);
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    if (const auto c = x.first <=> y.first; c != 0) return c < 0;
    return draw_key(*x.second) < draw_key(*y.second);
  });
  for (std::size_t i = 0; i < order.size(); ++i) items[i] = order[i].second;
}

struct RankItems {
  std::vector<const slog2::StateDrawable*> states;
  std::vector<const slog2::EventDrawable*> events;
};

void draw_state_rects(std::string& svg, const Palette& pal, const Layout& lay,
                      int rank,
                      const std::vector<const slog2::StateDrawable*>& states) {
  for (const auto* s : states) {
    const double x0 = std::max(lay.x(s->start_time), static_cast<double>(kMarginLeft));
    const double x1 =
        std::min(lay.x(s->end_time), static_cast<double>(kMarginLeft + lay.plot_width));
    const double w = std::max(x1 - x0, 0.75);
    const int inset = std::min(s->depth * 3, lay.row_height / 2 - 2);
    const double y = lay.row_top(rank) + inset;
    const double h = std::max(lay.row_height - 2.0 * inset, 3.0);
    const auto& sw = pal[s->category_id];
    emit(svg, "<rect x='", Fixed{x0, 2}, "' y='", Fixed{y, 2}, "' width='",
         Fixed{w, 2}, "' height='", Fixed{h, 2}, "' fill='", sw.hex,
         "' stroke='black' stroke-width='0.4'><title>", sw.name, "  rank ", rank,
         "  [", Seconds{s->start_time}, " .. ", Seconds{s->end_time}, "]  dur ",
         Seconds{s->end_time - s->start_time});
    if (!s->start_text.empty()) emit(svg, "  ", Escaped{s->start_text});
    if (!s->end_text.empty()) emit(svg, "  ", Escaped{s->end_text});
    svg += "</title></rect>\n";
  }
}

// Zoomed-out "outline form": an outlined row subdivided into time buckets;
// within each bucket, stacked stripes sized by each colour's share of busy
// time (how Jumpshot summarizes intervals with too many state changes).
void draw_state_preview(std::string& svg, const Palette& pal, const Layout& lay,
                        int rank,
                        const std::vector<const slog2::StateDrawable*>& states) {
  const int bucket_px = 4;
  const int nbuckets = std::max(lay.plot_width / bucket_px, 1);
  const double bucket_dt = (lay.b - lay.a) / nbuckets;
  // occupancy[bucket][category] = seconds
  std::vector<std::map<std::int32_t, double>> occupancy(
      static_cast<std::size_t>(nbuckets));
  for (const auto* s : states) {
    const double lo = std::max(s->start_time, lay.a);
    const double hi = std::min(s->end_time, lay.b);
    if (hi <= lo) continue;
    int first = std::clamp(static_cast<int>((lo - lay.a) / bucket_dt), 0, nbuckets - 1);
    int last = std::clamp(static_cast<int>((hi - lay.a) / bucket_dt), 0, nbuckets - 1);
    for (int i = first; i <= last; ++i) {
      const double b0 = lay.a + i * bucket_dt;
      const double b1 = b0 + bucket_dt;
      const double overlap = std::min(hi, b1) - std::max(lo, b0);
      if (overlap > 0) occupancy[static_cast<std::size_t>(i)][s->category_id] += overlap;
    }
  }

  const double y = lay.row_top(rank);
  for (int i = 0; i < nbuckets; ++i) {
    const auto& bucket_cats = occupancy[static_cast<std::size_t>(i)];
    if (bucket_cats.empty()) continue;
    double total = 0.0;
    for (const auto& [cat, secs] : bucket_cats) total += secs;
    if (total <= 0.0) continue;
    const Fixed px0{kMarginLeft + static_cast<double>(i) * bucket_px, 1};
    double yoff = 0.0;
    for (const auto& [cat, secs] : bucket_cats) {
      const double h = secs / total * lay.row_height;
      emit(svg, "<rect x='", px0, "' y='", Fixed{y + yoff, 2}, "' width='",
           bucket_px, "' height='", Fixed{std::max(h, 0.5), 2}, "' fill='",
           pal[cat].hex, "'/>\n");
      yoff += h;
    }
  }
  // Outline marking the summarized interval.
  emit(svg, "<rect x='", kMarginLeft, "' y='", Fixed{y, 2}, "' width='",
       lay.plot_width, "' height='", lay.row_height, "' fill='none' stroke='",
       kAxisColor, "' stroke-width='0.8'/>\n");
}

// Appends the legend block; receives the y where the plot area ended.
using LegendFn = std::function<void(std::string&, int)>;

// The document head both renderers share: <svg>, the canvas, the preview-LOD
// marker or the arrowhead marker, and the title.
void draw_head(std::string& svg, const RenderOptions& opts, int height,
               bool preview_lod) {
  emit(svg, "<svg xmlns='http://www.w3.org/2000/svg' width='", opts.width,
       "' height='", height, "' viewBox='0 0 ", opts.width, " ", height, "'>\n");
  if (preview_lod) svg += "<!-- preview-lod -->\n";
  emit(svg, "<rect width='", opts.width, "' height='", height, "' fill='",
       kCanvasColor, "'/>\n");
  if (!preview_lod)
    svg +=
        "<defs><marker id='arrowhead' markerWidth='7' markerHeight='6' refX='6' "
        "refY='3' orient='auto'><polygon points='0 0, 7 3, 0 6' fill='white'/>"
        "</marker></defs>\n";
  if (!opts.title.empty())
    emit(svg, "<text x='", kMarginLeft, "' y='18' fill='", kAxisColor,
         "' font-size='14' font-family='sans-serif'>", Escaped{opts.title},
         "</text>\n");
}

std::string render_timeline(const TimelineSource& src, const RenderOptions& opts,
                            const LegendFn& legend_fn) {
  const auto& cats = *src.categories;
  const Palette pal(cats);
  Layout lay;
  lay.a = std::isnan(opts.t0) ? src.t_min : opts.t0;
  lay.b = std::isnan(opts.t1) ? src.t_max : opts.t1;
  if (lay.b <= lay.a) lay.b = lay.a + 1e-9;
  lay.plot_width = std::max(opts.width - kMarginLeft - kMarginRight, 100);
  lay.nranks = std::max(src.nranks, 1);
  lay.row_height = opts.row_height;
  lay.row_gap = opts.row_gap;

  const int legend_lines =
      opts.draw_legend ? static_cast<int>(cats.size()) + 1 : 0;
  const int plot_bottom =
      kMarginTop + lay.nranks * (lay.row_height + lay.row_gap);
  const int height = plot_bottom + legend_lines * kLegendRow + kMarginBottom;

  std::string svg;
  draw_head(svg, opts, height, false);
  draw_axis(svg, lay);

  // Rank labels and row baselines.
  for (int r = 0; r < lay.nranks; ++r) {
    emit(svg, "<text x='", kMarginLeft - 8, "' y='", Fixed{lay.row_center(r) + 4, 1},
         "' fill='", kAxisColor,
         "' font-size='12' text-anchor='end' font-family='monospace'>");
    if (r < static_cast<int>(opts.rank_names.size()))
      emit(svg, Escaped{opts.rank_names[static_cast<std::size_t>(r)]});
    else
      emit(svg, r);
    const Fixed center{lay.row_center(r), 1};
    emit(svg, "</text>\n<line x1='", kMarginLeft, "' y1='", center, "' x2='",
         kMarginLeft + lay.plot_width, "' y2='", center, "' stroke='", kGridColor,
         "' stroke-width='0.5'/>\n");
  }

  // Gather the window's drawables grouped per rank.
  std::map<int, RankItems> per_rank;
  std::vector<const slog2::ArrowDrawable*> arrows;
  std::vector<slog2::StateDrawable> state_storage;
  std::vector<slog2::EventDrawable> event_storage;
  std::vector<slog2::ArrowDrawable> arrow_storage;
  src.visit(
      lay.a, lay.b,
      [&](const slog2::StateDrawable& s) { state_storage.push_back(s); },
      [&](const slog2::EventDrawable& e) { event_storage.push_back(e); },
      [&](const slog2::ArrowDrawable& ar) { arrow_storage.push_back(ar); });
  for (const auto& s : state_storage) per_rank[s.rank].states.push_back(&s);
  for (const auto& e : event_storage) per_rank[e.rank].events.push_back(&e);
  for (const auto& ar : arrow_storage) arrows.push_back(&ar);

  // States: full rectangles or preview striping per row. The key leads
  // with depth, so outer states draw first and nested ones paint on top.
  for (auto& [rank, items] : per_rank) {
    if (rank < 0 || rank >= lay.nranks) continue;
    sort_for_drawing(items.states);
    if (items.states.size() > opts.preview_threshold) {
      draw_state_preview(svg, pal, lay, rank, items.states);
    } else {
      draw_state_rects(svg, pal, lay, rank, items.states);
    }
  }

  // Arrows between rank timelines.
  if (opts.draw_arrows) {
    sort_for_drawing(arrows);
    for (const auto* ar : arrows) {
      if (ar->src_rank < 0 || ar->src_rank >= lay.nranks || ar->dst_rank < 0 ||
          ar->dst_rank >= lay.nranks)
        continue;
      emit(svg, "<line x1='", Fixed{lay.x(ar->start_time), 2}, "' y1='",
           Fixed{lay.row_center(ar->src_rank), 2}, "' x2='",
           Fixed{lay.x(ar->end_time), 2}, "' y2='",
           Fixed{lay.row_center(ar->dst_rank), 2},
           "' stroke='white' stroke-width='0.9' marker-end='url(#arrowhead)'>"
           "<title>message ",
           ar->src_rank, " -&gt; ", ar->dst_rank, "  tag ", ar->tag, "  ", ar->size,
           " bytes  [", Seconds{ar->start_time}, " .. ", Seconds{ar->end_time},
           "]  dur ", Seconds{ar->end_time - ar->start_time}, "</title></line>\n");
    }
  }

  // Event bubbles on top.
  if (opts.draw_events) {
    for (auto& [rank, items] : per_rank) {
      if (rank < 0 || rank >= lay.nranks) continue;
      sort_for_drawing(items.events);
      for (const auto* e : items.events) {
        const auto& sw = pal[e->category_id];
        emit(svg, "<circle cx='", Fixed{lay.x(e->time), 2}, "' cy='",
             Fixed{lay.row_center(rank), 2}, "' r='3' fill='", sw.hex,
             "' stroke='black' stroke-width='0.4'><title>", sw.name, "  rank ", rank,
             "  t=", Seconds{e->time});
        if (!e->text.empty()) emit(svg, "  ", Escaped{e->text});
        svg += "</title></circle>\n";
      }
    }
  }

  if (opts.draw_legend && legend_fn) legend_fn(svg, plot_bottom);

  svg += "</svg>\n";
  return svg;
}

// One legend row up to its text: the colour swatch and the opening <text>
// tag. Legends list every category with its own colour, even when an
// earlier category shares its id.
void legend_swatch(std::string& svg, int y, const slog2::Category& c) {
  emit(svg, "<rect x='", kMarginLeft, "' y='", y - 10,
       "' width='12' height='12' fill='", Palette::hex_of(c.color), "' stroke='",
       kAxisColor, "' stroke-width='0.5'/>\n<text x='", kMarginLeft + 18, "' y='", y,
       "' fill='", kAxisColor, "' font-size='12' font-family='monospace'>");
}

// Swatch-only legend (TimelineSource renders, the Navigator's included:
// per-category durations would require decoding the whole trace, which is
// the thing we're avoiding).
void swatch_legend(std::string& svg, int plot_bottom,
                   const std::vector<slog2::Category>& cats) {
  int y = plot_bottom + kLegendRow;
  emit(svg, "<text x='", kMarginLeft, "' y='", y, "' fill='", kAxisColor,
       "' font-size='12' font-family='monospace'>legend: name</text>\n");
  for (const auto& c : cats) {
    y += kLegendRow;
    legend_swatch(svg, y, c);
    emit(svg, Escaped{c.name}, "</text>\n");
  }
}

// Zoomed-out fallback: no frame payload is decoded — the covering frame's
// stored preview histogram is striped across the plot area. The histogram
// aggregates all ranks (previews carry no rank axis), so the band spans
// every timeline row.
std::string render_preview_lod(slog2::Navigator& nav, const RenderOptions& opts) {
  const auto& cats = nav.categories();
  const Palette pal(cats);
  Layout lay;
  lay.a = std::isnan(opts.t0) ? nav.t_min() : opts.t0;
  lay.b = std::isnan(opts.t1) ? nav.t_max() : opts.t1;
  if (lay.b <= lay.a) lay.b = lay.a + 1e-9;
  lay.plot_width = std::max(opts.width - kMarginLeft - kMarginRight, 100);
  lay.nranks = std::max(nav.nranks(), 1);
  lay.row_height = opts.row_height;
  lay.row_gap = opts.row_gap;

  const int legend_lines =
      opts.draw_legend ? static_cast<int>(cats.size()) + 1 : 0;
  const int plot_bottom =
      kMarginTop + lay.nranks * (lay.row_height + lay.row_gap);
  const int height = plot_bottom + legend_lines * kLegendRow + kMarginBottom;

  std::string svg;
  draw_head(svg, opts, height, true);
  draw_axis(svg, lay);

  const auto pv = nav.preview_covering(lay.a, lay.b);
  const double band_top = lay.row_top(0);
  const double band_h =
      lay.row_top(lay.nranks) - lay.row_gap - band_top;
  if (pv.preview != nullptr && pv.preview->nbuckets > 0 && pv.t1 > pv.t0) {
    const int nb = pv.preview->nbuckets;
    const double bucket_dt = (pv.t1 - pv.t0) / nb;
    for (int i = 0; i < nb; ++i) {
      const double b0 = pv.t0 + i * bucket_dt;
      const double b1 = b0 + bucket_dt;
      if (b1 < lay.a || b0 > lay.b) continue;
      double total = 0.0;
      for (const auto& [cat, buckets] : pv.preview->state_occupancy)
        if (static_cast<std::size_t>(i) < buckets.size())
          total += buckets[static_cast<std::size_t>(i)];
      if (total <= 0.0) continue;
      const double x0 = std::max(lay.x(b0), static_cast<double>(kMarginLeft));
      const double x1 = std::min(lay.x(b1),
                                 static_cast<double>(kMarginLeft + lay.plot_width));
      if (x1 <= x0) continue;
      const Fixed x{x0, 2};
      const Fixed w{x1 - x0, 2};
      double yoff = 0.0;
      for (const auto& [cat, buckets] : pv.preview->state_occupancy) {
        if (static_cast<std::size_t>(i) >= buckets.size()) continue;
        const double share = buckets[static_cast<std::size_t>(i)] / total;
        if (share <= 0.0) continue;
        const double h = share * band_h;
        emit(svg, "<rect x='", x, "' y='", Fixed{band_top + yoff, 2}, "' width='", w,
             "' height='", Fixed{std::max(h, 0.5), 2}, "' fill='", pal[cat].hex,
             "'/>\n");
        yoff += h;
      }
    }
    emit(svg, "<text x='", kMarginLeft, "' y='", Fixed{band_top - 4, 1}, "' fill='",
         kAxisColor, "' font-size='11' font-family='monospace'>outline form: ",
         pv.preview->arrow_count, " arrows in covering frame</text>\n");
  }
  // Outline marking the summarized interval.
  emit(svg, "<rect x='", kMarginLeft, "' y='", Fixed{band_top, 2}, "' width='",
       lay.plot_width, "' height='", Fixed{band_h, 2}, "' fill='none' stroke='",
       kAxisColor, "' stroke-width='0.8'/>\n");

  if (opts.draw_legend) swatch_legend(svg, plot_bottom, cats);
  svg += "</svg>\n";
  return svg;
}

}  // namespace

std::string render_svg(const TimelineSource& src, const RenderOptions& opts) {
  return render_timeline(src, opts, [&src](std::string& svg, int plot_bottom) {
    swatch_legend(svg, plot_bottom, *src.categories);
  });
}

std::string render_svg(const slog2::File& file, const RenderOptions& opts) {
  TimelineSource src;
  src.nranks = file.nranks;
  src.t_min = file.t_min;
  src.t_max = file.t_max;
  src.categories = &file.categories;
  src.visit = std::bind_front(&slog2::File::visit_window, &file);
  return render_timeline(src, opts, [&file](std::string& svg, int plot_bottom) {
    const auto entries = legend(file, LegendSort::kByInclusive);
    int y = plot_bottom + kLegendRow;
    emit(svg, "<text x='", kMarginLeft, "' y='", y, "' fill='", kAxisColor,
         "' font-size='12' font-family='monospace'>legend: name  count  incl  "
         "excl</text>\n");
    for (const auto& e : entries) {
      y += kLegendRow;
      legend_swatch(svg, y, e.category);
      // Fixed-width columns: the escaped name left-aligned in 24, a space,
      // the count right-aligned in 8.
      const std::size_t name_at = svg.size();
      emit(svg, Escaped{e.category.name});
      svg.append(24 - std::min<std::size_t>(svg.size() - name_at, 24), ' ');
      svg += ' ';
      const std::string count = std::to_string(e.count);
      svg.append(8 - std::min<std::size_t>(count.size(), 8), ' ');
      emit(svg, count, "  ", Seconds{e.inclusive}, "  ", Seconds{e.exclusive},
           "</text>\n");
    }
  });
}

void render_to_file(const std::filesystem::path& path, const slog2::File& file,
                    const RenderOptions& opts) {
  util::write_file(path, render_svg(file, opts));
}

std::string render_svg(slog2::Navigator& nav, const RenderOptions& opts) {
  const double a = std::isnan(opts.t0) ? nav.t_min() : opts.t0;
  const double b = std::isnan(opts.t1) ? nav.t_max() : opts.t1;
  if (nav.window_payload_bytes(a, b) > opts.lod_payload_budget)
    return render_preview_lod(nav, opts);

  TimelineSource src;
  src.nranks = nav.nranks();
  src.t_min = nav.t_min();
  src.t_max = nav.t_max();
  src.categories = &nav.categories();
  src.visit = std::bind_front(&slog2::Navigator::visit_window, &nav);
  return render_svg(src, opts);
}

void render_to_file(const std::filesystem::path& path, slog2::Navigator& nav,
                    const RenderOptions& opts) {
  util::write_file(path, render_svg(nav, opts));
}

}  // namespace jumpshot
