// pilot-jumpshot: the headless viewer. Renders an SLOG-2 window to SVG and
// prints the legend table (count / incl / excl, like Jumpshot's legend
// window); also exposes the search-and-scan facility and per-rank window
// statistics (load-imbalance view).
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "jumpshot/render.hpp"
#include "jumpshot/search.hpp"
#include "jumpshot/stats.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

int run(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has("help")) {
    std::fprintf(stderr,
                 "usage: %s <trace.slog2> [--out=view.svg] [--t0=S] [--t1=S]\n"
                 "       [--width=PX] [--title=TEXT] [--no-legend] [--windowed]\n"
                 "       [--lod-budget=BYTES] [--search=NEEDLE] [--rank=R] [--stats]\n"
                 "       [--threads=N]  (N workers for the legend's per-rank\n"
                 "       sweeps, 0 = hardware, unused by --windowed; output is\n"
                 "       byte-identical)\n",
                 args.program().c_str());
    return 2;
  }

  jumpshot::RenderOptions opts;
  opts.t0 = args.get_double_or("t0", opts.t0);
  opts.t1 = args.get_double_or("t1", opts.t1);
  opts.width = static_cast<int>(args.get_int_or("width", opts.width));
  opts.title = args.get_or("title", args.positional()[0]);
  opts.draw_legend = !args.has("no-legend");
  opts.lod_payload_budget = static_cast<std::uint64_t>(args.get_int_or(
      "lod-budget", static_cast<long long>(opts.lod_payload_budget)));
  opts.threads = util::parse_threads(args);

  // --windowed: render through the Navigator, decoding only the frames the
  // window touches (and none at all once the preview LOD kicks in). The
  // whole-file load below never happens.
  if (args.has("windowed")) {
    const std::string out = args.get_or("out", "view.svg");
    for (const auto& k : args.unused_keys()) {
      std::fprintf(stderr, "error: unknown option --%s\n", k.c_str());
      return 2;
    }
    slog2::Navigator nav(args.positional()[0]);
    jumpshot::render_to_file(out, nav, opts);
    std::printf("wrote %s (decoded %zu of %zu frames)\n", out.c_str(),
                nav.frames_decoded(), nav.total_frames());
    return 0;
  }

  const auto file = slog2::read_file(args.positional()[0]);

  if (auto needle = args.get("search")) {
    jumpshot::SearchQuery query;
    query.needle = *needle;
    if (args.has("rank"))
      query.rank = static_cast<std::int32_t>(args.get_int_or("rank", 0));
    const auto hits = jumpshot::search(file, query);
    for (const auto& h : hits) {
      const char* kind = h.kind == jumpshot::SearchHit::Kind::kState   ? "state"
                         : h.kind == jumpshot::SearchHit::Kind::kEvent ? "event"
                                                                       : "arrow";
      std::printf("%-6s %-20s rank=%d [%s .. %s] %s\n", kind,
                  h.category_name.c_str(), h.rank,
                  util::human_seconds(h.start_time).c_str(),
                  util::human_seconds(h.end_time).c_str(), h.text.c_str());
    }
    std::printf("%zu hit(s)\n", hits.size());
    return 0;
  }

  if (auto statsvg = args.get("statsvg")) {
    jumpshot::StatsRenderOptions sopts;
    sopts.t0 = opts.t0;
    sopts.t1 = opts.t1;
    sopts.width = opts.width;
    sopts.title = opts.title + " (statistics)";
    jumpshot::render_stats_to_file(*statsvg, file, sopts);
    std::printf("wrote %s\n", statsvg->c_str());
    return 0;
  }

  if (args.has("stats")) {
    const double a = std::isnan(opts.t0) ? file.t_min : opts.t0;
    const double b = std::isnan(opts.t1) ? file.t_max : opts.t1;
    const auto ws = jumpshot::window_stats(file, a, b);
    std::printf("window [%s .. %s]  imbalance=%.3f\n",
                util::human_seconds(a).c_str(), util::human_seconds(b).c_str(),
                ws.imbalance());
    for (const auto& r : ws.ranks) {
      std::printf("  rank %-3d busy=%-12s arrows in/out = %llu/%llu\n", r.rank,
                  util::human_seconds(r.total_state_time()).c_str(),
                  static_cast<unsigned long long>(r.arrows_in),
                  static_cast<unsigned long long>(r.arrows_out));
    }
    return 0;
  }

  const std::string out = args.get_or("out", "view.svg");
  for (const auto& k : args.unused_keys()) {
    std::fprintf(stderr, "error: unknown option --%s\n", k.c_str());
    return 2;
  }
  jumpshot::render_to_file(out, file, opts);
  std::printf("wrote %s\n", out.c_str());
  std::fputs(jumpshot::legend_to_text(jumpshot::legend(
                 file, jumpshot::LegendSort::kByInclusive, opts.threads))
                 .c_str(),
             stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
