// apps: the paper's own loop on a message-bound Pilot program. Each round
// runs the heat-ring unlogged three times and logged once (-pisvc=j, MPE's
// merge and CLOG-2 write included), then takes the paper's first look at
// the trace (read -> convert -> write -> open -> full render) and a short
// zoom/pan session on it.
#include <filesystem>
#include <map>
#include <variant>

#include "analyze/tracecheck.hpp"
#include "bench.hpp"
#include "clog2/clog2.hpp"
#include "heat_app.hpp"
#include "jumpshot/render.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

struct AppsSize {
  int workers;
  int cells_per;
  int steps;
  int zoom_requests;  // per round
};
constexpr AppsSize kFull{16, 256, 800, 12};
constexpr AppsSize kTiny{4, 64, 40, 4};

/// Converter warnings on the heat-ring trace. The tasks substrate runs in
/// virtual time, so the halo messages of one step share timestamps and the
/// converter reports them as Equal Drawables (the paper's Section III-C
/// superposition warning; pilot-clog2toslog2 exits 3 on this trace). The
/// trace shape is fixed, so the count is too.
std::uint64_t expected_warnings(const AppsSize& size) {
  return size.steps == kFull.steps ? 82014 : 752;
}

struct Window {
  double t0;
  double t1;
};

/// Seeded zoom/pan windows over [t_min, t_max]: zooms to 1/32 of the span,
/// each followed by a pan to the adjacent window. The k-th zoom lands at a
/// random spot of the k-th equal slice of the span, so every seed samples
/// the whole run alike. Pans do not overlap their zoom, so every request
/// decodes a fresh window and zooms and pans are one kind of request for
/// the median. At 1/128 of the span a render took 4.5-7 ms at hardware
/// threads in runs of one seed on the shared 4-core host, and the median's
/// spread over five seeds was 0.31; at 1/32 a render takes about 16 ms and
/// the spread was 0.05 while the host was quiet (README: it still grows
/// when the host's slow stretches cover most of a run).
std::vector<Window> zoom_windows(std::uint64_t seed, int n, double t_min, double t_max) {
  util::SplitMix64 rng(seed ^ 0x5A5A5A5AULL);
  std::vector<Window> out;
  const double span = t_max - t_min;
  const double w = span / 32.0;
  const int zooms = (n + 1) / 2;
  double a = t_min;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0)
      a = t_min + (i / 2 + rng.uniform()) * (span - 2.0 * w) / zooms;
    else
      a += w;
    out.push_back({a, a + w});
  }
  return out;
}

struct FirstView {
  std::uint64_t clog2_bytes = 0;
  std::uint64_t clog2_records = 0;
  std::uint64_t slog2_bytes = 0;
  std::uint64_t slog2_hash = 0;
  std::uint64_t warnings = 0;
  std::uint64_t svg_hash = 0;
  std::uint64_t svg_bytes = 0;
  double t_busy0 = 0.0;  // 1st and 99th percentile record timestamps: the
  double t_busy1 = 0.0;  // program's steps, without the start-up stretch
};

/// CLOG-2 on disk -> first rendered view. The Navigator stays open for the
/// zoom session that follows.
FirstView first_view(const std::filesystem::path& clog_path,
                     const std::filesystem::path& slog_path,
                     std::unique_ptr<slog2::Navigator>& nav) {
  FirstView fv;
  clog2::File clog;
  {
    Span s(Fn::kClog2Read);
    clog = clog2::read_file(clog_path);
  }
  fv.clog2_records = clog.records.size();
  std::vector<double> stamps;
  for (const auto& rec : clog.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec))
      stamps.push_back(e->timestamp);
    if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) stamps.push_back(m->timestamp);
  }
  if (!stamps.empty()) {
    fv.t_busy0 = percentile_of(stamps, 1.0);
    fv.t_busy1 = percentile_of(stamps, 99.0);
  }
  fv.clog2_bytes = std::filesystem::file_size(clog_path);
  slog2::File slog;
  {
    Span s(Fn::kSlog2Convert);
    slog2::ConvertOptions co;
    co.threads = 0;
    slog = slog2::convert(clog, co);
  }
  fv.warnings = warning_count(slog.stats);
  std::vector<std::uint8_t> bytes;
  {
    Span s(Fn::kSlog2Serialize);
    bytes = slog2::serialize(slog);
  }
  {
    Span s(Fn::kFileWrite);
    util::write_file(slog_path, bytes);
  }
  fv.slog2_bytes = bytes.size();
  fv.slog2_hash = fnv1a(bytes.data(), bytes.size());
  {
    Span s(Fn::kSlog2Open);
    nav = std::make_unique<slog2::Navigator>(slog_path);
  }
  jumpshot::RenderOptions ro;
  ro.title = "heat_ring";
  const std::string svg = render_view(*nav, ro);
  fv.svg_hash = fnv1a(svg);
  fv.svg_bytes = svg.size();
  return fv;
}

}  // namespace

void run_apps(const Config& cfg, Outcome& out) {
  const AppsSize size = cfg.tiny ? kTiny : kFull;
  Tracer& tr = Tracer::get();
  const std::filesystem::path clog_path = cfg.workdir / "heat.clog2";
  const std::filesystem::path slog_path = cfg.workdir / "heat.slog2";
  const std::vector<std::string> logged_args = {
      "-piexec=tasks", "-pisvc=j", "-piout=" + cfg.workdir.string(), "-piname=heat"};
  const std::vector<std::string> nolog_args = {"-piexec=tasks"};

  HeatInput input;
  HeatResult reference;
  FirstView fv0;
  std::unique_ptr<slog2::Navigator> nav;

  // --- set-up: input generation + one warm-up round, repeated -------------
  std::vector<double> setup_s;
  for (int rep = 0; rep < cfg.setups; ++rep) {
    tr.set_phase(Phase::kSetup);
    Span setup(Fn::kSetup);
    input = make_heat_input(cfg.seed, size.workers, size.cells_per, size.steps);
    guarded(out, "warm-up unlogged run", [&] {
      Span s(Fn::kPilotRunNolog);
      reference = run_heat(input, nolog_args);
    });
    guarded(out, "warm-up logged run", [&] {
      Span s(Fn::kPilotRunLogged);
      run_heat(input, logged_args);
    });
    guarded(out, "warm-up first view",
            [&] { fv0 = first_view(clog_path, slog_path, nav); });
    setup_s.push_back(setup.stop());
  }
  out.check(reference.status == 0, "heat-ring reference run exits 0");
  out.check(fv0.warnings == expected_warnings(size),
            "convert warnings " + std::to_string(fv0.warnings) + " == pinned " +
                std::to_string(expected_warnings(size)));

  const std::vector<Window> windows =
      zoom_windows(cfg.seed, size.zoom_requests, fv0.t_busy0, fv0.t_busy1);
  std::map<std::size_t, std::uint64_t> window_hash;

  // --- measured phase ------------------------------------------------------
  std::vector<double> run_s, nolog_s, view_s, query_ms, wall_s;
  std::vector<std::vector<double>> round_ms;  // query_ms, per round
  double svg_bytes = 0;
  std::uint64_t messages = 0;
  int rounds = 0;
  const CacheCounters cache0 = CacheCounters::now();
  tr.set_phase(Phase::kMeasure);
  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  std::uint64_t req_id = 0;
  // Each step (run, first view, zoom) starts on the next core in turn; 17
  // steps a round, so over the rounds every step visits every core.
  while (rounds == 0 || Clock::now() < t_end) {
    Span round(Fn::kRound, static_cast<std::uint64_t>(rounds) + 1);
    round_ms.emplace_back();
    auto nolog_run = [&] {
      next_core();
      guarded(out, "unlogged run", [&] {
        Span s(Fn::kPilotRunNolog);
        const HeatResult r = run_heat(input, nolog_args);
        nolog_s.push_back(s.stop());
        out.check(r.status == 0 && r.checksum == reference.checksum,
                  "unlogged run gives the reference result");
      });
    };
    nolog_run();
    next_core();
    guarded(out, "logged run", [&] {
      Span s(Fn::kPilotRunLogged);
      const HeatResult r = run_heat(input, logged_args);
      run_s.push_back(s.stop());
      messages = r.messages;
      out.check(r.status == 0 && r.checksum == reference.checksum,
                "logged run gives the unlogged result");
    });
    nolog_run();
    next_core();
    guarded(out, "first view", [&] {
      Span s(Fn::kFirstView);
      const FirstView fv = first_view(clog_path, slog_path, nav);
      view_s.push_back(s.stop());
      svg_bytes += static_cast<double>(fv.svg_bytes);
      out.check(fv.clog2_bytes == fv0.clog2_bytes && fv.slog2_hash == fv0.slog2_hash,
                "logged runs write the same trace (virtual-time determinism)");
      out.check(fv.warnings == fv0.warnings, "convert warning count is stable");
      out.check(fv.svg_hash == fv0.svg_hash, "first view renders the same SVG");
    });
    nolog_run();
    for (std::size_t i = 0; i < windows.size() && nav; ++i) {
      next_core();
      guarded(out, "zoom request", [&] {
        Span req(Fn::kRequest, ++req_id);
        jumpshot::RenderOptions ro;
        ro.t0 = windows[i].t0;
        ro.t1 = windows[i].t1;
        ro.title = "heat_ring zoom";
        const std::string svg = render_view(*nav, ro);
        query_ms.push_back(1e3 * req.stop());
        round_ms.back().push_back(query_ms.back());
        svg_bytes += static_cast<double>(svg.size());
        const std::uint64_t h = fnv1a(svg);
        const auto [it, fresh] = window_hash.emplace(i, h);
        out.check(fresh || it->second == h, "repeated zoom renders hash the same");
      });
    }
    wall_s.push_back(round.stop());
    ++rounds;
  }

  // --- verification (untimed) ----------------------------------------------
  tr.set_phase(Phase::kVerify);
  guarded(out, "check_trace verdict", [&] {
    analyze::TraceCheckOptions o;
    o.threads = 0;
    const analyze::Report rep = analyze::check_trace(clog2::read_file(clog_path), o);
    out.check(rep.empty(),
              "heat-ring trace checks clean (" + std::to_string(rep.size()) +
                  " findings)");
  });
  nav.reset();

  // --- report ----------------------------------------------------------------
  note_common(cfg, out);
  out.note("input", "heat-ring workers=" + std::to_string(size.workers) +
                        " cells=" + std::to_string(size.workers * size.cells_per) +
                        " steps=" + std::to_string(size.steps) + " -piexec=tasks");
  out.note("input_clog2_records", std::to_string(fv0.clog2_records));
  out.note("input_clog2_bytes", std::to_string(fv0.clog2_bytes));
  out.note("input_ranks", std::to_string(size.workers + 1));
  out.note("frame_encoding", "v1 (converter default)");
  out.note("rounds", std::to_string(rounds));
  out.note("driver_cores", std::to_string(next_core()) + " in turn, one per step");

  const double out_mb = mb(static_cast<double>(fv0.clog2_bytes + fv0.slog2_bytes));
  if (!cfg.trace) {
    out.metric("setup_s", median_of(setup_s), "s");
    out.metric("wall_s", median_of(wall_s), "s");
    out.metric("first_view_s", median_of(view_s), "s");
    out.metric("query_p50_ms", mean_round_median(round_ms), "ms");
    out.metric("query_tail_ms", tail_of(query_ms, 90, "query_tail", out), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("run_s", std::to_string(median_of(run_s)));
    out.note("nolog_s", std::to_string(median_of(nolog_s)));
    out.note("out_mb", std::to_string(out_mb));
    return;
  }
  report_span_metrics(out);
  report_cache_metrics(out, cache0, rounds);
  out.metric("trace.wall_s", median_of(wall_s), "s");
  out.metric("out_mb", out_mb, "MB");
  out.metric("pilot.messages", static_cast<double>(messages), "count");
  out.metric("clog2.records", static_cast<double>(fv0.clog2_records), "count");
  out.metric("clog2.mb", mb(static_cast<double>(fv0.clog2_bytes)), "MB");
  out.metric("slog2.convert_warnings", static_cast<double>(fv0.warnings), "count");
  out.metric("slog2.mb", mb(static_cast<double>(fv0.slog2_bytes)), "MB");
  out.metric("jumpshot.svg_mb", mb(svg_bytes) / std::max(rounds, 1), "MB");
}

}  // namespace perfbench
