// postmortem: a read-only viewer and analysis session over a converted
// tracegen trace. Each round replays a fixed seeded list of closed-loop
// viewer requests (narrow zoom/pan renders that decode frames, wide renders
// that fall back to preview LOD, legend and occupancy sweeps) in four
// batches, each after a first view (the file opened afresh and rendered
// whole), with one analysis pass in the middle: check, diff against a
// crash-style twin, digest, and the query rollups behind them.
#include <variant>

#include "analyze/tracecheck.hpp"
#include "analyze/tracediff.hpp"
#include "bench.hpp"
#include "digest/digest.hpp"
#include "jumpshot/render.hpp"
#include "query/clocks.hpp"
#include "query/parallel_sweep.hpp"
#include "query/rollup.hpp"
#include "query/trace.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

struct PostmortemSize {
  std::uint64_t events;
  std::int32_t ranks;
};
constexpr PostmortemSize kFull{600000, 16};
constexpr PostmortemSize kTiny{20000, 8};

constexpr std::size_t kDigestBudget = 4096;

int rank_of(const clog2::Record& rec) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return e->rank;
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) return m->rank;
  return -1;
}

/// Crash-style twin: the victim rank loses the second half of its records.
clog2::File truncate_rank_tail(const clog2::File& ref, int victim) {
  std::size_t victim_records = 0;
  for (const auto& rec : ref.records)
    if (rank_of(rec) == victim) ++victim_records;
  const std::size_t keep = victim_records / 2;
  clog2::File out;
  out.version = ref.version;
  out.nranks = ref.nranks;
  out.comment = ref.comment;
  out.records.reserve(ref.records.size());
  std::size_t seen = 0;
  for (const auto& rec : ref.records) {
    if (rank_of(rec) == victim && ++seen > keep) continue;
    out.records.push_back(rec);
  }
  return out;
}

enum class Kind { kZoom, kPan, kWide, kLegend, kOccupancy };

struct Request {
  Kind kind;
  double t0;
  double t1;
};

/// The seeded request mix (Pipit-style questions: windowed views, per-rank
/// and per-category aggregates). The composition and window widths are
/// fixed, so every seed asks for the same amount of work; the seed only
/// places the windows and orders the requests. Zoom and pan renders are the
/// slowest kind (they decode and draw every drawable of their window) and
/// 40 of the 48 requests: query_p50_ms is taken over them alone, and the
/// p95 tail over every request falls in their top 6%; sweeps and wide
/// (preview-LOD) views are faster.
std::vector<Request> make_requests(std::uint64_t seed, double t_min, double t_max) {
  util::SplitMix64 rng(seed ^ 0xC0FFEEULL);
  std::vector<Kind> kinds;
  for (const auto& [kind, n] :
       {std::pair{Kind::kZoom, 26}, {Kind::kPan, 14}, {Kind::kWide, 2},
        {Kind::kLegend, 3}, {Kind::kOccupancy, 3}})
    kinds.insert(kinds.end(), static_cast<std::size_t>(n), kind);
  for (std::size_t i = kinds.size() - 1; i > 0; --i)
    std::swap(kinds[i], kinds[rng.below(i + 1)]);

  const double span = t_max - t_min;
  auto at = [&](Kind kind, double w) {
    const double a = t_min + rng.uniform() * (span - w);
    return Request{kind, a, a + w};
  };
  std::vector<Request> out;
  Request prev = at(Kind::kZoom, span / 128.0);
  for (Kind kind : kinds) {
    Request r{};
    switch (kind) {
      case Kind::kZoom: r = at(kind, span / 128.0); break;
      case Kind::kPan: {
        const double w = prev.t1 - prev.t0;
        const double a = prev.t1 + 0.5 * w <= t_max ? prev.t0 + 0.5 * w : t_min;
        r = {kind, a, a + w};
        break;
      }
      case Kind::kWide: r = at(kind, span * 0.75); break;
      case Kind::kLegend:
      case Kind::kOccupancy: r = at(kind, span / 8.0); break;
    }
    if (kind == Kind::kZoom || kind == Kind::kPan) prev = r;
    out.push_back(r);
  }
  return out;
}

struct Inputs {
  clog2::File ref;
  clog2::File twin;
  int victim = 0;
  std::vector<std::uint8_t> slog2_bytes;
  std::uint64_t total_arrows = 0;
  std::unique_ptr<slog2::Navigator> nav;
};

void set_up(const Config& cfg, const PostmortemSize& size, Inputs& in) {
  tracegen::Options g;
  g.seed = cfg.seed;
  g.nranks = size.ranks;
  g.events = size.events;
  {
    Span s(Fn::kTracegen);
    in.ref = tracegen::generate(g);
  }
  util::SplitMix64 rng(cfg.seed ^ 0x7777ULL);
  in.victim = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(size.ranks - 1)));
  in.twin = truncate_rank_tail(in.ref, in.victim);
  slog2::File slog;
  {
    Span s(Fn::kSlog2Convert);
    slog2::ConvertOptions co;
    co.threads = 0;
    slog = slog2::convert(in.ref, co);
  }
  in.total_arrows = slog.stats.total_arrows;
  {
    Span s(Fn::kSlog2Serialize);
    in.slog2_bytes = slog2::serialize(slog);
  }
  in.nav.reset();
  Span s(Fn::kSlog2Open);
  in.nav = std::make_unique<slog2::Navigator>(in.slog2_bytes);
}

struct Pass {
  std::size_t check_findings = 0;
  std::size_t check_errors = 0;
  int top_suspect = -1;
  std::size_t digest_bytes = 0;
  std::uint64_t matched = 0;
};

/// The analysis pass comes in four parts: check, diff, digest, and the
/// per-rank and per-edge rollups an analysis report is built from.
constexpr std::size_t kAnalysisParts = 4;

void analysis_part(std::size_t part, const Config& cfg, Inputs& in, Pass& p) {
  if (part == 0) {
    Span s(Fn::kCheck);
    analyze::TraceCheckOptions o;
    o.threads = 0;
    const analyze::Report rep = analyze::check_trace(in.ref, o);
    p.check_findings = rep.size();
    p.check_errors = rep.count(analyze::Severity::kError);
  } else if (part == 1) {
    Span s(Fn::kDiff);
    analyze::TraceDiffOptions o;
    o.threads = 0;
    const analyze::TraceDiffResult res = analyze::diff_traces(in.ref, in.twin, o);
    if (res.structural_diverged && !res.suspects.empty())
      p.top_suspect = res.suspects.front().rank;
  } else if (part == 2) {
    Span s(Fn::kDigest);
    digest::Options o;
    o.threads = 0;
    o.seed = cfg.seed;
    o.budget = kDigestBudget;
    p.digest_bytes = digest::render(digest::analyze(*in.nav, o), o).size();
  } else {
    std::unique_ptr<query::Trace> trace;
    {
      Span s(Fn::kTraceBuild);
      trace = std::make_unique<query::Trace>(in.ref, 0);
    }
    {
      Span s(Fn::kDurations);
      (void)query::state_durations(*trace, 0);
    }
    query::MsgGraph graph;
    {
      Span s(Fn::kMatch);
      graph = query::match_messages(in.ref, trace->nranks());
    }
    {
      Span s(Fn::kClocks);
      (void)query::stamp_clocks(graph, 0);
    }
    Span s(Fn::kEdges);
    for (const auto& [key, e] : query::message_edges(graph, 0).edges)
      p.matched += e.matched;
  }
}

Pass analysis_pass(const Config& cfg, Inputs& in) {
  Pass p;
  for (std::size_t part = 0; part < kAnalysisParts; ++part) analysis_part(part, cfg, in, p);
  return p;
}

/// Serve one request; returns a hash of its answer.
std::uint64_t serve(Inputs& in, const Request& r, double& svg_bytes) {
  slog2::Navigator& nav = *in.nav;
  if (r.kind == Kind::kLegend) {
    Span s(Fn::kLegend);
    std::string text;
    for (const auto& [cat, t] : query::legend_window(nav, r.t0, r.t1, 0).totals(0))
      text += util::strprintf("%d:%llu:%.9g:%.9g;", cat,
                              static_cast<unsigned long long>(t.count), t.inclusive,
                              t.exclusive);
    return fnv1a(text);
  }
  if (r.kind == Kind::kOccupancy) {
    Span s(Fn::kOccupancy);
    const query::WindowOccupancy occ =
        query::occupancy_window(nav, nav.nranks(), r.t0, r.t1, 0);
    std::string text;
    for (const auto& rank : occ.ranks()) {
      double busy = 0.0;
      for (const auto& kv : rank.state_time) busy += kv.second;
      text += util::strprintf("%.9g:%llu:%llu;", busy,
                              static_cast<unsigned long long>(rank.arrows_out),
                              static_cast<unsigned long long>(rank.arrows_in));
    }
    return fnv1a(text);
  }
  jumpshot::RenderOptions ro;
  ro.t0 = r.t0;
  ro.t1 = r.t1;
  ro.title = "postmortem";
  const std::string svg = render_view(nav, ro);
  svg_bytes += static_cast<double>(svg.size());
  return fnv1a(svg);
}

}  // namespace

void run_postmortem(const Config& cfg, Outcome& out) {
  const PostmortemSize size = cfg.tiny ? kTiny : kFull;
  Tracer& tr = Tracer::get();
  Inputs in;
  std::vector<Request> requests;
  std::vector<std::uint64_t> answers;
  Pass pass0;
  std::uint64_t first_svg = 0;

  // --- set-up: generate, truncate, convert, open, warm up; repeated --------
  std::vector<double> setup_s;
  for (int rep = 0; rep < cfg.setups; ++rep) {
    tr.set_phase(Phase::kSetup);
    Span setup(Fn::kSetup);
    in = Inputs{};
    set_up(cfg, size, in);
    requests = make_requests(cfg.seed, in.nav->t_min(), in.nav->t_max());
    answers.clear();
    double ignore = 0;
    for (const Request& r : requests) answers.push_back(serve(in, r, ignore));
    jumpshot::RenderOptions ro;
    ro.title = "postmortem";
    first_svg = fnv1a(render_view(*in.nav, ro));
    setup_s.push_back(setup.stop());
  }
  tr.set_phase(Phase::kWarmup);
  guarded(out, "warm-up analysis pass", [&] { pass0 = analysis_pass(cfg, in); });
  out.check(pass0.check_errors == 0, "tracegen trace has no check_trace errors");
  out.check(pass0.top_suspect == in.victim,
            "diff_traces ranks the truncated rank " + std::to_string(in.victim) +
                " first (got " + std::to_string(pass0.top_suspect) + ")");
  out.check(pass0.digest_bytes > 0 && pass0.digest_bytes <= kDigestBudget,
            "digest fits its budget");
  out.check(pass0.matched == in.total_arrows,
            "message_edges matched count equals the converter's arrows");

  // --- measured phase ------------------------------------------------------
  std::vector<double> query_ms, view_s, analyze_s, wall_s;
  std::vector<std::vector<double>> render_ms;  // zoom and pan renders, per round
  double svg_bytes = 0;
  int rounds = 0;
  std::uint64_t req_id = 0;
  const CacheCounters cache0 = CacheCounters::now();
  tr.set_phase(Phase::kMeasure);
  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  auto serve_range = [&](std::size_t lo, std::size_t hi) {
    next_core();
    for (std::size_t i = lo; i < hi; ++i) {
      guarded(out, "viewer request", [&] {
        Span req(Fn::kRequest, ++req_id);
        const std::uint64_t h = serve(in, requests[i], svg_bytes);
        query_ms.push_back(1e3 * req.stop());
        const Kind kind = requests[i].kind;
        if (kind == Kind::kZoom || kind == Kind::kPan)
          render_ms.back().push_back(query_ms.back());
        out.check(h == answers[i], "request " + std::to_string(i) +
                                       " answers the same every round");
      });
    }
  };
  // A first view is short (milliseconds), so a round takes four.
  auto first_view = [&] {
    next_core();
    guarded(out, "first view", [&] {
      Span s(Fn::kFirstView);
      std::unique_ptr<slog2::Navigator> nav;
      {
        Span o(Fn::kSlog2Open);
        nav = std::make_unique<slog2::Navigator>(in.slog2_bytes);
      }
      jumpshot::RenderOptions ro;
      ro.title = "postmortem";
      const std::string svg = render_view(*nav, ro);
      view_s.push_back(s.stop());
      svg_bytes += static_cast<double>(svg.size());
      out.check(fnv1a(svg) == first_svg, "first view renders the same SVG");
    });
  };
  // The round interleaves eight request batches with the four first views
  // and the four analysis parts. Render speed depends on the core the main
  // thread runs on, so each batch and first view starts on the next core in
  // turn (next_core).
  const std::size_t batch = requests.size() / (2 * kAnalysisParts);
  while (rounds == 0 || Clock::now() < t_end) {
    Span round(Fn::kRound, static_cast<std::uint64_t>(rounds) + 1);
    render_ms.emplace_back();
    Pass p;
    double analysis = 0.0;
    for (std::size_t part = 0; part < kAnalysisParts; ++part) {
      first_view();
      serve_range(2 * part * batch, (2 * part + 1) * batch);
      guarded(out, "analysis pass", [&] {
        Span s(Fn::kAnalysis);
        analysis_part(part, cfg, in, p);
        analysis += s.stop();
      });
      serve_range((2 * part + 1) * batch, (2 * part + 2) * batch);
    }
    analyze_s.push_back(analysis);
    out.check(p.check_findings == pass0.check_findings && p.top_suspect == in.victim &&
                  p.digest_bytes == pass0.digest_bytes && p.matched == pass0.matched,
              "analysis pass gives the same verdicts every round");
    wall_s.push_back(round.stop());
    ++rounds;
  }
  tr.set_phase(Phase::kVerify);

  // --- report ----------------------------------------------------------------
  note_common(cfg, out);
  out.note("input", "tracegen events=" + std::to_string(size.events) +
                        " ranks=" + std::to_string(size.ranks) + " victim=" +
                        std::to_string(in.victim));
  out.note("input_clog2_records", std::to_string(in.ref.records.size()));
  out.note("input_slog2_bytes", std::to_string(in.slog2_bytes.size()));
  out.note("input_ranks", std::to_string(size.ranks));
  out.note("frame_encoding", slog2::to_string(in.nav->encoding()));
  out.note("rounds", std::to_string(rounds));
  out.note("requests_per_round", std::to_string(requests.size()));
  out.note("driver_cores", std::to_string(next_core()) + " in turn, one per batch");

  if (!cfg.trace) {
    out.metric("setup_s", median_of(setup_s), "s");
    out.metric("wall_s", median_of(wall_s), "s");
    out.metric("first_view_s", median_of(view_s), "s");
    // Zoom and pan renders only, so the median sits inside one population
    // (sweeps and preview-LOD views are several times faster); see
    // mean_round_median for why it is taken per round.
    out.metric("query_p50_ms", mean_round_median(render_ms), "ms");
    // The tail is capped at p95: with the batches spread over the cores, a
    // slow core holds about a quarter of the requests and a p95 sits in its
    // level (six-run spread 0.05), while a p98.7 sits among rare spikes
    // (0.14).
    out.metric("query_tail_ms", tail_of(query_ms, 95, "query_tail", out), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("analyze_s", std::to_string(median_of(analyze_s)));
    return;
  }
  report_span_metrics(out);
  report_cache_metrics(out, cache0, rounds);
  out.metric("trace.wall_s", median_of(wall_s), "s");
  out.metric("analyze_s", median_of(analyze_s), "s");
  out.metric("slog2.mb", mb(static_cast<double>(in.slog2_bytes.size())), "MB");
  out.metric("jumpshot.svg_mb", mb(svg_bytes) / std::max(rounds, 1), "MB");
}

}  // namespace perfbench
