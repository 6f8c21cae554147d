#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "clog2/clog2.hpp"
#include "slog2/frame_cache.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

thread_local int t_tid = 0;

constexpr const char* kFnNames[] = {
    "bench::setup",          "bench::round",          "bench::request",
    "bench::first_view",     "bench::analysis",       "tracegen::generate",
    "pilot::run/logged",     "pilot::run/nolog",      "clog2::read_file",
    "slog2::convert",        "util::write_file",      "slog2::serialize",
    "slog2::Navigator",      "jumpshot::render/zoom", "jumpshot::render/lod",
    "query::LegendSweep",    "query::WindowOccupancy", "query::Trace",
    "query::match_messages", "query::stamp_clocks",   "query::state_durations",
    "query::message_edges",  "analyze::check_trace",  "analyze::diff_traces",
    "digest::analyze",       "traced::open",          "traced::feed",
    "traced::status",        "traced::query",         "traced::render",
    "traced::end",           "traced::finalize",      "traced::close",
};
static_assert(sizeof(kFnNames) / sizeof(kFnNames[0]) ==
              static_cast<std::size_t>(Fn::kCount));

// X11 colour names (the renderer's vocabulary); categories cycle through.
constexpr const char* kColors[] = {
    "SteelBlue", "orange",     "ForestGreen", "IndianRed",  "gold",
    "orchid",    "SeaGreen",   "tomato",      "SlateBlue",  "khaki",
    "turquoise", "chocolate",  "plum",        "YellowGreen", "salmon",
    "wheat",
};

std::mutex g_report_mu;
constexpr std::uint64_t kMaxReports = 20;  // stderr lines per kind

}  // namespace

// --- Outcome ----------------------------------------------------------------

void Outcome::failed(const std::string& why) {
  const std::uint64_t n = ++failed_;
  std::lock_guard lk(g_report_mu);
  if (n <= kMaxReports) std::fprintf(stderr, "perfbench: failed: %s\n", why.c_str());
}

void Outcome::wrong(const std::string& why) {
  const bool first = correct_.exchange(false);
  std::lock_guard lk(g_report_mu);
  std::fprintf(stderr, "perfbench: %s check: %s\n", first ? "FAILED" : "also failed",
               why.c_str());
}

// --- Tracer -----------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::bind_thread(int tid) { t_tid = std::clamp(tid, 0, kMaxThreads - 1); }

void Tracer::begin(Fn fn, std::uint64_t req) {
  bufs_[t_tid].push_back(
      {seconds_between(epoch_, Clock::now()), req, fn, phase_.load(), true});
}

void Tracer::end(Fn fn) {
  bufs_[t_tid].push_back({seconds_between(epoch_, Clock::now()), 0, fn, 0, false});
}

std::vector<double> Tracer::durations(Fn fn, Phase phase) const {
  std::vector<double> out;
  for (const auto& buf : bufs_) {
    std::vector<const Ev*> stack;
    for (const Ev& ev : buf) {
      if (ev.begin) {
        stack.push_back(&ev);
        continue;
      }
      if (stack.empty()) continue;
      const Ev* b = stack.back();
      stack.pop_back();
      if (b->fn == fn && b->phase == static_cast<std::uint8_t>(phase))
        out.push_back(ev.t - b->t);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& buf : bufs_) n += buf.size() / 2;
  return n;
}

void Tracer::write_clog2(const std::filesystem::path& path,
                         const std::string& comment) const {
  int ntimelines = 1;
  for (int t = 0; t < kMaxThreads; ++t)
    if (!bufs_[t].empty()) ntimelines = t + 1;

  clog2::File file;
  file.nranks = ntimelines;
  file.comment = comment;
  const auto nfn = static_cast<std::int32_t>(Fn::kCount);
  for (std::int32_t f = 0; f < nfn; ++f) {
    clog2::StateDef def;
    def.state_id = f + 1;
    def.start_event_id = 100 + 2 * f;
    def.end_event_id = 101 + 2 * f;
    def.name = kFnNames[f];
    def.color = kColors[static_cast<std::size_t>(f) % std::size(kColors)];
    def.format = "request %s";
    file.records.emplace_back(def);
  }

  // Merge the per-thread streams by time. Each stream is already in time
  // order, and a stable merge keeps every thread's begin/end nesting intact.
  struct Item {
    double t;
    int tid;
    std::size_t seq;
  };
  std::vector<Item> order;
  for (int t = 0; t < ntimelines; ++t)
    for (std::size_t i = 0; i < bufs_[t].size(); ++i)
      order.push_back({bufs_[t][i].t, t, i});
  std::sort(order.begin(), order.end(), [](const Item& a, const Item& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.seq < b.seq;
  });
  for (const Item& it : order) {
    const Ev& ev = bufs_[it.tid][it.seq];
    clog2::EventRec rec;
    rec.timestamp = ev.t;
    rec.rank = it.tid;
    const auto f = static_cast<std::int32_t>(ev.fn);
    rec.event_id = ev.begin ? 100 + 2 * f : 101 + 2 * f;
    if (ev.begin && ev.req != 0) rec.text = "r" + std::to_string(ev.req);
    file.records.emplace_back(std::move(rec));
  }
  clog2::write_file(path, file);
}

// --- statistics -----------------------------------------------------------------

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile_of(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean_round_median(const std::vector<std::vector<double>>& rounds) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : rounds) {
    if (r.empty()) continue;
    sum += median_of(r);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double tail_of(const std::vector<double>& v, double p, const std::string& name,
               Outcome& out) {
  const double n = static_cast<double>(v.size());
  const double used = std::max(50.0, std::min(p, 100.0 * (1.0 - 10.0 / n)));
  char buf[96];
  std::snprintf(buf, sizeof buf, "p%g of %zu samples", used, v.size());
  out.note(name, buf);
  return percentile_of(v, used);
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double mb(double bytes) { return bytes / 1e6; }

// --- span metrics shared by every workload -------------------------------------

void report_span_metrics(Outcome& out) {
  const Tracer& tr = Tracer::get();
  auto med = [&](Fn fn, Phase ph = Phase::kMeasure) {
    return median_of(tr.durations(fn, ph));
  };
  // Set-up work (the postmortem and live converts) counts when the measured
  // phase never calls the function.
  auto med_any = [&](Fn fn) {
    const double m = med(fn);
    return m > 0.0 ? m : med(fn, Phase::kSetup);
  };
  const double logged = med(Fn::kPilotRunLogged);
  const double nolog = med(Fn::kPilotRunNolog);
  out.metric("pilot.run_nolog_s", nolog, "s");
  out.metric("run_s", logged, "s");
  out.metric("mpe.log_s", logged > 0.0 ? logged - nolog : 0.0, "s");
  out.metric("clog2.read_s", med(Fn::kClog2Read), "s");
  out.metric("slog2.convert_s", med_any(Fn::kSlog2Convert), "s");
  out.metric("slog2.serialize_s", med_any(Fn::kSlog2Serialize), "s");
  out.metric("slog2.open_ms", 1e3 * med_any(Fn::kSlog2Open), "ms");

  const std::vector<double> zoom = tr.durations(Fn::kRenderZoom, Phase::kMeasure);
  const std::vector<double> lod = tr.durations(Fn::kRenderLod, Phase::kMeasure);
  out.metric("jumpshot.zoom_ms", 1e3 * median_of(zoom), "ms");
  out.metric("jumpshot.lod_ms", 1e3 * median_of(lod), "ms");
  const double renders = static_cast<double>(zoom.size() + lod.size());
  out.metric("jumpshot.lod_share",
             renders > 0 ? static_cast<double>(lod.size()) / renders : 0.0, "ratio");

  out.metric("query.trace_build_s", med(Fn::kTraceBuild), "s");
  out.metric("query.match_s", med(Fn::kMatch), "s");
  out.metric("query.clocks_s", med(Fn::kClocks), "s");
  out.metric("query.durations_s", med(Fn::kDurations), "s");
  out.metric("query.edges_s", med(Fn::kEdges), "s");
  out.metric("query.legend_ms", 1e3 * med(Fn::kLegend), "ms");
  out.metric("query.occupancy_ms", 1e3 * med(Fn::kOccupancy), "ms");
  out.metric("analyze.check_s", med(Fn::kCheck), "s");
  out.metric("analyze.diff_s", med(Fn::kDiff), "s");
  out.metric("digest.analyze_s", med(Fn::kDigest), "s");

  const std::vector<double> feed = tr.durations(Fn::kTracedFeed, Phase::kMeasure);
  out.metric("traced.feed_p50_ms", 1e3 * median_of(feed), "ms");
  out.metric("traced.feed_p99_ms", 1e3 * percentile_of(feed, 99.0), "ms");
  out.metric("traced.query_ms", 1e3 * med(Fn::kTracedQuery), "ms");
  out.metric("traced.render_ms", 1e3 * med(Fn::kTracedRender), "ms");
  out.metric("traced.finalize_s", med(Fn::kTracedFinalize), "s");
  out.metric("trace.spans", static_cast<double>(tr.span_count()), "count");
}

std::uint64_t warning_count(const slog2::ConvertStats& st) {
  return st.unmatched_sends + st.unmatched_recvs + st.unmatched_state_ends +
         st.unclosed_states + st.equal_drawables + st.unknown_event_ids;
}

std::string render_view(slog2::Navigator& nav, jumpshot::RenderOptions ro) {
  ro.threads = 0;
  const double a = std::isnan(ro.t0) ? nav.t_min() : ro.t0;
  const double b = std::isnan(ro.t1) ? nav.t_max() : ro.t1;
  const bool lod = nav.window_payload_bytes(a, b) > ro.lod_payload_budget;
  Span s(lod ? Fn::kRenderLod : Fn::kRenderZoom);
  return jumpshot::render_svg(nav, ro);
}

CacheCounters CacheCounters::now() {
  const slog2::FrameCache::Stats st = slog2::FrameCache::global().stats();
  return {st.hits, st.misses, st.evictions};
}

void report_cache_metrics(Outcome& out, const CacheCounters& before, double rounds) {
  const CacheCounters after = CacheCounters::now();
  const double per = rounds > 0 ? 1.0 / rounds : 0.0;
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  // Every frame decode goes through the cache, and each miss is one decode.
  out.metric("slog2.frames_decoded", per * misses, "count");
  out.metric("slog2.cache_hits", per * hits, "count");
  out.metric("slog2.cache_misses", per * misses, "count");
  out.metric("slog2.cache_evictions",
             per * static_cast<double>(after.evictions - before.evictions), "count");
  out.metric("slog2.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
}

int next_core() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  static std::atomic<unsigned> turn{0};
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return 1;
  int skip = static_cast<int>(turn++ % static_cast<unsigned>(n));
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    break;
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  return n;
}

void note_common(const Config& cfg, Outcome& out) {
  out.note("workload", cfg.workload);
  out.note("seed", std::to_string(cfg.seed));
  out.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.note("threads_resolved", std::to_string(util::resolve_threads(0)));
  out.note("frame_cache_capacity_bytes",
           std::to_string(slog2::FrameCache::global().capacity()));
  out.note("measure_seconds", std::to_string(cfg.seconds));
  out.note("setups", std::to_string(cfg.setups));
}

}  // namespace perfbench
