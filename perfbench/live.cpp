// live: pilot-traced's request handler in process. K feeder threads each
// stream M seeded CLOG-2 streams per round, one session after another:
// open, feed ops as fast as the ingest pool's backpressure admits (closed
// loop), end and finalize to disk; the last stream of a round also gets one
// live render of the whole converted stream before its end, and a first
// view (open and render the finalized file) after it. Meanwhile the main
// thread acts as one viewer sending query ops to the sessions still
// receiving data on a fixed schedule (open loop, latency timed from each
// request's due time).
#include <algorithm>
#include <barrier>
#include <cstring>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "jumpshot/render.hpp"
#include "slog2/slog2.hpp"
#include "traced/protocol.hpp"
#include "traced/service.hpp"
#include "tracegen/tracegen.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"
#include "util/strings.hpp"

namespace perfbench {

namespace {

struct LiveSize {
  std::uint64_t events;  // per stream
  std::int32_t ranks;
  std::size_t streams_per_feeder;  // per round
  double period_s;                 // viewer schedule
  std::size_t chunk;               // feed payload bytes
};
// Feeds carry 64 KiB, the read size of the daemon's own ingest loop. The
// viewer only queries while streams ingest, about a third of a round; eight
// streams per feeder give it about 850 requests in a 25-s run, because the
// median's sampling error is most of its run-to-run spread.
constexpr LiveSize kFull{100000, 16, 8, 0.010, 64 * 1024};
constexpr LiveSize kTiny{10000, 4, 2, 0.010, 64 * 1024};

// tracegen streams are time-sorted, so a tiny reorder window lets chunks
// seal while the stream is still arriving.
constexpr double kDisorder = 1e-6;

// A live render snapshots and re-serializes the whole converted prefix under
// the session lock, so it costs a few hundred milliseconds at the end of a
// stream. In the open-loop viewer one render would queue dozens of requests
// behind it, and the two or three renders of a run would set the p95 by
// themselves. So each feeder renders closed loop, once the whole stream is
// applied: the render counts in wall_s, and traced.render_ms times it.
// Renders and first views cost several times the ingest itself, so only the
// last stream of each feeder's round gets them; the others are ingested and
// finalized only, which keeps the viewer's samples (taken while sessions
// ingest) from being a small share of the run.

struct Stream {
  std::string name;
  std::vector<std::uint8_t> bytes;
  double t_min = 0.0;
  double t_max = 0.0;
  std::uint64_t records = 0;
  std::uint64_t ref_hash = 0;  // offline slog2::convert + serialize
  std::uint64_t ref_bytes = 0;
  std::uint64_t ref_warnings = 0;
};

struct SessionRun {
  std::mutex mu;  // held by the viewer while it queries this session
  // The viewer queries a session once its stream header has been applied
  // and until the feeder ends the stream; both guarded by mu.
  bool viewable = false;
  bool done = false;
  bool ok = true;  // every op of the session succeeded
  bool viewed = false;  // rendered live and given a first view
  double first_view_s = 0.0;
  Clock::time_point fed0{};     // first feed sent
  Clock::time_point applied{};  // every byte applied
  double frontier_lag = 0.0;
  double peak_live_mb = 0.0;
  double sealed_chunks = 0.0;
  std::uint64_t records = 0;
  std::uint64_t final_bytes = 0;
  std::uint64_t svg_bytes = 0;
};

bool response_ok(const std::string& resp) { return resp.rfind("{\"ok\":true", 0) == 0; }

/// One protocol op through Service::handle; a non-ok response is a failed
/// operation. `payload` backs the feed op's binary read.
std::string call(traced::Service& svc, Outcome& out, Fn fn, const std::string& line,
                 const std::string& what, const std::uint8_t* payload = nullptr) {
  out.attempt();
  Span s(fn);
  const std::string resp = svc.handle(line, [&](void* dst, std::size_t n) {
    if (payload == nullptr) return false;
    std::memcpy(dst, payload, n);
    return true;
  });
  if (!response_ok(resp)) out.failed(what + ": " + resp.substr(0, 200));
  return resp;
}

std::string session_op(const char* op, const std::string& name,
                       const std::string& extra = "") {
  return util::strprintf("{\"op\":\"%s\",\"session\":\"%s\"%s}", op, name.c_str(),
                         extra.c_str());
}

/// Poll the session's status until `done` holds for it or the session has
/// failed; a failed status op or a 60-s wait is a failed operation (then
/// *ok is cleared). A `status` with sync would drain every session's queue,
/// tying each feeder to the others' progress. One attempted operation.
template <typename Pred>
traced::JsonObject wait_status(traced::Service& svc, Outcome& out, const Stream& st,
                               bool* ok, Pred done) {
  out.attempt();
  Span s(Fn::kTracedStatus);
  const std::string line = session_op("status", st.name);
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    const std::string resp = svc.handle(line, [](void*, std::size_t) { return false; });
    std::string why = resp.substr(0, 200);
    if (response_ok(resp)) {
      try {
        traced::JsonObject js = traced::JsonObject::parse(resp);
        if (done(js) || js.str_or("phase", "") == "failed") return js;
        why = "timed out";
      } catch (const std::exception& e) {
        why = e.what();
      }
      if (Clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
    }
    out.failed("status " + st.name + ": " + why);
    *ok = false;
    return {};
  }
}

/// Open a session and feed it its whole stream, until every byte is
/// applied. Returns false when the session could not be opened.
bool ingest_session(traced::Service& svc, Outcome& out, const Stream& st,
                    SessionRun& run, std::size_t chunk, std::size_t cut) {
  const std::string open_args =
      util::strprintf(",\"disorder\":%g,\"threads\":0", kDisorder);
  if (!response_ok(call(svc, out, Fn::kTracedOpen, session_op("open", st.name, open_args),
                        "open " + st.name))) {
    run.ok = false;
    return false;
  }
  run.fed0 = Clock::now();
  const std::size_t total = st.bytes.size() - cut;
  for (std::size_t off = 0; off < total; off += chunk) {
    const std::size_t n = std::min(chunk, total - off);
    const std::string feed =
        session_op("feed", st.name, util::strprintf(",\"bytes\":%zu", n));
    if (!response_ok(call(svc, out, Fn::kTracedFeed, feed, "feed " + st.name,
                          st.bytes.data() + off)))
      run.ok = false;
    if (off == 0) {
      // Queries need the stream header: wait until the first chunk is applied.
      wait_status(svc, out, st, &run.ok,
                  [](const traced::JsonObject& js) { return js.num_or("nranks", 0) > 0; });
      std::lock_guard lk(run.mu);
      run.viewable = true;
    }
  }
  const auto t_last = Clock::now();
  const auto applied = static_cast<std::int64_t>(total);
  const traced::JsonObject js =
      wait_status(svc, out, st, &run.ok, [&](const traced::JsonObject& s) {
        return s.num_or("bytes", 0) >= applied;
      });
  run.applied = Clock::now();
  run.first_view_s = seconds_between(t_last, run.applied);
  {
    // Every byte is applied: the viewer moves on to sessions still ingesting.
    std::lock_guard lk(run.mu);
    run.viewable = false;
  }
  run.records = static_cast<std::uint64_t>(js.num_or("records", 0));
  run.frontier_lag = js.fnum_or("watermark", 0.0) - js.fnum_or("frontier", 0.0);
  run.peak_live_mb = mb(js.fnum_or("peak_live_bytes", 0.0));
  run.sealed_chunks = js.fnum_or("sealed_chunks", 0.0);
  if (js.str_or("phase", "") != "complete") run.ok = false;
  return true;
}

/// End, finalize, close; with `view`, a live render of the whole stream
/// first and a first view of the finalized file. first_view_s runs from the
/// last feed to the rendered view, leaving out the wait for the other
/// feeders and the live render.
void finish_session(traced::Service& svc, Outcome& out, const Stream& st,
                    SessionRun& run, const std::filesystem::path& file, bool opened,
                    bool view) {
  {
    std::lock_guard lk(run.mu);
    run.viewable = false;
    run.done = true;
  }
  if (!opened) return;
  if (view && !response_ok(call(svc, out, Fn::kTracedRender,
                                session_op("render", st.name), "render " + st.name)))
    run.ok = false;
  const auto t0 = Clock::now();
  call(svc, out, Fn::kTracedEnd, session_op("end", st.name), "end " + st.name);
  const std::string fin =
      call(svc, out, Fn::kTracedFinalize,
           session_op("finalize", st.name,
                      ",\"out\":\"" + traced::json_escape(file.string()) + "\""),
           "finalize " + st.name);
  if (response_ok(fin)) {
    try {
      run.final_bytes =
          static_cast<std::uint64_t>(traced::JsonObject::parse(fin).num("slog2_bytes"));
    } catch (const std::exception&) {
      run.ok = false;
    }
    run.viewed = view;
    const bool viewed = !view || guarded(out, "live first view " + st.name, [&] {
      std::unique_ptr<slog2::Navigator> nav;
      {
        Span s(Fn::kSlog2Open);
        nav = std::make_unique<slog2::Navigator>(file);
      }
      jumpshot::RenderOptions ro;
      ro.title = "live " + st.name;
      run.svg_bytes = render_view(*nav, ro).size();
      run.first_view_s += seconds_between(t0, Clock::now());
    });
    run.ok = run.ok && viewed;
  } else {
    run.ok = false;
  }
  call(svc, out, Fn::kTracedClose, session_op("close", st.name), "close " + st.name);
}

struct RoundResult {
  double wall_s = 0.0;
  double ingest_mb_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::size_t> session;  // the stream each request went to
  std::vector<double> late_ms;
};

RoundResult live_round(traced::Service& svc, Outcome& out, const Config& cfg,
                       const LiveSize& size, std::size_t k,
                       const std::vector<Stream>& streams,
                       std::vector<std::unique_ptr<SessionRun>>& runs,
                       std::uint64_t round, bool truncate_first) {
  RoundResult rr;
  Span span(Fn::kRound, round);
  const std::size_t n = streams.size();
  runs.clear();
  for (std::size_t s = 0; s < n; ++s) runs.push_back(std::make_unique<SessionRun>());
  const auto t0 = Clock::now();
  // The feeders ingest their m-th streams together and finalize them
  // together, so the viewer queries only while sessions ingest, never
  // beside another session's finalize.
  std::barrier lockstep(static_cast<std::ptrdiff_t>(k));
  std::vector<std::thread> feeders;
  for (std::size_t f = 0; f < k; ++f) {
    feeders.emplace_back([&, f] {
      Tracer::bind_thread(static_cast<int>(f) + 1);
      for (std::size_t m = 0; m < size.streams_per_feeder; ++m) {
        const std::size_t s = f * size.streams_per_feeder + m;
        lockstep.arrive_and_wait();
        const bool opened = ingest_session(svc, out, streams[s], *runs[s], size.chunk,
                                           truncate_first && s == 0 ? 64 : 0);
        lockstep.arrive_and_wait();
        finish_session(svc, out, streams[s], *runs[s],
                       cfg.workdir / (streams[s].name + ".slog2"), opened,
                       m + 1 == size.streams_per_feeder);
      }
    });
  }

  // Open-loop viewer: request j is due at t0 + j * period, whatever happened
  // to request j-1, and goes to a session still receiving data.
  util::SplitMix64 rng(cfg.seed ^ (round * 0x9E3779B97F4A7C15ULL));
  static const char* const kKinds[] = {"legend", "occupancy", "edges"};
  for (std::uint64_t j = 0;; ++j) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(size.period_s * double(j)));
    std::this_thread::sleep_until(due);
    const auto start = Clock::now();
    bool pending = false, sent = false;
    std::size_t target = 0;
    for (std::size_t probe = 0; probe < n && !sent; ++probe) {
      const std::size_t s = (j + probe) % n;
      std::lock_guard lk(runs[s]->mu);
      if (!runs[s]->done) pending = true;
      if (!runs[s]->viewable) continue;
      sent = true;
      target = s;
      const Stream& st = streams[s];
      const double w = (st.t_max - st.t_min) / 32.0;
      const double a = st.t_min + rng.uniform() * (st.t_max - st.t_min - w);
      const std::string window = util::strprintf(",\"t0\":%.17g,\"t1\":%.17g", a, a + w);
      Span req(Fn::kRequest, round * 100000 + j + 1);
      const std::string kind = kKinds[j % 3];
      call(svc, out, Fn::kTracedQuery,
           session_op("query", st.name, ",\"kind\":\"" + kind + "\"" + window),
           "query " + kind);
    }
    if (!pending) break;
    if (!sent) continue;
    rr.late_ms.push_back(1e3 * seconds_between(due, start));
    rr.latency_ms.push_back(1e3 * seconds_between(due, Clock::now()));
    rr.session.push_back(target);
  }
  for (auto& t : feeders) t.join();
  rr.wall_s = span.stop();

  // Ingest rate: bytes applied per second during which any session ingested
  // (the union of every session's first-feed-to-applied interval).
  std::vector<std::pair<double, double>> busy_spans;
  double bytes = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (!runs[s]->ok) continue;
    bytes += static_cast<double>(streams[s].bytes.size());
    busy_spans.emplace_back(seconds_between(t0, runs[s]->fed0),
                            seconds_between(t0, runs[s]->applied));
  }
  std::sort(busy_spans.begin(), busy_spans.end());
  double busy = 0.0, lo = 0.0, hi = 0.0;
  for (const auto& [a, b] : busy_spans) {
    if (a > hi) {
      busy += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  busy += hi - lo;
  rr.ingest_mb_s = busy > 0.0 ? mb(bytes) / busy : 0.0;
  return rr;
}

}  // namespace

void run_live(const Config& cfg, Outcome& out) {
  const LiveSize size = cfg.tiny ? kTiny : kFull;
  Tracer& tr = Tracer::get();
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  // K feeder threads plus the viewer stay within the core count.
  const std::size_t k = std::clamp<std::size_t>(nproc >= 3 ? nproc - 2 : 1, 1, 2);
  const std::size_t nstreams = k * size.streams_per_feeder;

  std::vector<Stream> streams;
  std::vector<std::unique_ptr<SessionRun>> runs;
  traced::ServiceOptions so;
  auto svc = std::make_unique<traced::Service>(so);

  // Every finalized file must equal the offline converter's bytes.
  std::uint64_t finalized = 0;
  auto verify_round = [&](bool truncated) {
    for (std::size_t s = 0; s < nstreams; ++s) {
      const std::filesystem::path file = cfg.workdir / (streams[s].name + ".slog2");
      if (runs[s]->ok) {
        ++finalized;
        std::vector<std::uint8_t> bytes;
        if (guarded(out, "read finalized " + streams[s].name,
                    [&] { bytes = util::read_file(file); }))
          out.check(bytes.size() == streams[s].ref_bytes &&
                        fnv1a(bytes.data(), bytes.size()) == streams[s].ref_hash,
                    "finalized " + streams[s].name +
                        " is byte-identical to the offline convert");
      } else {
        out.check(truncated && s == 0, "session " + streams[s].name + " completes");
      }
      std::error_code ec;
      std::filesystem::remove(file, ec);
    }
  };

  // --- set-up: streams + offline reference converts + a warm-up round ------
  std::vector<double> setup_s;
  for (int rep = 0; rep < cfg.setups; ++rep) {
    tr.set_phase(Phase::kSetup);
    Span setup(Fn::kSetup);
    streams.assign(nstreams, Stream{});
    for (std::size_t s = 0; s < nstreams; ++s) {
      Stream& st = streams[s];
      st.name = util::strprintf("f%zu.%zu", s / size.streams_per_feeder,
                                s % size.streams_per_feeder);
      tracegen::Options g;
      g.seed = cfg.seed * 64 + s + 1;
      g.nranks = size.ranks;
      g.events = size.events;
      clog2::File file;
      {
        Span sp(Fn::kTracegen);
        file = tracegen::generate(g);
        st.bytes = clog2::serialize(file);
      }
      st.records = file.records.size();
      slog2::File slog;
      {
        Span sp(Fn::kSlog2Convert);
        slog2::ConvertOptions co;
        co.threads = 0;
        slog = slog2::convert(file, co);
      }
      st.t_min = slog.t_min;
      st.t_max = slog.t_max;
      st.ref_warnings = warning_count(slog.stats);
      Span sp(Fn::kSlog2Serialize);
      const std::vector<std::uint8_t> ref = slog2::serialize(slog);
      st.ref_bytes = ref.size();
      st.ref_hash = fnv1a(ref.data(), ref.size());
    }
    live_round(*svc, out, cfg, size, k, streams, runs, 0, false);
    setup_s.push_back(setup.stop());
    verify_round(false);
  }

  // --- measured phase ------------------------------------------------------
  std::vector<double> wall_s, ingest, latency_ms, late_ms, first_view, lag, sealed;
  std::vector<std::vector<double>> session_ms(nstreams);
  double peak_live = 0, records = 0, final_mb = 0, svg_bytes = 0;
  int rounds = 0;
  const CacheCounters cache0 = CacheCounters::now();
  tr.set_phase(Phase::kMeasure);
  const Clock::time_point t_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  while (rounds == 0 || Clock::now() < t_end) {
    const bool truncate = cfg.truncate_live && rounds == 0;
    const RoundResult rr = live_round(*svc, out, cfg, size, k, streams, runs,
                                      static_cast<std::uint64_t>(rounds) + 1, truncate);
    ++rounds;
    wall_s.push_back(rr.wall_s);
    ingest.push_back(rr.ingest_mb_s);
    latency_ms.insert(latency_ms.end(), rr.latency_ms.begin(), rr.latency_ms.end());
    for (std::size_t i = 0; i < rr.session.size(); ++i)
      session_ms[rr.session[i]].push_back(rr.latency_ms[i]);
    late_ms.insert(late_ms.end(), rr.late_ms.begin(), rr.late_ms.end());
    for (const auto& run : runs) {
      if (!run->ok) continue;
      if (run->viewed) first_view.push_back(run->first_view_s);
      lag.push_back(run->frontier_lag);
      sealed.push_back(run->sealed_chunks);
      peak_live = std::max(peak_live, run->peak_live_mb);
      records += static_cast<double>(run->records);
      svg_bytes += static_cast<double>(run->svg_bytes);
      final_mb += mb(static_cast<double>(run->final_bytes));
    }
    tr.set_phase(Phase::kVerify);
    verify_round(truncate);
    tr.set_phase(Phase::kMeasure);
  }
  tr.set_phase(Phase::kVerify);
  svc.reset();

  // --- report ----------------------------------------------------------------
  std::uint64_t total_bytes = 0, total_records = 0;
  for (const Stream& st : streams) {
    total_bytes += st.bytes.size();
    total_records += st.records;
  }
  note_common(cfg, out);
  out.note("input",
           util::strprintf("tracegen sessions=%zu (%zu feeders x %zu) events=%llu "
                           "ranks=%d chunk=%zu viewer_period_ms=%g",
                           nstreams, k, size.streams_per_feeder,
                           static_cast<unsigned long long>(size.events), size.ranks,
                           size.chunk, 1e3 * size.period_s));
  out.note("input_clog2_records", std::to_string(total_records));
  out.note("input_clog2_bytes", std::to_string(total_bytes));
  out.note("input_ranks", std::to_string(size.ranks));
  out.note("frame_encoding", "v1 (converter default)");
  out.note("ingest_workers", std::to_string(so.workers));
  out.note("rounds", std::to_string(rounds));
  out.note("finalized_sessions", std::to_string(finalized));
  out.note("viewer_late_p50_ms", std::to_string(median_of(late_ms)));
  out.note("viewer_late_max_ms", std::to_string(percentile_of(late_ms, 100.0)));

  const double per_round = 1.0 / std::max(rounds, 1);

  if (!cfg.trace) {
    out.metric("setup_s", median_of(setup_s), "s");
    out.metric("wall_s", median_of(wall_s), "s");
    out.metric("first_view_s", median_of(first_view), "s");
    // The median over streams of each stream's median request latency. The
    // ingest pool shards sessions to workers by name hash, and the two
    // sessions ingesting together in the first slot of a round share a
    // worker: which one is applied first is a race, so that slot's latencies
    // are fast or slow by turns from run to run. A plain median sat on that
    // edge (same seed: 1.6-2.2 ms); this one sits among the streams that
    // ingest on their own worker, and the p95 tail still carries the shared
    // slot.
    std::vector<double> per_stream;
    for (const auto& v : session_ms)
      if (!v.empty()) per_stream.push_back(median_of(v));
    out.metric("query_p50_ms", median_of(per_stream), "ms");
    out.metric("query_tail_ms", tail_of(latency_ms, 95, "query_tail", out), "ms");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("ingest_mb_s", std::to_string(median_of(ingest)));
    out.note("out_mb", std::to_string(final_mb * per_round));
    return;
  }
  report_span_metrics(out);
  report_cache_metrics(out, cache0, rounds);
  out.metric("trace.wall_s", median_of(wall_s), "s");
  out.metric("ingest_mb_s", median_of(ingest), "MB/s");
  out.metric("out_mb", final_mb * per_round, "MB");
  out.metric("clog2.stream_records", records * per_round, "count");
  out.metric("slog2.convert_warnings", static_cast<double>(streams[0].ref_warnings),
             "count");
  out.metric("slog2.mb", final_mb * per_round, "MB");
  out.metric("jumpshot.svg_mb", mb(svg_bytes) * per_round, "MB");
  out.metric("traced.peak_live_mb", peak_live, "MB");
  out.metric("traced.sealed_chunks", median_of(sealed), "count");
  out.metric("traced.frontier_lag_s", median_of(lag), "s");
}

}  // namespace perfbench
