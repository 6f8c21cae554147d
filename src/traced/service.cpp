#include "traced/service.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <tuple>

#include "jumpshot/render.hpp"
#include "query/slog2_rollup.hpp"
#include "traced/protocol.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace traced {

namespace {

/// One feed payload may not exceed this (a hostile length would otherwise
/// force a giant allocation before any session check runs).
constexpr std::int64_t kMaxFeedBytes = 64 * 1024 * 1024;

const char* phase_name(SessionPhase p) {
  switch (p) {
    case SessionPhase::kOpen: return "open";
    case SessionPhase::kComplete: return "complete";
    case SessionPhase::kFinalized: return "finalized";
    case SessionPhase::kFailed: return "failed";
  }
  return "?";
}

std::string error_line(const std::string& msg) {
  return JsonWriter().field("ok", false).field("error", msg).done();
}

}  // namespace

Service::Service(const ServiceOptions& opts)
    : opts_(opts),
      sessions_(opts.max_sessions),
      pool_(opts.workers) {}

double Service::now() const {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

std::shared_ptr<Session> Service::open_session(const std::string& name) {
  auto s = sessions_.open(name, opts_.online);
  s->touch(now());
  return s;
}

void Service::ingest_bytes(const std::shared_ptr<Session>& s,
                           std::vector<std::uint8_t> bytes) {
  s->touch(now());
  pool_.submit(s, std::move(bytes));
}

void Service::ingest_eof(const std::shared_ptr<Session>& s) {
  s->touch(now());
  pool_.submit_eof(s);
}

std::string Service::handle(
    const std::string& line,
    const std::function<bool(void*, std::size_t)>& read_payload) {
  try {
    return dispatch(line, read_payload);
  } catch (const util::Error& e) {
    return error_line(e.what());
  }
}

std::string Service::dispatch(
    const std::string& line,
    const std::function<bool(void*, std::size_t)>& read_payload) {
  const JsonObject req = JsonObject::parse(line);
  const std::string op = req.str("op");

  auto need_session = [&]() -> std::shared_ptr<Session> {
    const std::string name = req.str("session");
    auto s = sessions_.find(name);
    if (!s) throw util::UsageError("no such session: " + name);
    s->touch(req.fnum_or("now", now()));
    return s;
  };

  if (op == "ping") return JsonWriter().field("ok", true).field("op", "ping").done();

  if (op == "open") {
    const std::string name = req.str("session");
    OnlineOptions o = opts_.online;
    o.convert.frame_size =
        static_cast<std::uint64_t>(req.num_or("framesize",
            static_cast<std::int64_t>(o.convert.frame_size)));
    o.convert.max_depth = static_cast<int>(req.num_or("maxdepth", o.convert.max_depth));
    o.convert.threads = static_cast<int>(req.num_or("threads", o.convert.threads));
    o.seal_bytes = static_cast<std::uint64_t>(
        req.num_or("seal", static_cast<std::int64_t>(o.seal_bytes)));
    o.max_disorder = req.fnum_or("disorder", o.max_disorder);
    o.convert.encoding = slog2::parse_frame_encoding(
        req.str_or("encoding", slog2::to_string(o.convert.encoding)));
    auto s = sessions_.open(name, o);
    s->touch(req.fnum_or("now", now()));
    return JsonWriter().field("ok", true).field("session", name).done();
  }

  if (op == "feed") {
    const std::string name = req.str("session");
    const std::int64_t n = req.num("bytes");
    if (n < 0 || n > kMaxFeedBytes)
      throw util::IoError("feed: invalid byte count " + std::to_string(n));
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
    // Always consume the payload, even for an unknown session — otherwise
    // the connection desynchronizes and every later line is garbage.
    if (n > 0 && !read_payload(bytes.data(), bytes.size()))
      throw util::IoError("feed: connection closed before payload");
    auto s = sessions_.find(name);
    if (!s) throw util::UsageError("no such session: " + name);
    s->touch(req.fnum_or("now", now()));
    pool_.submit(s, std::move(bytes));
    return JsonWriter().field("ok", true).field("queued", n).done();
  }

  if (op == "end") {
    auto s = need_session();
    pool_.submit_eof(s);
    return JsonWriter().field("ok", true).done();
  }

  if (op == "status") {
    auto s = need_session();
    if (req.has("sync") && req.boolean("sync")) pool_.drain();
    const Session::Status st = s->status();
    JsonWriter w;
    w.field("ok", true)
        .field("session", s->name())
        .field("phase", phase_name(st.phase))
        .field("nranks", static_cast<std::int64_t>(st.nranks))
        .field("records", st.records)
        .field("bytes", st.bytes)
        .field("watermark", st.watermark)
        .field("frontier", st.frontier)
        .field("live_bytes", st.usage.live_bytes)
        .field("peak_live_bytes", st.usage.peak_live_bytes)
        .field("sealed_chunks", st.usage.sealed_chunks)
        .field("sealed_bytes", st.usage.sealed_bytes);
    if (!st.error.empty()) w.field("error", st.error);
    return w.done();
  }

  if (op == "sessions") {
    const std::vector<std::string> names = sessions_.names();
    std::string joined;
    for (const auto& n : names) {
      if (!joined.empty()) joined.push_back(',');
      joined += n;
    }
    return JsonWriter()
        .field("ok", true)
        .field("count", static_cast<std::uint64_t>(names.size()))
        .field("names", joined)
        .done();
  }

  if (op == "query") {
    auto s = need_session();
    if (req.has("sync") && req.boolean("sync")) pool_.drain();
    const std::string kind = req.str("kind");
    std::string result;
    s->with_converter([&](OnlineConverter& conv) {
      const double a = req.fnum_or("t0", -std::numeric_limits<double>::infinity());
      const double b = req.fnum_or("t1", std::numeric_limits<double>::infinity());
      if (kind == "legend") {
        query::LegendSweep sweep;
        conv.visit_window(
            a, b, [&](const slog2::StateDrawable& st) { sweep.add_state(st); },
            [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
            [&](const slog2::ArrowDrawable& ar) { sweep.add_arrow(ar); });
        for (const auto& [cat, tot] : sweep.totals()) {
          if (!result.empty()) result.push_back(';');
          result += util::strprintf("%d:%llu:%.9f:%.9f", cat,
                                    static_cast<unsigned long long>(tot.count),
                                    tot.inclusive, tot.exclusive);
        }
      } else if (kind == "occupancy") {
        query::WindowOccupancy occ(conv.nranks(), a, b);
        conv.visit_window(
            a, b, [&](const slog2::StateDrawable& st) { occ.add_state(st); },
            [&](const slog2::EventDrawable& e) { occ.add_event(e); },
            [&](const slog2::ArrowDrawable& ar) { occ.add_arrow(ar); });
        std::int32_t rank = 0;
        for (const auto& r : occ.ranks()) {
          if (!result.empty()) result.push_back(';');
          double busy = 0.0;
          std::uint64_t nstates = 0;
          for (const auto& kv : r.state_time) busy += kv.second;
          for (const auto& kv : r.state_count) nstates += kv.second;
          result += util::strprintf(
              "%d:%.9f:%llu:%llu:%llu", rank++, busy,
              static_cast<unsigned long long>(nstates),
              static_cast<unsigned long long>(r.arrows_out),
              static_cast<unsigned long long>(r.arrows_in));
        }
      } else if (kind == "edges") {
        std::map<std::pair<std::int32_t, std::int32_t>,
                 std::pair<std::uint64_t, std::uint64_t>>
            edges;  // (src,dst) -> (count, bytes)
        conv.visit_window(a, b, nullptr, nullptr,
                          [&](const slog2::ArrowDrawable& ar) {
                            auto& e = edges[{ar.src_rank, ar.dst_rank}];
                            ++e.first;
                            e.second += ar.size;
                          });
        for (const auto& [key, val] : edges) {
          if (!result.empty()) result.push_back(';');
          result += util::strprintf("%d>%d:%llu:%llu", key.first, key.second,
                                    static_cast<unsigned long long>(val.first),
                                    static_cast<unsigned long long>(val.second));
        }
      } else {
        throw util::UsageError("unknown query kind: " + kind);
      }
    });
    return JsonWriter()
        .field("ok", true)
        .field("kind", kind)
        .field("result", result)
        .done();
  }

  if (op == "render") {
    auto s = need_session();
    if (req.has("sync") && req.boolean("sync")) pool_.drain();
    std::string svg;
    s->with_converter([&](OnlineConverter& conv) {
      // The committed drawables, drawn straight from the sealed chunks and
      // the tail; a live render never falls back to preview LOD.
      jumpshot::TimelineSource src;
      src.nranks = conv.nranks();
      std::tie(src.t_min, src.t_max) = conv.committed_span();
      src.categories = &conv.categories();
      src.visit = std::bind_front(&OnlineConverter::visit_window, &conv);
      jumpshot::RenderOptions ro;
      if (req.has("t0")) ro.t0 = req.fnum("t0");
      if (req.has("t1")) ro.t1 = req.fnum("t1");
      ro.width = static_cast<int>(req.num_or("width", ro.width));
      ro.title = req.str_or("title", "live: " + s->name());
      svg = jumpshot::render_svg(src, ro);
    });
    return JsonWriter()
        .field("ok", true)
        .field("bytes", static_cast<std::uint64_t>(svg.size()))
        .field("svg", svg)
        .done();
  }

  if (op == "finalize") {
    auto s = need_session();
    pool_.drain();  // every queued chunk must be applied before finalizing
    // Zero sealed chunks on a non-empty stream means the whole trace sat in
    // the in-memory tail: almost always a --seal / --disorder setting that
    // never triggered for this trace's time scale (e.g. a millisecond-long
    // tracegen stream against the 0.05 s default disorder window). Surface
    // it as a hint, not a converter warning — the warnings vector must stay
    // identical to the offline converter's.
    const Session::Status pre = s->status();
    const bool zero_seal = pre.usage.sealed_chunks == 0 && pre.records > 0;
    const std::string out_path = req.str_or("out", "");
    std::vector<std::string> warnings;
    JsonWriter w;
    s->finalize(&warnings, [&](slog2::File& file) {
      const std::vector<std::uint8_t> bytes = slog2::serialize(file);
      if (!out_path.empty())
        util::write_file(std::filesystem::path(out_path), bytes);
      w.field("ok", true)
          .field("session", s->name())
          .field("slog2_bytes", static_cast<std::uint64_t>(bytes.size()))
          .field("states", file.stats.total_states)
          .field("events", file.stats.total_events)
          .field("arrows", file.stats.total_arrows)
          .field("frames", file.stats.frames)
          .field("clean", file.stats.clean())
          .field("warnings", static_cast<std::uint64_t>(warnings.size()));
      if (zero_seal)
        w.field("hint",
                std::string("finalize sealed 0 chunks; the entire stream was "
                            "buffered in memory (consider a smaller --seal or "
                            "--disorder for this trace's time scale)"));
      if (!out_path.empty()) w.field("out", out_path);
    });
    if (zero_seal)
      log("finalize " + s->name() +
          ": sealed 0 chunks; entire stream was buffered in memory "
          "(consider a smaller --seal or --disorder for this trace's "
          "time scale)");
    return w.done();
  }

  if (op == "sweep") {
    const double t = req.fnum_or("now", now());
    const double ttl = req.fnum_or("ttl", opts_.ttl);
    const std::vector<std::string> evicted = sessions_.evict_idle(t, ttl);
    std::string joined;
    for (const auto& n : evicted) {
      if (!joined.empty()) joined.push_back(',');
      joined += n;
    }
    return JsonWriter()
        .field("ok", true)
        .field("evicted", static_cast<std::uint64_t>(evicted.size()))
        .field("names", joined)
        .done();
  }

  if (op == "close") {
    const std::string name = req.str("session");
    if (!sessions_.erase(name))
      throw util::UsageError("no such session: " + name);
    return JsonWriter().field("ok", true).done();
  }

  if (op == "shutdown") {
    shutdown_.store(true);
    return JsonWriter().field("ok", true).field("op", "shutdown").done();
  }

  throw util::UsageError("unknown op: " + op);
}

// --- serve ------------------------------------------------------------------

namespace {

void log_event(const std::function<void(const std::string&)>& on_event,
               const std::string& msg) {
  if (on_event) on_event(msg);
}

/// Reads one FIFO (or pipe/file) into one session until EOF. Non-blocking
/// open so a missing writer never wedges the thread; "no writer yet" and
/// "writer closed" are distinguished by whether any writer was ever seen.
void run_fifo_ingest(Service& service, const FifoIngest& fi,
                     const std::function<void(const std::string&)>& on_event) {
  std::shared_ptr<Session> session;
  try {
    session = service.open_session(fi.session);
  } catch (const util::Error& e) {
    log_event(on_event, "ingest " + fi.session + ": " + e.what());
    return;
  }
  const int fd = ::open(fi.path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) {
    log_event(on_event, "ingest " + fi.session + ": cannot open " +
                            fi.path.string() + ": " + std::strerror(errno));
    return;
  }
  log_event(on_event, "ingest " + fi.session + ": reading " + fi.path.string());
  bool saw_writer = false;
  std::vector<std::uint8_t> buf(64 * 1024);
  for (;;) {
    if (service.shutdown_requested()) break;
    const ssize_t r = ::read(fd, buf.data(), buf.size());
    if (r > 0) {
      saw_writer = true;
      service.ingest_bytes(session,
                           std::vector<std::uint8_t>(buf.begin(), buf.begin() + r));
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      saw_writer = true;  // a writer holds the pipe open but has no data yet
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0 && !saw_writer) {
      // FIFO with no writer yet; wait for one.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    break;  // EOF after a writer, or a hard error
  }
  ::close(fd);
  service.ingest_eof(session);
  log_event(on_event, "ingest " + fi.session + ": stream ended");
}

}  // namespace

void serve(Service& service, util::UnixListener& listener,
           const std::vector<FifoIngest>& fifos,
           const std::function<void(const std::string&)>& on_event) {
  std::vector<std::thread> fifo_threads;
  fifo_threads.reserve(fifos.size());
  for (const FifoIngest& fi : fifos)
    fifo_threads.emplace_back(
        [&service, fi, on_event] { run_fifo_ingest(service, fi, on_event); });

  std::mutex conn_mu;
  std::vector<int> live_fds;
  std::vector<std::thread> conn_threads;

  while (!service.shutdown_requested()) {
    util::UnixConn conn = listener.accept_for(200);
    if (!conn.valid()) continue;
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      live_fds.push_back(conn.fd());
    }
    conn_threads.emplace_back([&service, &conn_mu, &live_fds,
                               c = std::move(conn)]() mutable {
      const int my_fd = c.fd();
      try {
        std::string line;
        while (c.read_line(&line)) {
          if (line.empty()) continue;
          const std::string resp = service.handle(
              line, [&c](void* buf, std::size_t n) { return c.read_payload(buf, n); });
          c.write_line(resp);
          if (service.shutdown_requested()) break;
        }
      } catch (const util::Error&) {
        // Connection-fatal (payload desync, peer vanished): drop the client.
      }
      std::lock_guard<std::mutex> lock(conn_mu);
      live_fds.erase(std::remove(live_fds.begin(), live_fds.end(), my_fd),
                     live_fds.end());
    });
  }

  // Kick every blocked reader so its thread can observe shutdown and exit.
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    for (const int fd : live_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : conn_threads) t.join();
  for (auto& t : fifo_threads) t.join();
  service.pool().drain();
  log_event(on_event, "shutdown complete");
}

}  // namespace traced
