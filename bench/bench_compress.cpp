// SLOG-2 v2 frame-payload compression bench: the perf acceptance criteria
// for the columnar delta-varint encoding (docs/FORMATS.md appendix). Emits
// BENCH_compress.json with the headline numbers tools/ci_bench.sh gates on:
//   - frame-payload bytes v1 vs v2 and their ratio (the >= 3x claim on the
//     million-event trace; CI gates a floor at the small size),
//   - encode and decode throughput for both encodings (serialize / parse
//     MB/s over the on-disk file),
//   - windowed-query latency through a Navigator over each encoding (the
//     sliding-zoom pattern; v2 must not make interactive reads slower in
//     any way a user would feel),
//   - a correctness canary: the v2 file must decode to the same legend
//     rollup as the v1 file, or the bench exits nonzero.
//
// `--small=EVENTS` (CI), `--large=EVENTS` (the paper-scale 10^6 point) and
// `--huge=EVENTS` (10^7, off by default) size the sweep; 0 skips a leg.
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "clog2/clog2.hpp"
#include "query/slog2_rollup.hpp"
#include "slog2/frame_codec.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/bytebuf.hpp"

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t v1_payload_bytes(const slog2::File& f) {
  std::size_t total = 0;
  for (const slog2::Frame& fr : f.frames) total += fr.payload_bytes();
  return total;
}

std::size_t v2_payload_bytes(const slog2::File& f) {
  std::size_t total = 0;
  for (const slog2::Frame& fr : f.frames) {
    util::ByteWriter w;
    slog2::detail::encode_drawables_v2(w, fr.states, fr.events, fr.arrows);
    total += w.bytes().size();
  }
  return total;
}

std::map<int, query::LegendTotals> legend_of(
    const std::vector<std::uint8_t>& bytes) {
  slog2::Navigator nav(bytes);
  query::LegendSweep sweep;
  nav.visit_window(-std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity(),
                   [&](const slog2::StateDrawable& s) { sweep.add_state(s); },
                   [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
                   [&](const slog2::ArrowDrawable& a) { sweep.add_arrow(a); });
  return sweep.totals();
}

/// Median latency of 32 sliding tenth-of-the-trace legend queries.
double window_query_ms(const std::vector<std::uint8_t>& bytes) {
  slog2::Navigator nav(bytes);
  const double lo = nav.t_min();
  const double span = nav.t_max() - lo;
  std::vector<double> ms;
  ms.reserve(32);
  for (int i = 0; i < 32; ++i) {
    const double a = lo + span * static_cast<double>(i) / 32.0;
    const double b = a + span / 10.0;
    const auto q0 = std::chrono::steady_clock::now();
    query::LegendSweep sweep;
    nav.visit_window(a, b,
                     [&](const slog2::StateDrawable& s) { sweep.add_state(s); },
                     [&](const slog2::EventDrawable& e) { sweep.add_event(e); },
                     [&](const slog2::ArrowDrawable& a2) { sweep.add_arrow(a2); });
    (void)sweep.totals();
    ms.push_back(ms_since(q0));
  }
  return util::median(ms);
}

struct EncodingNumbers {
  std::size_t file_bytes = 0;
  double encode_mb_per_sec = 0.0;
  double decode_mb_per_sec = 0.0;
  double query_ms = 0.0;
};

EncodingNumbers measure(const slog2::File& f,
                        const std::vector<std::uint8_t>& bytes) {
  EncodingNumbers out;
  out.file_bytes = bytes.size();
  const double mb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  // Best of 3 for the throughput legs; the first parse also warms the page
  // cache equivalent (the byte vector) for both encodings equally.
  double enc_ms = 0.0, dec_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto e0 = std::chrono::steady_clock::now();
    const std::vector<std::uint8_t> again = slog2::serialize(f);
    const double e = ms_since(e0);
    if (rep == 0 || e < enc_ms) enc_ms = e;
    const auto d0 = std::chrono::steady_clock::now();
    const slog2::File parsed = slog2::parse(again);
    const double d = ms_since(d0);
    if (rep == 0 || d < dec_ms) dec_ms = d;
  }
  out.encode_mb_per_sec = mb / (enc_ms / 1000.0);
  out.decode_mb_per_sec = mb / (dec_ms / 1000.0);
  out.query_ms = window_query_ms(bytes);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading("SLOG-2 v2 columnar frame compression",
                 "frame-payload ratio + codec throughput (docs/FORMATS.md)");
  bench::JsonReport report("compress");

  const std::vector<std::pair<std::string, std::uint64_t>> sizes = {
      {"small", static_cast<std::uint64_t>(
                    bench::arg_int(argc, argv, "small", 100000))},
      {"large", static_cast<std::uint64_t>(
                    bench::arg_int(argc, argv, "large", 1000000))},
      {"huge", static_cast<std::uint64_t>(bench::arg_int(argc, argv, "huge", 0))},
  };

  bool all_match = true;
  for (const auto& [label, events] : sizes) {
    if (events == 0) continue;
    tracegen::Options gopt;
    gopt.seed = 9;
    gopt.nranks = 16;
    gopt.events = events;
    const clog2::File ref = tracegen::generate(gopt);

    slog2::ConvertOptions co1;
    co1.encoding = slog2::FrameEncoding::kV1;
    slog2::ConvertOptions co2 = co1;
    co2.encoding = slog2::FrameEncoding::kV2;
    const slog2::File f1 = slog2::convert(ref, co1);
    const slog2::File f2 = slog2::convert(ref, co2);
    const std::vector<std::uint8_t> b1 = slog2::serialize(f1);
    const std::vector<std::uint8_t> b2 = slog2::serialize(f2);

    const std::size_t p1 = v1_payload_bytes(f1);
    const std::size_t p2 = v2_payload_bytes(f2);
    const double ratio =
        p2 == 0 ? 0.0 : static_cast<double>(p1) / static_cast<double>(p2);
    const EncodingNumbers n1 = measure(f1, b1);
    const EncodingNumbers n2 = measure(f2, b2);

    std::printf("%-5s (%llu events): payload %zu -> %zu bytes (%.2fx)\n",
                label.c_str(), static_cast<unsigned long long>(events), p1, p2,
                ratio);
    std::printf("  v1: file %8zu B  enc %7.1f MB/s  dec %7.1f MB/s  query %.2f ms\n",
                n1.file_bytes, n1.encode_mb_per_sec, n1.decode_mb_per_sec,
                n1.query_ms);
    std::printf("  v2: file %8zu B  enc %7.1f MB/s  dec %7.1f MB/s  query %.2f ms\n",
                n2.file_bytes, n2.encode_mb_per_sec, n2.decode_mb_per_sec,
                n2.query_ms);

    report.set("events_" + label, events);
    report.set("payload_bytes_v1_" + label, p1);
    report.set("payload_bytes_v2_" + label, p2);
    report.set("payload_ratio_" + label, ratio);
    report.set("file_bytes_v1_" + label, n1.file_bytes);
    report.set("file_bytes_v2_" + label, n2.file_bytes);
    report.set("encode_mb_per_sec_v1_" + label, n1.encode_mb_per_sec);
    report.set("encode_mb_per_sec_v2_" + label, n2.encode_mb_per_sec);
    report.set("decode_mb_per_sec_v1_" + label, n1.decode_mb_per_sec);
    report.set("decode_mb_per_sec_v2_" + label, n2.decode_mb_per_sec);
    report.set("window_query_ms_v1_" + label, n1.query_ms);
    report.set("window_query_ms_v2_" + label, n2.query_ms);

    // Correctness canary: both encodings must roll up identically.
    const auto l1 = legend_of(b1);
    const auto l2 = legend_of(b2);
    bool same = l1.size() == l2.size();
    if (same) {
      for (const auto& [cat, tot] : l1) {
        const auto it = l2.find(cat);
        if (it == l2.end() || it->second.count != tot.count ||
            it->second.inclusive != tot.inclusive ||
            it->second.exclusive != tot.exclusive) {
          same = false;
          break;
        }
      }
    }
    if (!same) {
      std::fprintf(stderr, "FAIL: v1/v2 legend rollups differ at %s\n",
                   label.c_str());
      all_match = false;
    }
  }
  report.set("rollups_match", all_match);
  report.write();
  return all_match ? 0 : 1;
}
