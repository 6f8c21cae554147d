// Pipeline scaling across trace sizes through the offline toolchain —
// tracegen -> k-way merge -> clog2->slog2 conversion -> Navigator-windowed
// render. Emits BENCH_pipeline.json with the headline numbers the perf
// acceptance criteria read:
//   - convert time and throughput per size (conversion is one serial pass,
//     so it is timed once; the key keeps its historical `_t1_` infix),
//   - the logger's encoded k-way merge (mpe::merge_streams) vs the seed's
//     concat+stable_sort path and the record-level k-way oracle in
//     tests/merge_oracle.hpp,
//   - zoomed window render wall time flat across trace sizes.
//
// `--large=0` skips the big trace (the ci_bench.sh smoke leg does this).
#include <algorithm>
#include <chrono>
#include <thread>
#include <variant>

#include "bench_common.hpp"
#include "jumpshot/render.hpp"
#include "../tests/merge_oracle.hpp"
#include "mpe/mpe.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int rank_of(const clog2::Record& rec) {
  if (const auto* e = std::get_if<clog2::EventRec>(&rec)) return e->rank;
  if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) return m->rank;
  return -1;  // definition records carry no rank
}

struct SizeResult {
  std::size_t records = 0;
  double gen_ms = 0;
  double merge_sort_ms = 0;
  double merge_kway_ms = 0;
  double merge_record_ms = 0;
  bool merge_identical = false;
  double convert_ms = 0;
  double render_ms = 0;
  std::size_t frames_decoded = 0;
  std::size_t total_frames = 0;
};

SizeResult run_size(std::uint64_t events, int nranks, const std::string& label) {
  SizeResult out;

  tracegen::Options gopt;
  gopt.seed = 42;
  gopt.nranks = nranks;
  gopt.events = events;
  auto t0 = std::chrono::steady_clock::now();
  const auto trace = tracegen::generate(gopt);
  out.gen_ms = ms_since(t0);
  out.records = trace.records.size();
  std::printf("[%s] generated %zu records (%d ranks) in %.0f ms\n",
              label.c_str(), out.records, nranks, out.gen_ms);

  // Merge stage: split the timed records back into per-rank streams (each is
  // time-ordered because the whole trace is), then race the seed's
  // concat+stable_sort and the record-level k-way oracle against
  // mpe::merge_streams over the same streams in wire form (encoded untimed,
  // as the logger holds them).
  {
    std::vector<std::vector<clog2::Record>> streams(
        static_cast<std::size_t>(nranks));
    for (const auto& rec : trace.records)
      if (const int r = rank_of(rec); r >= 0)
        streams[static_cast<std::size_t>(r)].push_back(rec);

    auto sorted = streams;
    t0 = std::chrono::steady_clock::now();
    std::vector<clog2::Record> concat;
    for (auto& s : sorted) {
      concat.insert(concat.end(), std::make_move_iterator(s.begin()),
                    std::make_move_iterator(s.end()));
    }
    std::stable_sort(concat.begin(), concat.end(),
                     [](const clog2::Record& a, const clog2::Record& b) {
                       return merge_oracle::record_time(a) <
                              merge_oracle::record_time(b);
                     });
    out.merge_sort_ms = ms_since(t0);

    auto encoded = merge_oracle::encode_streams(streams);
    t0 = std::chrono::steady_clock::now();
    util::ByteWriter merged;
    mpe::merge_streams(std::move(encoded), merged);
    out.merge_kway_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const auto record_merged = merge_oracle::merge_timed(std::move(streams));
    out.merge_record_ms = ms_since(t0);

    out.merge_identical =
        merged.bytes() == merge_oracle::encode_records(concat) &&
        merged.bytes() == merge_oracle::encode_records(record_merged);
    std::printf("[%s] merge: stable_sort %.0f ms, record k-way %.0f ms, "
                "encoded k-way %.0f ms (%.2fx), identical=%d\n",
                label.c_str(), out.merge_sort_ms, out.merge_record_ms,
                out.merge_kway_ms,
                out.merge_kway_ms > 0 ? out.merge_sort_ms / out.merge_kway_ms
                                      : 0.0,
                out.merge_identical ? 1 : 0);
  }

  // Convert stage.
  t0 = std::chrono::steady_clock::now();
  const slog2::File slog = slog2::convert(trace);
  out.convert_ms = ms_since(t0);
  std::printf("[%s] convert: %.0f ms (%.0f events/s)\n", label.c_str(), out.convert_ms,
              static_cast<double>(events) / (out.convert_ms / 1e3));

  // Render stage: a fixed-duration zoomed window through the Navigator. The
  // window's absolute width is constant, so its drawable count depends on
  // event density, not total trace length — wall time must not scale with
  // trace size.
  {
    const auto path = bench::out_dir() / ("pipeline_" + label + ".slog2");
    slog2::write_file(path, slog);
    slog2::Navigator nav(path);
    const double mid = (nav.t_min() + nav.t_max()) / 2;
    jumpshot::RenderOptions ropt;
    ropt.t0 = mid;
    ropt.t1 = mid + 1e-3;  // ~100 events/rank at the default 10 us mean step
    t0 = std::chrono::steady_clock::now();
    const auto svg = jumpshot::render_svg(nav, ropt);
    out.render_ms = ms_since(t0);
    out.frames_decoded = nav.frames_decoded();
    out.total_frames = nav.total_frames();
    std::printf("[%s] windowed render: %.2f ms, %zu bytes of SVG, decoded "
                "%zu of %zu frames\n",
                label.c_str(), out.render_ms, svg.size(), out.frames_decoded,
                out.total_frames);
  }
  return out;
}

void report(bench::JsonReport& json, const std::string& label,
            std::uint64_t events, const SizeResult& r) {
  json.set("events_" + label, static_cast<unsigned long long>(events));
  json.set("records_" + label, r.records);
  json.set("gen_ms_" + label, r.gen_ms);
  json.set("merge_sort_ms_" + label, r.merge_sort_ms);
  json.set("merge_kway_ms_" + label, r.merge_kway_ms);
  json.set("merge_record_ms_" + label, r.merge_record_ms);
  json.set("merge_speedup_" + label,
           r.merge_kway_ms > 0 ? r.merge_sort_ms / r.merge_kway_ms : 0.0);
  json.set("merge_identical_" + label, r.merge_identical);
  json.set("convert_ms_t1_" + label, r.convert_ms);
  json.set("convert_events_per_sec_t1_" + label,
           static_cast<double>(events) / (r.convert_ms / 1e3));
  json.set("window_render_ms_" + label, r.render_ms);
  json.set("frames_decoded_" + label, r.frames_decoded);
  json.set("total_frames_" + label, r.total_frames);
}

}  // namespace

int main(int argc, char** argv) {
  const auto small = static_cast<std::uint64_t>(
      bench::arg_int(argc, argv, "small", 100000));
  const auto large = static_cast<std::uint64_t>(
      bench::arg_int(argc, argv, "large", 1000000));
  const int nranks = static_cast<int>(bench::arg_int(argc, argv, "ranks", 8));

  bench::heading("Pipeline scaling: trace size",
                 "offline toolchain at and beyond classroom scale (10^5..10^6 "
                 "events; see docs/PERF.md)");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n\n", hw);

  bench::JsonReport json("pipeline");
  json.set("hardware_threads", static_cast<unsigned long long>(hw));
  json.set("ranks", nranks);

  const auto s = run_size(small, nranks, "small");
  report(json, "small", small, s);
  bool ok = s.merge_identical;

  if (large > 0) {
    std::printf("\n");
    const auto l = run_size(large, nranks, "large");
    report(json, "large", large, l);
    ok = ok && l.merge_identical;
    json.set("render_ms_ratio_large_vs_small",
             s.render_ms > 0 ? l.render_ms / s.render_ms : 0.0);

    std::printf("\nShape checks:\n");
    auto check = [&](bool cond, const std::string& text) {
      std::printf("  [%s] %s\n", cond ? "ok" : "MISMATCH", text.c_str());
    };
    check(s.merge_identical && l.merge_identical,
          "k-way merge output byte-identical to the sort path");
    check(l.render_ms < s.render_ms * 2 + 5.0,
          util::strprintf("fixed-window render does not scale with trace size "
                          "(%.2f ms small, %.2f ms large)",
                          s.render_ms, l.render_ms));
    check(l.merge_sort_ms / std::max(l.merge_kway_ms, 1e-9) > 1.0,
          util::strprintf("k-way merge beats concat+stable_sort (%.2fx)",
                          l.merge_sort_ms / std::max(l.merge_kway_ms, 1e-9)));
  }
  json.write();
  return ok ? 0 : 1;
}
