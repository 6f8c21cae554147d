// Query-engine scaling bench: the perf acceptance criteria for the sharded
// src/query core (docs/PERF.md). The parallel side runs at one worker per
// hardware thread ("hw"), the serial side at one worker. Emits
// BENCH_query_scale.json with the numbers tools/ci_bench.sh gates on:
//   - state-duration rollup wall time at 1 and hw workers and the speedup
//     (the CI floor applies at the million-event size on machines with
//     >= 4 hardware threads),
//   - windowed LegendSweep wall time through a Navigator at 1 and hw
//     workers and the speedup,
//   - tracecheck end-to-end wall time at 1 and hw workers,
//   - a byte-identity canary: every hw-worker result must equal its
//     1-worker twin exactly, or the bench exits nonzero,
//   - a shared-cache canary: re-sweeping the same window must be served
//     from the process-wide FrameCache (zero new misses), or the bench
//     exits nonzero.
//
// `--small=EVENTS` (CI smoke) and `--large=EVENTS` (the paper-scale 10^6
// point) size the sweep; 0 skips a leg.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/tracecheck.hpp"
#include "bench_common.hpp"
#include "clog2/clog2.hpp"
#include "query/parallel_sweep.hpp"
#include "query/rollup.hpp"
#include "query/slog2_rollup.hpp"
#include "query/trace.hpp"
#include "slog2/frame_cache.hpp"
#include "slog2/slog2.hpp"
#include "tracegen/tracegen.hpp"
#include "util/parallel.hpp"

namespace {

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-3 wall time of `fn` in milliseconds.
template <typename Fn>
double best_ms(const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms = ms_since(t0);
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

bool durations_equal(const query::StateDurations& a,
                     const query::StateDurations& b) {
  if (a.by_rank_state.size() != b.by_rank_state.size()) return false;
  auto ia = a.by_rank_state.begin();
  auto ib = b.by_rank_state.begin();
  for (; ia != a.by_rank_state.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.count != ib->second.count ||
        ia->second.total_seconds != ib->second.total_seconds ||
        ia->second.histogram != ib->second.histogram)
      return false;
  }
  return true;
}

bool totals_equal(const std::map<std::int32_t, query::LegendTotals>& a,
                  const std::map<std::int32_t, query::LegendTotals>& b) {
  if (a.size() != b.size()) return false;
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.count != ib->second.count ||
        ia->second.inclusive != ib->second.inclusive ||
        ia->second.exclusive != ib->second.exclusive)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::heading("query-engine scaling",
                 "sharded rollups/sweeps at 1 vs hw workers (docs/PERF.md)");
  bench::JsonReport report("query_scale");

  const int hw = util::resolve_threads(0);
  report.set("hardware_threads", static_cast<unsigned long long>(hw));
  std::printf("hardware threads: %d\n", hw);

  const std::vector<std::pair<std::string, std::uint64_t>> sizes = {
      {"small", static_cast<std::uint64_t>(
                    bench::arg_int(argc, argv, "small", 200000))},
      {"large", static_cast<std::uint64_t>(
                    bench::arg_int(argc, argv, "large", 1000000))},
  };

  bool all_identical = true;
  bool cache_canary = true;
  for (const auto& [label, events] : sizes) {
    if (events == 0) continue;
    tracegen::Options gopt;
    gopt.seed = 17;
    gopt.nranks = 16;
    gopt.events = events;
    gopt.arrow_fraction = 0.3;
    const clog2::File ref = tracegen::generate(gopt);

    // --- rollup leg: Trace build + state_durations ------------------------
    const query::Trace trace(ref);
    query::StateDurations sd1, sdn;
    const double rollup_t1 =
        best_ms([&] { sd1 = query::state_durations(trace, 1); });
    const double rollup_tn =
        best_ms([&] { sdn = query::state_durations(trace, hw); });
    if (!durations_equal(sd1, sdn)) {
      std::fprintf(stderr, "FAIL: parallel state_durations diverged at %s\n",
                   label.c_str());
      all_identical = false;
    }
    const query::Trace trace_n(ref, hw);
    if (trace_n.steps().size() != trace.steps().size() ||
        trace_n.by_rank() != trace.by_rank()) {
      std::fprintf(stderr, "FAIL: parallel Trace build diverged at %s\n",
                   label.c_str());
      all_identical = false;
    }

    // --- sweep leg: windowed LegendSweep through a Navigator --------------
    slog2::ConvertOptions co;
    co.encoding = slog2::FrameEncoding::kV2;
    const std::vector<std::uint8_t> bytes =
        slog2::serialize(slog2::convert(ref, co));
    slog2::Navigator nav(bytes);
    const double a = nav.t_min(), b = nav.t_max();
    std::map<std::int32_t, query::LegendTotals> lt1, ltn;
    const double sweep_t1 = best_ms([&] {
      query::LegendSweep s = query::legend_window(nav, a, b, 1);
      lt1 = s.totals(1);
    });
    const double sweep_tn = best_ms([&] {
      query::LegendSweep s = query::legend_window(nav, a, b, hw);
      ltn = s.totals(hw);
    });
    if (!totals_equal(lt1, ltn)) {
      std::fprintf(stderr, "FAIL: parallel legend sweep diverged at %s\n",
                   label.c_str());
      all_identical = false;
    }

    // Shared-cache canary: every frame is warm after the sweeps above, so
    // one more pass must add hits and zero misses.
    const auto before = slog2::FrameCache::global().stats();
    (void)query::legend_window(nav, a, b, hw);
    const auto after = slog2::FrameCache::global().stats();
    if (after.misses != before.misses || after.hits <= before.hits) {
      std::fprintf(stderr,
                   "FAIL: warm re-sweep missed the shared cache at %s "
                   "(hits %llu -> %llu, misses %llu -> %llu)\n",
                   label.c_str(), static_cast<unsigned long long>(before.hits),
                   static_cast<unsigned long long>(after.hits),
                   static_cast<unsigned long long>(before.misses),
                   static_cast<unsigned long long>(after.misses));
      cache_canary = false;
    }

    // --- tracecheck leg: the whole checker end to end ---------------------
    analyze::TraceCheckOptions c1, cn;
    c1.threads = 1;
    cn.threads = hw;
    std::size_t findings1 = 0, findings_n = 0;
    const double check_t1 =
        best_ms([&] { findings1 = analyze::check_trace(ref, c1).finding_count(); });
    const double check_tn =
        best_ms([&] { findings_n = analyze::check_trace(ref, cn).finding_count(); });
    if (findings1 != findings_n) {
      std::fprintf(stderr, "FAIL: tracecheck verdict changed with threads at %s\n",
                   label.c_str());
      all_identical = false;
    }

    const double rollup_speedup = rollup_tn > 0.0 ? rollup_t1 / rollup_tn : 0.0;
    const double sweep_speedup = sweep_tn > 0.0 ? sweep_t1 / sweep_tn : 0.0;
    const double check_speedup = check_tn > 0.0 ? check_t1 / check_tn : 0.0;
    const double evs = static_cast<double>(trace.steps().size());

    std::printf("%-5s (%llu events):\n", label.c_str(),
                static_cast<unsigned long long>(events));
    std::printf("  rollup      t1 %8.2f ms  t%d %8.2f ms  speedup %.2fx\n",
                rollup_t1, hw, rollup_tn, rollup_speedup);
    std::printf("  sweep       t1 %8.2f ms  t%d %8.2f ms  speedup %.2fx\n",
                sweep_t1, hw, sweep_tn, sweep_speedup);
    std::printf("  tracecheck  t1 %8.2f ms  t%d %8.2f ms  speedup %.2fx\n",
                check_t1, hw, check_tn, check_speedup);

    report.set("events_" + label, events);
    report.set("rollup_ms_t1_" + label, rollup_t1);
    report.set("rollup_ms_thw_" + label, rollup_tn);
    report.set("rollup_speedup_thw_" + label, rollup_speedup);
    report.set("rollup_events_per_sec_t1_" + label,
               evs / (rollup_t1 / 1000.0));
    report.set("sweep_ms_t1_" + label, sweep_t1);
    report.set("sweep_ms_thw_" + label, sweep_tn);
    report.set("sweep_speedup_thw_" + label, sweep_speedup);
    report.set("check_ms_t1_" + label, check_t1);
    report.set("check_ms_thw_" + label, check_tn);
    report.set("check_speedup_thw_" + label, check_speedup);
  }

  const auto st = slog2::FrameCache::global().stats();
  report.set("cache_hits", static_cast<unsigned long long>(st.hits));
  report.set("cache_misses", static_cast<unsigned long long>(st.misses));
  report.set("cache_hit_canary", cache_canary);
  report.set("parallel_matches_serial", all_identical);
  report.write();
  return (all_identical && cache_canary) ? 0 : 1;
}
