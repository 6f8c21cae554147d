// Micro-benchmarks (google-benchmark) of the logging pipeline's hot paths:
// per-event record cost (why MPE logging is "extremely slight" overhead in
// Section III-E), trace serialization, conversion, window queries, and SVG
// rendering.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "jumpshot/render.hpp"
#include "mpe/mpe.hpp"
#include "pilot/format.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"
#include "util/prng.hpp"

namespace {

clog2::File synthetic_trace(int events) {
  util::SplitMix64 rng(5);
  clog2::File f;
  f.nranks = 8;
  f.records.emplace_back(clog2::StateDef{1, 10, 11, "Work", "gray", ""});
  double t = 0;
  for (int i = 0; i < events / 2; ++i) {
    const int rank = static_cast<int>(rng.below(8));
    const double dur = rng.uniform(1e-6, 1e-4);
    f.records.emplace_back(clog2::EventRec{t, rank, 10, "Line: 42"});
    f.records.emplace_back(clog2::EventRec{t + dur, rank, 11, ""});
    t += rng.uniform(1e-6, 5e-5);
  }
  return f;
}

void BM_FormatParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(pilot::parse_format("%d %100f %*lf %^d %c"));
  }
}
BENCHMARK(BM_FormatParse);

void BM_MpeLogEvent(benchmark::State& state) {
  // Cost of one buffered MPE record — the per-call price a Pilot program
  // pays under -pisvc=j. Measured inside a 1-rank world via manual timing.
  const int batch = 100000;
  for (auto _ : state) {
    mpisim::World::Config cfg;
    cfg.nprocs = 1;
    cfg.time_scale = 0;
    mpisim::World world(cfg);
    mpe::Logger logger(world, {});
    const int id = logger.get_event_number();
    logger.define_event(id, "e", "yellow");
    double elapsed = 0;
    world.run([&](mpisim::Comm& c) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < batch; ++i) logger.log_event(c, id, "Line: 42");
      elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
      return 0;
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MpeLogEvent)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_MpeFinishLog(benchmark::State& state) {
  // The wrap-up alone: finish_log of a 17-rank log of ~240k records (the
  // size of perfbench's heat-ring trace) -- gather at rank 0, clock
  // correction, merge and the CLOG-2 write. Ranks log before the timed
  // region; rank 0 times its finish_log from a common barrier.
  constexpr int kRanks = 17;
  constexpr int kSteps = 2820;  // 5 records a step: 17 * 2820 * 5 = 239,700
  const util::TempDir dir;
  for (auto _ : state) {
    mpisim::World::Config cfg;
    cfg.nprocs = kRanks;
    cfg.time_scale = 0;
    cfg.watchdog_seconds = 120;
    mpisim::World world(cfg);
    mpe::Logger::Options opts;
    opts.merge_base_cost = 0;
    opts.merge_cost_per_record = 0;
    mpe::Logger logger(world, opts);
    const int start = logger.get_event_number();
    const int end = logger.get_event_number();
    const int info = logger.get_event_number();
    logger.define_state(start, end, "PI_Write", "green");
    logger.define_event(info, "WriteInfo", "white");
    double elapsed = 0;
    world.run([&](mpisim::Comm& c) {
      const int r = c.rank();
      logger.log_sync_clocks(c);
      for (int i = 0; i < kSteps; ++i) {
        logger.log_event(c, start, "L42 Slab3 i3");
        logger.log_event(c, info, "Chan: C3 n=1 v0=0.25");
        logger.log_send(c, (r + 1) % kRanks, 3, 8);
        logger.log_receive(c, (r + kRanks - 1) % kRanks, 3, 8);
        logger.log_event(c, end);
      }
      logger.log_sync_clocks(c);
      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      logger.finish_log(c, dir.file("wrapup.clog2"));
      if (r == 0)
        elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                      .count();
      return 0;
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * kRanks * kSteps * 5);
}
BENCHMARK(BM_MpeFinishLog)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_Clog2Serialize(benchmark::State& state) {
  const auto f = synthetic_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clog2::serialize(f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Clog2Serialize)->Arg(10000)->Arg(100000);

void BM_Clog2Parse(benchmark::State& state) {
  const auto bytes = clog2::serialize(synthetic_trace(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clog2::parse(bytes));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Clog2Parse)->Arg(10000)->Arg(100000);

void BM_Slog2Convert(benchmark::State& state) {
  const auto f = synthetic_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(slog2::convert(f));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Slog2Convert)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_Slog2WindowQuery(benchmark::State& state) {
  const auto slog = slog2::convert(synthetic_trace(200000));
  const double span = slog.t_max - slog.t_min;
  int i = 0;
  for (auto _ : state) {
    const double a = slog.t_min + span * 0.01 * (i++ % 90);
    std::size_t hits = 0;
    slog.visit_window(
        a, a + span * 0.01, [&](const slog2::StateDrawable&) { ++hits; },
        [&](const slog2::EventDrawable&) { ++hits; },
        [&](const slog2::ArrowDrawable&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Slog2WindowQuery);

void BM_RenderSvg(benchmark::State& state) {
  const auto slog = slog2::convert(synthetic_trace(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(jumpshot::render_svg(slog));
  }
}
BENCHMARK(BM_RenderSvg)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_PilotMessageRoundtrip(benchmark::State& state) {
  // Raw substrate ping-pong latency (the floor under every PI_Read).
  const int batch = 2000;
  for (auto _ : state) {
    mpisim::World::Config cfg;
    cfg.nprocs = 2;
    cfg.time_scale = 0;
    cfg.watchdog_seconds = 60;
    mpisim::World world(cfg);
    double elapsed = 0;
    world.run([&](mpisim::Comm& c) {
      int v = 0;
      if (c.rank() == 0) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < batch; ++i) {
          c.send(1, 0, &v, sizeof v);
          c.recv(1, 1, &v, sizeof v);
        }
        elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                      .count();
      } else {
        for (int i = 0; i < batch; ++i) {
          c.recv(0, 0, &v, sizeof v);
          c.send(0, 1, &v, sizeof v);
        }
      }
      return 0;
    });
    state.SetIterationTime(elapsed);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PilotMessageRoundtrip)->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// bench_out/BENCH_micro_logging.json so this bench leaves the same
// machine-readable artifact as the others (google-benchmark's native JSON
// schema rather than bench::JsonReport's flat one).
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  bool has_out = false;
  for (const auto& a : args)
    if (a.rfind("--benchmark_out=", 0) == 0) has_out = true;
  if (!has_out) {
    args.push_back("--benchmark_out=" +
                   (bench::out_dir() / "BENCH_micro_logging.json").string());
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argp;
  for (auto& a : args) argp.push_back(a.data());
  int ac = static_cast<int>(argp.size());
  benchmark::Initialize(&ac, argp.data());
  if (benchmark::ReportUnrecognizedArguments(ac, argp.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
