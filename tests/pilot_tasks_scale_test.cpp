// The -piexec=tasks substrate at the Pilot level. Two suites:
//
//   TasksSubstrate — fast cross-substrate checks: a deterministic fan
//     program must leave byte-identical per-rank traces (timestamps
//     masked) under threads and tasks, and a seeded wildcard farm must be
//     run-to-run stable under tasks.
//
//   TasksScale — thousand-rank jobs that are only feasible on the task
//     substrate: a 1000-worker run finishing with a tracecheck-clean
//     merged CLOG-2, same-seed byte-identical reruns, record-once/
//     replay-twice stability, and a rank crash degrading to the named
//     dead-peer abort instead of a hang. Registered with a hard ctest
//     timeout; keep these out of the sanitizer legs.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analyze/tracecheck.hpp"
#include "clog2/clog2.hpp"
#include "mpisim/world.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "replay/crosscheck.hpp"
#include "util/fs.hpp"

namespace {

std::string fingerprint(const std::filesystem::path& clog2_path) {
  return replay::trace_fingerprint(clog2::read_file(clog2_path));
}

/// No TC-series errors: the merged trace's happens-before order is sound.
void expect_tracecheck_clean(const std::filesystem::path& clog2_path) {
  const analyze::Report rep = analyze::check_trace(clog2::read_file(clog2_path));
  EXPECT_EQ(rep.count(analyze::Severity::kError), 0u) << rep.to_text();
}

// --- deterministic fan workload ----------------------------------------------
// PI_MAIN seeds every worker, each worker replies with a pure function of
// the seed, and PI_MAIN reads the replies back in fixed channel order. No
// wildcard anywhere, so the per-rank event sequence is independent of the
// execution substrate — the basis of the threads-vs-tasks comparison.

std::vector<PI_CHANNEL*> g_fan_down;
std::vector<PI_CHANNEL*> g_fan_up;

int fan_worker(int index, void*) {
  int seed = 0;
  const auto i = static_cast<std::size_t>(index);
  PI_Read(g_fan_down[i], "%d", &seed);
  PI_Write(g_fan_up[i], "%d", seed * 2 + 1);
  return 0;
}

pilot::RunResult run_fan(int workers, std::vector<std::string> extra,
                         int* sum_out = nullptr) {
  std::vector<std::string> args = {"prog", "-piwatchdog=120"};
  for (auto& a : extra) args.push_back(std::move(a));
  return pilot::run(args, [workers, sum_out](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    g_fan_down.assign(static_cast<std::size_t>(workers), nullptr);
    g_fan_up.assign(static_cast<std::size_t>(workers), nullptr);
    for (int i = 0; i < workers; ++i) {
      PI_PROCESS* w = PI_CreateProcess(fan_worker, i, nullptr);
      g_fan_down[static_cast<std::size_t>(i)] = PI_CreateChannel(PI_MAIN, w);
      g_fan_up[static_cast<std::size_t>(i)] = PI_CreateChannel(w, PI_MAIN);
    }
    PI_StartAll();
    for (int i = 0; i < workers; ++i)
      PI_Write(g_fan_down[static_cast<std::size_t>(i)], "%d", i * 3);
    int sum = 0;
    for (int i = 0; i < workers; ++i) {
      int v = 0;
      PI_Read(g_fan_up[static_cast<std::size_t>(i)], "%d", &v);
      EXPECT_EQ(v, i * 6 + 1);
      sum += v;
    }
    if (sum_out) *sum_out = sum;
    PI_StopMain(0);
    return 0;
  });
}

// --- wildcard select farm ----------------------------------------------------
// Completion order is a scheduler decision, so the trace is only stable when
// the substrate itself is deterministic (seeded tasks) or when replay forces
// the recorded branches.

std::vector<PI_CHANNEL*> g_farm_results;
PI_BUNDLE* g_farm_bundle = nullptr;
constexpr int kFarmTasksPerWorker = 2;

int scale_farm_worker(int index, void*) {
  for (int t = 0; t < kFarmTasksPerWorker; ++t)
    PI_Write(g_farm_results[static_cast<std::size_t>(index)], "%d",
             index * 10 + t);
  return 0;
}

pilot::RunResult run_farm(int workers, std::vector<std::string> extra) {
  std::vector<std::string> args = {"prog", "-piwatchdog=120"};
  for (auto& a : extra) args.push_back(std::move(a));
  return pilot::run(args, [workers](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    g_farm_results.assign(static_cast<std::size_t>(workers), nullptr);
    for (int i = 0; i < workers; ++i) {
      PI_PROCESS* w = PI_CreateProcess(scale_farm_worker, i, nullptr);
      g_farm_results[static_cast<std::size_t>(i)] = PI_CreateChannel(w, PI_MAIN);
    }
    g_farm_bundle =
        PI_CreateBundle(PI_SELECT_B, g_farm_results.data(), workers);
    PI_StartAll();
    for (int n = 0; n < workers * kFarmTasksPerWorker; ++n) {
      const int ready = PI_Select(g_farm_bundle);
      int v = 0;
      PI_Read(g_farm_results[static_cast<std::size_t>(ready)], "%d", &v);
      EXPECT_EQ(v / 10, ready);
    }
    PI_StopMain(0);
    return 0;
  });
}

// --- TasksSubstrate: fast cross-substrate checks -----------------------------

TEST(TasksSubstrate, FanTraceMatchesThreadsSubstrate) {
  util::TempDir dir;
  const std::string out = "-piout=" + dir.path().string();

  const auto threads =
      run_fan(5, {"-pisvc=j", out, "-piname=threads", "-piexec=threads"});
  ASSERT_FALSE(threads.aborted) << threads.abort_code;
  const auto tasks =
      run_fan(5, {"-pisvc=j", out, "-piname=tasks", "-piexec=tasks"});
  ASSERT_FALSE(tasks.aborted) << tasks.abort_code;

  EXPECT_EQ(threads.exit_codes, tasks.exit_codes);
  // Same per-rank event sequences, timestamps excluded: the substrate only
  // changes *when* ranks run, never *what* they do.
  EXPECT_EQ(fingerprint(dir.file("threads.clog2")),
            fingerprint(dir.file("tasks.clog2")));
  expect_tracecheck_clean(dir.file("tasks.clog2"));
}

TEST(TasksSubstrate, SeededFarmIsRunToRunStableUnderTasks) {
  util::TempDir dir;
  const std::string out = "-piout=" + dir.path().string();

  std::vector<std::string> fps;
  for (const std::string name : {"a", "b"}) {
    const auto res = run_farm(
        5, {"-pisvc=j", out, "-piname=" + name, "-piexec=tasks",
            "-pisim-seed=42"});
    ASSERT_FALSE(res.aborted) << res.abort_code;
    fps.push_back(fingerprint(dir.file(name + ".clog2")));
  }
  EXPECT_EQ(fps[0], fps[1]);
}

// --- TasksScale: thousand-rank jobs ------------------------------------------

constexpr int kScaleWorkers = 1000;

TEST(TasksScale, ThousandRanksProduceValidMergedTrace) {
  util::TempDir dir;
  const std::string out = "-piout=" + dir.path().string();

  int sum = 0;
  const auto res = run_fan(
      kScaleWorkers, {"-pisvc=j", out, "-piname=big", "-piexec=tasks"}, &sum);
  ASSERT_FALSE(res.aborted) << res.abort_code;
  ASSERT_EQ(res.status, 0);
  // sum of (6i + 1) for i in [0, 1000)
  EXPECT_EQ(sum, 6 * (kScaleWorkers * (kScaleWorkers - 1) / 2) + kScaleWorkers);

  const auto clog = dir.file("big.clog2");
  ASSERT_TRUE(std::filesystem::exists(clog));
  const clog2::File f = clog2::read_file(clog);
  EXPECT_EQ(f.nranks, kScaleWorkers + 1);
  EXPECT_GT(f.count<clog2::MsgRec>(), 0u);
  expect_tracecheck_clean(clog);
}

TEST(TasksScale, ThousandRankSeededRunsAreByteIdentical) {
  util::TempDir dir;
  const std::string out = "-piout=" + dir.path().string();

  std::vector<std::string> fps;
  for (const std::string name : {"s1", "s2"}) {
    const auto res = run_farm(
        kScaleWorkers, {"-pisvc=j", out, "-piname=" + name, "-piexec=tasks",
                        "-pisim-seed=7"});
    ASSERT_FALSE(res.aborted) << res.abort_code;
    fps.push_back(fingerprint(dir.file(name + ".clog2")));
  }
  EXPECT_EQ(fps[0], fps[1]);
}

TEST(TasksScale, ThousandRankRecordReplayIsStable) {
  util::TempDir dir;
  const std::string prl = dir.file("big.prl").string();
  const std::string out = "-piout=" + dir.path().string();

  const auto rec = run_farm(
      kScaleWorkers,
      {"-pisvc=j", out, "-piname=rec", "-piexec=tasks", "-pirecord=" + prl});
  ASSERT_FALSE(rec.aborted) << rec.abort_code;

  std::vector<std::string> fps;
  for (const std::string name : {"rep1", "rep2"}) {
    const auto rep = run_farm(
        kScaleWorkers, {"-pisvc=j", out, "-piname=" + name, "-piexec=tasks",
                        "-pireplay=" + prl});
    ASSERT_FALSE(rep.aborted) << rep.abort_code;
    EXPECT_FALSE(rep.replay_diverged) << rep.replay.to_text();
    fps.push_back(fingerprint(dir.file(name + ".clog2")));
  }
  EXPECT_EQ(fps[0], fps[1]);
  EXPECT_EQ(fps[0], fingerprint(dir.file("rec.clog2")));
}

TEST(TasksScale, ThousandRankCrashDegradesGracefully) {
  // Kill one mid-field worker before it replies: PI_MAIN can never finish
  // its fixed-order read loop, so the run must end as the named dead-peer
  // abort (surfaced by the stall detector — there is no per-rank grace
  // timer on the task substrate), never as a watchdog timeout.
  const auto res = run_fan(
      kScaleWorkers, {"-piexec=tasks", "-pifault=crash=500@call:2"});
  EXPECT_TRUE(res.aborted);
  EXPECT_EQ(res.abort_code, mpisim::World::kPeerDeadAbortCode);
  EXPECT_NE(res.abort_code, mpisim::World::kWatchdogAbortCode);
  ASSERT_EQ(res.crashed_ranks.size(), 1u);
  EXPECT_EQ(res.crashed_ranks[0], 500);
  EXPECT_TRUE(res.fault.has("FJ10")) << res.fault.to_text();
  EXPECT_TRUE(res.fault.has("FJ11")) << res.fault.to_text();
}

}  // namespace
