// The paper's contribution end-to-end: run Pilot programs with -pisvc=j,
// then check the CLOG-2 contents and the converted SLOG-2 drawables against
// Section III's visual design.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "jumpshot/stats.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "slog2/slog2.hpp"
#include "util/fs.hpp"

namespace {

PI_CHANNEL* g_to_worker = nullptr;
PI_CHANNEL* g_from_worker = nullptr;

std::vector<std::string> jlog_args(const util::TempDir& dir) {
  return {"prog", "-pisvc=j", "-piout=" + dir.path().string(), "-piwatchdog=30"};
}

std::map<std::string, std::size_t> count_states_by_name(const slog2::File& f) {
  std::map<std::string, std::size_t> counts;
  f.visit_window(
      f.t_min, f.t_max,
      [&](const slog2::StateDrawable& s) {
        const auto* cat = f.category(s.category_id);
        if (cat) counts[cat->name]++;
      },
      nullptr, nullptr);
  return counts;
}

int echo_worker(int, void*) {
  int v = 0;
  PI_Read(g_to_worker, "%d", &v);
  PI_Write(g_from_worker, "%d", v + 1);
  return 0;
}

TEST(LogViz, ProducesCleanConvertibleTrace) {
  util::TempDir dir;
  const auto res = pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(echo_worker, 0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    PI_Write(g_to_worker, "%d", 1);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    PI_StopMain(0);
    return 0;
  });
  EXPECT_FALSE(res.aborted);
  EXPECT_GT(res.mpe_wrapup_seconds, 0.0);  // the paper's measured wrap-up cost

  const auto clog = clog2::read_file(dir.file("pilot.clog2"));
  EXPECT_EQ(clog.nranks, 2);
  std::vector<std::string> warnings;
  const auto slog = slog2::convert(clog, {}, &warnings);
  EXPECT_TRUE(slog.stats.clean()) << slog2::to_text(slog);
  EXPECT_TRUE(warnings.empty());

  const auto counts = count_states_by_name(slog);
  EXPECT_EQ(counts.at("PI_Write"), 2u);  // one by main, one by worker
  EXPECT_EQ(counts.at("PI_Read"), 2u);
  EXPECT_EQ(counts.at("PI_Configure"), 1u);  // bisque config-phase rectangle
  EXPECT_EQ(counts.at("Compute"), 2u);       // gray state per process
  // One arrow per message: main->worker and worker->main.
  EXPECT_EQ(slog.stats.total_arrows, 2u);
}

TEST(LogViz, PopupsCarryLineNumbersAndChannelNames) {
  util::TempDir dir;
  pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(echo_worker, 0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_SetName(g_from_worker, "Results");
    PI_StartAll();
    PI_Write(g_to_worker, "%d", 1);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));

  // State popups: "L<line> <proc> i<index>" (literal-prefix workaround).
  bool saw_line_popup = false;
  slog.visit_window(
      slog.t_min, slog.t_max,
      [&](const slog2::StateDrawable& s) {
        if (!s.start_text.empty() && s.start_text[0] == 'L') saw_line_popup = true;
      },
      nullptr, nullptr);
  EXPECT_TRUE(saw_line_popup);

  // Arrival bubbles name the channel, including the PI_SetName'd one.
  bool saw_named_channel = false;
  std::size_t arrive_bubbles = 0;
  slog.visit_window(
      slog.t_min, slog.t_max, nullptr,
      [&](const slog2::EventDrawable& e) {
        const auto* cat = slog.category(e.category_id);
        if (cat && cat->name == "MsgArrive") {
          ++arrive_bubbles;
          if (e.text.find("Results") != std::string::npos) saw_named_channel = true;
        }
      },
      nullptr);
  EXPECT_EQ(arrive_bubbles, 2u);  // one per received message
  EXPECT_TRUE(saw_named_channel);
}

int multi_msg_worker(int, void*) {
  int n = 0;
  float xs[100];
  PI_Read(g_to_worker, "%d %100f", &n, xs);
  PI_Write(g_from_worker, "%d", n);
  return 0;
}

TEST(LogViz, OneBubbleAndArrowPerMessageWithinACall) {
  // The paper: "%d %100f" sends two MPI messages — the log must show one
  // arrival bubble per message inside the single PI_Read rectangle.
  util::TempDir dir;
  pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(multi_msg_worker, 0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    float xs[100] = {};
    PI_Write(g_to_worker, "%d %100f", 100, xs);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));
  EXPECT_TRUE(slog.stats.clean());
  // 2 messages down + 1 up = 3 arrows.
  EXPECT_EQ(slog.stats.total_arrows, 3u);
  const auto counts = count_states_by_name(slog);
  EXPECT_EQ(counts.at("PI_Read"), 2u);  // one call per side, not per message
  EXPECT_EQ(counts.at("PI_Write"), 2u);
}

constexpr int kFan = 3;
PI_CHANNEL* g_fan[kFan];
PI_CHANNEL* g_fan_up[kFan];

int fan_worker(int index, void*) {
  int v = 0;
  PI_Read(g_fan[index], "%d", &v);
  PI_Write(g_fan_up[index], "%d", v * (index + 1));
  return 0;
}

TEST(LogViz, CollectivesDrawOneArrowPerChannel) {
  util::TempDir dir;
  pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    for (int i = 0; i < kFan; ++i) {
      PI_PROCESS* w = PI_CreateProcess(fan_worker, i, nullptr);
      g_fan[i] = PI_CreateChannel(PI_MAIN, w);
      g_fan_up[i] = PI_CreateChannel(w, PI_MAIN);
    }
    PI_BUNDLE* bcast = PI_CreateBundle(PI_BROADCAST, g_fan, kFan);
    PI_BUNDLE* gather = PI_CreateBundle(PI_GATHER, g_fan_up, kFan);
    PI_SetName(bcast, "Fan");
    PI_StartAll();
    PI_Broadcast(bcast, "%d", 7);
    int out[kFan];
    PI_Gather(gather, "%d", out);
    for (int i = 0; i < kFan; ++i) EXPECT_EQ(out[i], 7 * (i + 1));
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));
  EXPECT_TRUE(slog.stats.clean());
  // N arrows out (broadcast) + N back (gather, one per worker write).
  EXPECT_EQ(slog.stats.total_arrows, static_cast<std::uint64_t>(2 * kFan));

  const auto counts = count_states_by_name(slog);
  EXPECT_EQ(counts.at("PI_Broadcast"), 1u);
  EXPECT_EQ(counts.at("PI_Gather"), 1u);

  // The broadcaster's popup names the bundle (PI_SetName'd to "Fan").
  bool bundle_named = false;
  slog.visit_window(
      slog.t_min, slog.t_max,
      [&](const slog2::StateDrawable& s) {
        const auto* cat = slog.category(s.category_id);
        if (cat && cat->name == "PI_Broadcast" &&
            s.start_text.find("Fan") != std::string::npos)
          bundle_named = true;
      },
      nullptr, nullptr);
  EXPECT_TRUE(bundle_named);
}

TEST(LogViz, UtilityFunctionsAreBubbles) {
  util::TempDir dir;
  pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(echo_worker, 0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_CHANNEL* chans[] = {g_from_worker};
    PI_BUNDLE* sel = PI_CreateBundle(PI_SELECT_B, chans, 1);
    PI_StartAll();
    PI_StartTime();
    EXPECT_EQ(PI_ChannelHasData(g_from_worker), 0);
    EXPECT_EQ(PI_TrySelect(sel), -1);
    PI_Log("looking for data");
    PI_Write(g_to_worker, "%d", 1);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    PI_EndTime();
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));
  std::size_t utility = 0, user_log = 0;
  slog.visit_window(
      slog.t_min, slog.t_max, nullptr,
      [&](const slog2::EventDrawable& e) {
        const auto* cat = slog.category(e.category_id);
        if (!cat) return;
        if (cat->name == "Utility") {
          ++utility;
          EXPECT_NE(e.text.find("ret="), std::string::npos);  // return values shown
        }
        if (cat->name == "PI_Log") ++user_log;
      },
      nullptr);
  // PI_StartTime, PI_ChannelHasData, PI_TrySelect, PI_EndTime.
  EXPECT_EQ(utility, 4u);
  EXPECT_EQ(user_log, 1u);
}

int select_then_read_worker(int, void*) {
  PI_Write(g_from_worker, "%d", 9);
  return 0;
}

TEST(LogViz, SelectIsStateWithReadyIndexAndNoBubble) {
  util::TempDir dir;
  pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(select_then_read_worker, 0, nullptr);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_CHANNEL* chans[] = {g_from_worker};
    PI_BUNDLE* sel = PI_CreateBundle(PI_SELECT_B, chans, 1);
    PI_StartAll();
    const int idx = PI_Select(sel);
    EXPECT_EQ(idx, 0);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    EXPECT_EQ(v, 9);
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));
  bool select_seen = false;
  slog.visit_window(
      slog.t_min, slog.t_max,
      [&](const slog2::StateDrawable& s) {
        const auto* cat = slog.category(s.category_id);
        if (cat && cat->name == "PI_Select") {
          select_seen = true;
          EXPECT_NE(s.end_text.find("ready=0"), std::string::npos);
        }
      },
      nullptr, nullptr);
  EXPECT_TRUE(select_seen);
}

TEST(LogViz, IoStatesNestInsideComputeState) {
  util::TempDir dir;
  pilot::run(jlog_args(dir), [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(echo_worker, 0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    PI_Write(g_to_worker, "%d", 1);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));
  slog.visit_window(
      slog.t_min, slog.t_max,
      [&](const slog2::StateDrawable& s) {
        const auto* cat = slog.category(s.category_id);
        if (!cat) return;
        if (cat->name == "Compute") {
          EXPECT_EQ(s.depth, 0);
        }
        if (cat->name == "PI_Read" || cat->name == "PI_Write") {
          EXPECT_EQ(s.depth, 1) << cat->name;  // nested inside gray Compute
        }
      },
      nullptr, nullptr);
}

int aborting_worker(int, void*) {
  // Wait for main's nudge so the whole system (including the service rank's
  // log file) is provably up before the abort hits.
  int nudge = 0;
  PI_Read(g_to_worker, "%d", &nudge);
  PI_Abort(9, "worker gives up");
  return 0;
}

TEST(LogViz, AbortLosesTheMpeLog) {
  // The paper, Section III-B: MPI_Abort tears down messaging before MPE can
  // gather the per-rank logs, so the CLOG-2 file is lost. The native log,
  // written incrementally, survives.
  util::TempDir dir;
  const auto res = pilot::run(
      {"prog", "-pisvc=cj", "-piout=" + dir.path().string(), "-piwatchdog=30"},
      [](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* w = PI_CreateProcess(aborting_worker, 0, nullptr);
        g_to_worker = PI_CreateChannel(PI_MAIN, w);
        g_from_worker = PI_CreateChannel(w, PI_MAIN);
        PI_StartAll();
        PI_Write(g_to_worker, "%d", 1);
        int v = 0;
        PI_Read(g_from_worker, "%d", &v);  // blocks; the abort wakes us
        ADD_FAILURE() << "read returned despite abort";
        PI_StopMain(0);
        return 0;
      });
  EXPECT_TRUE(res.aborted);
  EXPECT_EQ(res.abort_code, 9);
  EXPECT_FALSE(std::filesystem::exists(dir.file("pilot.clog2")));
  EXPECT_TRUE(std::filesystem::exists(dir.file("pilot.log")));
}

TEST(LogViz, LegendStatisticsComputeDominates) {
  // A compute-heavy program must show Compute inclusive time far above the
  // I/O categories (the paper's Fig. 2 argument).
  util::TempDir dir;
  auto args = jlog_args(dir);
  args.push_back("-pisim-scale=1");  // make PI_Compute cost real wall time
  pilot::run(args, [](int argc, char** argv) {
    PI_Configure(&argc, &argv);
    PI_PROCESS* w = PI_CreateProcess(
        [](int, void*) {
          int v = 0;
          PI_Read(g_to_worker, "%d", &v);
          PI_Compute(0.05);
          PI_Write(g_from_worker, "%d", v);
          return 0;
        },
        0, nullptr);
    g_to_worker = PI_CreateChannel(PI_MAIN, w);
    g_from_worker = PI_CreateChannel(w, PI_MAIN);
    PI_StartAll();
    PI_Write(g_to_worker, "%d", 1);
    int v = 0;
    PI_Read(g_from_worker, "%d", &v);
    PI_StopMain(0);
    return 0;
  });

  const auto slog = slog2::convert(clog2::read_file(dir.file("pilot.clog2")));
  const auto entries = jumpshot::legend(slog);
  double compute_excl = 0, write_incl = 0;
  for (const auto& e : entries) {
    if (e.category.name == "Compute") compute_excl = e.exclusive;
    if (e.category.name == "PI_Write") write_incl = e.inclusive;
  }
  EXPECT_GT(compute_excl, 0.04);
  EXPECT_GT(compute_excl, write_incl * 5);
}

}  // namespace
