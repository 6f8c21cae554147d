// Pinned MPE output bytes. Every byte the logger writes is hashed with
// FNV-1a over a fixed set of deterministic runs on the tasks substrate
// (virtual time, seeded schedule):
//
//   * the CLOG-2 file of a small heat ring (-piexec=tasks -pisvc=j) and of
//     the analysis corpus's sum farm (tests/analysis_corpus.hpp);
//   * a direct-Logger world with per-rank clock offset and skew, so every
//     rank's clock fit is a real line, not the identity;
//   * the same world with one hand-stamped out-of-order log_event_at, so
//     the merge's stream repair runs;
//   * the spill files of that world's robust-mode twin (no finish_log, so
//     the spills survive) and its mpe::salvage output;
//   * the spill files of a -pirobust Pilot run that dies in PI_Abort, and
//     their mpe::salvage output.
//
// A rework of the logger (record storage, gather, merge, write, spill,
// salvage) must keep every hash. Pilot popups carry the source line of the
// Pilot call, so moving the programs below moves their hashes. On a
// mismatch the test prints the whole table of actual hashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis_corpus.hpp"
#include "clog2/clog2.hpp"
#include "mpe/mpe.hpp"
#include "mpisim/world.hpp"
#include "pilot/pi.hpp"
#include "pilot/runtime.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace {

std::string fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return util::strprintf("%016llx", static_cast<unsigned long long>(h));
}

using Table = std::vector<std::pair<std::string, std::string>>;

void expect_pinned(const Table& actual, const Table& want) {
  std::string table;
  for (const auto& [label, hash] : actual)
    table += util::strprintf("      {\"%s\", \"%s\"},\n", label.c_str(),
                             hash.c_str());
  ASSERT_EQ(actual.size(), want.size()) << "actual table:\n" << table;
  bool all = true;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, want[i].first);
    EXPECT_EQ(actual[i].second, want[i].second) << actual[i].first;
    all = all && actual[i] == want[i];
  }
  if (!all) ADD_FAILURE() << "actual table:\n" << table;
}

/// Hash "<base>.defs.spill" and every "<base>.rank<r>.spill" for r < nranks
/// (a missing file hashes as "absent"), then the salvaged trace.
void pin_spills(Table& t, const std::string& label, const std::string& base,
                int nranks) {
  const auto pin_file = [&](const std::string& suffix) {
    const std::filesystem::path p = base + suffix;
    t.emplace_back(label + suffix, std::filesystem::exists(p)
                                       ? fnv1a(util::read_file(p))
                                       : std::string("absent"));
  };
  pin_file(".defs.spill");
  for (int r = 0; r < nranks; ++r) pin_file(".rank" + std::to_string(r) + ".spill");
  t.emplace_back(label + " salvage", fnv1a(clog2::serialize(mpe::salvage(base))));
}

// --- a small heat ring on the tasks substrate ----------------------------------

constexpr int kHeatWorkers = 4;
constexpr int kHeatCells = 16;
constexpr int kHeatSteps = 12;

PI_CHANNEL* g_scatter[kHeatWorkers];
PI_CHANNEL* g_gather[kHeatWorkers];
PI_CHANNEL* g_right[kHeatWorkers];
PI_CHANNEL* g_left[kHeatWorkers];
int g_exchange = -1;
int g_sweep = -1;

int heat_slab(int index, void*) {
  std::vector<double> u(kHeatCells + 2, 0.0);
  PI_Read(g_scatter[index], "%*lf", kHeatCells, u.data() + 1);
  for (int step = 0; step < kHeatSteps; ++step) {
    PI_StateBegin(g_exchange);
    if (index + 1 < kHeatWorkers) PI_Write(g_right[index], "%lf", u[kHeatCells]);
    if (index > 0) PI_Write(g_left[index - 1], "%lf", u[1]);
    if (index > 0) PI_Read(g_right[index - 1], "%lf", &u[0]);
    if (index + 1 < kHeatWorkers) PI_Read(g_left[index], "%lf", &u[kHeatCells + 1]);
    PI_StateEnd(g_exchange);
    PI_StateBegin(g_sweep);
    std::vector<double> next(u);
    for (std::size_t k = 1; k <= kHeatCells; ++k)
      next[k] = u[k] + 0.25 * (u[k - 1] - 2 * u[k] + u[k + 1]);
    u.swap(next);
    PI_Compute(1e-6 * (index + 1));
    PI_StateEnd(g_sweep);
  }
  PI_Write(g_gather[index], "%*lf", kHeatCells, u.data() + 1);
  return 0;
}

pilot::RunResult run_heat(const std::string& out_dir) {
  return pilot::run(
      {"prog", "-piwatchdog=20", "-pisvc=j", "-piexec=tasks", "-piout=" + out_dir,
       "-piname=heat"},
      [](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        g_exchange = PI_DefineState("HaloExchange", "orange");
        g_sweep = PI_DefineState("Sweep", "SteelBlue");
        PI_PROCESS* w[kHeatWorkers];
        for (int i = 0; i < kHeatWorkers; ++i) {
          w[i] = PI_CreateProcess(heat_slab, i, nullptr);
          g_scatter[i] = PI_CreateChannel(PI_MAIN, w[i]);
          g_gather[i] = PI_CreateChannel(w[i], PI_MAIN);
        }
        for (int i = 0; i + 1 < kHeatWorkers; ++i) {
          g_right[i] = PI_CreateChannel(w[i], w[i + 1]);
          g_left[i] = PI_CreateChannel(w[i + 1], w[i]);
        }
        PI_BUNDLE* scatter = PI_CreateBundle(PI_SCATTER, g_scatter, kHeatWorkers);
        PI_BUNDLE* gather = PI_CreateBundle(PI_GATHER, g_gather, kHeatWorkers);
        PI_StartAll();
        std::vector<double> rod(kHeatWorkers * kHeatCells, 0.0);
        rod[rod.size() / 2] = 1000.0;
        PI_Scatter(scatter, "%*lf", kHeatCells, rod.data());
        PI_Gather(gather, "%*lf", kHeatCells, rod.data());
        PI_StopMain(0);
        return 0;
      });
}

// --- a robust Pilot run that dies in PI_Abort -------------------------------------

PI_CHANNEL* g_to_worker = nullptr;
PI_CHANNEL* g_from_worker = nullptr;

int aborting_worker(int, void*) {
  for (int i = 0; i < 3; ++i) {
    int v = 0;
    PI_Read(g_to_worker, "%d", &v);
    PI_Compute(1e-5);
    PI_Write(g_from_worker, "%d", v + 1);
  }
  int v = 0;
  PI_Read(g_to_worker, "%d", &v);
  PI_Abort(13, "simulated crash");
  return 0;
}

pilot::RunResult run_aborting(const std::string& out_dir) {
  return pilot::run(
      {"prog", "-piwatchdog=20", "-pisvc=j", "-pirobust", "-piexec=tasks",
       "-piout=" + out_dir, "-piname=abort"},
      [](int argc, char** argv) {
        PI_Configure(&argc, &argv);
        PI_PROCESS* w = PI_CreateProcess(aborting_worker, 0, nullptr);
        g_to_worker = PI_CreateChannel(PI_MAIN, w);
        g_from_worker = PI_CreateChannel(w, PI_MAIN);
        PI_StartAll();
        for (int i = 0; i < 4; ++i) {
          PI_Write(g_to_worker, "%d", i);
          int v = 0;
          if (i < 3) PI_Read(g_from_worker, "%d", &v);
        }
        int v = 0;
        PI_Read(g_from_worker, "%d", &v);  // the worker's abort wakes us
        PI_StopMain(0);
        return 0;
      });
}

// --- direct Logger worlds with skewed clocks ----------------------------------------

constexpr int kWorldRanks = 5;

struct WorldRun {
  bool out_of_order = false;  ///< rank 1 hand-stamps one record in the past
  bool finish = true;         ///< false: keep the spills, skip finish_log
};

/// A ring of ranks with injected clock offset and skew: each rank syncs,
/// logs states, bubbles and both halves of a ring message per step, syncs
/// again, then (optionally) finishes the log into `base`.clog2. With
/// `finish` off the logger spills to `base` instead.
void run_world(const std::string& base, WorldRun how) {
  mpisim::World::Config c;
  c.nprocs = kWorldRanks;
  c.exec = mpisim::ExecMode::kTasks;
  c.msg_latency = 2e-6;
  c.clock_max_offset = 0.25;
  c.clock_max_skew = 2e-3;
  c.seed = 4242;
  c.watchdog_seconds = 20;
  mpisim::World world(c);

  mpe::Logger::Options opts;
  opts.comment = "mpe golden";
  if (!how.finish) opts.spill_base = base;
  mpe::Logger log(world, opts);
  const int start = log.get_event_number();
  const int end = log.get_event_number();
  const int mark = log.get_event_number();
  log.define_state(start, end, "Step", "SteelBlue", "Step %d");
  log.define_event(mark, "Mark", "yellow");
  log.write_spill_defs();

  world.run([&](mpisim::Comm& comm) {
    const int r = comm.rank();
    const int n = comm.size();
    log.log_sync_clocks(comm);
    for (int step = 0; step < 8; ++step) {
      log.log_event(comm, start, "step " + std::to_string(step) + " on rank " +
                                     std::to_string(r) +
                                     " with a popup longer than forty bytes");
      comm.compute(1e-5 * (r + 1));
      int v = step;
      log.log_send(comm, (r + 1) % n, 7, sizeof v);
      comm.send((r + 1) % n, 7, &v, sizeof v);
      comm.recv((r + n - 1) % n, 7, &v, sizeof v);
      log.log_receive(comm, (r + n - 1) % n, 7, sizeof v);
      if (how.out_of_order && r == 1 && step == 4)
        log.log_event_at(comm, comm.wtime() - 5e-5, mark, "stamped late");
      log.log_event(comm, mark);
      log.log_event(comm, end);
    }
    log.log_sync_clocks(comm);
    if (how.finish) log.finish_log(comm, base + ".clog2");
    return 0;
  });
}

TEST(MpeGolden, PilotTracesArePinned) {
  const util::TempDir dir;
  Table t;
  ASSERT_EQ(run_heat(dir.path().string()).status, 0);
  t.emplace_back("heat ring clog2", fnv1a(util::read_file(dir.file("heat.clog2"))));
  ASSERT_FALSE(analysis_corpus::run_farm({"-piout=" + dir.path().string(),
                                          "-piname=farm"})
                   .aborted);
  t.emplace_back("sum farm clog2", fnv1a(util::read_file(dir.file("farm.clog2"))));
  expect_pinned(t, {
      {"heat ring clog2", "1892ff029e33106c"},
      {"sum farm clog2", "abb25de9892a8e57"},
  });
}

TEST(MpeGolden, SkewedWorldsArePinned) {
  const util::TempDir dir;
  Table t;
  const std::string plain = dir.file("plain").string();
  const std::string late = dir.file("late").string();
  WorldRun how;
  run_world(plain, how);
  how.out_of_order = true;
  run_world(late, how);
  const std::vector<std::uint8_t> plain_bytes = util::read_file(plain + ".clog2");
  const std::vector<std::uint8_t> late_bytes = util::read_file(late + ".clog2");
  t.emplace_back("skewed clog2", fnv1a(plain_bytes));
  t.emplace_back("skewed out-of-order clog2", fnv1a(late_bytes));
  expect_pinned(t, {
      {"skewed clog2", "5c03d06bd6d07eae"},
      {"skewed out-of-order clog2", "e6155cf31e36a9a4"},
  });
  EXPECT_NO_THROW(clog2::parse(plain_bytes));
  // The late stamp really inverted rank 1's stream: the merged file puts it
  // before records rank 1 logged earlier, so the repair path ran.
  const clog2::File f = clog2::parse(late_bytes);
  int rank1_after_late = -1;
  for (const auto& rec : f.records) {
    const auto* e = std::get_if<clog2::EventRec>(&rec);
    if (e != nullptr && e->rank == 1 && e->text == "stamped late") rank1_after_late = 0;
    if (rank1_after_late >= 0 && analysis_corpus::rank_of(rec) == 1) ++rank1_after_late;
  }
  // Rank 1 logs 8 steps of 5 records, the late one included; a stream left
  // in log order would hold only the 3 steps after it (+ the late record's
  // own mark and end) behind it.
  EXPECT_GT(rank1_after_late, 3 * 5 + 2 + 1);
}

TEST(MpeGolden, SpillsAndSalvageArePinned) {
  const util::TempDir dir;
  Table t;
  const std::string spilled = dir.file("spilled").string();
  WorldRun how;
  how.out_of_order = true;
  how.finish = false;
  run_world(spilled, how);
  pin_spills(t, "skewed", spilled, kWorldRanks);
  const pilot::RunResult res = run_aborting(dir.path().string());
  ASSERT_TRUE(res.aborted);
  EXPECT_FALSE(std::filesystem::exists(dir.file("abort.clog2")));
  pin_spills(t, "abort", dir.file("abort").string(), 3);
  expect_pinned(t, {
      {"skewed.defs.spill", "913ce2260eeae36c"},
      {"skewed.rank0.spill", "16d00df9653b7735"},
      {"skewed.rank1.spill", "8a7e074bbc7d82ae"},
      {"skewed.rank2.spill", "4c827933d71e8889"},
      {"skewed.rank3.spill", "dcc246e063a86eab"},
      {"skewed.rank4.spill", "ff5f6bde3cdb8968"},
      {"skewed salvage", "37fd046ebe30bcb4"},
      {"abort.defs.spill", "80e4bdf780dc8f32"},
      {"abort.rank0.spill", "718051142a0864b6"},
      {"abort.rank1.spill", "5fce14d59bd411e1"},
      {"abort.rank2.spill", "absent"},
      {"abort salvage", "fd53bb1941637a10"},
  });
}

}  // namespace
