// Odds and ends: clock quantization (the MPI_Wtime-resolution model behind
// the Equal-Drawables problem) and Logger option validation.
#include <gtest/gtest.h>

#include <cmath>

#include "mpe/mpe.hpp"
#include "mpisim/clock.hpp"
#include "util/fs.hpp"

namespace {

TEST(ClockQuantum, QuantizesReportedTime) {
  mpisim::VirtualClock clk(2, 0.0, 0.0, 1);
  clk.set_quantum(0.001);
  const double t = clk.now(0);
  EXPECT_DOUBLE_EQ(t, std::floor(t / 0.001) * 0.001);
  // Two immediate reads land in the same quantum.
  EXPECT_DOUBLE_EQ(clk.now(0), clk.now(1));
}

TEST(ClockQuantum, ZeroQuantumIsFullResolution) {
  mpisim::VirtualClock clk(1, 0.0, 0.0, 1);
  EXPECT_DOUBLE_EQ(clk.quantum(), 0.0);
  double a = clk.now(0);
  double b = a;
  // With nanosecond resolution two reads separated by work differ.
  for (int i = 0; i < 100000 && b == a; ++i) b = clk.now(0);
  EXPECT_NE(a, b);
}

TEST(ClockQuantum, BackdateShiftsOrigin) {
  mpisim::VirtualClock clk(1, 0.0, 0.0, 1);
  const double before = clk.now(0);
  clk.backdate(10.0);
  EXPECT_GE(clk.now(0), before + 9.9);
}

TEST(MpeOptions, SyncRoundsValidated) {
  mpisim::World::Config cfg;
  cfg.nprocs = 1;
  mpisim::World w(cfg);
  mpe::Logger::Options opts;
  opts.sync_rounds = 0;
  EXPECT_THROW(mpe::Logger(w, opts), util::UsageError);
}

TEST(MpeOptions, CustomTextCap) {
  mpisim::World::Config cfg;
  cfg.nprocs = 1;
  cfg.time_scale = 0;
  mpisim::World w(cfg);
  mpe::Logger::Options opts;
  opts.max_text_bytes = 8;
  opts.merge_base_cost = 0;
  opts.merge_cost_per_record = 0;
  mpe::Logger logger(w, opts);
  const int id = logger.get_event_number();
  logger.define_event(id, "e", "yellow");
  util::TempDir dir;
  w.run([&](mpisim::Comm& c) {
    logger.log_event(c, id, "0123456789ABCDEF");
    logger.finish_log(c, dir.file("t.clog2"));
    return 0;
  });
  const auto file = clog2::read_file(dir.file("t.clog2"));
  for (const auto& rec : file.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      EXPECT_EQ(e->text, "01234567");
    }
  }
}

}  // namespace
