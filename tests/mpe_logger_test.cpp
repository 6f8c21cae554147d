#include "mpe/mpe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/fs.hpp"

namespace {

using mpisim::Comm;
using mpisim::World;

World::Config cfg(int n) {
  World::Config c;
  c.nprocs = n;
  c.time_scale = 0.0;
  c.watchdog_seconds = 20.0;
  return c;
}

mpe::Logger::Options fast_opts() {
  mpe::Logger::Options o;
  o.merge_base_cost = 0.0;
  o.merge_cost_per_record = 0.0;
  return o;
}

TEST(MpeDefs, EventNumbersAreFreshAndIncreasing) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  const int a = log.get_event_number();
  const int b = log.get_event_number();
  EXPECT_GT(b, a);
  EXPECT_GT(a, 0);
}

TEST(MpeDefs, UnknownColorRejected) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  EXPECT_THROW(log.define_event(id, "x", "chartreuse-ish"), util::UsageError);
}

TEST(MpeDefs, UnallocatedIdRejected) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  EXPECT_THROW(log.define_event(999, "x", "red"), util::UsageError);
  EXPECT_THROW(log.define_state(998, 999, "s", "red"), util::UsageError);
}

TEST(MpeDefs, DoubleDefinitionRejected) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "first", "red");
  EXPECT_THROW(log.define_event(id, "second", "green"), util::UsageError);
}

TEST(MpeDefs, StateNeedsDistinctStartEnd) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  EXPECT_THROW(log.define_state(id, id, "s", "red"), util::UsageError);
}

TEST(MpeLog, UndefinedEventIdRejected) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  EXPECT_THROW(w.run([&](Comm& c) {
    log.log_event(c, 12345);
    return 0;
  }),
               util::UsageError);
}

// Every record is checked where it enters the logger, on every rank alike:
// a bad record throws check_record's named error and is not logged, so the
// finished file always reads back. (Rank 0's records once went straight to
// the file unchecked, while the gather checked only ranks >= 1.)
TEST(MpeLog, BadPartnerRejectedOnEveryRank) {
  util::TempDir dir;
  World w(cfg(2));
  mpe::Logger log(w, fast_opts());
  std::array<std::string, 2> errors;
  w.run([&](Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    log.log_send(c, 1 - c.rank(), 5, 8);
    try {
      log.log_send(c, 2, 5, 8);  // partner == nprocs
    } catch (const util::IoError& e) {
      errors[r] = e.what();
    }
    EXPECT_THROW(log.log_receive(c, -1, 5, 8), util::IoError);
    log.finish_log(c, dir.file("p.clog2"));
    return 0;
  });
  for (const auto& e : errors)
    EXPECT_EQ(e, "clog2: record 1: partner 2 outside [0, 2)");
  const auto file = clog2::read_file(dir.file("p.clog2"));
  EXPECT_EQ(file.count<clog2::MsgRec>(), 2u);
}

TEST(MpeLog, NonFiniteTimeRejectedOnEveryRank) {
  util::TempDir dir;
  World w(cfg(2));
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "e", "yellow");
  std::array<std::string, 2> errors;
  w.run([&](Comm& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    log.log_event(c, id, "ok");
    try {
      log.log_event_at(c, std::numeric_limits<double>::quiet_NaN(), id);
    } catch (const util::IoError& e) {
      errors[r] = e.what();
    }
    EXPECT_THROW(log.log_receive_at(c, std::numeric_limits<double>::infinity(),
                                    1 - c.rank(), 5, 8),
                 util::IoError);
    log.finish_log(c, dir.file("t.clog2"));
    return 0;
  });
  for (const auto& e : errors) EXPECT_EQ(e, "clog2: record 1: timestamp not finite");
  EXPECT_EQ(log.buffered(0), 1u);
  EXPECT_EQ(log.buffered(1), 1u);
  const auto file = clog2::read_file(dir.file("t.clog2"));
  EXPECT_EQ(file.count<clog2::EventRec>(), 2u);
  EXPECT_EQ(file.count<clog2::MsgRec>(), 0u);
}

// Definitions may arrive while ranks log (PI_DefineState mid-run): the
// event-id check reads a table published without a lock. A definer thread
// grows the table well past its initial size while every rank logs each
// id as soon as it is published; TSan runs this suite.
TEST(MpeConcurrentDefs, DefineWhileLogging) {
  World w(cfg(4));
  mpe::Logger log(w, fast_opts());
  const int first = log.get_event_number();
  log.define_event(first, "first", "yellow");
  constexpr int kDefs = 300;
  std::atomic<int> latest{first};
  std::thread definer([&] {
    for (int i = 0; i < kDefs; ++i) {
      const int id = log.get_event_number();
      std::string name = "e";
      name += std::to_string(i);
      log.define_event(id, std::move(name), "red");
      latest.store(id, std::memory_order_release);
    }
  });
  std::atomic<int> logged{0};
  w.run([&](Comm& c) {
    int last = 0;
    while (last < first + kDefs) {
      const int id = latest.load(std::memory_order_acquire);
      if (id == last) {
        std::this_thread::yield();
        continue;
      }
      log.log_event(c, id);
      logged.fetch_add(1, std::memory_order_relaxed);
      last = id;
    }
    return 0;
  });
  definer.join();
  EXPECT_GT(logged.load(), 0);
}

TEST(MpeLog, AllocatedButUndefinedIdRejected) {
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  int id = 0;
  for (int i = 0; i < 100; ++i) id = log.get_event_number();
  log.define_event(id, "late", "yellow");  // past the initial id table
  w.run([&](Comm& c) {
    log.log_event(c, id);
    EXPECT_THROW(log.log_event(c, id - 1), util::UsageError);
    EXPECT_THROW(log.log_event(c, id + 1), util::UsageError);
    EXPECT_THROW(log.log_event(c, 0), util::UsageError);
    return 0;
  });
  EXPECT_EQ(log.buffered(0), 1u);
}

TEST(MpeLog, TextTruncatedTo40Bytes) {
  // The paper: optional event text is "limited to 40 bytes".
  util::TempDir dir;
  World w(cfg(1));
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "note", "yellow");
  const std::string long_text(100, 'z');
  w.run([&](Comm& c) {
    log.log_event(c, id, long_text);
    log.finish_log(c, dir.file("t.clog2"));
    return 0;
  });
  const auto file = clog2::read_file(dir.file("t.clog2"));
  bool found = false;
  for (const auto& rec : file.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      EXPECT_EQ(e->text.size(), mpe::kMaxTextBytes);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MpeLog, FinishProducesMergedTimeSortedFile) {
  util::TempDir dir;
  World w(cfg(4));
  mpe::Logger log(w, fast_opts());
  const int start = log.get_event_number();
  const int end = log.get_event_number();
  log.define_state(start, end, "Work", "gray");

  w.run([&](Comm& c) {
    for (int i = 0; i < 10; ++i) {
      log.log_event(c, start);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      log.log_event(c, end);
    }
    log.finish_log(c, dir.file("merged.clog2"));
    return 0;
  });

  const auto file = clog2::read_file(dir.file("merged.clog2"));
  EXPECT_EQ(file.nranks, 4);
  EXPECT_EQ(file.count<clog2::EventRec>(), 4u * 10 * 2);
  EXPECT_EQ(file.count<clog2::StateDef>(), 1u);

  // Events must be globally sorted by timestamp after the merge.
  double prev = -1.0;
  for (const auto& rec : file.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      EXPECT_GE(e->timestamp, prev);
      prev = e->timestamp;
    }
  }
}

TEST(MpeLog, BufferedCountsPerRank) {
  World w(cfg(2));
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "e", "yellow");
  w.run([&](Comm& c) {
    for (int i = 0; i <= c.rank(); ++i) log.log_event(c, id);
    return 0;
  });
  EXPECT_EQ(log.buffered(0), 1u);
  EXPECT_EQ(log.buffered(1), 2u);
}

TEST(MpeLog, SendReceiveRecorded) {
  util::TempDir dir;
  World w(cfg(2));
  mpe::Logger log(w, fast_opts());
  w.run([&](Comm& c) {
    if (c.rank() == 0) {
      int v = 1;
      log.log_send(c, 1, 42, sizeof v);
      c.send(1, 42, &v, sizeof v);
    } else {
      int v = 0;
      c.recv(0, 42, &v, sizeof v);
      log.log_receive(c, 0, 42, sizeof v);
    }
    log.finish_log(c, dir.file("msg.clog2"));
    return 0;
  });
  const auto file = clog2::read_file(dir.file("msg.clog2"));
  ASSERT_EQ(file.count<clog2::MsgRec>(), 2u);
  int sends = 0, recvs = 0;
  for (const auto& rec : file.records) {
    if (const auto* m = std::get_if<clog2::MsgRec>(&rec)) {
      if (m->kind == clog2::MsgRec::Kind::kSend) {
        ++sends;
        EXPECT_EQ(m->rank, 0);
        EXPECT_EQ(m->partner, 1);
      } else {
        ++recvs;
        EXPECT_EQ(m->rank, 1);
        EXPECT_EQ(m->partner, 0);
      }
      EXPECT_EQ(m->tag, 42);
      EXPECT_EQ(m->size, sizeof(int));
    }
  }
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(recvs, 1);
}

TEST(MpeLog, WrapUpTimeOnRankZeroOnly) {
  util::TempDir dir;
  World::Config c = cfg(3);
  World w(c);
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "e", "yellow");
  std::array<double, 3> wrap{};
  w.run([&](Comm& comm) {
    log.log_event(comm, id);
    wrap[static_cast<std::size_t>(comm.rank())] =
        log.finish_log(comm, dir.file("w.clog2"));
    return 0;
  });
  EXPECT_GE(wrap[0], 0.0);
  EXPECT_EQ(wrap[1], 0.0);
  EXPECT_EQ(wrap[2], 0.0);
  EXPECT_TRUE(std::filesystem::exists(dir.file("w.clog2")));
}

// --- clock sync -------------------------------------------------------------

TEST(ClockFit, EmptyIsIdentity) {
  const auto fit = mpe::fit_clock({});
  EXPECT_DOUBLE_EQ(fit.apply(5.0), 5.0);
}

TEST(ClockFit, SingleSampleIsOffset) {
  const auto fit = mpe::fit_clock({clog2::SyncRec{1, 10.0, 9.5}});
  EXPECT_NEAR(fit.apply(10.0), 9.5, 1e-12);
  EXPECT_NEAR(fit.apply(20.0), 19.5, 1e-12);
}

TEST(ClockFit, TwoSamplesFitLine) {
  // local = ref * 1.001 + 0.5  =>  ref = (local - 0.5) / 1.001
  std::vector<clog2::SyncRec> samples;
  for (double ref : {0.0, 100.0}) {
    samples.push_back(clog2::SyncRec{1, ref * 1.001 + 0.5, ref});
  }
  const auto fit = mpe::fit_clock(samples);
  EXPECT_NEAR(fit.apply(50.0 * 1.001 + 0.5), 50.0, 1e-9);
}

TEST(ClockFit, DegenerateSamplesFallBack) {
  // Identical local times: slope is undefined; must not blow up.
  std::vector<clog2::SyncRec> samples = {clog2::SyncRec{1, 10.0, 9.0},
                                         clog2::SyncRec{1, 10.0, 9.2}};
  const auto fit = mpe::fit_clock(samples);
  EXPECT_TRUE(std::isfinite(fit.apply(10.0)));
}

TEST(MpeSync, CorrectsInjectedOffsets) {
  // Ranks get large injected clock offsets; events logged at the same true
  // moment (right after a barrier) must land at nearly equal corrected
  // timestamps in the merged file.
  util::TempDir dir;
  World::Config c = cfg(4);
  c.clock_max_offset = 0.5;  // huge: half a second
  c.seed = 1234;
  World w(c);
  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "mark", "yellow");

  w.run([&](Comm& comm) {
    log.log_sync_clocks(comm);
    comm.barrier();
    log.log_event(comm, id);  // all ranks: same true instant (± scheduling)
    comm.barrier();
    log.log_sync_clocks(comm);
    log.finish_log(comm, dir.file("sync.clog2"));
    return 0;
  });

  const auto file = clog2::read_file(dir.file("sync.clog2"));
  std::vector<double> stamps;
  for (const auto& rec : file.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      stamps.push_back(e->timestamp);
    }
  }
  ASSERT_EQ(stamps.size(), 4u);
  const double spread =
      *std::max_element(stamps.begin(), stamps.end()) -
      *std::min_element(stamps.begin(), stamps.end());
  // Without correction the spread would be ~0.5 s; corrected it should be
  // bounded by scheduling noise (generous bound for loaded CI machines).
  EXPECT_LT(spread, 0.05);
}

TEST(MpeSync, WithoutSyncOffsetsRemainVisible) {
  // Negative control: skip log_sync_clocks and the drift shows through.
  util::TempDir dir;
  World::Config c = cfg(2);
  c.clock_max_offset = 0.5;
  c.seed = 77;
  World w(c);
  const double injected = w.clock().offset(1);
  ASSERT_GT(std::abs(injected), 0.01);

  mpe::Logger log(w, fast_opts());
  const int id = log.get_event_number();
  log.define_event(id, "mark", "yellow");
  w.run([&](Comm& comm) {
    comm.barrier();
    log.log_event(comm, id);
    log.finish_log(comm, dir.file("nosync.clog2"));
    return 0;
  });

  const auto file = clog2::read_file(dir.file("nosync.clog2"));
  std::vector<double> stamps;
  for (const auto& rec : file.records) {
    if (const auto* e = std::get_if<clog2::EventRec>(&rec)) {
      stamps.push_back(e->timestamp);
    }
  }
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_GT(std::abs(stamps[1] - stamps[0]), std::abs(injected) * 0.5);
}

}  // namespace
