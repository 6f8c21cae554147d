#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "mpisim/world.hpp"
#include "util/prng.hpp"

namespace {

using mpisim::Comm;
using mpisim::World;

World::Config cfg(int n) {
  World::Config c;
  c.nprocs = n;
  c.time_scale = 0.0;  // compute costs are free in unit tests
  c.watchdog_seconds = 20.0;
  return c;
}

TEST(P2P, SimpleSendRecv) {
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int v = 42;
      c.send(1, 7, &v, sizeof v);
    } else {
      int v = 0;
      const auto st = c.recv(0, 7, &v, sizeof v);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count, sizeof(int));
    }
    return 0;
  });
  EXPECT_EQ(w.messages_delivered(), 1u);
}

TEST(P2P, NonOvertakingPerTag) {
  // Messages with the same (src, dst, tag) must arrive in send order.
  World w(cfg(2));
  w.run([](Comm& c) {
    constexpr int kN = 200;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send(1, 3, &i, sizeof i);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        c.recv(0, 3, &v, sizeof v);
        EXPECT_EQ(v, i);
      }
    }
    return 0;
  });
}

TEST(P2P, TagSelectivityOutOfOrder) {
  // A receive for tag B must skip an earlier message with tag A.
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int a = 1, b = 2;
      c.send(1, 10, &a, sizeof a);
      c.send(1, 20, &b, sizeof b);
    } else {
      int v = 0;
      c.recv(0, 20, &v, sizeof v);
      EXPECT_EQ(v, 2);
      c.recv(0, 10, &v, sizeof v);
      EXPECT_EQ(v, 1);
    }
    return 0;
  });
}

TEST(P2P, AnySourceReceivesFromEveryone) {
  static constexpr int kRanks = 6;
  World w(cfg(kRanks));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<bool> seen(kRanks, false);
      for (int i = 1; i < kRanks; ++i) {
        int v = 0;
        const auto st = c.recv(mpisim::kAnySource, 5, &v, sizeof v);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_FALSE(seen[static_cast<std::size_t>(st.source)]);
        seen[static_cast<std::size_t>(st.source)] = true;
      }
    } else {
      int v = c.rank() * 100;
      c.send(0, 5, &v, sizeof v);
    }
    return 0;
  });
}

TEST(P2P, AnyTag) {
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int v = 9;
      c.send(1, 77, &v, sizeof v);
    } else {
      int v = 0;
      const auto st = c.recv(0, mpisim::kAnyTag, &v, sizeof v);
      EXPECT_EQ(st.tag, 77);
      EXPECT_EQ(v, 9);
    }
    return 0;
  });
}

TEST(P2P, ZeroLengthMessage) {
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, nullptr, 0);
    } else {
      const auto st = c.recv(0, 1, nullptr, 0);
      EXPECT_EQ(st.count, 0u);
    }
    return 0;
  });
}

TEST(P2P, OversizedMessageThrows) {
  World w(cfg(2));
  EXPECT_THROW(
      w.run([](Comm& c) {
        if (c.rank() == 0) {
          std::int64_t v = 1;
          c.send(1, 1, &v, sizeof v);
        } else {
          std::int8_t small = 0;
          c.recv(0, 1, &small, sizeof small);
        }
        return 0;
      }),
      util::UsageError);
}

TEST(P2P, RecvAnySize) {
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> xs(137, 2.5);
      c.send(1, 4, xs.data(), xs.size() * sizeof(double));
    } else {
      auto [st, payload] = c.recv_any_size(0, 4);
      EXPECT_EQ(payload.size(), 137 * sizeof(double));
      double x;
      std::memcpy(&x, payload.data(), sizeof x);
      EXPECT_DOUBLE_EQ(x, 2.5);
    }
    return 0;
  });
}

TEST(P2P, ProbeThenRecv) {
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> xs(50);
      std::iota(xs.begin(), xs.end(), 0);
      c.send(1, 8, xs.data(), xs.size() * sizeof(int));
    } else {
      const auto st = c.probe(0, 8);
      EXPECT_EQ(st.count, 50 * sizeof(int));
      std::vector<int> xs(st.count / sizeof(int));
      c.recv(0, 8, xs.data(), st.count);
      EXPECT_EQ(xs[49], 49);
    }
    return 0;
  });
}

TEST(P2P, IprobeNonBlocking) {
  World w(cfg(2));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      // Nothing queued yet: iprobe must return nullopt, not block.
      EXPECT_FALSE(c.iprobe(1, 9).has_value());
      int v = 5;
      c.send(1, 9, &v, sizeof v);
    } else {
      // Wait until the message is visible, then iprobe sees it.
      (void)c.probe(0, 9);
      const auto st = c.iprobe(0, 9);
      EXPECT_TRUE(st.has_value());
      if (st) {
        EXPECT_EQ(st->count, sizeof(int));
      }
      int v = 0;
      c.recv(0, 9, &v, sizeof v);
      EXPECT_EQ(v, 5);
    }
    return 0;
  });
}

TEST(P2P, SendToSelf) {
  World w(cfg(1));
  w.run([](Comm& c) {
    int v = 11;
    c.send(0, 2, &v, sizeof v);
    int got = 0;
    c.recv(0, 2, &got, sizeof got);
    EXPECT_EQ(got, 11);
    return 0;
  });
}

TEST(P2P, InvalidDestinationThrows) {
  World w(cfg(2));
  EXPECT_THROW(
      w.run([](Comm& c) {
        if (c.rank() == 0) {
          int v = 0;
          c.send(5, 1, &v, sizeof v);
        }
        return 0;
      }),
      util::UsageError);
}

TEST(P2P, ManyToOneStress) {
  static constexpr int kRanks = 8;
  static constexpr int kPerRank = 300;
  World w(cfg(kRanks));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      std::map<int, int> counts;
      long long sum = 0;
      for (int i = 0; i < (kRanks - 1) * kPerRank; ++i) {
        int v = 0;
        const auto st = c.recv(mpisim::kAnySource, mpisim::kAnyTag, &v, sizeof v);
        counts[st.source]++;
        sum += v;
      }
      for (int r = 1; r < kRanks; ++r) EXPECT_EQ(counts[r], kPerRank);
      // Each rank sends 0..kPerRank-1.
      EXPECT_EQ(sum, static_cast<long long>(kRanks - 1) * kPerRank * (kPerRank - 1) / 2);
    } else {
      for (int i = 0; i < kPerRank; ++i) c.send(0, c.rank(), &i, sizeof i);
    }
    return 0;
  });
  EXPECT_EQ(w.messages_delivered(), static_cast<std::uint64_t>((kRanks - 1) * kPerRank));
}

TEST(P2P, MessageLatencyGivesArrowsDuration) {
  World::Config c = cfg(2);
  c.msg_latency = 0.02;  // 20 ms wall
  World w(c);
  w.run([](Comm& comm) {
    if (comm.rank() == 0) {
      int ready = 0;
      comm.recv(1, 2, &ready, sizeof ready);
      int v = 1;
      comm.send(1, 1, &v, sizeof v);
    } else {
      // Handshake first so the timed send happens causally after t0 — without
      // it, this thread starting >latency after rank 0's send measures ~0.
      const double t0 = comm.true_time();
      int ready = 7;
      comm.send(0, 2, &ready, sizeof ready);
      int v = 0;
      comm.recv(0, 1, &v, sizeof v);
      const double dt = comm.true_time() - t0;
      EXPECT_GE(dt, 0.015);  // received no earlier than the latency model allows
    }
    return 0;
  });
}

TEST(P2P, ExitCodesReported) {
  World w(cfg(3));
  const auto result = w.run([](Comm& c) { return c.rank() * 10; });
  ASSERT_EQ(result.exit_codes.size(), 3u);
  EXPECT_EQ(result.exit_codes[0], 0);
  EXPECT_EQ(result.exit_codes[1], 10);
  EXPECT_EQ(result.exit_codes[2], 20);
  EXPECT_FALSE(result.aborted);
}

TEST(P2P, WorldRunsOnlyOnce) {
  World w(cfg(1));
  w.run([](Comm&) { return 0; });
  EXPECT_THROW(w.run([](Comm&) { return 0; }), util::UsageError);
}

TEST(P2P, CurrentCommVisibleInsideRankThread) {
  World w(cfg(2));
  w.run([](Comm& c) {
    EXPECT_EQ(World::current(), &c);
    return 0;
  });
  EXPECT_EQ(World::current(), nullptr);
}

}  // namespace
