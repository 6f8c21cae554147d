#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpisim/world.hpp"

namespace {

using mpisim::Comm;
using mpisim::Datatype;
using mpisim::Op;
using mpisim::World;

World::Config cfg(int n) {
  World::Config c;
  c.nprocs = n;
  c.time_scale = 0.0;
  c.watchdog_seconds = 20.0;
  return c;
}

// Parameterized over world size: collectives must work for 1..8 ranks.
class CollectivesBySize : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesBySize, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(CollectivesBySize, Bcast) {
  const int n = GetParam();
  World w(cfg(n));
  w.run([](Comm& c) {
    std::vector<int> data(16, -1);
    if (c.rank() == 0)
      for (int i = 0; i < 16; ++i) data[static_cast<std::size_t>(i)] = i * i;
    c.bcast(0, data.data(), data.size() * sizeof(int));
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(data[static_cast<std::size_t>(i)], i * i);
    }
    return 0;
  });
}

TEST_P(CollectivesBySize, Gather) {
  const int n = GetParam();
  World w(cfg(n));
  w.run([n](Comm& c) {
    const int mine = c.rank() + 1000;
    std::vector<int> all(static_cast<std::size_t>(n), -1);
    c.gather(0, &mine, sizeof mine, all.data());
    if (c.rank() == 0) {
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 1000);
      }
    }
    return 0;
  });
}

TEST_P(CollectivesBySize, Scatter) {
  const int n = GetParam();
  World w(cfg(n));
  w.run([n](Comm& c) {
    std::vector<int> src;
    if (c.rank() == 0) {
      src.resize(static_cast<std::size_t>(n));
      std::iota(src.begin(), src.end(), 500);
    }
    int mine = -1;
    c.scatter(0, src.data(), sizeof mine, &mine);
    EXPECT_EQ(mine, 500 + c.rank());
    return 0;
  });
}

TEST_P(CollectivesBySize, ReduceSumInt) {
  const int n = GetParam();
  World w(cfg(n));
  w.run([n](Comm& c) {
    const int mine = c.rank() + 1;
    int total = 0;
    c.reduce(0, Op::kSum, Datatype::kInt, &mine, &total, 1);
    if (c.rank() == 0) {
      EXPECT_EQ(total, n * (n + 1) / 2);
    }
    return 0;
  });
}

TEST_P(CollectivesBySize, AllreduceMaxDouble) {
  const int n = GetParam();
  World w(cfg(n));
  w.run([n](Comm& c) {
    const double mine = static_cast<double>(c.rank());
    double top = -1;
    c.allreduce(Op::kMax, Datatype::kDouble, &mine, &top, 1);
    EXPECT_DOUBLE_EQ(top, static_cast<double>(n - 1));
    return 0;
  });
}

TEST_P(CollectivesBySize, Barrier) {
  const int n = GetParam();
  World w(cfg(n));
  w.run([](Comm& c) {
    for (int round = 0; round < 5; ++round) c.barrier();
    return 0;
  });
}

TEST(Collectives, ReduceVectorElementwise) {
  World w(cfg(4));
  w.run([](Comm& c) {
    std::vector<long> mine(8);
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = static_cast<long>(i) * (c.rank() + 1);
    std::vector<long> out(8, 0);
    c.reduce(0, Op::kSum, Datatype::kLong, mine.data(), out.data(), mine.size());
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<long>(i) * (1 + 2 + 3 + 4));
      }
    }
    return 0;
  });
}

TEST(Collectives, ReduceMinMaxProd) {
  World w(cfg(3));
  w.run([](Comm& c) {
    const int mine = c.rank() + 2;  // 2, 3, 4
    int mn = 0, mx = 0, pr = 0;
    c.reduce(0, Op::kMin, Datatype::kInt, &mine, &mn, 1);
    c.reduce(0, Op::kMax, Datatype::kInt, &mine, &mx, 1);
    c.reduce(0, Op::kProd, Datatype::kInt, &mine, &pr, 1);
    if (c.rank() == 0) {
      EXPECT_EQ(mn, 2);
      EXPECT_EQ(mx, 4);
      EXPECT_EQ(pr, 24);
    }
    return 0;
  });
}

TEST(Collectives, BitwiseOpsOnIntegers) {
  World w(cfg(3));
  w.run([](Comm& c) {
    const unsigned mine = 1u << c.rank();
    unsigned ored = 0;
    c.reduce(0, Op::kBor, Datatype::kUnsigned, &mine, &ored, 1);
    if (c.rank() == 0) {
      EXPECT_EQ(ored, 0b111u);
    }
    return 0;
  });
}

TEST(Collectives, LogicalOpsRejectedOnFloats) {
  double a = 1.0;
  double b = 0.0;
  EXPECT_THROW(mpisim::reduce_apply(Op::kLand, Datatype::kDouble, &a, &b, 1),
               util::UsageError);
}

TEST(Collectives, RootsOtherThanZero) {
  World w(cfg(4));
  w.run([](Comm& c) {
    int v = c.rank() == 2 ? 99 : 0;
    c.bcast(2, &v, sizeof v);
    EXPECT_EQ(v, 99);

    const int mine = c.rank();
    int sum = -1;
    c.reduce(3, Op::kSum, Datatype::kInt, &mine, &sum, 1);
    if (c.rank() == 3) {
      EXPECT_EQ(sum, 0 + 1 + 2 + 3);
    }
    return 0;
  });
}

TEST(Collectives, InterleavedWithP2P) {
  // Collective traffic must never match user receives (reserved tags).
  World w(cfg(3));
  w.run([](Comm& c) {
    if (c.rank() == 0) {
      int v = 7;
      c.send(1, 0, &v, sizeof v);  // user tag 0
    }
    int b = c.rank() == 0 ? 123 : 0;
    c.bcast(0, &b, sizeof b);
    EXPECT_EQ(b, 123);
    if (c.rank() == 1) {
      int v = 0;
      c.recv(0, 0, &v, sizeof v);
      EXPECT_EQ(v, 7);
    }
    return 0;
  });
}

TEST(Collectives, DatatypeSizes) {
  EXPECT_EQ(mpisim::datatype_size(Datatype::kByte), 1u);
  EXPECT_EQ(mpisim::datatype_size(Datatype::kInt), sizeof(int));
  EXPECT_EQ(mpisim::datatype_size(Datatype::kDouble), sizeof(double));
  EXPECT_EQ(mpisim::datatype_size(Datatype::kLongLong), sizeof(long long));
}

}  // namespace
