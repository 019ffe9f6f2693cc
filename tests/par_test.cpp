// Tests for the SPMD runtime: partitioning, barriers, blocking and
// non-blocking allreduce, RMA windows, determinism, error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/par/comm.hpp"

namespace pipescg::par {
namespace {

TEST(BlockRangeTest, CoversEverythingExactlyOnce) {
  for (std::size_t n : {0ul, 1ul, 7ul, 100ul, 101ul}) {
    for (int p : {1, 2, 3, 8}) {
      std::size_t total = 0;
      std::size_t expected_begin = 0;
      for (int r = 0; r < p; ++r) {
        const RankRange range = block_range(n, r, p);
        EXPECT_EQ(range.begin, expected_begin);
        expected_begin = range.end;
        total += range.size();
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(BlockRangeTest, BalancedWithinOne) {
  for (int r = 0; r < 5; ++r) {
    const RankRange range = block_range(13, r, 5);
    EXPECT_GE(range.size(), 2u);
    EXPECT_LE(range.size(), 3u);
  }
}

TEST(BlockRangeTest, InvalidArgsThrow) {
  EXPECT_THROW(block_range(10, -1, 4), Error);
  EXPECT_THROW(block_range(10, 4, 4), Error);
  EXPECT_THROW(block_range(10, 0, 0), Error);
}

class TeamSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(TeamSizeTest, AllRanksRunExactlyOnce) {
  const int p = GetParam();
  std::vector<std::atomic<int>> counts(static_cast<std::size_t>(p));
  Team::run(p, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), p);
    counts[static_cast<std::size_t>(comm.rank())].fetch_add(1);
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST_P(TeamSizeTest, BlockingAllreduceSums) {
  const int p = GetParam();
  Team::run(p, [&](Comm& comm) {
    const double mine[2] = {static_cast<double>(comm.rank() + 1), 1.0};
    double out[2];
    comm.allreduce_sum(mine, out);
    EXPECT_DOUBLE_EQ(out[0], p * (p + 1) / 2.0);
    EXPECT_DOUBLE_EQ(out[1], static_cast<double>(p));
  });
}

TEST_P(TeamSizeTest, NonBlockingAllreduceOverlapsCompute) {
  const int p = GetParam();
  Team::run(p, [&](Comm& comm) {
    const double mine = 2.0;
    AllreduceRequest req = comm.iallreduce_sum(std::span(&mine, 1));
    // Useful work between post and wait; buffer reuse is legal after post.
    double local_work = 0.0;
    for (int i = 0; i < 1000; ++i) local_work += std::sqrt(i + comm.rank());
    EXPECT_GT(local_work, 0.0);
    double out = 0.0;
    comm.wait(req, std::span(&out, 1));
    EXPECT_DOUBLE_EQ(out, 2.0 * p);
  });
}

TEST_P(TeamSizeTest, ManySequentialAllreducesExerciseSlotRecycling) {
  const int p = GetParam();
  Team::run(p, [&](Comm& comm) {
    for (int round = 0; round < 50; ++round) {
      const double mine = static_cast<double>(round);
      double out = 0.0;
      comm.allreduce_sum(std::span(&mine, 1), std::span(&out, 1));
      ASSERT_DOUBLE_EQ(out, static_cast<double>(round) * p);
    }
  });
}

TEST_P(TeamSizeTest, MultipleInflightAllreduces) {
  const int p = GetParam();
  Team::run(p, [&](Comm& comm) {
    AllreduceRequest reqs[4];
    for (int i = 0; i < 4; ++i) {
      const double v = static_cast<double>(i + 1);
      reqs[i] = comm.iallreduce_sum(std::span(&v, 1));
    }
    for (int i = 3; i >= 0; --i) {  // out-of-order waits are fine
      double out = 0.0;
      comm.wait(reqs[i], std::span(&out, 1));
      EXPECT_DOUBLE_EQ(out, (i + 1.0) * p);
    }
  });
}

TEST_P(TeamSizeTest, RmaWindowsReadPeerData) {
  const int p = GetParam();
  Team::run(p, [&](Comm& comm) {
    std::vector<double> window(4);
    for (int i = 0; i < 4; ++i)
      window[static_cast<std::size_t>(i)] = comm.rank() * 10.0 + i;
    comm.expose(window);
    const int peer = (comm.rank() + 1) % p;
    double got[2];
    comm.peer_read(peer, 1, got);
    EXPECT_DOUBLE_EQ(got[0], peer * 10.0 + 1);
    EXPECT_DOUBLE_EQ(got[1], peer * 10.0 + 2);
    comm.close_epoch();
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, TeamSizeTest, ::testing::Values(1, 2, 3, 4, 7));

TEST(TeamTest, DeterministicReductionAcrossRuns) {
  // Sum of values whose floating-point sum is order-dependent; the fixed
  // tree order must give bit-identical results on every run.
  const int p = 4;
  double first = 0.0;
  for (int run = 0; run < 5; ++run) {
    double result = 0.0;
    Team::run(p, [&](Comm& comm) {
      const double mine = 1.0 / (1.0 + comm.rank() * 0.3333333333);
      double out = 0.0;
      comm.allreduce_sum(std::span(&mine, 1), std::span(&out, 1));
      if (comm.rank() == 0) result = out;
    });
    if (run == 0) {
      first = result;
    } else {
      EXPECT_EQ(result, first);  // bitwise
    }
  }
}

TEST(TeamTest, ExceptionInRankPropagates) {
  EXPECT_THROW(
      Team::run(3,
                [](Comm& comm) {
                  if (comm.rank() == 1) throw Error("rank 1 exploded");
                  // Other ranks must not deadlock; they do local work only.
                }),
      Error);
}

TEST(TeamTest, PayloadTooLargeThrows) {
  Team::run(1, [](Comm& comm) {
    std::vector<double> big(Team::kMaxPayload + 1, 1.0);
    std::vector<double> out(big.size());
    EXPECT_THROW(comm.allreduce_sum(big, out), Error);
  });
}

TEST(TeamTest, ZeroRanksRejected) {
  EXPECT_THROW(Team::run(0, [](Comm&) {}), Error);
}

TEST(TeamTest, AllreducePayloadMismatchThrows) {
  // Ranks disagreeing on the payload count of a collective is an ordering
  // contract violation: the violator must fail loudly at post time (and the
  // innocent peer's wait is bounded by the watchdog, not a hang).
  const ScopedWatchdog watchdog(500.0);
  EXPECT_THROW(
      Team::run(2,
                [](Comm& comm) {
                  std::vector<double> in(comm.rank() == 0 ? 2u : 3u, 1.0);
                  std::vector<double> out(4, 0.0);
                  comm.allreduce_sum(in, out);
                }),
      Error);
}

TEST(WatchdogTest, BarrierTimesOutWhenPeerNeverArrives) {
  const ScopedWatchdog watchdog(300.0);
  EXPECT_THROW(
      Team::run(3,
                [](Comm& comm) {
                  if (comm.rank() == 2) return;  // dead rank never arrives
                  comm.barrier();
                }),
      CommTimeout);
}

TEST(WatchdogTest, AllreduceWaitTimesOutWhenPeerNeverPosts) {
  const ScopedWatchdog watchdog(300.0);
  EXPECT_THROW(
      Team::run(2,
                [](Comm& comm) {
                  if (comm.rank() == 1) return;
                  const double v = 1.0;
                  double out = 0.0;
                  comm.allreduce_sum(std::span<const double>(&v, 1),
                                     std::span<double>(&out, 1));
                }),
      CommTimeout);
}

TEST(WatchdogTest, TimeoutCarriesRankAndStateDump) {
  const ScopedWatchdog watchdog(250.0);
  try {
    Team::run(2, [](Comm& comm) {
      if (comm.rank() == 1) return;
      comm.barrier();
    });
    FAIL() << "expected CommTimeout";
  } catch (const CommTimeout& e) {
    EXPECT_EQ(e.rank(), 0);
    const std::string what = e.what();
    EXPECT_NE(what.find("barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
  }
}

TEST(WatchdogTest, TimeoutDumpsTheInstalledRecorder) {
  const ScopedWatchdog watchdog(250.0);
  // Capacity 1: the dump counts every recorded span, evicted ones included.
  obs::SolveProfile profile(2, /*capacity=*/1);
  try {
    Team::run(2, [&](Comm& comm) {
      obs::Profiler& prof = profile.rank(comm.rank());
      const obs::Profiler::Install install(&prof);
      const double v = 1.0;
      double out = 0.0;
      // Records an allreduce_post and an allreduce_wait_blocking span.
      comm.allreduce_sum(std::span<const double>(&v, 1),
                         std::span<double>(&out, 1));
      prof.counters().iterations = 7;
      if (comm.rank() == 1) return;
      comm.barrier();
    });
    FAIL() << "expected CommTimeout";
  } catch (const CommTimeout& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("iterations=7"), std::string::npos) << what;
    EXPECT_NE(what.find("spans=2"), std::string::npos) << what;
    EXPECT_NE(what.find("last=allreduce_wait_blocking"), std::string::npos)
        << what;
  }
}

TEST(WatchdogTest, ScopedOverrideRestores) {
  const double before = comm_watchdog_ms();
  {
    const ScopedWatchdog watchdog(123.0);
    EXPECT_EQ(comm_watchdog_ms(), 123.0);
  }
  EXPECT_EQ(comm_watchdog_ms(), before);
}

}  // namespace
}  // namespace pipescg::par
