// Unit tests for base utilities: error handling, CLI parsing, RNG, timer.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "pipescg/base/cli.hpp"
#include "pipescg/base/error.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/base/timer.hpp"

namespace pipescg {
namespace {

TEST(ErrorTest, CheckThrowsWithContext) {
  try {
    PIPESCG_CHECK(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("base_test.cpp"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesSilently) {
  EXPECT_NO_THROW(PIPESCG_CHECK(true, "never"));
}

TEST(ErrorTest, FailAlwaysThrows) {
  EXPECT_THROW(PIPESCG_FAIL("boom"), Error);
}

TEST(CliTest, ParsesOptionsAndFlags) {
  CliParser cli("prog", "test");
  cli.add_option("n", "10", "size");
  cli.add_option("tol", "1e-5", "tolerance");
  cli.add_option("name", "abc", "label");
  cli.add_flag("verbose", "talk");
  const char* argv[] = {"prog", "--n", "42", "--tol=2.5", "--verbose"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.integer("n"), 42);
  EXPECT_DOUBLE_EQ(cli.real("tol"), 2.5);
  EXPECT_EQ(cli.str("name"), "abc");
  EXPECT_TRUE(cli.flag("verbose"));
}

TEST(CliTest, DefaultsApplyWhenAbsent) {
  CliParser cli("prog", "test");
  cli.add_option("n", "7", "size");
  cli.add_flag("quiet", "hush");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.integer("n"), 7);
  EXPECT_FALSE(cli.flag("quiet"));
}

TEST(CliTest, RejectsUnknownOption) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--wat", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(CliTest, RejectsMalformedNumbers) {
  CliParser cli("prog", "test");
  cli.add_option("n", "1", "size");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.integer("n"), Error);
}

TEST(CliTest, MissingValueThrows) {
  CliParser cli("prog", "test");
  cli.add_option("n", "1", "size");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(CliTest, HelpReturnsFalseAndListsOptions) {
  CliParser cli("prog", "does things");
  cli.add_option("n", "1", "the size knob");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.help().find("the size knob"), std::string::npos);
}

TEST(CliTest, DuplicateRegistrationThrows) {
  CliParser cli("prog", "test");
  cli.add_option("n", "1", "size");
  EXPECT_THROW(cli.add_flag("n", "again"), Error);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(RngTest, NextBelowCoversRangeWithoutBias) {
  Rng rng(77);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng rng(4242);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, SplitStreamsAreIndependentAndDeterministic) {
  Rng root(10);
  Rng s1 = root.split(1);
  Rng s2 = root.split(2);
  Rng s1_again = Rng(10).split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const double e = t.seconds();
  EXPECT_GE(e, 0.005);
  EXPECT_LT(e, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.5);
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double total = 0.0;
  {
    ScopedTimer t(total);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_DOUBLE_EQ(total, 0.0);  // only added on destruction
  }
  const double after_first = total;
  EXPECT_GE(after_first, 0.002);
  {
    ScopedTimer t(total);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(total, after_first);  // accumulates across scopes
}

}  // namespace
}  // namespace pipescg
