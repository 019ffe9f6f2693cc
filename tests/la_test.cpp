// Unit tests for the small dense linear algebra used by the s-step scalar
// work and the multigrid coarse solver.
#include <gtest/gtest.h>

#include <cmath>

#include "pipescg/base/rng.hpp"
#include "pipescg/la/cholesky.hpp"
#include "pipescg/la/dense_matrix.hpp"
#include "pipescg/la/lu.hpp"
#include "pipescg/la/tridiagonal.hpp"

namespace pipescg::la {
namespace {

DenseMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

DenseMatrix random_spd(std::size_t n, std::uint64_t seed) {
  const DenseMatrix b = random_matrix(n, seed);
  DenseMatrix spd = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(DenseMatrixTest, IdentityAndMultiply) {
  const DenseMatrix eye = DenseMatrix::identity(4);
  const DenseMatrix a = random_matrix(4, 1);
  EXPECT_LT(DenseMatrix::max_abs_diff(a * eye, a), 1e-15);
  EXPECT_LT(DenseMatrix::max_abs_diff(eye * a, a), 1e-15);
}

TEST(DenseMatrixTest, MultiplyMatchesManual) {
  const DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const DenseMatrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const DenseMatrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(DenseMatrixTest, ShapeMismatchThrows) {
  const DenseMatrix a(2, 3);
  const DenseMatrix b(2, 3);
  EXPECT_THROW(a * b, Error);
  DenseMatrix c(3, 3);
  EXPECT_THROW(c.add_scaled(a, 1.0), Error);
}

TEST(DenseMatrixTest, TransposeInvolution) {
  const DenseMatrix a = random_matrix(5, 2);
  EXPECT_LT(DenseMatrix::max_abs_diff(a.transposed().transposed(), a), 1e-15);
}

TEST(DenseMatrixTest, ApplyMatchesMultiply) {
  const DenseMatrix a = random_matrix(6, 3);
  std::vector<double> x(6);
  Rng rng(4);
  for (auto& v : x) v = rng.uniform(-2, 2);
  const std::vector<double> y = a.apply(x);
  for (std::size_t i = 0; i < 6; ++i) {
    double acc = 0;
    for (std::size_t j = 0; j < 6; ++j) acc += a(i, j) * x[j];
    EXPECT_NEAR(y[i], acc, 1e-14);
  }
}

TEST(DenseMatrixTest, SymmetrizeMakesSymmetric) {
  DenseMatrix a = random_matrix(5, 7);
  a.symmetrize();
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(a(i, j), a(j, i));
}

class LuSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(LuSizeTest, SolvesRandomSystems) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  const DenseMatrix a = random_spd(n, 100 + n);
  Rng rng(5);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  const std::vector<double> b = a.apply(x_true);
  const std::vector<double> x = lu_solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizeTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

TEST(LuTest, RequiresPivoting) {
  // Zero leading pivot forces a row swap.
  const DenseMatrix a(2, 2, {0, 1, 1, 0});
  const std::vector<double> x = lu_solve(a, {3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

TEST(LuTest, SingularThrows) {
  const DenseMatrix a(2, 2, {1, 2, 2, 4});
  EXPECT_THROW(LuFactorization{a}, Error);
}

TEST(LuTest, MatrixRhsSolve) {
  const DenseMatrix a = random_spd(4, 9);
  const DenseMatrix x_true = random_matrix(4, 10);
  const DenseMatrix b = a * x_true;
  const DenseMatrix x = LuFactorization(a).solve(b);
  EXPECT_LT(DenseMatrix::max_abs_diff(x, x_true), 1e-9);
}

TEST(CholeskyTest, SolvesSpdSystems) {
  const DenseMatrix a = random_spd(12, 21);
  Rng rng(6);
  std::vector<double> x_true(12);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  const std::vector<double> b = a.apply(x_true);
  const std::vector<double> x = CholeskyFactorization(a).solve(b);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(CholeskyTest, FactorReproducesMatrix) {
  const DenseMatrix a = random_spd(6, 33);
  const CholeskyFactorization chol(a);
  const DenseMatrix l = chol.lower();
  EXPECT_LT(DenseMatrix::max_abs_diff(l * l.transposed(), a), 1e-9);
}

TEST(CholeskyTest, RejectsIndefinite) {
  DenseMatrix a = DenseMatrix::identity(3);
  a(1, 1) = -1.0;
  EXPECT_THROW(CholeskyFactorization{a}, Error);
}

TEST(CholeskyTest, IsSpdPredicate) {
  EXPECT_TRUE(is_spd(random_spd(5, 3)));
  DenseMatrix asym = random_spd(5, 3);
  asym(0, 1) += 1.0;  // break symmetry
  EXPECT_FALSE(is_spd(asym));
  DenseMatrix indef = DenseMatrix::identity(4);
  indef(2, 2) = -4.0;
  EXPECT_FALSE(is_spd(indef));
}

TEST(CholeskyTest, ThrowsTypedNotSpdErrorWithPivotLocation) {
  DenseMatrix a = DenseMatrix::identity(3);
  a(1, 1) = -1.0;
  try {
    CholeskyFactorization chol(a);
    FAIL() << "expected NotSpdError";
  } catch (const NotSpdError& e) {
    EXPECT_EQ(e.pivot(), 1u);
    EXPECT_LT(e.pivot_value(), 0.0);
  }
}

TEST(CholeskyTest, TryFactorSoftFailsInsteadOfThrowing) {
  // SPD input: a factorization that solves.
  const DenseMatrix a = random_spd(8, 77);
  const auto chol = CholeskyFactorization::try_factor(a);
  ASSERT_TRUE(chol.has_value());
  Rng rng(5);
  std::vector<double> x_true(8);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  const std::vector<double> x = chol->solve(a.apply(x_true));
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);

  // Indefinite input: nullopt, no exception, no NaNs escaping.
  DenseMatrix indef = DenseMatrix::identity(4);
  indef(2, 2) = -4.0;
  EXPECT_FALSE(CholeskyFactorization::try_factor(indef).has_value());
}

TEST(CholeskyTest, TryFactorRelativePivotThresholdDetectsNearSingular) {
  // A Gram matrix whose columns have nearly collapsed: the trailing pivot
  // is ~1e-16 of the leading diagonal.  A plain factorization would accept
  // it (the pivot is still positive); the relative threshold rejects it.
  DenseMatrix g = DenseMatrix::identity(3);
  g(0, 0) = 1.0;
  g(1, 1) = 1.0;
  g(2, 2) = 1e-16;
  EXPECT_TRUE(CholeskyFactorization::try_factor(g).has_value());
  EXPECT_FALSE(CholeskyFactorization::try_factor(g, 1e-13).has_value());
  // Non-finite entries are a hard reject at any threshold.
  g(2, 2) = std::nan("");
  EXPECT_FALSE(CholeskyFactorization::try_factor(g).has_value());
}

TEST(TridiagonalTest, SturmCountsEigenvaluesBelowX) {
  // T = tridiag(-1, 2, -1), n = 4: eigenvalues 2 - 2 cos(k pi / 5).
  const std::vector<double> diag(4, 2.0), off(3, -1.0);
  EXPECT_EQ(tridiagonal_sturm_count(diag, off, 0.0), 0u);
  EXPECT_EQ(tridiagonal_sturm_count(diag, off, 1.0), 1u);
  EXPECT_EQ(tridiagonal_sturm_count(diag, off, 2.0), 2u);
  EXPECT_EQ(tridiagonal_sturm_count(diag, off, 5.0), 4u);
}

TEST(TridiagonalTest, ExtremeEigenvaluesMatchAnalytic) {
  const std::size_t n = 20;
  const std::vector<double> diag(n, 2.0), off(n - 1, -1.0);
  const auto [lmin, lmax] = tridiagonal_extreme_eigenvalues(diag, off);
  const double expected_min = 2.0 - 2.0 * std::cos(M_PI / (n + 1.0));
  const double expected_max =
      2.0 - 2.0 * std::cos(n * M_PI / (n + 1.0));
  EXPECT_NEAR(lmin, expected_min, 1e-8);
  EXPECT_NEAR(lmax, expected_max, 1e-8);
}

TEST(TridiagonalTest, DiagonalMatrixEigenvaluesAreDiagonal) {
  const std::vector<double> diag{3.0, -1.0, 7.0};
  const std::vector<double> off{0.0, 0.0};
  const auto [lmin, lmax] = tridiagonal_extreme_eigenvalues(diag, off);
  EXPECT_NEAR(lmin, -1.0, 1e-9);
  EXPECT_NEAR(lmax, 7.0, 1e-9);
}

}  // namespace
}  // namespace pipescg::la
