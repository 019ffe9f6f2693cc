// Tests for the sparse module: COO/CSR, Matrix Market I/O, stencils, the
// 125-point operator, surrogates, SpGEMM, partitioning, distributed SPMV.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "pipescg/base/rng.hpp"
#include "pipescg/la/cholesky.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/sparse/coo_builder.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_market.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/spgemm.hpp"
#include "pipescg/sparse/stencil.hpp"
#include "pipescg/sparse/stencil_operator.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::sparse {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

la::DenseMatrix to_dense_matrix(const CsrMatrix& m) {
  const std::vector<double> d = m.to_dense();
  la::DenseMatrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = d[i * m.cols() + j];
  return out;
}

TEST(CooBuilderTest, SumsDuplicates) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.entry(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.entry(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.entry(1, 1), 0.0);
}

TEST(CooBuilderTest, AddSymmetricMirrors) {
  CooBuilder b(3, 3);
  b.add_symmetric(0, 1, 2.0);
  b.add_symmetric(2, 2, 5.0);  // diagonal not duplicated
  const CsrMatrix m = b.build();
  EXPECT_DOUBLE_EQ(m.entry(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.entry(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.entry(2, 2), 5.0);
  EXPECT_EQ(m.nnz(), 3u);
}

TEST(CooBuilderTest, OutOfRangeThrows) {
  CooBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), Error);
}

TEST(CsrMatrixTest, ValidatesStructure) {
  // row_ptr not ending at nnz
  EXPECT_THROW(CsrMatrix(1, 1, {0, 2}, {0}, {1.0}), Error);
  // unsorted columns
  EXPECT_THROW(CsrMatrix(1, 2, {0, 2}, {1, 0}, {1.0, 2.0}), Error);
  // column out of range
  EXPECT_THROW(CsrMatrix(1, 1, {0, 1}, {1}, {1.0}), Error);
}

TEST(CsrMatrixTest, SpmvMatchesDense) {
  const CsrMatrix m = make_thermal2_like(9, 7);
  const std::vector<double> x = random_vector(m.rows(), 3);
  std::vector<double> y(m.rows());
  m.apply(x, y);
  const la::DenseMatrix d = to_dense_matrix(m);
  const std::vector<double> y_ref = d.apply(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-12);
}

TEST(CsrMatrixTest, TransposeOfSymmetricIsIdentical) {
  const CsrMatrix m = make_ecology2_like(8, 9);
  const CsrMatrix t = m.transposed();
  EXPECT_EQ(m.nnz(), t.nnz());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_DOUBLE_EQ(m.entry(i, j), t.entry(i, j));
}

TEST(CsrMatrixTest, SymmetryErrorDetectsAsymmetry) {
  CooBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.5);
  b.add(1, 1, 1.0);
  EXPECT_NEAR(b.build().symmetry_error(), 0.5, 1e-14);
}

TEST(CsrMatrixTest, DiagonalExtraction) {
  const CsrMatrix m = assemble_stencil2d(stencil_poisson5(), 4, 4, "p");
  for (double d : m.diagonal()) EXPECT_DOUBLE_EQ(d, 4.0);
}

TEST(StencilTest, Assemble5PointMatchesManualLaplacian) {
  const CsrMatrix m = assemble_stencil2d(stencil_poisson5(), 3, 3, "p");
  // Center row (cell 4) couples to 4 neighbors.
  EXPECT_DOUBLE_EQ(m.entry(4, 4), 4.0);
  EXPECT_DOUBLE_EQ(m.entry(4, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.entry(4, 3), -1.0);
  EXPECT_DOUBLE_EQ(m.entry(4, 5), -1.0);
  EXPECT_DOUBLE_EQ(m.entry(4, 7), -1.0);
  EXPECT_DOUBLE_EQ(m.entry(4, 0), 0.0);
  // Corner row keeps only the in-domain couplings (Dirichlet truncation).
  EXPECT_DOUBLE_EQ(m.entry(0, 0), 4.0);
  EXPECT_EQ(m.row_ptr()[1] - m.row_ptr()[0], 3);
}

TEST(StencilTest, StencilPointCounts) {
  EXPECT_EQ(stencil_poisson5().point_count(), 5u);
  EXPECT_EQ(stencil_poisson9().point_count(), 9u);
  EXPECT_EQ(stencil_poisson7().point_count(), 7u);
  EXPECT_EQ(stencil_poisson27().point_count(), 27u);
  EXPECT_EQ(stencil_poisson125().point_count(), 125u);
}

TEST(StencilTest, AssembledOperatorsAreSymmetric) {
  EXPECT_LT(assemble_stencil2d(stencil_poisson9(), 6, 5, "s9").symmetry_error(),
            1e-14);
  EXPECT_LT(
      assemble_stencil3d(stencil_poisson27(), 5, 4, 3, "s27").symmetry_error(),
      1e-14);
}

TEST(StencilTest, Poisson125InteriorRowHas125Nonzeros) {
  const CsrMatrix m = make_poisson125_csr(7);
  // Center cell of the 7^3 grid is fully interior (reach 2).
  const std::size_t center = (3 * 7 + 3) * 7 + 3;
  EXPECT_EQ(m.row_ptr()[center + 1] - m.row_ptr()[center], 125);
  EXPECT_LT(m.symmetry_error(), 1e-13);
}

TEST(StencilTest, Poisson125IsSpd) {
  const CsrMatrix m = make_poisson125_csr(6);  // 216 rows: dense check ok
  EXPECT_TRUE(la::is_spd(to_dense_matrix(m), 1e-10));
}

TEST(StencilOperatorTest, MatchesAssembledCsr) {
  for (std::size_t n : {6ul, 8ul}) {
    const StencilOperator3D op(stencil_poisson125(), n, n, n, "op");
    const CsrMatrix m = make_poisson125_csr(n);
    const std::vector<double> x = random_vector(op.rows(), 17);
    std::vector<double> y_op(op.rows()), y_csr(op.rows());
    op.apply(x, y_op);
    m.apply(x, y_csr);
    for (std::size_t i = 0; i < y_op.size(); ++i)
      ASSERT_NEAR(y_op[i], y_csr[i], 1e-12) << "n=" << n << " i=" << i;
  }
}

TEST(StencilOperatorTest, StatsCarryGridMetadata) {
  const StencilOperator3D op(stencil_poisson125(), 8, 8, 8, "op");
  const OperatorStats st = op.stats();
  EXPECT_EQ(st.kind, GridKind::kGrid3d);
  EXPECT_EQ(st.halo_width, 2);
  EXPECT_EQ(st.rows, 512u);
  EXPECT_GT(st.halo_doubles_per_rank(4), 0.0);
  EXPECT_EQ(st.halo_doubles_per_rank(1), 0.0);
}

TEST(SurrogateTest, AllSurrogatesAreSpdAndSized) {
  struct Case {
    CsrMatrix m;
    std::size_t expected_rows;
    std::size_t max_nnz_per_row;
  };
  Case cases[] = {
      {make_ecology2_like(10, 12), 120u, 5u},
      {make_thermal2_like(10, 12), 120u, 9u},
      {make_serena_like(6), 216u, 27u},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.m.rows(), c.expected_rows) << c.m.name();
    EXPECT_LT(c.m.symmetry_error(), 1e-12) << c.m.name();
    EXPECT_LE(c.m.nnz(), c.expected_rows * c.max_nnz_per_row) << c.m.name();
    EXPECT_TRUE(la::is_spd(to_dense_matrix(c.m), 1e-9)) << c.m.name();
  }
}

TEST(SurrogateTest, DeterministicForFixedSeed) {
  const CsrMatrix a = make_thermal2_like(8, 8, 1e3, 42);
  const CsrMatrix b = make_thermal2_like(8, 8, 1e3, 42);
  EXPECT_EQ(a.nnz(), b.nnz());
  for (std::size_t k = 0; k < a.nnz(); ++k)
    EXPECT_EQ(a.values()[k], b.values()[k]);
  const CsrMatrix c = make_thermal2_like(8, 8, 1e3, 43);
  bool any_diff = false;
  for (std::size_t k = 0; k < std::min(a.nnz(), c.nnz()); ++k)
    any_diff |= a.values()[k] != c.values()[k];
  EXPECT_TRUE(any_diff);
}

TEST(MatrixMarketTest, RoundTripGeneral) {
  const CsrMatrix m = make_thermal2_like(6, 5);
  std::stringstream ss;
  write_matrix_market(ss, m);
  const CsrMatrix back = read_matrix_market(ss);
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.nnz(), m.nnz());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      EXPECT_NEAR(back.entry(i, j), m.entry(i, j), 1e-12);
}

TEST(MatrixMarketTest, ParsesSymmetricFormat) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "% a comment\n"
      "3 3 4\n"
      "1 1 2.0\n"
      "2 1 -1.0\n"
      "2 2 2.0\n"
      "3 3 1.5\n");
  const CsrMatrix m = read_matrix_market(ss);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_DOUBLE_EQ(m.entry(0, 1), -1.0);  // mirrored
  EXPECT_DOUBLE_EQ(m.entry(1, 0), -1.0);
  EXPECT_EQ(m.nnz(), 5u);
}

TEST(MatrixMarketTest, RejectsGarbage) {
  std::stringstream not_mm("hello world\n1 1 1\n");
  EXPECT_THROW(read_matrix_market(not_mm), Error);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(truncated), Error);
  EXPECT_THROW(read_matrix_market_file("/nonexistent/file.mtx"), Error);
}

TEST(SpgemmTest, MatchesDenseProduct) {
  const CsrMatrix a = make_thermal2_like(5, 6);
  const CsrMatrix b = make_ecology2_like(6, 5);
  const CsrMatrix c = multiply(a, b);
  const la::DenseMatrix ref = to_dense_matrix(a) * to_dense_matrix(b);
  EXPECT_LT(la::DenseMatrix::max_abs_diff(to_dense_matrix(c), ref), 1e-10);
}

TEST(SpgemmTest, GalerkinProductIsSymmetric) {
  const CsrMatrix a = assemble_stencil2d(stencil_poisson5(), 8, 8, "p");
  // Simple 2-to-1 aggregation prolongation.
  CooBuilder pb(64, 32);
  for (std::size_t i = 0; i < 64; ++i) pb.add(i, i / 2, 1.0);
  const CsrMatrix p = pb.build("P");
  const CsrMatrix ac = galerkin_product(a, p);
  EXPECT_EQ(ac.rows(), 32u);
  EXPECT_LT(ac.symmetry_error(), 1e-12);
  EXPECT_TRUE(la::is_spd(to_dense_matrix(ac), 1e-10));
}

TEST(PartitionTest, OwnerMatchesRanges) {
  const Partition part(101, 7);
  for (std::size_t i = 0; i < 101; ++i) {
    const int owner = part.owner(i);
    EXPECT_GE(i, part.begin(owner));
    EXPECT_LT(i, part.end(owner));
  }
  EXPECT_THROW(part.owner(101), Error);
}

class DistCsrTest : public ::testing::TestWithParam<int> {};

TEST_P(DistCsrTest, DistributedSpmvMatchesGlobal) {
  const int p = GetParam();
  const CsrMatrix global = make_thermal2_like(11, 13);
  const std::size_t n = global.rows();
  const std::vector<double> x = random_vector(n, 7);
  std::vector<double> y_ref(n);
  global.apply(x, y_ref);

  const Partition part(n, p);
  std::vector<double> y(n, 0.0);
  par::Team::run(p, [&](par::Comm& comm) {
    const DistCsr dist(global, part, comm.rank());
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());
    std::vector<double> xl(x.begin() + static_cast<std::ptrdiff_t>(begin),
                           x.begin() + static_cast<std::ptrdiff_t>(begin + len));
    std::vector<double> yl(len), ghosts;
    dist.apply(comm, xl, yl, ghosts);
    for (std::size_t i = 0; i < len; ++i) y[begin + i] = yl[i];
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_NEAR(y[i], y_ref[i], 1e-12 * (1.0 + std::abs(y_ref[i])))
        << "p=" << p << " i=" << i;
}

TEST_P(DistCsrTest, GhostCountsAreReasonable) {
  const int p = GetParam();
  const CsrMatrix global = assemble_stencil2d(stencil_poisson5(), 10, 10, "g");
  const Partition part(global.rows(), p);
  par::Team::run(p, [&](par::Comm& comm) {
    const DistCsr dist(global, part, comm.rank());
    // 5-pt slab partition needs at most two neighbor rows of ghosts.
    EXPECT_LE(dist.ghost_count(), 2u * 10u);
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistCsrTest, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace pipescg::sparse

// -- matrix-powers kernel -------------------------------------------------

#include <cstdint>
#include <cstring>
#include <memory>

#include "pipescg/obs/profiler.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::sparse {
namespace {

// Bit-level ULP distance: map the IEEE-754 pattern to a monotonically
// ordered integer (the radix-sort float trick, sign-crossing safe), then
// difference.
std::uint64_t ulp_distance(double a, double b) {
  auto key = [](double x) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return (u & 0x8000000000000000ULL) ? ~u : (u | 0x8000000000000000ULL);
  };
  const std::uint64_t ka = key(a), kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

std::vector<double> random_vector_mpk(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

class MatrixPowersTest : public ::testing::TestWithParam<int> {};

// The s-block must match s chained DistCsr applies to <= 64 ULP (the
// acceptance bound); in fact the kernel stores every redundant ghost row in
// its owner's summation order, so the match is bitwise (distance 0) -- the
// ULP helper keeps the assertion meaningful if that ever regresses.
TEST_P(MatrixPowersTest, BlockMatchesRepeatedApply) {
  const int p = GetParam();
  const CsrMatrix mats[] = {make_thermal2_like(11, 13),
                            make_poisson125_csr(5)};
  for (const CsrMatrix& global : mats) {
    const std::size_t n = global.rows();
    const std::vector<double> x = random_vector_mpk(n, 2026);
    const Partition part(n, p);
    for (int depth = 1; depth <= 6; ++depth) {
      par::Team::run(p, [&](par::Comm& comm) {
        const DistCsr dist(global, part, comm.rank());
        const MatrixPowers mpk(global, part, comm.rank(), depth);
        const std::size_t begin = part.begin(comm.rank());
        const std::size_t len = part.local_size(comm.rank());
        const std::vector<double> xl(
            x.begin() + static_cast<std::ptrdiff_t>(begin),
            x.begin() + static_cast<std::ptrdiff_t>(begin + len));

        // Reference: depth chained halo exchanges.
        std::vector<std::vector<double>> ref(
            static_cast<std::size_t>(depth), std::vector<double>(len));
        std::vector<double> ghosts;
        for (std::size_t k = 0; k < ref.size(); ++k)
          dist.apply(comm, k == 0 ? xl : ref[k - 1], ref[k], ghosts);

        // One deep exchange + local sweeps.
        std::vector<std::vector<double>> out(
            static_cast<std::size_t>(depth), std::vector<double>(len));
        std::vector<std::span<double>> outs(out.begin(), out.end());
        MatrixPowers::Scratch scratch;
        mpk.apply(comm, xl, outs, scratch);

        for (std::size_t k = 0; k < ref.size(); ++k)
          for (std::size_t i = 0; i < len; ++i)
            ASSERT_LE(ulp_distance(out[k][i], ref[k][i]), 64u)
                << global.name() << " p=" << p << " depth=" << depth
                << " k=" << k << " i=" << begin + i << " mpk=" << out[k][i]
                << " ref=" << ref[k][i];
      });
    }
  }
}

// Shorter blocks through a deeper kernel reuse the same closure; results
// must not depend on the constructed depth.
TEST_P(MatrixPowersTest, ShortBlocksMatchThroughDeeperKernel) {
  const int p = GetParam();
  const CsrMatrix global = make_thermal2_like(9, 8);
  const std::size_t n = global.rows();
  const std::vector<double> x = random_vector_mpk(n, 11);
  const Partition part(n, p);
  par::Team::run(p, [&](par::Comm& comm) {
    const MatrixPowers deep(global, part, comm.rank(), 5);
    const MatrixPowers shallow(global, part, comm.rank(), 2);
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());
    const std::vector<double> xl(
        x.begin() + static_cast<std::ptrdiff_t>(begin),
        x.begin() + static_cast<std::ptrdiff_t>(begin + len));
    std::vector<std::vector<double>> a(2, std::vector<double>(len));
    std::vector<std::vector<double>> b(2, std::vector<double>(len));
    std::vector<std::span<double>> a_outs(a.begin(), a.end());
    std::vector<std::span<double>> b_outs(b.begin(), b.end());
    MatrixPowers::Scratch scratch;
    deep.apply(comm, xl, a_outs, scratch);
    shallow.apply(comm, xl, b_outs, scratch);
    for (std::size_t k = 0; k < 2; ++k)
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(a[k][i], b[k][i]) << "k=" << k << " i=" << i;
  });
}

TEST_P(MatrixPowersTest, GhostClosureGrowsWithDepth) {
  const int p = GetParam();
  const CsrMatrix global = make_poisson125_csr(5);
  const Partition part(global.rows(), p);
  par::Team::run(p, [&](par::Comm& comm) {
    const DistCsr dist(global, part, comm.rank());
    std::size_t prev_ghosts = 0;
    for (int depth = 1; depth <= 4; ++depth) {
      const MatrixPowers mpk(global, part, comm.rank(), depth);
      EXPECT_EQ(mpk.local_rows(), dist.local_rows());
      EXPECT_GE(mpk.deep_ghost_count(), prev_ghosts);
      prev_ghosts = mpk.deep_ghost_count();
      if (depth == 1) {
        // Depth 1 degenerates to the plain halo: same closure, no
        // redundant rows.
        EXPECT_EQ(mpk.deep_ghost_count(), dist.ghost_count());
        EXPECT_EQ(mpk.ghost_row_count(), 0u);
        EXPECT_EQ(mpk.redundant_nnz(), 0u);
      } else if (comm.size() > 1) {
        EXPECT_GT(mpk.ghost_row_count(), 0u);
        EXPECT_GT(mpk.redundant_nnz(), 0u);
      }
    }
  });
}

// The headline contract: one halo-exchange epoch per s-SPMV block, versus
// one per SPMV on the chained path, with every rank agreeing on the epoch
// and block counts.
TEST(MatrixPowersTest, OneHaloEpochPerBlock) {
  const CsrMatrix global = make_thermal2_like(10, 9);
  const int ranks = 3;
  const int depth = 4;
  const Partition part(global.rows(), ranks);
  obs::SolveProfile profile(ranks);
  par::Team::run(ranks, [&](par::Comm& comm) {
    obs::Profiler::Install install(&profile.rank(comm.rank()));
    const DistCsr dist(global, part, comm.rank());
    const MatrixPowers mpk(global, part, comm.rank(), depth);
    const std::size_t len = part.local_size(comm.rank());
    std::vector<double> xl(len, 1.0);
    std::vector<std::vector<double>> out(
        static_cast<std::size_t>(depth), std::vector<double>(len));
    std::vector<std::span<double>> outs(out.begin(), out.end());
    MatrixPowers::Scratch scratch;
    mpk.apply(comm, xl, outs, scratch);          // 1 epoch, 1 block
    mpk.apply(comm, xl, outs, scratch);          // 1 epoch, 1 block
    std::vector<double> y(len), ghosts;
    dist.apply(comm, xl, y, ghosts);             // 1 epoch, 0 blocks
  });
  for (int r = 0; r < ranks; ++r) {
    const obs::Profiler::Counters& c = profile.rank(r).counters();
    EXPECT_EQ(c.halo_epochs, 3u) << "rank " << r;
    EXPECT_EQ(c.mpk_blocks, 2u) << "rank " << r;
    EXPECT_GT(c.halo_volume_doubles, 0u) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, MatrixPowersTest,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace pipescg::sparse
