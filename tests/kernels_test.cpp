// Hot-kernel contracts (DESIGN.md section 14): SELL-C-sigma applies are
// bitwise identical to the scalar CSR loop (serial, distributed, and through
// the matrix-powers kernel), the fused BLAS-1 kernels are bitwise identical
// to their unfused reference chains (including through full s-step solves
// over every basis family), lincomb and the block ops on it match the
// scalar per-term loop with each caller's zero rule, lincomb programs match
// their ops run as sequential whole-vector calls, the memory-pass
// counters pin the fusion claim (2s+ sweeps -> 1 per dot batch, 4 -> 1 per
// basis step), and the byte models the benches print are the SAME numbers
// the operators report.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "pipescg/krylov/basis.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/la/vector_kernels.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/bytes_model.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/sell_matrix.hpp"
#include "pipescg/sparse/stencil.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace {

using namespace pipescg;
using sparse::CsrMatrix;
using sparse::DistCsr;
using sparse::MatrixPowers;
using sparse::Partition;
using sparse::SellMatrix;
using sparse::SparseFormat;

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

// Bitwise equality: EXPECT_EQ would let -0.0 == 0.0 slide; the identity
// contract is about the exact bit pattern the scalar loop produces.
void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " i=" << i << " a=" << a[i] << " b=" << b[i];
}

// --- SELL-C-sigma vs CSR -----------------------------------------------

// Serial identity across the matrix families the benches measure, at chunk
// heights that hit the specialized (4/8/16), generic (3, 5), and degenerate
// (1) kernels, with odd row counts so tail chunks have inactive lanes and
// ragged widths exercise the active-lane shrink.
TEST(SellMatrixTest, ApplyBitwiseMatchesCsr) {
  const CsrMatrix mats[] = {
      sparse::make_poisson125_csr(5),        // 125 rows, wide rows
      sparse::make_ecology2_like(23, 17),    // 391 rows, 5-pt
      sparse::make_thermal2_like(11, 13),    // 143 rows, 9-pt ragged edges
      sparse::make_serena_like(8),           // strongly varying row lengths
  };
  for (const CsrMatrix& a : mats) {
    const std::vector<double> x = random_vector(a.cols(), 42);
    std::vector<double> y_ref(a.rows());
    a.apply(x, y_ref);
    for (const std::size_t chunk : {1u, 3u, 4u, 5u, 8u, 16u}) {
      for (const std::size_t sigma : {0u, 8u, 64u}) {
        const SellMatrix sell(a, chunk, sigma);
        EXPECT_EQ(sell.nnz(), a.nnz());
        EXPECT_GE(sell.slots(), sell.nnz());
        std::vector<double> y(a.rows(), -1.0);
        sell.apply(x, y);
        expect_bitwise(y, y_ref, (a.name() + " sell apply").c_str());
      }
    }
  }
}

// Padded slots must never be READ.  Padded slots carry column index 0, so
// planting a NaN at x[0] poisons exactly what a masked (0 * x) kernel would
// touch: 0 * NaN is still NaN, so masking would smear NaN into every padded
// row, while the active-lane kernel leaves rows that never reference
// column 0 finite and bitwise equal to the CSR loop.
TEST(SellMatrixTest, PaddingIsNeverRead) {
  const CsrMatrix a = sparse::make_serena_like(8);
  const SellMatrix sell(a, 8, 0);
  ASSERT_GT(sell.slots(), sell.nnz()) << "test needs actual padding";
  std::vector<double> x = random_vector(a.cols(), 99);
  x[0] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> y_ref(a.rows()), y(a.rows());
  a.apply(x, y_ref);
  sell.apply(x, y);
  bool some_row_is_finite = false;
  for (const double v : y_ref) some_row_is_finite |= !std::isnan(v);
  ASSERT_TRUE(some_row_is_finite) << "poison swallowed the whole matrix";
  expect_bitwise(y, y_ref, "poisoned padding");
}

class SellFormatRankTest : public ::testing::TestWithParam<int> {};

// DistCsr under --format sell: the distributed apply is bitwise identical
// to the CSR-format apply on every rank, including the ghost-column split.
TEST_P(SellFormatRankTest, DistCsrSellMatchesCsrBitwise) {
  const int p = GetParam();
  const CsrMatrix mats[] = {sparse::make_poisson125_csr(5),
                            sparse::make_ecology2_like(23, 17),
                            sparse::make_thermal2_like(11, 13)};
  for (const CsrMatrix& global : mats) {
    const std::size_t n = global.rows();
    const std::vector<double> x = random_vector(n, 7);
    const Partition part(n, p);
    std::vector<double> y_csr(n), y_sell(n);
    for (const SparseFormat format :
         {SparseFormat::kCsr, SparseFormat::kSell}) {
      std::vector<double>& y =
          format == SparseFormat::kSell ? y_sell : y_csr;
      par::Team::run(p, [&](par::Comm& comm) {
        const DistCsr dist(global, part, comm.rank(), format);
        EXPECT_EQ(dist.format(), format);
        const std::size_t begin = part.begin(comm.rank());
        const std::size_t len = part.local_size(comm.rank());
        std::vector<double> xl(
            x.begin() + static_cast<std::ptrdiff_t>(begin),
            x.begin() + static_cast<std::ptrdiff_t>(begin + len));
        std::vector<double> yl(len), ghosts;
        dist.apply(comm, xl, yl, ghosts);
        for (std::size_t i = 0; i < len; ++i) y[begin + i] = yl[i];
      });
    }
    expect_bitwise(y_sell, y_csr, (global.name() + " dist").c_str());
  }
}

// MatrixPowers under --format sell: the owned sweeps run through the SELL
// kernel, the ghost onion stays raw CSR; every depth's block output must be
// bitwise identical to the CSR-format block.
TEST_P(SellFormatRankTest, MatrixPowersSellMatchesCsrBitwise) {
  const int p = GetParam();
  const CsrMatrix global = sparse::make_thermal2_like(11, 13);
  const std::size_t n = global.rows();
  const std::vector<double> x = random_vector(n, 2026);
  const Partition part(n, p);
  const int depth = 4;
  std::vector<std::vector<double>> out_csr, out_sell;
  for (const SparseFormat format : {SparseFormat::kCsr, SparseFormat::kSell}) {
    auto& out = format == SparseFormat::kSell ? out_sell : out_csr;
    out.assign(static_cast<std::size_t>(depth), std::vector<double>(n));
    par::Team::run(p, [&](par::Comm& comm) {
      const MatrixPowers mpk(global, part, comm.rank(), depth, format);
      EXPECT_EQ(mpk.format(), format);
      const std::size_t begin = part.begin(comm.rank());
      const std::size_t len = part.local_size(comm.rank());
      const std::vector<double> xl(
          x.begin() + static_cast<std::ptrdiff_t>(begin),
          x.begin() + static_cast<std::ptrdiff_t>(begin + len));
      std::vector<std::vector<double>> local(
          static_cast<std::size_t>(depth), std::vector<double>(len));
      std::vector<std::span<double>> outs(local.begin(), local.end());
      MatrixPowers::Scratch scratch;
      mpk.apply(comm, xl, outs, scratch);
      for (std::size_t k = 0; k < local.size(); ++k)
        for (std::size_t i = 0; i < len; ++i) out[k][begin + i] = local[k][i];
    });
  }
  for (int k = 0; k < depth; ++k)
    expect_bitwise(out_sell[static_cast<std::size_t>(k)],
                   out_csr[static_cast<std::size_t>(k)], "mpk block");
}

INSTANTIATE_TEST_SUITE_P(Ranks, SellFormatRankTest, ::testing::Values(1, 2, 3));

// --- fused BLAS-1 kernels ----------------------------------------------

// The dot batch an s = 3 preconditioned monomial outer iteration posts
// (build_dot_pairs: 7 moments, 9 cross pairs, (r, r) and (u, u) -- pairs
// that share operands, two with x == y) over 11 vectors of length n, plus
// two more pairs so 20 pairs run every group tail.
struct DotBatchFixture {
  krylov::VecBlock w, v, ap;
  std::vector<la::DotView> views;

  explicit DotBatchFixture(std::size_t n) {
    const std::size_t s = 3;
    unsigned seed = 100;
    for (krylov::VecBlock* block : {&w, &v, &ap}) {
      block->resize(block == &ap ? s : s + 1, krylov::Vec(n));
      for (krylov::Vec& vec : *block) {
        const std::vector<double> r = random_vector(n, seed++);
        std::copy(r.begin(), r.end(), vec.data());
      }
    }
    std::vector<krylov::DotPair> pairs;
    krylov::sstep::build_dot_pairs(krylov::sstep::DotLayout{3, true}, w, v, ap, pairs);
    pairs.push_back(krylov::DotPair{&ap[2], &ap[2]});
    pairs.push_back(krylov::DotPair{&w[3], &ap[0]});
    for (const krylov::DotPair& p : pairs)
      views.push_back(la::DotView{p.x->data(), p.y->data()});
  }
};

// Each pair's sum in element order, one pair at a time.
std::vector<double> scalar_dots(std::span<const la::DotView> views,
                                std::size_t n) {
  std::vector<double> out(views.size(), 0.0);
  for (std::size_t p = 0; p < views.size(); ++p)
    for (std::size_t i = 0; i < n; ++i) out[p] += views[p].x[i] * views[p].y[i];
  return out;
}

// dot_batch fused vs unfused vs the scalar loop, bitwise: every pair count
// from 1 to 20 (every group tail), at lengths around the 2048-double block
// edge, one ecology2 rank's 45,000, and the empty batch.  Fused is one
// sweep per batch, unfused one per pair.
TEST(FusedKernelsTest, DotBatchBitwiseMatchesUnfused) {
  la::KernelStats& stats = la::kernel_stats();
  for (const std::size_t n : {0u, 1u, 7u, 2047u, 2048u, 2049u, 45000u}) {
    const DotBatchFixture fx(n);
    ASSERT_EQ(fx.views.size(), 20u);
    for (std::size_t pairs_n = 1; pairs_n <= fx.views.size(); ++pairs_n) {
      const std::span<const la::DotView> views(fx.views.data(), pairs_n);
      std::vector<double> fused(pairs_n, -1.0), unfused(pairs_n, -1.0);
      {
        const la::FusedKernelsGuard guard(true);
        stats.reset();
        la::dot_batch(views, n, fused);
        EXPECT_EQ(stats.dot_sweeps, 1u);
      }
      {
        const la::FusedKernelsGuard guard(false);
        stats.reset();
        la::dot_batch(views, n, unfused);
        EXPECT_EQ(stats.dot_sweeps, pairs_n);
      }
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " pairs=" + std::to_string(pairs_n));
      expect_bitwise(fused, unfused, "dot batch fused vs unfused");
      expect_bitwise(fused, scalar_dots(views, n), "dot batch vs scalar");
    }
  }
}

// A NaN in one pair's operand reaches that pair's slot and no other: the
// groups' add chains never mix.  Checked at every position of the 20-pair
// batch, so in every group and tail shape.
TEST(FusedKernelsTest, DotBatchNanStaysInItsPair) {
  for (const std::size_t n : {2049u, 45000u}) {
    const DotBatchFixture fx(n);
    std::vector<double> clean(fx.views.size());
    la::dot_batch(fx.views, n, clean);
    for (std::size_t bad = 0; bad < fx.views.size(); ++bad) {
      // A private copy of the pair's x, so no other pair reads the NaN.
      std::vector<double> poisoned(fx.views[bad].x, fx.views[bad].x + n);
      poisoned[n / 2] = std::numeric_limits<double>::quiet_NaN();
      std::vector<la::DotView> views = fx.views;
      views[bad].x = poisoned.data();
      std::vector<double> out(views.size());
      la::dot_batch(views, n, out);
      for (std::size_t p = 0; p < out.size(); ++p) {
        if (p == bad) {
          EXPECT_TRUE(std::isnan(out[p])) << "n=" << n << " pair " << p;
        } else {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(out[p]),
                    std::bit_cast<std::uint64_t>(clean[p]))
              << "n=" << n << " NaN in pair " << bad << " reached pair " << p;
        }
      }
    }
  }
}

// shift_combine fused vs unfused across every guard combination (theta = 0,
// missing p2, gamma = 1 -- the monomial basis is all three at once) at
// tail-exercising lengths.
TEST(FusedKernelsTest, ShiftCombineBitwiseMatchesUnfused) {
  for (const std::size_t n : {1u, 37u, 4096u, 10001u}) {
    const std::vector<double> av = random_vector(n, 1);
    const std::vector<double> p1 = random_vector(n, 2);
    const std::vector<double> p2 = random_vector(n, 3);
    for (const double theta : {0.0, 0.8}) {
      for (const double sigma : {0.0, 0.3}) {
        for (const double gamma : {1.0, 2.5}) {
          for (const bool with_p2 : {false, true}) {
            std::vector<double> fused(n), unfused(n);
            {
              const la::FusedKernelsGuard guard(true);
              la::shift_combine(fused.data(), av.data(), theta, p1.data(),
                                sigma, with_p2 ? p2.data() : nullptr, gamma,
                                n);
            }
            {
              const la::FusedKernelsGuard guard(false);
              la::shift_combine(unfused.data(), av.data(), theta, p1.data(),
                                sigma, with_p2 ? p2.data() : nullptr, gamma,
                                n);
            }
            expect_bitwise(fused, unfused, "shift_combine");
          }
        }
      }
    }
  }
}

// --- end-to-end parity: s-step solves under the fusion toggle ----------

// The strongest form of the fusion contract: full s-step solves (the dot
// batches, the basis chains, the block combines) produce bitwise-identical
// iterates whether the fused kernels are on or off, for every basis family
// and s the paper sweeps.
TEST(FusedKernelsTest, SstepSolvesBitwiseInvariantUnderFusion) {
  const CsrMatrix a = sparse::make_poisson125_csr(5);
  const precond::JacobiPreconditioner pc(a);
  for (const char* method : {"pscg", "pipe-pscg"}) {
    for (const krylov::BasisType basis :
         {krylov::BasisType::kMonomial, krylov::BasisType::kNewton,
          krylov::BasisType::kChebyshev}) {
      for (const int s : {2, 4, 8}) {
        std::vector<std::vector<double>> solutions;
        std::vector<std::size_t> iterations;
        for (const bool fused : {true, false}) {
          const la::FusedKernelsGuard guard(fused);
          krylov::SerialEngine engine(a, &pc);
          krylov::Vec ones = engine.new_vec();
          for (std::size_t i = 0; i < ones.size(); ++i) ones[i] = 1.0;
          krylov::Vec b = engine.new_vec();
          engine.apply_op(ones, b);
          krylov::Vec x = engine.new_vec();
          krylov::SolverOptions opts;
          opts.rtol = 1e-8;
          opts.s = s;
          opts.max_iterations = 400;
          opts.basis.type = basis;
          const auto stats =
              krylov::make_solver(method)->solve(engine, b, x, opts);
          solutions.emplace_back(x.data(), x.data() + x.size());
          iterations.push_back(stats.iterations);
        }
        EXPECT_EQ(iterations[0], iterations[1])
            << method << " basis=" << static_cast<int>(basis) << " s=" << s;
        expect_bitwise(solutions[0], solutions[1], method);
      }
    }
  }
}

// --- lincomb and the block ops built on it ------------------------------

// The scalar per-term reference every lincomb caller is pinned against: each
// element summed from its start, one term at a time, in term order.
// `skip_zeros` drops zero-coefficient terms the way block_maxpy and
// combine_chain do.
std::vector<double> per_term_reference(
    const std::vector<double>& start, const std::vector<double>& coeff,
    const std::vector<std::vector<double>>& xs, bool skip_zeros) {
  std::vector<double> out(start.size());
  for (std::size_t i = 0; i < start.size(); ++i) {
    double acc = start[i];
    for (std::size_t k = 0; k < coeff.size(); ++k)
      if (!skip_zeros || coeff[k] != 0.0) acc += coeff[k] * xs[k][i];
    out[i] = acc;
  }
  return out;
}

// Lengths 1 and 3 are all SIMD remainder; 1027 is full vectors plus a
// ragged tail in every kCombBlock-sized block.
constexpr std::size_t kLincombLengths[] = {1, 3, 1027};

// Coefficients with zeros in the middle and at the end, so pairing by two
// meets a kept zero on either side.
const std::vector<double> kLincombCoeff = {0.75, 0.0, -1.25, 2.5, 0.0};

TEST(LincombTest, BitwiseMatchesPerTermReferenceInEveryStartMode) {
  for (const std::size_t n : kLincombLengths) {
    std::vector<std::vector<double>> xs;
    std::vector<const double*> ptrs;
    for (std::size_t k = 0; k < kLincombCoeff.size(); ++k)
      xs.push_back(random_vector(n, static_cast<unsigned>(200 + k)));
    for (const std::vector<double>& x : xs) ptrs.push_back(x.data());
    const std::vector<double> base = random_vector(n, 210);
    const std::vector<double> zero(n, 0.0);
    for (std::size_t m = 0; m <= kLincombCoeff.size(); ++m) {
      const std::span<const double> coeff(kLincombCoeff.data(), m);
      const std::span<const double* const> terms(ptrs.data(), m);
      const std::vector<double> c(coeff.begin(), coeff.end());
      for (const bool fused : {true, false}) {
        const la::FusedKernelsGuard guard(fused);
        std::vector<double> dst = random_vector(n, 220);
        la::lincomb(dst.data(), base.data(), coeff, terms, n);
        expect_bitwise(dst, per_term_reference(base, c, xs, false), "base");
        dst = random_vector(n, 221);
        la::lincomb(dst.data(), nullptr, coeff, terms, n);
        expect_bitwise(dst, per_term_reference(zero, c, xs, false), "zero");
        dst = random_vector(n, 222);
        const std::vector<double> before = dst;
        la::lincomb(dst.data(), dst.data(), coeff, terms, n);
        expect_bitwise(dst, per_term_reference(before, c, xs, false),
                       "in place");
      }
    }
  }
}

// The +0.0 start is a real addend: 0.0 + (-0.0) is +0.0, so a lone -0.0
// product must come out +0.0 -- a kernel that started from the first
// product would return -0.0.
TEST(LincombTest, ZeroStartTurnsNegativeZeroProductPositive) {
  const std::vector<double> x = {0.0, -0.0, 0.0};
  const double coeff[1] = {-1.0};
  const double* terms[1] = {x.data()};
  for (const bool fused : {true, false}) {
    const la::FusedKernelsGuard guard(fused);
    std::vector<double> dst(3, 7.0);
    la::lincomb(dst.data(), nullptr, coeff, terms, 3);
    expect_bitwise(dst, {0.0, 0.0, 0.0}, "+0.0 start");
  }
}

// Every term is applied, so a NaN column under a zero coefficient reaches
// the result (0 * NaN = NaN) -- what lets the fault gate see it.
TEST(LincombTest, KeptZeroCoefficientPropagatesNaN) {
  for (const std::size_t n : kLincombLengths) {
    const std::vector<double> x0 = random_vector(n, 230);
    const std::vector<double> poisoned(
        n, std::numeric_limits<double>::quiet_NaN());
    const double coeff[2] = {1.5, 0.0};
    const double* terms[2] = {x0.data(), poisoned.data()};
    std::vector<double> dst(n);
    la::lincomb(dst.data(), nullptr, coeff, terms, n);
    for (const double v : dst) ASSERT_TRUE(std::isnan(v));
  }
}

// The engine's block ops, each against the per-term reference with its own
// zero rule: block_maxpy and combine_chain skip zero coefficients (a NaN
// column under one never reaches the result), block_axpy and block_combine
// apply them (it does).
TEST(LincombTest, BlockOpsBitwiseMatchPerTermReference) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t n : kLincombLengths) {
    const std::size_t nx = n == 1027 ? 13 : n;
    const CsrMatrix a = sparse::assemble_stencil2d(
        sparse::stencil_poisson5(), nx, n / nx, "p");
    krylov::SerialEngine engine(a);
    const std::size_t m = kLincombCoeff.size();
    krylov::VecBlock block = engine.new_block(m);
    std::vector<std::vector<double>> cols(m);
    for (std::size_t k = 0; k < m; ++k) {
      cols[k] = random_vector(n, static_cast<unsigned>(240 + k));
      if (kLincombCoeff[k] == 0.0) cols[k][n / 2] = nan;  // under a zero
      std::copy(cols[k].begin(), cols[k].end(), block[k].data());
    }
    const std::vector<double> start = random_vector(n, 250);
    const auto to_vec = [](const krylov::Vec& v) {
      return std::vector<double>(v.data(), v.data() + v.size());
    };
    const auto from = [&](const std::vector<double>& v) {
      krylov::Vec out = engine.new_vec();
      std::copy(v.begin(), v.end(), out.data());
      return out;
    };

    // block_maxpy: column j of B is the coefficient list, zeros skipped.
    krylov::VecBlock y = {from(start), from(start)};
    la::DenseMatrix b(m, 2);
    for (std::size_t k = 0; k < m; ++k) {
      b(k, 0) = kLincombCoeff[k];
      b(k, 1) = -kLincombCoeff[m - 1 - k];
    }
    engine.block_maxpy(y, block, b);
    std::vector<double> c1(m);
    for (std::size_t k = 0; k < m; ++k) c1[k] = b(k, 1);
    expect_bitwise(to_vec(y[0]),
                   per_term_reference(start, kLincombCoeff, cols, true),
                   "block_maxpy col 0");
    expect_bitwise(to_vec(y[1]), per_term_reference(start, c1, cols, true),
                   "block_maxpy col 1");
    for (const double v : to_vec(y[0])) ASSERT_FALSE(std::isnan(v));

    // combine_chain: +0.0 start, zeros skipped.
    krylov::Vec dst = from(start);
    krylov::VectorBatch batch(engine);
    krylov::combine_chain(batch, kLincombCoeff,
                          krylov::ChainView{&block, nullptr}, dst);
    batch.run();
    expect_bitwise(to_vec(dst),
                   per_term_reference(std::vector<double>(n, 0.0),
                                      kLincombCoeff, cols, true),
                   "combine_chain");

    // block_axpy: in place, zeros applied -- the NaN reaches y.
    krylov::Vec acc = from(start);
    engine.block_axpy(acc, block, kLincombCoeff);
    const std::vector<double> axpy_ref =
        per_term_reference(start, kLincombCoeff, cols, false);
    expect_bitwise(to_vec(acc), axpy_ref, "block_axpy");
    EXPECT_TRUE(std::isnan(acc[n / 2]));

    // block_combine: base - sum, zeros applied, out distinct and in place.
    std::vector<double> neg(m);
    for (std::size_t k = 0; k < m; ++k) neg[k] = -kLincombCoeff[k];
    const std::vector<double> combine_ref =
        per_term_reference(start, neg, cols, false);
    const krylov::Vec base = from(start);
    krylov::Vec out = engine.new_vec();
    engine.block_combine(out, base, block, kLincombCoeff);
    expect_bitwise(to_vec(out), combine_ref, "block_combine");
    EXPECT_TRUE(std::isnan(out[n / 2]));
    krylov::Vec in_place = from(start);
    engine.block_combine(in_place, in_place, block, kLincombCoeff);
    expect_bitwise(to_vec(in_place), combine_ref, "block_combine in place");
  }
}

// --- lincomb programs -----------------------------------------------------

// A program over a pool of vectors, with ops stored by pool index so the
// same program can run on several copies of the pool.
struct PoolOp {
  std::size_t dst;
  int start;  // 0: base vector, 1: +0.0, 2: dst itself
  std::size_t base;
  std::vector<double> coeff;
  std::vector<std::size_t> xs;
};
using Pool = std::vector<std::vector<double>>;

// The program as la ops on `pool`; `ptrs` keeps the term pointer arrays.
std::vector<la::LincombOp> bind(const std::vector<PoolOp>& prog, Pool& pool,
                                std::vector<std::vector<const double*>>& ptrs) {
  std::vector<la::LincombOp> ops;
  ptrs.assign(prog.size(), {});
  for (std::size_t o = 0; o < prog.size(); ++o) {
    const PoolOp& p = prog[o];
    for (const std::size_t x : p.xs) ptrs[o].push_back(pool[x].data());
    double* dst = pool[p.dst].data();
    const double* base =
        p.start == 0 ? pool[p.base].data() : p.start == 1 ? nullptr : dst;
    ops.push_back({dst, base, p.coeff, ptrs[o]});
  }
  return ops;
}

Pool run_program(const std::vector<PoolOp>& prog, Pool pool, std::size_t n) {
  std::vector<std::vector<const double*>> ptrs;
  const std::vector<la::LincombOp> ops = bind(prog, pool, ptrs);
  la::lincomb_program(ops, n);
  return pool;
}

// The reference the program is pinned against: one whole-vector la::lincomb
// call per op, in program order.
Pool run_sequential(const std::vector<PoolOp>& prog, Pool pool,
                    std::size_t n) {
  std::vector<std::vector<const double*>> ptrs;
  for (const la::LincombOp& op : bind(prog, pool, ptrs))
    la::lincomb(op.dst, op.base, op.coeff, op.xs, n);
  return pool;
}

// Independent of la: every element summed from its start in term order.
Pool run_scalar(const std::vector<PoolOp>& prog, Pool pool, std::size_t n) {
  for (const PoolOp& p : prog)
    for (std::size_t i = 0; i < n; ++i) {
      double acc = p.start == 0   ? pool[p.base][i]
                   : p.start == 1 ? 0.0
                                  : pool[p.dst][i];
      for (std::size_t k = 0; k < p.xs.size(); ++k)
        acc += p.coeff[k] * pool[p.xs[k]][i];
      pool[p.dst][i] = acc;
    }
  return pool;
}

void expect_pools_bitwise(const Pool& a, const Pool& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.size(); ++v)
    ASSERT_NO_FATAL_FAILURE(expect_bitwise(a[v], b[v], what)) << "v=" << v;
}

Pool random_pool(std::size_t vectors, std::size_t n, unsigned seed) {
  Pool pool;
  for (std::size_t v = 0; v < vectors; ++v)
    pool.push_back(random_vector(n, seed + static_cast<unsigned>(v)));
  return pool;
}

// Lengths around the 512-double program block: empty, SIMD remainder only,
// one block minus/plus one, and an ecology2-sized rank-local vector.
constexpr std::size_t kProgramLengths[] = {0, 1, 7, 511, 512, 513, 45000};

// Random programs over a small pool, so ops read what earlier ops wrote and
// overwrite what earlier ops read; every start mode and term counts 0..9
// (past the four terms one sweep carries), some coefficients zero.
TEST(LincombProgramTest, RandomProgramsMatchSequentialCallsBitwise) {
  std::mt19937 rng(7);
  const std::size_t pool_size = 6;
  for (const std::size_t n : kProgramLengths) {
    for (int trial = 0; trial < (n > 1000 ? 4 : 25); ++trial) {
      std::vector<PoolOp> prog(1 + rng() % 12);
      for (PoolOp& op : prog) {
        op.dst = rng() % pool_size;
        op.start = static_cast<int>(rng() % 3);
        op.base = rng() % pool_size;  // may equal dst: then an in-place copy
        const std::size_t terms = rng() % 10;
        for (std::size_t k = 0; k < terms; ++k) {
          std::size_t x = rng() % pool_size;
          if (x == op.dst) x = (x + 1) % pool_size;  // xs never alias dst
          op.xs.push_back(x);
          op.coeff.push_back(rng() % 5 == 0
                                 ? 0.0
                                 : std::ldexp(static_cast<double>(rng() % 997),
                                              -9) - 0.9);
        }
      }
      const Pool pool =
          random_pool(pool_size, n, 300 + static_cast<unsigned>(trial));
      const Pool want = run_sequential(prog, pool, n);
      expect_pools_bitwise(run_program(prog, pool, n), want, "program");
      expect_pools_bitwise(run_scalar(prog, pool, n), want, "scalar");
      const la::FusedKernelsGuard unfused(false);
      expect_pools_bitwise(run_program(prog, pool, n), want, "unfused");
    }
  }
}

// The aliasing cases the blocked executor must get right, spelled out: a
// read after write (op 1 reads what op 0 wrote), a write after read (op 2
// overwrites op 0's term and op 1's base), an in-place op chaining through
// more than four terms, and each start mode.
TEST(LincombProgramTest, ReadAfterWriteAndWriteAfterRead) {
  const std::vector<PoolOp> prog = {
      {0, 0, 1, {0.5, -1.5}, {2, 3}},                   // v0 = v1 + ...
      {4, 0, 2, {2.0, 0.25}, {0, 0}},                   // reads v0 (RAW)
      {2, 1, 0, {1.0, -3.0}, {4, 0}},                   // writes v2 (WAR)
      {3, 2, 3, {1, -1, 0.5, 0.75, -2, 3}, {0, 1, 2, 4, 0, 1}},  // in place
      {1, 0, 1, {}, {}},                                // in-place copy
  };
  for (const std::size_t n : kProgramLengths) {
    const Pool pool = random_pool(5, n, 400);
    const Pool want = run_sequential(prog, pool, n);
    expect_pools_bitwise(run_program(prog, pool, n), want, "program");
    expect_pools_bitwise(run_scalar(prog, pool, n), want, "scalar");
    const la::FusedKernelsGuard unfused(false);
    expect_pools_bitwise(run_program(prog, pool, n), want, "unfused");
  }
}

// A kept zero coefficient multiplies a NaN column into the result, and a
// later op that reads that result carries the NaN on, fused or not.
TEST(LincombProgramTest, KeptZeroCoefficientPropagatesNaN) {
  const std::vector<PoolOp> prog = {
      {0, 1, 0, {1.5, 0.0}, {1, 2}},  // v0 = 1.5 v1 + 0 * NaN
      {3, 0, 1, {0.5}, {0}},          // v3 = v1 + 0.5 v0
  };
  for (const bool fused : {true, false}) {
    const la::FusedKernelsGuard guard(fused);
    for (const std::size_t n : kProgramLengths) {
      Pool pool = random_pool(4, n, 500);
      std::fill(pool[2].begin(), pool[2].end(),
                std::numeric_limits<double>::quiet_NaN());
      const Pool out = run_program(prog, pool, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(std::isnan(out[0][i])) << i;
        ASSERT_TRUE(std::isnan(out[3][i])) << i;
      }
    }
  }
}

// One fused program is one memory pass; unfused, each op is a start pass
// (none in place) plus a sweep per term.
TEST(LincombProgramTest, PassCounters) {
  const std::vector<PoolOp> prog = {
      {0, 0, 1, {0.5, -1.5}, {2, 3}},  // 1 + 2
      {4, 1, 0, {2.0}, {0}},           // 1 + 1
      {3, 2, 3, {1, -1, 0.5}, {0, 1, 2}},  // 0 + 3
  };
  const Pool pool = random_pool(5, 64, 600);
  la::KernelStats& stats = la::kernel_stats();
  for (const bool fused : {true, false}) {
    const la::FusedKernelsGuard guard(fused);
    stats.reset();
    run_program(prog, pool, 64);
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.program_passes, fused ? 1u : 8u);
  }
}

// --- memory-pass counters ----------------------------------------------

// The headline claim, pinned: a fused dot batch is ONE pass regardless of
// pair count (unfused: one per pair), a fused basis step is ONE pass
// (unfused: copy + 2 axpys + scale = 4).
TEST(KernelStatsTest, FusionCollapsesMemoryPasses) {
  const std::size_t n = 4096;
  const std::vector<double> x = random_vector(n, 31);
  const std::vector<double> y = random_vector(n, 32);
  std::vector<la::DotView> views(18, la::DotView{x.data(), y.data()});
  std::vector<double> out(views.size());
  la::KernelStats& stats = la::kernel_stats();

  {
    const la::FusedKernelsGuard guard(false);
    stats.reset();
    la::dot_batch(views, n, out);
    EXPECT_EQ(stats.dot_batches, 1u);
    EXPECT_EQ(stats.dot_sweeps, views.size());
  }
  {
    const la::FusedKernelsGuard guard(true);
    stats.reset();
    la::dot_batch(views, n, out);
    EXPECT_EQ(stats.dot_batches, 1u);
    EXPECT_EQ(stats.dot_sweeps, 1u);
  }

  std::vector<double> dst(n);
  const std::vector<double> av = random_vector(n, 33);
  {
    const la::FusedKernelsGuard guard(false);
    stats.reset();
    la::shift_combine(dst.data(), av.data(), 0.5, x.data(), 0.25, y.data(),
                      1.5, n);
    EXPECT_EQ(stats.basis_steps, 1u);
    EXPECT_EQ(stats.basis_passes, 4u);  // copy + axpy + axpy + scale
  }
  {
    const la::FusedKernelsGuard guard(true);
    stats.reset();
    la::shift_combine(dst.data(), av.data(), 0.5, x.data(), 0.25, y.data(),
                      1.5, n);
    EXPECT_EQ(stats.basis_steps, 1u);
    EXPECT_EQ(stats.basis_passes, 1u);
  }
  // Monomial basis (all guards off) is a plain copy either way: one pass.
  {
    const la::FusedKernelsGuard guard(false);
    stats.reset();
    la::shift_combine(dst.data(), av.data(), 0.0, x.data(), 0.0, nullptr,
                      1.0, n);
    EXPECT_EQ(stats.basis_passes, 1u);
  }
}

// The engine dot batch routes through la::dot_batch: one sweep per batch
// fused, one per pair unfused -- this is the per-outer-iteration count the
// s-step drivers pay.
TEST(KernelStatsTest, EngineDotsAreOneSweepWhenFused) {
  const CsrMatrix a = sparse::make_ecology2_like(13, 11);
  krylov::SerialEngine engine(a);
  krylov::VecBlock block = engine.new_block(7);
  std::vector<krylov::DotPair> pairs;
  for (std::size_t i = 0; i < block.size(); ++i)
    pairs.push_back(krylov::DotPair{&block[i], &block[i]});
  std::vector<double> out(pairs.size());
  la::KernelStats& stats = la::kernel_stats();
  {
    const la::FusedKernelsGuard guard(true);
    stats.reset();
    engine.dots(pairs, out);
    EXPECT_EQ(stats.dot_sweeps, 1u);
  }
  {
    const la::FusedKernelsGuard guard(false);
    stats.reset();
    engine.dots(pairs, out);
    EXPECT_EQ(stats.dot_sweeps, pairs.size());
  }
}

// --- byte models --------------------------------------------------------

// bench_kernels, DistCsr, and SellMatrix must all report the SAME byte
// models (sparse/bytes_model.hpp) -- the dedup satellite.
TEST(BytesModelTest, OperatorsReportSharedModel) {
  const CsrMatrix a = sparse::make_thermal2_like(11, 13);

  const SellMatrix sell(a);
  const std::size_t chunks = (a.rows() + sell.chunk() - 1) / sell.chunk();
  EXPECT_EQ(sell.bytes_per_apply(),
            sparse::sell_apply_bytes(a.rows(), a.cols(), sell.slots(),
                                     chunks));

  for (const int p : {1, 2, 3}) {
    const Partition part(a.rows(), p);
    par::Team::run(p, [&](par::Comm& comm) {
      const DistCsr dist(a, part, comm.rank());
      EXPECT_EQ(dist.bytes_per_apply(),
                sparse::csr_apply_bytes(
                    dist.local_rows(),
                    dist.local_rows() + dist.ghost_count(),
                    dist.local_nnz()));
      const DistCsr dist_sell(a, part, comm.rank(), SparseFormat::kSell);
      // SELL format: int32 columns, padded slots -- fewer bytes than the
      // int64 CSR on these shapes (that is the point of the format).
      EXPECT_LT(dist_sell.bytes_per_apply(), dist.bytes_per_apply());
    });
  }
}

}  // namespace
