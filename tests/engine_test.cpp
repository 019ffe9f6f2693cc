// Tests for the engine layer: BLAS-1/block kernels, dot batches, trace
// recording, and Serial/SPMD engine equivalence at the kernel level.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "pipescg/base/rng.hpp"
#include "pipescg/krylov/basis.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/stencil.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::krylov {
namespace {

sparse::CsrMatrix test_matrix() {
  return sparse::assemble_stencil2d(sparse::stencil_poisson5(), 6, 6, "p");
}

Vec random_vec(Engine& engine, std::uint64_t seed) {
  Rng rng(seed);
  Vec v = engine.new_vec();
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.uniform(-1, 1);
  return v;
}

TEST(SerialEngineTest, Blas1KernelsMatchManual) {
  const sparse::CsrMatrix a = test_matrix();
  SerialEngine engine(a);
  Vec x = random_vec(engine, 1);
  Vec y = random_vec(engine, 2);
  Vec y0 = engine.new_vec();
  engine.copy(y, y0);

  engine.axpy(y, 2.5, x);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_NEAR(y[i], y0[i] + 2.5 * x[i], 1e-15);

  Vec z = engine.new_vec();
  engine.waxpy(z, -1.0, x, y);  // z = y - x
  for (std::size_t i = 0; i < z.size(); ++i)
    EXPECT_NEAR(z[i], y[i] - x[i], 1e-15);

  engine.aypx(z, 0.5, x);  // z = x + 0.5 z
  Vec w = engine.new_vec();
  engine.set_all(w, 3.0);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_DOUBLE_EQ(w[i], 3.0);
  engine.scale(w, -2.0);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_DOUBLE_EQ(w[i], -6.0);
}

TEST(SerialEngineTest, DotBatchesMatchManual) {
  const sparse::CsrMatrix a = test_matrix();
  SerialEngine engine(a);
  Vec x = random_vec(engine, 3);
  Vec y = random_vec(engine, 4);
  double ref_xy = 0.0, ref_xx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ref_xy += x[i] * y[i];
    ref_xx += x[i] * x[i];
  }
  const DotPair pairs[2] = {{&x, &y}, {&x, &x}};
  double vals[2];
  engine.dots(pairs, vals);
  EXPECT_NEAR(vals[0], ref_xy, 1e-13);
  EXPECT_NEAR(vals[1], ref_xx, 1e-13);
  EXPECT_NEAR(engine.dot(x, y), ref_xy, 1e-13);
}

TEST(SerialEngineTest, BlockKernelsMatchManual) {
  const sparse::CsrMatrix a = test_matrix();
  SerialEngine engine(a);
  const std::size_t s = 3;
  VecBlock xb = engine.new_block(s);
  VecBlock yb = engine.new_block(s);
  for (std::size_t k = 0; k < s; ++k) {
    xb[k] = random_vec(engine, 10 + k);
    yb[k] = random_vec(engine, 20 + k);
  }
  VecBlock yb0 = engine.new_block(s);
  for (std::size_t k = 0; k < s; ++k) engine.copy(yb[k], yb0[k]);

  la::DenseMatrix b(s, s);
  Rng rng(30);
  for (std::size_t i = 0; i < s; ++i)
    for (std::size_t j = 0; j < s; ++j) b(i, j) = rng.uniform(-1, 1);

  engine.block_maxpy(yb, xb, b);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t i = 0; i < yb[j].size(); ++i) {
      double expect = yb0[j][i];
      for (std::size_t k = 0; k < s; ++k) expect += xb[k][i] * b(k, j);
      ASSERT_NEAR(yb[j][i], expect, 1e-13);
    }

  const double coeff[3] = {0.5, -1.5, 2.0};
  Vec base = random_vec(engine, 40);
  Vec out = engine.new_vec();
  engine.block_combine(out, base, xb, coeff);
  for (std::size_t i = 0; i < out.size(); ++i) {
    double expect = base[i];
    for (std::size_t k = 0; k < s; ++k) expect -= coeff[k] * xb[k][i];
    ASSERT_NEAR(out[i], expect, 1e-13);
  }

  Vec acc = engine.new_vec();
  engine.block_axpy(acc, xb, coeff);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    double expect = 0.0;
    for (std::size_t k = 0; k < s; ++k) expect += coeff[k] * xb[k][i];
    ASSERT_NEAR(acc[i], expect, 1e-13);
  }
}

TEST(SerialEngineTest, BlockCombineSupportsAliasedOutput) {
  const sparse::CsrMatrix a = test_matrix();
  SerialEngine engine(a);
  VecBlock t = engine.new_block(2);
  t[0] = random_vec(engine, 50);
  t[1] = random_vec(engine, 51);
  Vec base = random_vec(engine, 52);
  Vec expect = engine.new_vec();
  const double coeff[2] = {1.25, -0.5};
  engine.block_combine(expect, base, t, coeff);
  // Aliased: out == base.
  engine.block_combine(base, base, t, coeff);
  for (std::size_t i = 0; i < base.size(); ++i)
    ASSERT_DOUBLE_EQ(base[i], expect[i]);
}

// The vectors of one pipelined outer update (one chain, s columns): basis
// and extension, towers, direction blocks, x and the next basis.
struct UpdateState {
  UpdateState(Engine& engine, std::size_t s, std::uint64_t seed) {
    const auto block = [&](std::size_t cols) {
      VecBlock b;
      for (std::size_t k = 0; k < cols; ++k)
        b.push_back(random_vec(engine, seed++));
      return b;
    };
    lo = block(s + 1);
    ext = block(s);
    lo_next = block(s + 1);
    for (std::size_t j = 0; j <= s; ++j) {
      t_prev.push_back(block(s));
      t_cur.push_back(block(s));
    }
    p_prev = block(s);
    p_cur = block(s);
    x = random_vec(engine, seed++);
  }
  std::vector<const Vec*> all() const {
    std::vector<const Vec*> out = {&x};
    for (const VecBlock* b : {&lo, &ext, &lo_next, &p_prev, &p_cur})
      for (const Vec& v : *b) out.push_back(&v);
    for (const auto* t : {&t_prev, &t_cur})
      for (const VecBlock& b : *t)
        for (const Vec& v : b) out.push_back(&v);
    return out;
  }
  VecBlock lo, ext, lo_next, p_prev, p_cur;
  std::vector<VecBlock> t_prev, t_cur;
  Vec x;
};

// pipelined_core's outer update, through `batch` (run once at the end) or,
// with batch == nullptr, as immediate engine calls.
void outer_update(Engine& engine, VectorBatch* batch, UpdateState& st,
                  const ShiftedBasis& basis, const la::DenseMatrix& b,
                  std::span<const double> alpha, bool first) {
  const std::size_t s = st.p_cur.size();
  VectorBatch single(engine);
  VectorBatch& up = batch != nullptr ? *batch : single;
  const auto done = [&] {
    if (batch == nullptr) up.run();
  };
  for (std::size_t c = 0; c < s; ++c) {
    if (batch == nullptr) engine.copy(st.lo[c], st.p_cur[c]);
    else up.copy(st.lo[c], st.p_cur[c]);
  }
  if (!first) {
    if (batch == nullptr) engine.block_maxpy(st.p_cur, st.p_prev, b);
    else up.block_maxpy(st.p_cur, st.p_prev, b);
  }
  const ChainView view{&st.lo, &st.ext};
  for (std::size_t j = 0; j <= s; ++j) {
    for (std::size_t c = 0; c < s; ++c) {
      if (!basis.monomial())
        combine_chain(up, basis.seed(static_cast<int>(j), static_cast<int>(c)),
                      view, st.t_cur[j][c]);
      else if (batch == nullptr)
        engine.copy(view[j + 1 + c], st.t_cur[j][c]);
      else
        up.copy(view[j + 1 + c], st.t_cur[j][c]);
      done();
    }
    if (!first) {
      if (batch == nullptr) engine.block_maxpy(st.t_cur[j], st.t_prev[j], b);
      else up.block_maxpy(st.t_cur[j], st.t_prev[j], b);
    }
  }
  if (batch == nullptr) engine.block_axpy(st.x, st.p_cur, alpha);
  else up.block_axpy(st.x, st.p_cur, alpha);
  for (std::size_t j = 0; j <= s; ++j) {
    if (batch == nullptr)
      engine.block_combine(st.lo_next[j], st.lo[j], st.t_cur[j], alpha);
    else
      up.block_combine(st.lo_next[j], st.lo[j], st.t_cur[j], alpha);
  }
  // An aliased combine, in place on x.
  if (batch == nullptr) engine.block_combine(st.x, st.x, st.p_cur, alpha);
  else up.block_combine(st.x, st.x, st.p_cur, alpha);
  if (batch != nullptr) batch->run();
}

// A batched update charges the immediate calls' event sequence, event for
// event, and leaves every vector bitwise as the immediate calls do --
// monomial and shifted seeds, with and without the B recurrence terms, on
// vectors longer than one program block.
TEST(SerialEngineTest, BatchedUpdateMatchesImmediateCallsAndEvents) {
  const sparse::CsrMatrix a = sparse::assemble_stencil2d(
      sparse::stencil_poisson5(), 41, 37, "p");
  const std::size_t s = 3;
  la::DenseMatrix b(s, s);
  Rng rng(60);
  for (std::size_t i = 0; i < s; ++i)
    for (std::size_t j = 0; j < s; ++j) b(i, j) = rng.uniform(-1, 1);
  b(1, 2) = 0.0;  // skipped by block_maxpy
  const double alpha[3] = {0.5, 0.0, -1.25};  // the zero is applied
  for (const BasisType type : {BasisType::kMonomial, BasisType::kChebyshev}) {
    BasisSpec spec;
    spec.type = type;
    spec.lambda_min = 0.1;
    spec.lambda_max = 8.0;
    const ShiftedBasis basis(spec, static_cast<int>(s));
    for (const bool first : {true, false}) {
      sim::EventTrace trace_now, trace_batch;
      SerialEngine now(a, nullptr, &trace_now);
      SerialEngine batched(a, nullptr, &trace_batch);
      UpdateState st_now(now, s, 70), st_batch(batched, s, 70);
      outer_update(now, nullptr, st_now, basis, b, alpha, first);
      VectorBatch up(batched);
      outer_update(batched, &up, st_batch, basis, b, alpha, first);

      const auto& want = trace_now.events();
      const auto& got = trace_batch.events();
      ASSERT_EQ(got.size(), want.size());
      ASSERT_GT(want.size(), 0u);
      for (std::size_t e = 0; e < want.size(); ++e) {
        EXPECT_EQ(got[e].kind, want[e].kind) << e;
        EXPECT_EQ(got[e].flops, want[e].flops) << e;
        EXPECT_EQ(got[e].bytes, want[e].bytes) << e;
        EXPECT_EQ(got[e].id, want[e].id) << e;
        EXPECT_EQ(got[e].index, want[e].index) << e;
      }
      const std::vector<const Vec*> vn = st_now.all(), vb = st_batch.all();
      for (std::size_t v = 0; v < vn.size(); ++v)
        for (std::size_t i = 0; i < vn[v]->size(); ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>((*vb[v])[i]),
                    std::bit_cast<std::uint64_t>((*vn[v])[i]))
              << "vector " << v << " i=" << i;
    }
  }
}

// An in-place op folds into the batch's last writer of its vector only when
// nothing issued in between reads that vector or writes one of its columns;
// each sequence below needs the fold refused, and must still end bitwise as
// the immediate calls leave it.
TEST(SerialEngineTest, BatchRefusesUnsafeFolds) {
  const sparse::CsrMatrix a = sparse::assemble_stencil2d(
      sparse::stencil_poisson5(), 29, 23, "p");
  SerialEngine engine(a);
  const double coeff[2] = {0.75, -1.5};
  // 0: read of dst in between (a base), 1: read of dst in between (a term),
  // 2: write of a column in between.
  for (int kind = 0; kind < 3; ++kind) {
    std::vector<VecBlock> runs;
    for (const bool batched : {false, true}) {
      VecBlock v;
      for (std::uint64_t k = 0; k < 6; ++k)
        v.push_back(random_vec(engine, 90 + k));
      VecBlock cols = {v[3], v[4]};
      VectorBatch up(engine);
      const auto step = [&] {
        if (!batched) up.run();
      };
      up.copy(v[1], v[0]);  // the writer the in-place op would fold into
      step();
      if (kind == 0) up.copy(v[0], v[2]);
      if (kind == 1) up.lincomb(v[2], nullptr, {&v[0], 1}, {coeff, 1}, false);
      if (kind == 2) up.copy(v[5], cols[1]);
      step();
      up.block_axpy(v[0], cols, coeff);
      up.run();
      v.push_back(cols[0]);
      v.push_back(cols[1]);
      runs.push_back(std::move(v));
    }
    for (std::size_t k = 0; k < runs[0].size(); ++k)
      for (std::size_t i = 0; i < runs[0][k].size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(runs[1][k][i]),
                  std::bit_cast<std::uint64_t>(runs[0][k][i]))
            << "kind " << kind << " vector " << k << " i=" << i;
  }
}

TEST(SerialEngineTest, TraceRecordsKernelInvocations) {
  const sparse::CsrMatrix a = test_matrix();
  precond::JacobiPreconditioner pc(a);
  sim::EventTrace trace;
  SerialEngine engine(a, &pc, &trace);
  Vec x = random_vec(engine, 5);
  Vec y = engine.new_vec();
  engine.apply_op(x, y);
  engine.apply_op(y, x);
  engine.apply_pc(x, y);
  const DotPair p{&x, &y};
  double v;
  DotHandle h = engine.dot_post(std::span(&p, 1));
  engine.dot_wait(h, std::span(&v, 1));
  engine.mark_iteration(0, 1.0);

  const sim::EventTrace::Counters c = trace.counters();
  EXPECT_EQ(c.spmvs, 2u);
  EXPECT_EQ(c.pc_applies, 1u);
  EXPECT_EQ(c.allreduces, 1u);
  EXPECT_EQ(c.iterations, 1u);
}

TEST(SerialEngineTest, IdentityPcIsCopy) {
  const sparse::CsrMatrix a = test_matrix();
  SerialEngine engine(a);  // no preconditioner
  EXPECT_FALSE(engine.has_preconditioner());
  Vec x = random_vec(engine, 6);
  Vec y = engine.new_vec();
  engine.apply_pc(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(SerialEngineTest, MismatchedPcThrows) {
  const sparse::CsrMatrix a = test_matrix();
  const sparse::CsrMatrix small =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), 3, 3, "s");
  precond::JacobiPreconditioner pc(small);
  EXPECT_THROW(SerialEngine(a, &pc), Error);
}

class SpmdKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(SpmdKernelTest, DotsMatchSerialEngine) {
  const int p = GetParam();
  const sparse::CsrMatrix a = sparse::make_thermal2_like(9, 8);
  SerialEngine serial(a);
  Vec gx = random_vec(serial, 60);
  Vec gy = random_vec(serial, 61);
  const double ref = serial.dot(gx, gy);

  const sparse::Partition part(a.rows(), p);
  par::Team::run(p, [&](par::Comm& comm) {
    const sparse::DistCsr dist(a, part, comm.rank());
    SpmdEngine engine(comm, dist);
    Vec x = engine.new_vec(), y = engine.new_vec();
    const std::size_t begin = part.begin(comm.rank());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = gx[begin + i];
      y[i] = gy[begin + i];
    }
    EXPECT_NEAR(engine.dot(x, y), ref, 1e-11 * (1.0 + std::abs(ref)));
  });
}

TEST_P(SpmdKernelTest, SpmvMatchesSerialEngine) {
  const int p = GetParam();
  const sparse::CsrMatrix a = sparse::make_thermal2_like(9, 8);
  SerialEngine serial(a);
  Vec gx = random_vec(serial, 62);
  Vec gy = serial.new_vec();
  serial.apply_op(gx, gy);

  const sparse::Partition part(a.rows(), p);
  par::Team::run(p, [&](par::Comm& comm) {
    const sparse::DistCsr dist(a, part, comm.rank());
    SpmdEngine engine(comm, dist);
    Vec x = engine.new_vec(), y = engine.new_vec();
    const std::size_t begin = part.begin(comm.rank());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = gx[begin + i];
    engine.apply_op(x, y);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], gy[begin + i], 1e-11 * (1.0 + std::abs(gy[begin + i])));
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, SpmdKernelTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace pipescg::krylov
