// Kernel microbenchmarks (google-benchmark): the building blocks whose costs
// the machine model prices -- SPMV (scalar CSR, SELL-C-sigma, matrix-free
// stencil), the s-step block kernels, dot batches (fused single-pass vs one
// sweep per pair), the basis-step epilogue (fused vs copy/axpy/axpy/scale),
// the s x s scalar work, and the runtime's allreduce -- plus a
// modeled-vs-measured cross-check hook (the printed real-time numbers are
// what one would calibrate MachineModel against on a new machine).
//
// Two entry modes:
//   * default             -- google-benchmark over everything registered;
//   * --bench-json PATH   -- a fixed steady_clock harness over the hot-kernel
//                            pairs (CSR vs SELL per matrix family, fused vs
//                            unfused dot batch, basis step and s-step outer
//                            update), written as
//                            BENCH_kernels.json with every measured number
//                            under ratios.kernels.* so tools/diff_reports.py
//                            and tools/perf_trajectory.py gate and track them
//                            like any other bench (see .github/workflows).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/la/lu.hpp"
#include "pipescg/la/vector_kernels.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/precond/ssor.hpp"
#include "pipescg/sparse/bytes_model.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/sell_matrix.hpp"
#include "pipescg/sparse/stencil.hpp"
#include "pipescg/sparse/surrogates.hpp"

using namespace pipescg;

namespace {

// Bytes one serial CSR apply moves, from operator shape -- the SAME model
// DistCsr::bytes_per_apply uses (sparse::csr_apply_bytes), so the GB/s
// google-benchmark prints is comparable with the
// pipescg_spmv_throughput_bytes_per_second gauges.
std::int64_t csr_apply_bytes(const sparse::CsrMatrix& a) {
  return static_cast<std::int64_t>(
      sparse::csr_apply_bytes(a.rows(), a.cols(), a.nnz()));
}

void BM_SpmvCsr5pt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), n, n, "p5");
  std::vector<double> x(a.rows(), 1.0), y(a.rows());
  for (auto _ : state) {
    a.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          csr_apply_bytes(a));
}
BENCHMARK(BM_SpmvCsr5pt)->Arg(64)->Arg(256);

// The same matrix through its SELL-C-sigma conversion: int32 columns,
// chunk-major storage, active-lane kernel.  Pair with BM_SpmvCsr5pt -- the
// time ratio is the measured side of MachineModel::local_spmv_seconds.
void BM_SpmvSell5pt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), n, n, "p5");
  const sparse::SellMatrix sell(a);
  std::vector<double> x(a.rows(), 1.0), y(a.rows());
  for (auto _ : state) {
    sell.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sell.nnz()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sell.bytes_per_apply()));
}
BENCHMARK(BM_SpmvSell5pt)->Arg(64)->Arg(256);

void BM_SpmvStencil125(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto op = sparse::make_poisson125_operator(n);
  std::vector<double> x(op->rows(), 1.0), y(op->rows());
  for (auto _ : state) {
    op->apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(op->stats().nnz));
  // Matrix-free: only the vectors move (coefficients live in registers).
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(op->rows() * 2 *
                                                    sizeof(double)));
}
BENCHMARK(BM_SpmvStencil125)->Arg(24)->Arg(48);

void BM_SpmvCsr125(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sparse::CsrMatrix a = sparse::make_poisson125_csr(n);
  std::vector<double> x(a.rows(), 1.0), y(a.rows());
  for (auto _ : state) {
    a.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.nnz()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          csr_apply_bytes(a));
}
BENCHMARK(BM_SpmvCsr125)->Arg(24);

void BM_SpmvSell125(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sparse::CsrMatrix a = sparse::make_poisson125_csr(n);
  const sparse::SellMatrix sell(a);
  std::vector<double> x(a.rows(), 1.0), y(a.rows());
  for (auto _ : state) {
    sell.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sell.nnz()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sell.bytes_per_apply()));
}
BENCHMARK(BM_SpmvSell125)->Arg(24);

void BM_BlockCombine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int s = static_cast<int>(state.range(1));
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), n, n, "p5");
  krylov::SerialEngine engine(a);
  krylov::VecBlock block = engine.new_block(static_cast<std::size_t>(s));
  krylov::Vec base = engine.new_vec(), out = engine.new_vec();
  std::vector<double> coeff(static_cast<std::size_t>(s), 0.5);
  for (auto _ : state) {
    engine.block_combine(out, base, block, coeff);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BlockCombine)->Args({256, 3})->Args({256, 5});

void BM_DotBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs_n = static_cast<std::size_t>(state.range(1));
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), n, n, "p5");
  krylov::SerialEngine engine(a);
  krylov::VecBlock block = engine.new_block(pairs_n);
  std::vector<krylov::DotPair> pairs;
  for (std::size_t i = 0; i < pairs_n; ++i)
    pairs.push_back(krylov::DotPair{&block[i], &block[i]});
  std::vector<double> out(pairs_n);
  for (auto _ : state) {
    engine.dots(pairs, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DotBatch)->Args({256, 7})->Args({256, 18});

// The raw fused-vs-unfused dot-batch pair at out-of-cache sizes: pairs walk
// a ring of distinct vectors so the unfused path re-streams every operand
// from DRAM while the fused path touches each 2048-double block of all
// operands before moving on.  arg0 = log2(vector length), arg1 = pairs.
void dot_batch_bench(benchmark::State& state, bool fused) {
  const std::size_t n = std::size_t{1} << static_cast<std::size_t>(
                            state.range(0));
  const auto pairs_n = static_cast<std::size_t>(state.range(1));
  std::vector<la::AlignedDoubles> store(pairs_n + 1);
  for (std::size_t v = 0; v < store.size(); ++v) {
    store[v].resize(n);
    for (std::size_t i = 0; i < n; ++i)
      store[v][i] = 1.0 / static_cast<double>(v + i + 1);
  }
  std::vector<la::DotView> views;
  for (std::size_t p = 0; p < pairs_n; ++p)
    views.push_back(la::DotView{store[p].data(), store[p + 1].data()});
  std::vector<double> out(pairs_n);
  const la::FusedKernelsGuard guard(fused);
  for (auto _ : state) {
    la::dot_batch(views, n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(pairs_n * 2 * n * sizeof(double)));
}
void BM_DotBatchFused(benchmark::State& state) { dot_batch_bench(state, true); }
void BM_DotBatchUnfused(benchmark::State& state) {
  dot_batch_bench(state, false);
}
BENCHMARK(BM_DotBatchFused)->Args({19, 18});
BENCHMARK(BM_DotBatchUnfused)->Args({19, 18});

// The basis-step epilogue dst = (av - theta p1 - sigma p2) / gamma: fused is
// one pass over four streams, unfused replays the copy/axpy/axpy/scale chain
// (four read-modify-write passes over dst).  arg0 = log2(vector length).
void basis_step_bench(benchmark::State& state, bool fused) {
  const std::size_t n = std::size_t{1} << static_cast<std::size_t>(
                            state.range(0));
  la::AlignedDoubles dst(n), av(n), p1(n), p2(n);
  for (std::size_t i = 0; i < n; ++i) {
    av[i] = 1.0 / static_cast<double>(i + 1);
    p1[i] = 1.0 / static_cast<double>(i + 2);
    p2[i] = 1.0 / static_cast<double>(i + 3);
  }
  const la::FusedKernelsGuard guard(fused);
  for (auto _ : state) {
    la::shift_combine(dst.data(), av.data(), 0.37, p1.data(), 0.21, p2.data(),
                      1.73, n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n * sizeof(double)));
}
void BM_BasisStepFused(benchmark::State& state) {
  basis_step_bench(state, true);
}
void BM_BasisStepUnfused(benchmark::State& state) {
  basis_step_bench(state, false);
}
BENCHMARK(BM_BasisStepFused)->Arg(19);
BENCHMARK(BM_BasisStepUnfused)->Arg(19);

void BM_SsorApply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const sparse::CsrMatrix a =
      sparse::assemble_stencil2d(sparse::stencil_poisson5(), n, n, "p5");
  const precond::SsorPreconditioner pc(a);
  std::vector<double> r(a.rows(), 1.0), u(a.rows());
  for (auto _ : state) {
    pc.apply(r, u);
    benchmark::DoNotOptimize(u.data());
  }
}
BENCHMARK(BM_SsorApply)->Arg(128);

void BM_ScalarWork(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  // Moments of a tiny SPD system (reused every iteration).
  std::vector<double> moments(static_cast<std::size_t>(2 * s + 1));
  for (int j = 0; j <= 2 * s; ++j)
    moments[static_cast<std::size_t>(j)] = 1.0 / (1.0 + j);  // Hilbert-ish
  la::DenseMatrix cross(static_cast<std::size_t>(s),
                        static_cast<std::size_t>(s));
  for (auto _ : state) {
    krylov::sstep::ScalarWork work(s);
    auto result = work.step(moments, cross);
    benchmark::DoNotOptimize(result.alpha.data());
  }
}
BENCHMARK(BM_ScalarWork)->Arg(3)->Arg(5)->Arg(8);

// s distributed SPMVs the plain way: one halo-exchange epoch each.  Pair
// with BM_MatrixPowers below for the measured side of the communication-
// avoidance trade the cost model prices (print_spmv_block_table).  On the
// in-process runtime an epoch costs two barriers (microseconds, not the
// network round-trips the model charges), so the redundant ghost-row flops
// usually make the block a net loss *here* -- the pair quantifies the two
// sides of the trade (epochs saved vs flops added); where the trade wins is
// the model's latency-dominated operating points.
void BM_DistSpmvRepeated(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int s = static_cast<int>(state.range(1));
  const sparse::CsrMatrix a = sparse::make_poisson125_csr(12);
  const sparse::Partition part(a.rows(), ranks);
  // Construction is communication-free and identical across iterations;
  // keep it out of the timed region so the measurement is the apply path.
  std::vector<sparse::DistCsr> dists;
  for (int r = 0; r < ranks; ++r) dists.emplace_back(a, part, r);
  for (auto _ : state) {
    par::Team::run(ranks, [&](par::Comm& comm) {
      const sparse::DistCsr& dist = dists[static_cast<std::size_t>(comm.rank())];
      std::vector<double> ghosts;
      std::vector<std::vector<double>> v(
          static_cast<std::size_t>(s) + 1,
          std::vector<double>(dist.local_rows(), 1.0));
      for (int round = 0; round < 8; ++round)
        for (int j = 0; j < s; ++j)
          dist.apply(comm, v[static_cast<std::size_t>(j)],
                     v[static_cast<std::size_t>(j) + 1], ghosts);
      benchmark::DoNotOptimize(v.back().data());
    });
  }
  std::int64_t bytes_per_round = 0;
  for (const sparse::DistCsr& d : dists)
    bytes_per_round += static_cast<std::int64_t>(d.bytes_per_apply());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          s * bytes_per_round);
}
BENCHMARK(BM_DistSpmvRepeated)->Args({2, 3})->Args({4, 3})->Args({4, 6});

// The same s SPMVs through the matrix-powers kernel: one deep exchange per
// block plus redundant ghost-row compute.
void BM_MatrixPowers(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int s = static_cast<int>(state.range(1));
  const sparse::CsrMatrix a = sparse::make_poisson125_csr(12);
  const sparse::Partition part(a.rows(), ranks);
  std::vector<sparse::MatrixPowers> mpks;
  for (int r = 0; r < ranks; ++r) mpks.emplace_back(a, part, r, s);
  for (auto _ : state) {
    par::Team::run(ranks, [&](par::Comm& comm) {
      const sparse::MatrixPowers& mpk =
          mpks[static_cast<std::size_t>(comm.rank())];
      sparse::MatrixPowers::Scratch scratch;
      std::vector<double> x(mpk.local_rows(), 1.0);
      std::vector<std::vector<double>> v(
          static_cast<std::size_t>(s),
          std::vector<double>(mpk.local_rows()));
      std::vector<std::span<double>> outs;
      for (auto& o : v) outs.emplace_back(o);
      for (int round = 0; round < 8; ++round)
        mpk.apply(comm, x, outs, scratch);
      benchmark::DoNotOptimize(v.back().data());
    });
  }
  std::int64_t bytes_per_block = 0;
  for (const sparse::MatrixPowers& m : mpks)
    bytes_per_block += static_cast<std::int64_t>(
        m.bytes_per_block(static_cast<std::size_t>(s)));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          bytes_per_block);
}
BENCHMARK(BM_MatrixPowers)->Args({2, 3})->Args({4, 3})->Args({4, 6});

void BM_RuntimeAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t payload = 18;  // a PIPE-PsCG s=3 batch
  for (auto _ : state) {
    par::Team::run(ranks, [&](par::Comm& comm) {
      std::vector<double> v(payload, 1.0), out(payload);
      for (int round = 0; round < 16; ++round)
        comm.allreduce_sum(v, out);
      benchmark::DoNotOptimize(out.data());
    });
  }
}
BENCHMARK(BM_RuntimeAllreduce)->Arg(2)->Arg(4);

// ---------------------------------------------------------------------------
// --bench-json mode: a fixed steady_clock harness over the hot-kernel pairs.
//
// google-benchmark's reporters print; this mode *gates*.  Every number lands
// under ratios.kernels.* in the same BENCH_<name>.json schema the figure
// benches emit, so the kernel-smoke CI job diffs it against
// tools/bench_baseline/BENCH_kernels.json (GB/s keys with machine slack,
// time-ratio speedups tighter, pass counts and padding ratios exact) and
// appends it to bench/trajectory/kernels.jsonl.

// Seconds per call: adaptive batch sized to ~10 ms, best of `reps` batches
// (best-of filters scheduler noise; these feed ratio keys, not absolutes).
template <typename F>
double seconds_per_call(F&& fn, int reps = 5) {
  using clock = std::chrono::steady_clock;
  auto once = [&](int iters) {
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(clock::now() - t0).count() / iters;
  };
  fn();  // warm the caches and the page tables
  double t = once(1);
  const int iters =
      t > 0.0 ? std::max(1, static_cast<int>(0.01 / t)) : 1000;
  double best = once(iters);
  for (int r = 1; r < reps; ++r) best = std::min(best, once(iters));
  return best;
}

double to_gbs(double bytes, double seconds) {
  return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
}

// One CSR-vs-SELL pair: measure both applies on the same matrix, emit GB/s
// for each (their own bytes models: 16 B/nnz CSR vs ~12 B/nnz SELL), the
// TIME ratio csr/sell as the speedup, and the deterministic padding ratio.
void spmv_pair(obs::json::Value& kernels, const std::string& label,
               const sparse::CsrMatrix& a) {
  const sparse::SellMatrix sell(a);
  std::vector<double> x(a.rows(), 1.0), y(a.rows());
  const double t_csr = seconds_per_call([&] { a.apply(x, y); });
  const double t_sell = seconds_per_call([&] { sell.apply(x, y); });
  const auto csr_bytes = static_cast<double>(csr_apply_bytes(a));
  const auto sell_bytes = static_cast<double>(sell.bytes_per_apply());
  kernels.set("spmv_csr_gbs_" + label, to_gbs(csr_bytes, t_csr));
  kernels.set("spmv_sell_gbs_" + label, to_gbs(sell_bytes, t_sell));
  kernels.set("sell_vs_csr_speedup_" + label,
              t_sell > 0.0 ? t_csr / t_sell : 0.0);
  kernels.set("sell_padding_" + label, sell.padding_ratio());
  std::printf("  %-12s csr %7.2f GB/s  sell %7.2f GB/s  speedup %5.2fx  "
              "padding %.3f\n",
              label.c_str(), to_gbs(csr_bytes, t_csr),
              to_gbs(sell_bytes, t_sell), t_sell > 0.0 ? t_csr / t_sell : 0.0,
              sell.padding_ratio());
}

int run_bench_json(const std::string& path) {
  obs::json::Value kernels = obs::json::Value::object();
  std::printf("kernel harness (--bench-json): CSR vs SELL\n");

  // The three matrix families the identity tests pin: the paper's 125-pt
  // Poisson and the two SuiteSparse-like surrogates.
  spmv_pair(kernels, "poisson125", sparse::make_poisson125_csr(16));
  spmv_pair(kernels, "ecology2", sparse::make_ecology2_like(192, 192));
  spmv_pair(kernels, "thermal2", sparse::make_thermal2_like(192, 192));

  // Fused vs unfused dot batch: 18 pairs (a PIPE-PsCG s=3 outer batch) over
  // 2^21-double vectors (a 300 MB ring, past most LLCs) -- the unfused path
  // pays one DRAM stream per pair while the fused path re-uses each
  // cache-resident block across all pairs and runs the pairs of a group as
  // independent add chains.
  {
    const std::size_t n = std::size_t{1} << 21;
    const std::size_t pairs_n = 18;
    std::vector<la::AlignedDoubles> store(pairs_n + 1);
    for (std::size_t v = 0; v < store.size(); ++v) {
      store[v].resize(n);
      for (std::size_t i = 0; i < n; ++i)
        store[v][i] = 1.0 / static_cast<double>(v + i + 1);
    }
    std::vector<la::DotView> views;
    for (std::size_t p = 0; p < pairs_n; ++p)
      views.push_back(la::DotView{store[p].data(), store[p + 1].data()});
    std::vector<double> out(pairs_n);
    const double bytes =
        static_cast<double>(pairs_n * 2 * n * sizeof(double));
    double t_fused, t_unfused;
    {
      const la::FusedKernelsGuard guard(true);
      t_fused = seconds_per_call([&] { la::dot_batch(views, n, out); });
    }
    {
      const la::FusedKernelsGuard guard(false);
      t_unfused = seconds_per_call([&] { la::dot_batch(views, n, out); });
    }
    kernels.set("dot_fused_gbs", to_gbs(bytes, t_fused));
    kernels.set("dot_unfused_gbs", to_gbs(bytes, t_unfused));
    kernels.set("dot_fused_speedup",
                t_fused > 0.0 ? t_unfused / t_fused : 0.0);

    // The deterministic side of the same claim: memory passes per batch.
    la::KernelStats& stats = la::kernel_stats();
    {
      const la::FusedKernelsGuard guard(false);
      stats.reset();
      la::dot_batch(views, n, out);
      kernels.set("dot_passes_unfused", stats.dot_sweeps);
    }
    {
      const la::FusedKernelsGuard guard(true);
      stats.reset();
      la::dot_batch(views, n, out);
      kernels.set("dot_passes_fused", stats.dot_sweeps);
    }
    std::printf("  dot batch    fused %7.2f GB/s  unfused %7.2f GB/s  "
                "speedup %5.2fx  passes %zu -> %zu\n",
                to_gbs(bytes, t_fused), to_gbs(bytes, t_unfused),
                t_fused > 0.0 ? t_unfused / t_fused : 0.0, pairs_n,
                std::size_t{1});
  }

  // The same batch cache-resident: the s = 3 preconditioned layout
  // (build_dot_pairs: 18 pairs over 11 vectors) at 45,000 doubles, one
  // ecology2 rank.  Memory is no bound here, so this is the add-latency
  // side: unfused, each pair is one dependent chain of 45,000 additions;
  // fused, a group's pairs are independent chains the core overlaps.
  {
    const std::size_t n = 45000;
    const std::size_t s = 3;
    krylov::VecBlock w(s + 1, krylov::Vec(n)), v(s + 1, krylov::Vec(n)),
        ap(s, krylov::Vec(n));
    double fill = 1.0;
    for (krylov::VecBlock* block : {&w, &v, &ap})
      for (krylov::Vec& vec : *block) {
        for (std::size_t i = 0; i < n; ++i)
          vec[i] = 1.0 / (fill + static_cast<double>(i));
        fill += 1.0;
      }
    std::vector<krylov::DotPair> pairs;
    krylov::sstep::build_dot_pairs(krylov::sstep::DotLayout{3, true}, w, v,
                                   ap, pairs);
    std::vector<la::DotView> views;
    for (const krylov::DotPair& p : pairs)
      views.push_back(la::DotView{p.x->data(), p.y->data()});
    std::vector<double> out(views.size());
    double t_fused, t_unfused;
    {
      const la::FusedKernelsGuard guard(true);
      t_fused = seconds_per_call([&] { la::dot_batch(views, n, out); });
    }
    {
      const la::FusedKernelsGuard guard(false);
      t_unfused = seconds_per_call([&] { la::dot_batch(views, n, out); });
    }
    kernels.set("dot_resident_fused_speedup",
                t_fused > 0.0 ? t_unfused / t_fused : 0.0);
    std::printf("  dot resident fused %7.1f us  unfused %7.1f us  "
                "speedup %5.2fx  (%zu pairs, n = %zu)\n",
                t_fused * 1e6, t_unfused * 1e6,
                t_fused > 0.0 ? t_unfused / t_fused : 0.0, views.size(), n);
  }

  // Fused vs unfused basis step (the shifted-basis epilogue): one pass over
  // four streams vs the copy/axpy/axpy/scale chain.
  {
    const std::size_t n = std::size_t{1} << 19;
    la::AlignedDoubles dst(n), av(n), p1(n), p2(n);
    for (std::size_t i = 0; i < n; ++i) {
      av[i] = 1.0 / static_cast<double>(i + 1);
      p1[i] = 1.0 / static_cast<double>(i + 2);
      p2[i] = 1.0 / static_cast<double>(i + 3);
    }
    auto step = [&] {
      la::shift_combine(dst.data(), av.data(), 0.37, p1.data(), 0.21,
                        p2.data(), 1.73, n);
    };
    const double bytes = static_cast<double>(4 * n * sizeof(double));
    double t_fused, t_unfused;
    {
      const la::FusedKernelsGuard guard(true);
      t_fused = seconds_per_call(step);
    }
    {
      const la::FusedKernelsGuard guard(false);
      t_unfused = seconds_per_call(step);
    }
    kernels.set("basis_fused_gbs", to_gbs(bytes, t_fused));
    kernels.set("basis_unfused_gbs", to_gbs(bytes, t_unfused));
    kernels.set("basis_fused_speedup",
                t_fused > 0.0 ? t_unfused / t_fused : 0.0);

    la::KernelStats& stats = la::kernel_stats();
    {
      const la::FusedKernelsGuard guard(false);
      stats.reset();
      step();
      kernels.set("basis_passes_unfused", stats.basis_passes);
    }
    {
      const la::FusedKernelsGuard guard(true);
      stats.reset();
      step();
      kernels.set("basis_passes_fused", stats.basis_passes);
    }
    std::printf("  basis step   fused %7.2f GB/s  unfused %7.2f GB/s  "
                "speedup %5.2fx\n",
                to_gbs(bytes, t_fused), to_gbs(bytes, t_unfused),
                t_fused > 0.0 ? t_unfused / t_fused : 0.0);
  }

  // Fused vs unfused outer update: one PIPE-PsCG outer iteration's vector
  // work at s = 3 (two chains, monomial basis, past the first iteration)
  // issued in pipelined_core's call order -- the direction block, both
  // chains' power towers, the x update and the recurred bases -- at 45,000
  // doubles per vector (ecology2's rank-local length on 2 ranks).  Fused,
  // the batch is one blocked pass over its ~80 vectors; unfused, it is the
  // whole-vector calls one after another.
  {
    constexpr std::size_t s = 3;
    const sparse::CsrMatrix a = sparse::assemble_stencil2d(
        sparse::stencil_poisson5(), 225, 200, "p5");
    krylov::SerialEngine engine(a);
    double next = 1.0;
    const auto block = [&](std::size_t cols) {
      krylov::VecBlock blk = engine.new_block(cols);
      for (krylov::Vec& v : blk) {
        for (std::size_t i = 0; i < v.size(); ++i)
          v[i] = 1.0 / (next + static_cast<double>(i));
        next += 1.0;
      }
      return blk;
    };
    struct Chain {
      krylov::VecBlock lo, lo_next, ext;
      std::vector<krylov::VecBlock> t_prev, t_cur;
    };
    std::vector<Chain> chains(2);
    for (Chain& ch : chains) {
      ch.lo = block(s + 1);
      ch.lo_next = block(s + 1);
      ch.ext = block(s);
      for (std::size_t j = 0; j <= s; ++j) {
        ch.t_prev.push_back(block(s));
        ch.t_cur.push_back(block(s));
      }
    }
    krylov::VecBlock p_prev = block(s), p_cur = block(s);
    krylov::Vec x = block(1)[0];
    la::DenseMatrix b(s, s);
    for (std::size_t i = 0; i < s; ++i)
      for (std::size_t j = 0; j < s; ++j)
        b(i, j) = 0.1 / static_cast<double>(1 + i + 2 * j);
    const std::vector<double> alpha = {0.3, -0.2, 0.1};
    krylov::VectorBatch up(engine);
    auto update = [&] {
      for (std::size_t c = 0; c < s; ++c) up.copy(chains[0].lo[c], p_cur[c]);
      up.block_maxpy(p_cur, p_prev, b);
      for (std::size_t j = 0; j <= s; ++j) {
        for (std::size_t c = 0; c < s; ++c)
          for (Chain& ch : chains)
            up.copy(j + 1 + c <= s ? ch.lo[j + 1 + c] : ch.ext[j + c - s],
                    ch.t_cur[j][c]);
        for (Chain& ch : chains) up.block_maxpy(ch.t_cur[j], ch.t_prev[j], b);
      }
      up.block_axpy(x, p_cur, alpha);
      for (std::size_t j = 0; j <= s; ++j)
        for (Chain& ch : chains)
          up.block_combine(ch.lo_next[j], ch.lo[j], ch.t_cur[j], alpha);
      up.run();
    };
    double t_fused, t_unfused;
    {
      const la::FusedKernelsGuard guard(true);
      t_fused = seconds_per_call(update);
    }
    {
      const la::FusedKernelsGuard guard(false);
      t_unfused = seconds_per_call(update);
    }
    kernels.set("outer_update_fused_speedup",
                t_fused > 0.0 ? t_unfused / t_fused : 0.0);

    la::KernelStats& stats = la::kernel_stats();
    {
      const la::FusedKernelsGuard guard(false);
      stats.reset();
      update();
      kernels.set("outer_update_passes_unfused", stats.program_passes);
    }
    {
      const la::FusedKernelsGuard guard(true);
      stats.reset();
      update();
      kernels.set("outer_update_passes_fused", stats.program_passes);
    }
    std::printf("  outer update fused %7.3f ms  unfused %7.3f ms  "
                "speedup %5.2fx\n",
                1e3 * t_fused, 1e3 * t_unfused,
                t_fused > 0.0 ? t_unfused / t_fused : 0.0);
  }

  // Recording overhead: the SAME 1-rank SPMD solve with and without the
  // rank recorder a traced request installs (request capacity, trace
  // context, rank_solve and solve scopes, every kernel span and checkpoint
  // recorded).  Timed as interleaved pairs of equal-length blocks, the side
  // that runs first alternating; the ratio is the median of the per-pair
  // ratios, so machine drift cancels within a pair.  The contract is
  // "recording never perturbs the solve": the ratio gates at <= 3% in CI.
  obs::json::Value obs_ratios = obs::json::Value::object();
  {
    const sparse::CsrMatrix a = sparse::make_poisson125_csr(10);
    const sparse::Partition part(a.rows(), 1);
    const sparse::DistCsr dist(a, part, 0);
    krylov::Vec b(a.rows());
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0;
    krylov::SolverOptions opts;
    opts.rtol = 1e-8;
    opts.s = 3;
    const auto solver = krylov::make_solver("scg-sspmv");
    par::PersistentTeam team(1);
    std::size_t spans = 0;
    auto solve_once = [&](bool traced) {
      std::optional<obs::SolveProfile> rec;
      if (traced)
        rec.emplace(1, obs::Profiler::kDefaultCapacity,
                    obs::tracing::new_trace());
      obs::Profiler* prof = traced ? &rec->rank(0) : nullptr;
      team.run([&](par::Comm& comm) {
        const obs::SpanScope rank_solve(prof, "rank_solve");
        krylov::SpmdEngine engine(comm, dist, nullptr, prof);
        krylov::Vec x = engine.new_vec();
        const obs::SpanScope solve(prof, "solve");
        solver->solve(engine, b, x, opts);
      });
      if (traced) spans = prof->ring().size() + prof->ring().dropped();
    };
    using clock = std::chrono::steady_clock;
    solve_once(false);  // warm the caches and the page tables
    solve_once(true);
    const auto t0 = clock::now();
    solve_once(false);
    const double once =
        std::chrono::duration<double>(clock::now() - t0).count();
    const int iters =
        once > 0.0 ? std::max(1, static_cast<int>(0.01 / once)) : 100;
    auto block = [&](bool traced) {
      const auto start = clock::now();
      for (int i = 0; i < iters; ++i) solve_once(traced);
      return std::chrono::duration<double>(clock::now() - start).count();
    };
    constexpr int kPairs = 21;
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; ++i) {
      const bool traced_first = i % 2 == 1;
      const double first = block(traced_first);
      const double second = block(!traced_first);
      const double t_traced = traced_first ? first : second;
      const double t_plain = traced_first ? second : first;
      ratios.push_back(t_plain > 0.0 ? t_traced / t_plain : 0.0);
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead = ratios[ratios.size() / 2];
    obs_ratios.set("tracing_overhead", overhead);
    std::printf("  recording    overhead %5.3fx (median of %d interleaved "
                "pairs, quartiles %5.3f..%5.3f; %zu spans per solve)\n",
                overhead, kPairs, ratios[ratios.size() / 4],
                ratios[3 * ratios.size() / 4], spans);
  }

  obs::json::Value doc = obs::json::Value::object();
  doc.set("bench", "kernels");
  doc.set("methods", obs::json::Value::object());
  obs::json::Value ratios = obs::json::Value::object();
  ratios.set("kernels", std::move(kernels));
  ratios.set("obs", std::move(obs_ratios));
  doc.set("ratios", std::move(ratios));
  obs::json::write_file(path, doc);
  std::printf("wrote kernel bench json to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --bench-json PATH (or --bench-json=PATH) runs the fixed gating harness
  // instead of google-benchmark.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc)
      return run_bench_json(argv[i + 1]);
    if (std::strncmp(argv[i], "--bench-json=", 13) == 0)
      return run_bench_json(argv[i] + 13);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
