#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "pipescg/base/error.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/spmd_engine.hpp"

namespace perfbench {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double norm2(std::span<const double> v) {
  double s = 0.0;
  for (double e : v) s += e * e;
  return std::sqrt(s);
}

}  // namespace

Rhs make_rhs(const pipescg::sparse::CsrMatrix& a, std::uint64_t seed) {
  pipescg::Rng rng(seed);
  Rhs r;
  r.xstar.resize(a.rows());
  for (double& e : r.xstar) e = 1.0 + 0.01 * rng.uniform(-1.0, 1.0);
  r.b.assign(a.rows(), 0.0);
  a.apply(r.xstar, r.b);
  return r;
}

Check check_solution(const pipescg::sparse::CsrMatrix& a, const Rhs& rhs,
                     std::span<const double> x) {
  PIPESCG_CHECK(x.size() == a.rows(), "solution has the wrong length");
  std::vector<double> ax(a.rows(), 0.0);
  a.apply(x, ax);
  std::vector<double> d(a.rows());
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = rhs.b[i] - ax[i];
  Check c;
  c.relres = norm2(d) / norm2(rhs.b);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = x[i] - rhs.xstar[i];
  c.relerr = norm2(d) / norm2(rhs.xstar);
  return c;
}

RankTeam::RankTeam(const pipescg::sparse::CsrMatrix& a, int ranks) {
  auto t0 = std::chrono::steady_clock::now();
  partition_ = pipescg::sparse::Partition(a.rows(), ranks);
  for (int r = 0; r < ranks; ++r)
    dist_.push_back(
        std::make_unique<pipescg::sparse::DistCsr>(a, partition_, r));
  setup_.dist_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const std::vector<double> diag = a.diagonal();
  for (int r = 0; r < ranks; ++r) {
    const auto begin = static_cast<std::ptrdiff_t>(partition_.begin(r));
    const auto end = static_cast<std::ptrdiff_t>(partition_.end(r));
    pc_.push_back(std::make_unique<pipescg::precond::JacobiPreconditioner>(
        std::vector<double>(diag.begin() + begin, diag.begin() + end),
        a.stats()));
  }
  setup_.pc_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  team_ = std::make_unique<pipescg::par::PersistentTeam>(ranks);
  setup_.team_s = seconds_since(t0);
}

std::size_t RankTeam::spmv_bytes_per_apply(int rank) const {
  return dist_[static_cast<std::size_t>(rank)]->bytes_per_apply();
}

RankTeam::Result RankTeam::solve(const std::string& method,
                                 const std::vector<double>& b,
                                 const pipescg::krylov::SolverOptions& opts,
                                 bool traced,
                                 pipescg::obs::SolveProfile* profile) {
  PIPESCG_CHECK(b.size() == partition_.global_size(),
                "right-hand side has the wrong length");
  const bool use_pc = pipescg::krylov::solver_uses_preconditioner(method);
  Result res;
  res.ranks.resize(static_cast<std::size_t>(ranks()));
  res.x.assign(b.size(), 0.0);
  team_->run([&](pipescg::par::Comm& comm) {
    const int rank = comm.rank();
    const auto ur = static_cast<std::size_t>(rank);
    pipescg::krylov::SpmdEngine spmd(
        comm, *dist_[ur], use_pc ? pc_[ur].get() : nullptr,
        profile != nullptr ? &profile->rank(rank) : nullptr);
    const std::size_t begin = partition_.begin(rank);
    const std::size_t len = partition_.local_size(rank);
    pipescg::krylov::Vec bl = spmd.new_vec();
    pipescg::krylov::Vec xl = spmd.new_vec();
    for (std::size_t i = 0; i < len; ++i) bl[i] = b[begin + i];

    const std::unique_ptr<pipescg::krylov::Solver> solver =
        pipescg::krylov::make_solver(method);
    LayerTimes& lt = res.ranks[ur];
    pipescg::krylov::SolveStats stats;
    if (traced) {
      TimedEngine timed(spmd);
      const auto t0 = std::chrono::steady_clock::now();
      stats = solver->solve(timed, bl, xl, opts);
      const double wall = seconds_since(t0);
      lt = timed.times();
      lt.wall_s = wall;
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      stats = solver->solve(spmd, bl, xl, opts);
      lt.wall_s = seconds_since(t0);
    }
    for (std::size_t i = 0; i < len; ++i) res.x[begin + i] = xl[i];
    if (rank == 0) res.stats = std::move(stats);
  });
  return res;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
