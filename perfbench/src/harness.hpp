// Pieces shared by the benchmark and its self-test: generated problems with a
// known solution, the harness's own solution check, and a hand-assembled
// rank team that can put a TimedEngine between a Krylov driver and
// krylov::SpmdEngine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pipescg/krylov/solver.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/partition.hpp"
#include "timed_engine.hpp"

namespace perfbench {

/// A system with a known solution: b = A x*, with x*_i = 1 + 0.01 u_i and
/// u_i uniform in [-1, 1) drawn from `seed`.  The constant part keeps the
/// solves as long as the paper's b = A 1; the seeded part makes each seed its
/// own system.  (A rough x* such as u alone would let Jacobi-PCG meet a loose
/// rtol in a handful of iterations.)
struct Rhs {
  std::vector<double> xstar;
  std::vector<double> b;
};
Rhs make_rhs(const pipescg::sparse::CsrMatrix& a, std::uint64_t seed);

/// The harness's own check, independent of the solve path: both norms are
/// computed here with CsrMatrix::apply on the global operator.
struct Check {
  double relres = 0.0;  ///< ||b - A x|| / ||b||
  double relerr = 0.0;  ///< ||x - x*|| / ||x*||
};
Check check_solution(const pipescg::sparse::CsrMatrix& a, const Rhs& rhs,
                     std::span<const double> x);

/// Wall seconds of each component a Session constructor builds.
struct SetupTimes {
  double dist_s = 0.0;  ///< every rank's DistCsr (partition included)
  double pc_s = 0.0;    ///< diagonal extraction + every rank's Jacobi
  double team_s = 0.0;  ///< PersistentTeam spawn
};

/// The same public objects service::Session builds for an operator -- a
/// row-block Partition, one DistCsr and one Jacobi per rank, a
/// PersistentTeam -- with solves run on them by hand, so a TimedEngine can
/// wrap each rank's SpmdEngine.  Default program configuration: CSR local
/// format, no matrix-powers kernel, monomial basis.
class RankTeam {
 public:
  RankTeam(const pipescg::sparse::CsrMatrix& a, int ranks);
  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  int ranks() const { return team_->size(); }
  const SetupTimes& setup_times() const { return setup_; }
  /// Computed local-SPMV bytes per apply on `rank` (sparse::bytes_model).
  std::size_t spmv_bytes_per_apply(int rank) const;

  struct Result {
    std::vector<LayerTimes> ranks;  ///< traced: full budget; else wall only
    pipescg::krylov::SolveStats stats;
    std::vector<double> x;
  };
  /// Solve from x0 = 0 with `method`.  `traced` wraps every rank's engine in
  /// a TimedEngine; `profile`, when given, receives SpmdEngine's counters.
  Result solve(const std::string& method, const std::vector<double>& b,
               const pipescg::krylov::SolverOptions& opts, bool traced,
               pipescg::obs::SolveProfile* profile = nullptr);

 private:
  pipescg::sparse::Partition partition_;
  std::vector<std::unique_ptr<pipescg::sparse::DistCsr>> dist_;
  std::vector<std::unique_ptr<pipescg::precond::JacobiPreconditioner>> pc_;
  std::unique_ptr<pipescg::par::PersistentTeam> team_;
  SetupTimes setup_;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

}  // namespace perfbench
