// Preconditioner interface.
//
// A preconditioner applies u = M^{-1} r.  For the CG family M must be SPD;
// every implementation in precond/ preserves symmetry (Jacobi, SSOR with
// symmetric sweeps, multigrid with symmetric cycling, smoothed-aggregation
// AMG with symmetric smoothers).
//
// cost_profile() describes the per-application work for the machine-model
// timeline (flops/bytes in whole-problem units plus halo-exchange count).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "pipescg/sim/trace.hpp"
#include "pipescg/sparse/csr_matrix.hpp"

namespace pipescg::precond {

/// Interface for u = M^{-1} r.  For the CG family M must be SPD; every
/// implementation in precond/ preserves symmetry.  Implementations act on
/// the rows they are given and never communicate inside an apply; the SPMD
/// engine runs pointwise Jacobi on each rank's own rows.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// u = M^{-1} r.  r and u must not alias.
  virtual void apply(std::span<const double> r, std::span<double> u) const = 0;

  /// Number of rows (= size of the vectors apply() accepts).
  virtual std::size_t rows() const = 0;

  /// Registry-style name ("jacobi", "ssor", ...), used in reports.
  virtual std::string name() const = 0;

  /// Per-application cost (flops/bytes in whole-problem units plus
  /// halo-exchange count) for the machine-model timeline.
  virtual sim::PcCostProfile cost_profile() const = 0;
};

/// Factory by name: "jacobi", "ssor", "chebyshev", "mg", "amg".
/// Throws on unknown names.  `a` must outlive the result for ssor/chebyshev.
std::unique_ptr<Preconditioner> make_preconditioner(
    const std::string& name, const sparse::CsrMatrix& a);

}  // namespace pipescg::precond
