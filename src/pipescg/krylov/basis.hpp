// Shifted s-step basis support (monomial | Newton | Chebyshev).
//
// The s-step drivers historically built the monomial power basis
// S = [r, A r, ..., A^{2s} r], whose columns align with the dominant
// eigenvector at a rate of kappa per power: the basis Gram matrix loses a
// factor ~kappa of conditioning per column and the scalar work goes
// numerically singular long before the communication model says larger s
// should win (the fig3 cliff).  The classical fix (Philippe/Reichel;
// Hoemmen; Moufawad arXiv 1804.10629) replaces the powers with a shifted
// three-term polynomial family
//
//     x p_j(x) = gamma_j p_{j+1}(x) + theta_j p_j(x) + sigma_j p_{j-1}(x),
//     p_0 = 1,
//
// whose shifts are derived from an estimate [lambda_min, lambda_max] of the
// operator spectrum -- the same quantity precond::ChebyshevPreconditioner
// already computes:
//
//   * monomial:  gamma = 1, theta = sigma = 0  (p_j = x^j, the historical
//     basis; every recurrence below degenerates to the old code path);
//   * Newton:    sigma = 0, theta_j = Leja-ordered points on the interval,
//     gamma = (lambda_max - lambda_min) / 4 (the interval capacity, so
//     column norms stay O(1));
//   * Chebyshev: scaled-and-shifted Chebyshev polynomials on the interval,
//     gamma_0 = e, theta_j = c, gamma_j = sigma_j = e / 2 for j >= 1 with
//     c = (max + min) / 2, e = (max - min) / 2 -- the bounded-on-interval
//     family, the strongest conditioning fix of the three.
//
// Everything a driver needs beyond the recurrence itself is coordinate
// arithmetic precomputed here once per (spec, s): the expansion of
// p_j(x) * x * p_c(x) over {p_0, ..., p_{j+c+1}} seeds the pipelined power
// towers (for the monomial basis the expansion is the unit vector at
// j + c + 1, i.e. the old copy), and the basis Gram matrix G(j, k) replaces
// the 2s+1 moment vector in the single per-outer-iteration allreduce -- the
// SPMV count and the allreduce schedule are unchanged, only the payload
// grows from 2s+1 to (s+1)(s+2)/2 scalars.  See DESIGN.md section 13.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "pipescg/krylov/engine.hpp"
#include "pipescg/krylov/vec.hpp"

namespace pipescg {
class CliParser;
}

namespace pipescg::krylov {

struct SolverOptions;

enum class BasisType { kMonomial, kNewton, kChebyshev };

/// "monomial"/"mono", "newton", "chebyshev"/"cheb" (case-sensitive); throws
/// pipescg::Error on anything else.
BasisType parse_basis_type(const std::string& name);
std::string to_string(BasisType type);

/// How an s-step driver should build its basis.  The shift interval may be
/// provided (e.g. from precond::ChebyshevPreconditioner::lambda_max()) or
/// left at 0 to be estimated at solve setup by resolve_basis() -- a few
/// deterministic power-iteration steps on the engine's operator, costing
/// setup-only collectives, never per-iteration ones.
struct BasisSpec {
  BasisType type = BasisType::kMonomial;
  double lambda_min = 0.0;  ///< <= 0: lambda_max / interval_ratio
  double lambda_max = 0.0;  ///< <= 0: estimate by power iteration at setup
  int power_iterations = 10;      ///< setup estimation budget
  double interval_ratio = 30.0;   ///< lambda_min fallback divisor
};

/// Resolve the shift interval of `spec` against the operator the engine
/// applies (M^{-1}A when `preconditioned`, else A): returns a copy with
/// lambda_min/lambda_max filled in.  Monomial specs and specs with explicit
/// bounds pass through untouched.  Deterministic: all-ones start vector,
/// fixed iteration count, Rayleigh-quotient estimate with a 5% safety
/// margin; the dots are blocking setup collectives.
BasisSpec resolve_basis(Engine& engine, const BasisSpec& spec,
                        bool preconditioned);

/// Shift coefficients and seed-expansion tables for one (spec, s).  Cheap to
/// construct (O(s^4) scalar work, no vectors, no communication); drivers
/// build one per attempt.
class ShiftedBasis {
 public:
  /// `spec` must be resolved (non-monomial types need a positive interval).
  ShiftedBasis(const BasisSpec& spec, int s);

  BasisType type() const { return type_; }
  bool monomial() const { return type_ == BasisType::kMonomial; }
  int s() const { return s_; }
  double lambda_min() const { return lambda_min_; }
  double lambda_max() const { return lambda_max_; }

  /// Recurrence coefficients for degree j -> j+1, j in [0, 2s).
  double gamma(int j) const { return gamma_[static_cast<std::size_t>(j)]; }
  double theta(int j) const { return theta_[static_cast<std::size_t>(j)]; }
  double sigma(int j) const { return sigma_[static_cast<std::size_t>(j)]; }

  /// Coordinates of p_j(x) * x * p_c(x) in {p_0, ..., p_{j+c+1}} (length
  /// j + c + 2), for j in [0, s], c in [0, s).  Seeds the pipelined power
  /// towers T[j] = p_j(A) A P and (j = 0) the AP block of sCG-sSPMV.
  std::span<const double> seed(int j, int c) const;

 private:
  BasisType type_;
  int s_;
  double lambda_min_ = 0.0, lambda_max_ = 0.0;
  std::vector<double> gamma_, theta_, sigma_;
  std::vector<std::vector<double>> seeds_;  // [(s+1) * s] tables
};

/// Non-owning degree-indexed view of a basis chain split across the main
/// block (degrees 0..lo->size()-1) and an optional extension block.
struct ChainView {
  VecBlock* lo = nullptr;
  VecBlock* hi = nullptr;

  Vec& operator[](std::size_t d) const {
    return d < lo->size() ? (*lo)[d] : (*hi)[d - lo->size()];
  }
  const Vec& at(std::size_t d) const { return (*this)[d]; }
};

/// Extend an unpreconditioned shifted chain: columns [first, first+count)
/// get p_d(A) applied to the chain's column 0 via the three-term recurrence
///   p_d = (A p_{d-1} - theta_{d-1} p_{d-1} - sigma_{d-1} p_{d-2}) / gamma_{d-1}.
/// One SPMV per new column -- the same count as the monomial power loop; no
/// matrix-powers fusion (the shift combinations interleave with the SPMVs).
void extend_chain(Engine& engine, const ShiftedBasis& basis, ChainView cols,
                  std::size_t first, std::size_t count, Vec& scratch);

/// Preconditioned twin chains w_d = M v_d (r-side) and v_d (u-side): the
/// SPMV extends the w side from v_{d-1}, the shift combination runs on the
/// w side, and one PC application produces v_d = M^{-1} w_d -- one SPMV plus
/// one PC per column, matching the monomial interleaved chain.
void extend_chain_pc(Engine& engine, const ShiftedBasis& basis, ChainView w,
                     ChainView v, std::size_t first, std::size_t count,
                     Vec& scratch);

/// Issue dst = sum_d coeffs[d] * cols[d] into `batch` (seed-expansion
/// combination for the tower columns; zero coefficients are skipped).
void combine_chain(VectorBatch& batch, std::span<const double> coeffs,
                   ChainView cols, Vec& dst);

/// Apply the shared --basis / --replace-every / --gap-tol CLI options
/// (CliParser::add_stability_options) to `opts`.
void apply_stability_cli(const CliParser& cli, SolverOptions& opts);

}  // namespace pipescg::krylov
