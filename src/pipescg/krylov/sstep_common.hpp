// Shared machinery for the s-step CG family (sCG, PsCG, sCG-sSPMV,
// PIPE-sCG, PIPE-PsCG, PIPECG-OATI, PIPECG3).
//
// Formulation (block-Gram; see DESIGN.md section 6): per outer iteration i
// the method builds a direction block P_i = S_i + P_{i-1} B_i from the
// monomial basis S_i = [r_i, A r_i, ..., A^{s-1} r_i] (preconditioned:
// V_i = [u_i, (M^{-1}A) u_i, ...]), where
//
//     B_i  solves  W_{i-1} B_i = -C_i,   C_i = (A P_{i-1})^T S_i
//     a_i  solves  W_i a_i = g_i,        g_i = (m_0, ..., m_{s-1})^T
//     W_i  = M_S + C_i^T B_i,            (M_S)_{jk} = m_{j+k+1}
//
// with moments m_j = (r_i, A^j r_i) (preconditioned: r^T (M^{-1}A)^j u).
// All scalars needed by an outer iteration are 2s+1 moments plus the s x s
// cross block C -- one allreduce, matching Alg. 2/3's single `vm` reduction.
// (The original Chronopoulos-Gear scalar recurrences eliminate C
// analytically; computing it as s^2 extra *local* dots in the same allreduce
// keeps the communication structure identical and is numerically more
// robust.  The identity B^T W_{i-1} B = -B^T C collapses the W update to the
// single cross term above.)
//
// The pipelined variants additionally carry the power "towers"
// T[j] = A^{j+1} P_i (preconditioned: (M^{-1}A)^{j+1} P_i and A-side twins),
// updated by recurrence, so the next basis S_{i+1}[j] = S_i[j] - T[j] a_i
// exists *before* any new SPMV -- the dot products post immediately and the
// s SPMVs (+ s PCs) that extend the power basis to A^{2s} r_{i+1} overlap
// the allreduce (paper Alg. 5/6/7).
//
// The drivers are policies over one skeleton (DESIGN.md section 6, "Driver
// skeleton"): AttemptRunner owns the per-right-hand-side scaffolding,
// blocking_core the one blocking loop (sCG, PsCG, sCG-sSPMV: Algs. 2-4,
// 1..k columns) over ScgColumn's outer step, pipelined_core the one
// pipelined loop (Algs. 5-7).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "pipescg/fault/recovery.hpp"
#include "pipescg/krylov/basis.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/la/dense_matrix.hpp"
#include "pipescg/la/lu.hpp"

namespace pipescg::krylov::sstep {

/// Layout of the single per-iteration dot batch.
struct DotLayout {
  int s;
  bool preconditioned;  // adds (r,r) and (u,u) norm dots
  // Shifted (non-monomial) basis: the leading scalars are the basis Gram
  // upper triangle ((s+1)(s+2)/2 values) instead of the 2s+1 moments.
  // values[0] is G(0,0) = m_0 either way, so the norm flavors read the same
  // slots.  Still ONE allreduce per outer iteration -- only the payload
  // grows.
  bool gram = false;

  std::size_t moment_count() const { return static_cast<std::size_t>(2 * s + 1); }
  std::size_t tri_count() const {
    const std::size_t n = static_cast<std::size_t>(s) + 1;
    return n * (n + 1) / 2;
  }
  std::size_t scalar_count() const {
    return gram ? tri_count() : moment_count();
  }
  std::size_t cross_offset() const { return scalar_count(); }
  std::size_t cross_count() const { return static_cast<std::size_t>(s) * s; }
  std::size_t norm_offset() const { return cross_offset() + cross_count(); }
  std::size_t total() const {
    return norm_offset() + (preconditioned ? 2 : 0);
  }

  /// Position of G(j, k), j <= k <= s, in the leading triangle (row-major
  /// by j over the upper triangle).
  std::size_t gram_index(std::size_t j, std::size_t k) const {
    const std::size_t n = static_cast<std::size_t>(s) + 1;
    return j * n - j * (j - 1) / 2 + (k - j);
  }

  /// Residual norm^2 in the requested flavor from the reduced values.
  double norm_sq(std::span<const double> values, NormType norm) const;
  /// sqrt(max(norm_sq, 0)).
  double norm(std::span<const double> values, NormType norm) const;

  /// Extract the cross block C from the reduced values.
  la::DenseMatrix cross(std::span<const double> values) const;
};

/// The "Scalar Work" of Alg. 2 line 7: two s x s solves per outer iteration.
class ScalarWork {
 public:
  explicit ScalarWork(int s);

  struct Result {
    la::DenseMatrix b;          // s x s conjugation coefficients (beta's)
    std::vector<double> alpha;  // s step sizes
    bool ok = false;            // false on singular/non-finite scalar work
    // The W system failed the SPD guard (la::CholeskyFactorization::
    // try_factor): the basis Gram matrix has numerically collapsed.  A
    // structured soft failure -- the caller rolls back / replaces instead of
    // iterating on the garbage an LU solve of a near-singular system would
    // produce.  Always false when `ok`.
    bool gram_breakdown = false;
  };

  /// One step from a reduced dot batch laid out by `layout`: the 2s+1
  /// moments for a monomial layout, the basis Gram triangle for a shifted
  /// one (`basis` is then required), plus the cross block.
  Result step(const DotLayout& layout, std::span<const double> values,
              const ShiftedBasis* basis = nullptr);

  /// Monomial basis: moments m_0..m_2s (size 2s+1), cross C (s x s,
  /// C(k,j) = (AP_prev[k], S_new[j])).  Maintains W_{i-1} across calls.
  Result step(std::span<const double> moments, const la::DenseMatrix& cross);

 private:
  /// Shifted basis: `tri` is the basis Gram upper triangle G(j,k) =
  /// (S[j], S[k]) for 0 <= j <= k <= s in DotLayout::gram_index order
  /// ((s+1)(s+2)/2 values); M_S and g are recovered through the three-term
  /// recurrence, N(j,k) = gamma_k G(j,k+1) + theta_k G(j,k) +
  /// sigma_k G(j,k-1) and g_j = G(0,j).  Degenerates to step() numbers for
  /// a monomial `basis`.
  Result step_gram(const ShiftedBasis& basis, std::span<const double> tri,
                   const la::DenseMatrix& cross);
  Result solve_with(const la::DenseMatrix& m_s, std::span<const double> g,
                    const la::DenseMatrix& cross);

  int s_;
  bool first_ = true;
  la::DenseMatrix w_prev_;
};

/// Build the batch laid out by `layout` over the r-side basis `w`, the
/// u-side basis `v` (s+1 columns each; the same block when unpreconditioned)
/// and `ap` = A P_cur (s columns, r-side):
///   * monomial: moments m_j = (w[j - j/2], v[j/2]) = r^T (M^{-1}A)^j u,
///     j = 0..2s;
///   * shifted (layout.gram): the Gram upper triangle G(j,k) = (w[j], v[k]),
///     j <= k -- the M-inner Gram of the u-side basis (w[j] = M v[j]) --
///     same shape of communication, larger payload;
/// then the cross block C(k, j) = (ap[k], v[j]) and, when preconditioned,
/// the norm extras (r, r) and (u, u).
void build_dot_pairs(const DotLayout& layout, const VecBlock& w,
                     const VecBlock& v, const VecBlock& ap,
                     std::vector<DotPair>& out);

/// NaN/Inf guard on a reduced dot batch (the 2s+1 moments plus the Gram
/// cross block).  The reduced values are identical on all ranks, so every
/// rank reaches the same verdict without extra communication -- this is
/// what keeps the SPMD control flow consistent when the recovery layer
/// decides to roll back.
bool batch_finite(std::span<const double> values);

/// Resolve SolverOptions::replacement_period for depth s: explicit values
/// pass through; auto (0) uses period 16 under a Newton or Chebyshev basis
/// at every s, and for the monomial basis 16 at s <= 3 (cheap truth
/// anchoring), 4 at s = 4 and 1 at s >= 5 (measured stability limits of the
/// monomial-basis tower recurrences; see DESIGN.md).
int resolve_replacement_period(const SolverOptions& opts, int s);

/// Resolve SolverOptions::gap_check_period: explicit values pass through,
/// auto (0) checks every 8 outer iterations.  Callers gate on
/// opts.gap_tol > 0 (the monitor master switch) separately.
int resolve_gap_period(const SolverOptions& opts);

/// Predicted-vs-true residual gap state machine (DESIGN.md section 13).
///
/// The s-step drivers feed it one (recurred, true) residual-norm pair per
/// gap check; it classifies the relative gap against the tolerance and
/// drives the van der Vorst escalation ladder:
///
///   gap <= tol                  -> kNone (healthy; failure streak resets)
///   gap  > tol, fresh           -> kReplace (force a residual replacement)
///   gap  > tol after a replace  -> failed replacement; kReplace again, or
///                                  kEscalate once TWO replacements in a row
///                                  failed to close the gap -- the caller
///                                  hands control to the RecoveryManager
///                                  degrade-s path.
///
/// The monitor outlives recovery attempts (it owns the failure history);
/// new_attempt() clears the in-flight state after a rollback so the fresh
/// attempt is not blamed for the old attempt's gap.
class GapMonitor {
 public:
  explicit GapMonitor(double tol) : tol_(tol) {}

  enum class Action { kNone, kReplace, kEscalate };

  bool enabled() const { return tol_ > 0.0; }

  /// Classify one gap check and record it into `stats` (gap_checks,
  /// last/max_residual_gap, failed_replacements).
  Action observe(double recurred_rnorm, double true_rnorm, SolveStats& stats);

  /// Relative gap of the most recent observe() (-1 before the first).
  double last_gap() const { return last_gap_; }

  void new_attempt() {
    awaiting_ = false;
    failures_ = 0;
  }

 private:
  double tol_;
  double last_gap_ = -1.0;
  bool awaiting_ = false;      // a gap-triggered replacement is in flight
  std::size_t failures_ = 0;   // consecutive replacements that didn't close it
};

/// r = b - A x (one SPMV) and, for the preconditioned flavors, u = M^{-1} r
/// (one PC; `u` doubles as the A x buffer).  Returns the pair whose dot is
/// the squared true residual norm in `norm`'s flavor.
DotPair true_residual(Engine& engine, const Vec& b, const Vec& x,
                      NormType norm, Vec& r, Vec& u);

/// True residual norm in the requested flavor: r = b - A x (one SPMV),
/// u = M^{-1} r when needed (one PC), one blocking dot.  Used for verified
/// acceptance: a pipelined method's recurred residual may cross the
/// threshold spuriously; convergence is only declared when the true
/// residual confirms it.
double true_flavored_norm(Engine& engine, const Vec& b, const Vec& x,
                          NormType norm, Vec& scratch_r, Vec& scratch_u);

/// The direction block P and its A-image AP of the blocking s-step loop
/// (ScgColumn: paper Algs. 2-4), double-buffered.
struct DirectionBlocks {
  DirectionBlocks(Engine& engine, std::size_t s);

  /// Issue the outer update into `up` in the loops' one call order: the
  /// copies P = S[0, s), the AP seeds, P += P_prev B and AP += AP_prev B
  /// (neither when `first`), then x += P alpha.  AP seed column c is
  /// A p_c(A) S[0]: chain[c + 1] for the monomial basis (`basis` null or
  /// monomial), the x * p_c seed expansion over `chain` for a shifted one.
  void update(VectorBatch& up, const ScalarWork::Result& sw, bool first,
              const VecBlock& s_block, VecBlock& chain,
              const ShiftedBasis* basis, Vec& x);
  /// P becomes P_prev, AP becomes AP_prev.
  void advance();

  VecBlock p_prev, p_cur, ap_prev, ap_cur;
};

/// Per-iteration convergence telemetry staging for the s-step drivers.
/// capture() snapshots the most recent scalar work (alpha step sizes and
/// ||B||_F); take() hands that snapshot to the next residual checkpoint
/// (detail::checkpoint), so the telemetry stream has exactly one record per
/// residual-history entry.  capture() is a no-op (one thread-local check)
/// when no telemetry sink is installed.
struct TelemetrySnapshot {
  std::vector<double> alpha;
  double beta_fro = 0.0;
  // Residual-gap monitor readings for the NEXT checkpoint only (set by
  // note_gap on the outer iteration where a gap check resolves; cleared by
  // take() so later records honestly report -1 = "no check this
  // iteration").
  double true_rnorm = -1.0;
  double residual_gap = -1.0;

  void capture(const ScalarWork::Result& sw);
  void note_gap(double true_norm, double gap) {
    true_rnorm = true_norm;
    residual_gap = gap;
  }
  /// The checkpoint readings at block size `s`; consumes the gap readings.
  obs::Checkpoint take(int s);
};

/// Degrees [first, first + count) of the basis chains from degree first - 1:
/// `count` SPMVs, plus `count` PCs when `preconditioned` (`w` the r-side
/// chain W = M V, `v` the u-side chain V; one chain S passed as both when
/// not).  Monomial chains run through the power kernels, so an attached MPK
/// fuses the halo exchanges of an unpreconditioned chain into one; shifted
/// chains interleave the three-term combinations with the SPMVs.
void extend_basis(Engine& engine, const ShiftedBasis& basis,
                  bool preconditioned, ChainView w, ChainView v,
                  std::size_t first, std::size_t count, Vec& scratch);

/// Stamp the resolved basis family and shift interval into `stats`.
void record_basis(SolveStats& stats, const BasisSpec& spec);

/// How a step of an attempt -- or the attempt itself -- ended: keep going,
/// stop (terminal state, flags already set in the stats), or a detected
/// fault the recovery layer rolls back.
enum class Step { kGo, kStop, kFault };

/// The per-right-hand-side scaffolding every s-step driver shares.
///
/// The driver resolves ||b|| and the basis shifts (setup collectives, in
/// that order); construction derives the tolerance and saves the initial
/// recovery checkpoint.  An attempt at depth s either runs to a terminal
/// state or reports a fault; recover() then rolls x back, degrades s after
/// repeated no-progress failures, and the driver's fresh attempt rebuilds
/// the basis from the restored iterate.  Every verdict derives from reduced
/// dot batches, identical on all ranks, so rollback stays in SPMD lockstep
/// with no extra communication.  A clean run is a single attempt whose
/// arithmetic is identical to a non-recovering driver.
struct AttemptRunner {
  AttemptRunner(Engine& engine, const Vec& b, Vec& x,
                const SolverOptions& opts, const std::string& method, int s,
                double b_norm, const BasisSpec& basis_spec);

  /// Attempts until one ends without a fault (or the recovery budget is
  /// spent), then finish().
  SolveStats run(const std::function<Step(int s_att)>& attempt);
  /// After a faulted attempt: restore x, count the recovery and degrade s
  /// after repeated failures.  False -- with breakdown and stagnation
  /// flagged -- once the recovery budget is spent.
  bool recover();
  /// The final stats epilogue.
  SolveStats finish();

  /// Residual checkpoint of (iterations, rnorm): telemetry + history.  A
  /// non-finite residual is a fault when recovery is active, else a stop.
  Step checkpoint();
  /// Feed one resolved gap check (the reduced true-residual norm^2) to the
  /// GapMonitor: sets `force_replace` on a replace verdict; an escalation
  /// hands the RecoveryManager a degrade-s request (fault) or, without
  /// recovery, stops as stagnated.
  Step observe_gap(double true_norm_sq, bool& force_replace);
  /// A failed scalar-work step: fault under recovery, else a breakdown stop.
  Step scalar_failure(const ScalarWork::Result& sw);

  Engine& engine;
  const Vec& b;
  Vec& x;
  const SolverOptions& opts;
  SolveStats stats;
  int s;                   // the current attempt's depth
  std::size_t column = 0;  // right-hand side index in a batched solve
  double tol = 0.0;
  BasisSpec basis_spec;
  // The gap monitor and the recovery manager outlive attempts: the failure
  // ladder survives rollbacks (an escalation is what *causes* one).
  GapMonitor gap;
  int gap_period;
  fault::RecoveryManager recovery;
  TelemetrySnapshot telem;
  std::size_t iterations = 0;
  double rnorm = 0.0;
};

/// One blocking s-step system (paper Algs. 2-4): the u-side basis
/// V = [p_0(M^{-1}A) u, ..., p_s(M^{-1}A) u] (S = [p_j(A) r] when
/// unpreconditioned) plus, when preconditioned, its r-side twin W = M V,
/// the direction block P and its A-image AP carried by recurrence, and the
/// system's scalar work.  blocking_core runs one per right-hand side, with
/// the columns' dot batches fused into one allreduce.
struct ScgColumn {
  ScgColumn(Engine& engine, const ShiftedBasis& basis, bool preconditioned);

  /// The anchor: r = b - A x, u = M^{-1} r when preconditioned, then the
  /// basis (s SPMVs, plus s PCs when preconditioned).
  void start(Engine& engine, const Vec& b, const Vec& x, Vec& scratch);
  /// One outer step with scalar work `sw`: P = V + P_prev B and AP likewise
  /// (Alg. 4 lines 9-11), x += P alpha, then the new residual -- recurred
  /// as r - AP alpha (lines 12-13), or re-anchored to b - A x (one SPMV,
  /// Algs. 2/3) when `replace`, in which case no recurrence is issued --
  /// and the basis of the new residual into the next chains (lines 14-15).
  void step(Engine& engine, const ScalarWork::Result& sw, const Vec& b,
            Vec& x, bool replace, Vec& scratch);
  /// The dot batch over the current (next = false) or next chains and AP.
  void dot_pairs(const DotLayout& layout, bool next,
                 std::vector<DotPair>& out) const;
  /// Swap the double buffers: the next chains become current, P becomes
  /// P_prev, AP becomes AP_prev.
  void advance();

  const ShiftedBasis* basis;
  bool preconditioned;
  VecBlock chain, chain_next;    // V (or S) and its next (s+1 columns each)
  VecBlock rchain, rchain_next;  // W = M V and its next; empty when not
                                 // preconditioned
  DirectionBlocks dir;
  VectorBatch update;
  ScalarWork scalar_work;
  std::size_t outer = 0;
};

/// What a blocking s-step variant fixes; the paper's Algs. 2-4 differ only
/// in these.  Chosen by the solver's identity, never by a user option.
struct BlockingPolicy {
  // Two basis chains (u-side V and r-side W = M V, PsCG, Alg. 3) or one
  // (S = A^j r, sCG and sCG-sSPMV, Algs. 2/4).
  bool preconditioned;
  // Rebuild the residual as b - A x every outer iteration (one SPMV more,
  // sCG and PsCG) or recur it as r - AP alpha (sCG-sSPMV).
  bool explicit_residual;
};

/// The blocking s-step loop (paper Algs. 2-4) over k >= 1 right-hand sides
/// against one operator: one ScgColumn and one AttemptRunner per column, and
/// one blocking allreduce per outer iteration carrying every live column's
/// dot batch (plus its gap-check dot when one is due).  Each column rolls
/// back, degrades s and runs the residual-gap monitor on its own; a faulted
/// column rebuilds its basis and rejoins the next fused batch while the
/// others keep iterating, and a finished column drops out of the payload.
/// The fixed-order allreduce reduces every payload entry independently, so
/// each column's trajectory is bitwise that of its solo solve, and at
/// k = 1 the engine calls are exactly the single-RHS sequence.  Returns one
/// SolveStats per column.
std::vector<SolveStats> blocking_core(Engine& engine, std::span<const Vec> bs,
                                      std::span<Vec> xs,
                                      const SolverOptions& opts,
                                      const std::string& method_name,
                                      const BlockingPolicy& policy);

/// What a pipelined s-step variant fixes; the paper's Algs. 5-7 differ only
/// in these.  Chosen by the solver's identity, never by a user option.
struct PipelinedPolicy {
  int s;
  // Two basis chains (u-side V = (M^{-1}A)^j u and r-side W = M V, PIPE-PsCG
  // family, Alg. 6/7) or one (S = A^j r, PIPE-sCG, Alg. 5).
  bool preconditioned;
  // Extra FLOPs per outer iteration charged to the cost model (the
  // published counts of the reconstructed PIPECG-OATI/PIPECG3 baselines).
  double extra_flops_per_outer = 0.0;
};

/// The pipelined s-step loop (paper Alg. 5-7): PIPE-sCG (one chain),
/// PIPE-PsCG (two chains, s = opts.s), PIPECG-OATI and PIPECG3 (two chains,
/// s = 2, extra charged FLOPs) and Hybrid's first phase share it.
SolveStats pipelined_core(Engine& engine, const Vec& b, Vec& x,
                          const SolverOptions& opts,
                          const std::string& method_name,
                          const PipelinedPolicy& policy);

}  // namespace pipescg::krylov::sstep
