#include "pipescg/krylov/sstep_common.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/la/cholesky.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/telemetry.hpp"

namespace pipescg::krylov::sstep {
namespace {

bool all_finite(const la::DenseMatrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

bool all_finite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

ScalarWork::ScalarWork(int s) : s_(s), w_prev_(0, 0) {
  PIPESCG_CHECK(s >= 1 && s <= 16, "s must be in [1, 16]");
}

ScalarWork::Result ScalarWork::step(const DotLayout& layout,
                                    std::span<const double> values,
                                    const ShiftedBasis* basis) {
  const la::DenseMatrix cross = layout.cross(values);
  if (!layout.gram) return step(values.first(layout.moment_count()), cross);
  PIPESCG_CHECK(basis != nullptr, "a Gram dot layout needs its basis");
  return step_gram(*basis, values.first(layout.tri_count()), cross);
}

ScalarWork::Result ScalarWork::step(std::span<const double> moments,
                                    const la::DenseMatrix& cross) {
  const std::size_t s = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(moments.size() >= 2 * s + 1, "need 2s+1 moments");
  if (!all_finite(moments)) {
    Result result;
    result.b = la::DenseMatrix(s, s);
    result.alpha.assign(s, 0.0);
    return result;
  }
  la::DenseMatrix m_s(s, s);
  for (std::size_t j = 0; j < s; ++j)
    for (std::size_t k = 0; k < s; ++k) m_s(j, k) = moments[j + k + 1];
  return solve_with(m_s, moments.subspan(0, s), cross);
}

ScalarWork::Result ScalarWork::step_gram(const ShiftedBasis& basis,
                                         std::span<const double> tri,
                                         const la::DenseMatrix& cross) {
  const std::size_t s = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(basis.s() == s_, "basis depth mismatch");
  const DotLayout layout{s_, false, true};
  PIPESCG_CHECK(tri.size() >= layout.tri_count(),
                "need (s+1)(s+2)/2 Gram values");
  // Symmetric triangle access: G(j, k) = G(k, j).
  const auto g_at = [&](std::size_t j, std::size_t k) {
    return j <= k ? tri[layout.gram_index(j, k)]
                  : tri[layout.gram_index(k, j)];
  };
  // M_S(j, k) = (S[j], x S[k]) expanded through the three-term recurrence
  // x p_k = gamma_k p_{k+1} + theta_k p_k + sigma_k p_{k-1}; symmetrized
  // because the expansion is only symmetric in exact arithmetic.
  la::DenseMatrix m_s(s, s);
  for (std::size_t j = 0; j < s; ++j) {
    for (std::size_t k = 0; k < s; ++k) {
      const int ki = static_cast<int>(k);
      double v = basis.gamma(ki) * g_at(j, k + 1) +
                 basis.theta(ki) * g_at(j, k);
      if (k > 0) v += basis.sigma(ki) * g_at(j, k - 1);
      m_s(j, k) = v;
    }
  }
  m_s.symmetrize();
  std::vector<double> g(s);
  for (std::size_t j = 0; j < s; ++j) g[j] = g_at(0, j);
  return solve_with(m_s, g, cross);
}

ScalarWork::Result ScalarWork::solve_with(const la::DenseMatrix& m_s,
                                          std::span<const double> g,
                                          const la::DenseMatrix& cross) {
  const std::size_t s = static_cast<std::size_t>(s_);
  PIPESCG_CHECK(cross.rows() == s && cross.cols() == s, "cross must be s x s");

  Result result;
  result.b = la::DenseMatrix(s, s);
  result.alpha.assign(s, 0.0);
  if (!all_finite(m_s) || !all_finite(cross) || !all_finite(g)) return result;

  la::DenseMatrix w(s, s);
  try {
    if (first_) {
      w = m_s;
    } else {
      // W_{i-1} B = -C
      la::DenseMatrix neg_c(s, s);
      for (std::size_t k = 0; k < s; ++k)
        for (std::size_t j = 0; j < s; ++j) neg_c(k, j) = -cross(k, j);
      la::LuFactorization lu_prev(w_prev_);
      result.b = lu_prev.solve(neg_c);
      // W = M_S + C^T B  (the B^T C + C^T B + B^T W B terms collapse since
      // W_{i-1} B = -C implies B^T W_{i-1} B = -B^T C).
      w = m_s;
      const la::DenseMatrix ct_b = cross.transposed() * result.b;
      w.add_scaled(ct_b, 1.0);
      w.symmetrize();
    }
    // SPD guard: W = P^T A P is SPD whenever the direction block has full
    // rank, so a failed (near-singular-tolerant) Cholesky is a certificate
    // that the basis Gram has numerically collapsed.  Fail soft -- the LU
    // below would "succeed" and hand back huge garbage coefficients.  When
    // the guard passes the actual solves still run through LU, bitwise
    // identical to the historical path.
    la::DenseMatrix w_sym = w;
    w_sym.symmetrize();
    if (!la::CholeskyFactorization::try_factor(w_sym, 1e-13)) {
      result.gram_breakdown = true;
      return result;
    }
    la::LuFactorization lu_w(w);
    result.alpha = lu_w.solve(std::vector<double>(g.begin(), g.end()));
  } catch (const Error&) {
    return result;  // singular scalar work => breakdown
  }
  if (!all_finite(result.b) ||
      !all_finite(std::span<const double>(result.alpha))) {
    return result;
  }
  w_prev_ = w;
  first_ = false;
  result.ok = true;
  return result;
}

double DotLayout::norm_sq(std::span<const double> values,
                          NormType norm) const {
  PIPESCG_CHECK(values.size() >= total(), "dot batch too small");
  if (!preconditioned) return values[0];  // all flavors coincide (u == r)
  switch (norm) {
    case NormType::kUnpreconditioned:
      return values[norm_offset()];
    case NormType::kPreconditioned:
      return values[norm_offset() + 1];
    case NormType::kNatural:
      return values[0];  // m_0 = (r, u)
  }
  return values[0];
}

double DotLayout::norm(std::span<const double> values, NormType flavor) const {
  return std::sqrt(std::max(norm_sq(values, flavor), 0.0));
}

la::DenseMatrix DotLayout::cross(std::span<const double> values) const {
  PIPESCG_CHECK(values.size() >= total(), "dot batch too small");
  const std::size_t su = static_cast<std::size_t>(s);
  la::DenseMatrix c(su, su);
  const std::size_t off = cross_offset();
  for (std::size_t k = 0; k < su; ++k)
    for (std::size_t j = 0; j < su; ++j) c(k, j) = values[off + k * su + j];
  return c;
}

void build_dot_pairs(const DotLayout& layout, const VecBlock& w,
                     const VecBlock& v, const VecBlock& ap,
                     std::vector<DotPair>& out) {
  const std::size_t s = static_cast<std::size_t>(layout.s);
  PIPESCG_CHECK(ap.size() == s && w.size() == s + 1 && v.size() == s + 1,
                "bases must have s+1 columns, AP s columns");
  out.clear();
  if (layout.gram) {
    for (std::size_t j = 0; j <= s; ++j)
      for (std::size_t k = j; k <= s; ++k)
        out.push_back(DotPair{&w[j], &v[k]});
  } else {
    for (std::size_t j = 0; j <= 2 * s; ++j) {
      const std::size_t half = j / 2;
      out.push_back(DotPair{&w[j - half], &v[half]});
    }
  }
  for (std::size_t k = 0; k < s; ++k)
    for (std::size_t j = 0; j < s; ++j)
      out.push_back(DotPair{&ap[k], &v[j]});
  if (layout.preconditioned) {
    out.push_back(DotPair{&w[0], &w[0]});
    out.push_back(DotPair{&v[0], &v[0]});
  }
}

DotPair true_residual(Engine& engine, const Vec& b, const Vec& x,
                      NormType norm, Vec& r, Vec& u) {
  engine.apply_op(x, u);
  engine.waxpy(r, -1.0, u, b);  // r = b - A x
  if (norm == NormType::kUnpreconditioned || !engine.has_preconditioner())
    return DotPair{&r, &r};
  engine.apply_pc(r, u);
  return DotPair{norm == NormType::kPreconditioned ? &u : &r, &u};
}

double true_flavored_norm(Engine& engine, const Vec& b, const Vec& x,
                          NormType norm, Vec& scratch_r, Vec& scratch_u) {
  const DotPair p = true_residual(engine, b, x, norm, scratch_r, scratch_u);
  return std::sqrt(std::max(engine.dot(*p.x, *p.y), 0.0));
}

bool batch_finite(std::span<const double> values) {
  return all_finite(values);
}

int resolve_replacement_period(const SolverOptions& opts, int s) {
  if (opts.replacement_period > 0) return opts.replacement_period;
  if (opts.replacement_period < 0) return 0;
  // Auto: infrequent truth anchoring at s <= 3 (keeps the reported residual
  // honest at ~(s+1)/(16 s) extra kernel cost), tighter periods at the
  // depths where the monomial tower recurrences destabilize.  The shifted
  // bases exist precisely so the tower stays conditioned at large s, so
  // they keep the relaxed period everywhere -- the same assumption
  // sim::auto_tune prices when comparing bases.
  if (opts.basis.type != BasisType::kMonomial) return 16;
  if (s <= 3) return 16;
  return s == 4 ? 4 : 1;
}

int resolve_gap_period(const SolverOptions& opts) {
  return opts.gap_check_period > 0 ? opts.gap_check_period : 8;
}

GapMonitor::Action GapMonitor::observe(double recurred_rnorm,
                                       double true_rnorm, SolveStats& stats) {
  const double gap = std::abs(recurred_rnorm - true_rnorm) /
                     std::max(true_rnorm, 1e-300);
  last_gap_ = gap;
  ++stats.gap_checks;
  stats.last_residual_gap = gap;
  stats.max_residual_gap = std::max(stats.max_residual_gap, gap);
  if (!enabled() || !(gap > tol_)) {
    // Healthy (or a replacement just closed the gap): reset the ladder.
    awaiting_ = false;
    failures_ = 0;
    return Action::kNone;
  }
  if (awaiting_) {
    // The previous gap-triggered replacement did not close the gap.
    ++failures_;
    ++stats.failed_replacements;
    if (failures_ >= 2) {
      awaiting_ = false;
      return Action::kEscalate;
    }
  }
  awaiting_ = true;
  return Action::kReplace;
}

DirectionBlocks::DirectionBlocks(Engine& engine, std::size_t s)
    : p_prev(engine.new_block(s)),
      p_cur(engine.new_block(s)),
      ap_prev(engine.new_block(s)),
      ap_cur(engine.new_block(s)) {}

void DirectionBlocks::update(VectorBatch& up, const ScalarWork::Result& sw,
                             bool first, const VecBlock& s_block,
                             VecBlock& chain, const ShiftedBasis* basis,
                             Vec& x) {
  const std::size_t su = p_cur.size();
  PIPESCG_CHECK(s_block.size() >= su && chain.size() > su,
                "direction update needs s + 1 basis columns");
  for (std::size_t c = 0; c < su; ++c) up.copy(s_block[c], p_cur[c]);
  for (std::size_t c = 0; c < su; ++c) {
    if (basis == nullptr || basis->monomial())
      up.copy(chain[c + 1], ap_cur[c]);
    else
      combine_chain(up, basis->seed(0, static_cast<int>(c)),
                    ChainView{&chain, nullptr}, ap_cur[c]);
  }
  if (!first) {
    up.block_maxpy(p_cur, p_prev, sw.b);
    up.block_maxpy(ap_cur, ap_prev, sw.b);
  }
  up.block_axpy(x, p_cur, sw.alpha);
}

void DirectionBlocks::advance() {
  std::swap(p_prev, p_cur);
  std::swap(ap_prev, ap_cur);
}

void TelemetrySnapshot::capture(const ScalarWork::Result& sw) {
  if (obs::ConvergenceTelemetry::current() == nullptr) return;
  alpha = sw.alpha;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < sw.b.rows(); ++i)
    for (std::size_t j = 0; j < sw.b.cols(); ++j)
      sum_sq += sw.b(i, j) * sw.b(i, j);
  beta_fro = std::sqrt(sum_sq);
}

obs::Checkpoint TelemetrySnapshot::take(int s) {
  obs::Checkpoint cp;
  cp.s = s;
  cp.alpha = alpha;
  cp.beta_fro = beta_fro;
  cp.true_rnorm = std::exchange(true_rnorm, -1.0);
  cp.gap = std::exchange(residual_gap, -1.0);
  return cp;
}

void record_basis(SolveStats& stats, const BasisSpec& spec) {
  stats.basis = to_string(spec.type);
  stats.basis_lambda_min = spec.lambda_min;
  stats.basis_lambda_max = spec.lambda_max;
}

AttemptRunner::AttemptRunner(Engine& engine, const Vec& b, Vec& x,
                             const SolverOptions& opts,
                             const std::string& method, bool preconditioned)
    : engine(engine),
      b(b),
      x(x),
      opts(opts),
      gap(opts.gap_tol),
      gap_period(resolve_gap_period(opts)),
      recovery(opts.recovery, opts.max_recoveries) {
  stats.method = method;
  stats.b_norm = detail::compute_b_norm(engine, b, opts.norm);
  tol = detail::threshold(stats, opts);
  // Basis shifts resolved once per solve (setup-only collectives for the
  // non-monomial families; a monomial spec passes through with no kernels,
  // keeping default-configuration trajectories bitwise identical).
  basis_spec = resolve_basis(engine, opts.basis, preconditioned);
  record_basis(stats, basis_spec);
  // The initial save means there is always a checkpoint to roll back to.
  if (recovery.active())
    recovery.save(x.span(), 0, std::numeric_limits<double>::infinity());
}

SolveStats AttemptRunner::run(int s,
                              const std::function<Step(int s_att)>& attempt) {
  int cur_s = s;
  for (;;) {
    gap.new_attempt();
    if (attempt(cur_s) != Step::kFault) break;
    if (!recovery.admit_failure()) {
      // Recovery budget exhausted: report the failure honestly.
      stats.breakdown = true;
      stats.stagnated = true;
      break;
    }
    iterations = recovery.restore(x.span());
    rnorm = recovery.checkpoint_rnorm();
    ++stats.recoveries;
    if (obs::Profiler* prof = obs::Profiler::current())
      ++prof->counters().recoveries;
    if (recovery.should_degrade() && cur_s > 1) {
      cur_s = std::max(1, cur_s - 1);
      recovery.acknowledge_degrade();
    }
  }
  // A solve that needed rollbacks and still failed to reach the tolerance
  // is a stagnation: the recovery layer kept it alive past diagnostics the
  // non-recovering driver would have stopped on, so report the failure
  // class those diagnostics would have carried.
  if (!stats.converged && stats.recoveries > 0) stats.stagnated = true;
  stats.final_s = cur_s;
  stats.iterations = iterations;
  stats.final_rnorm = rnorm;
  detail::finalize_stats(engine, b, x, opts, stats);
  return std::move(stats);
}

Step AttemptRunner::checkpoint(int s_att) {
  if (detail::checkpoint(stats, opts, iterations, rnorm, 0, telem.take(s_att)))
    return Step::kGo;
  if (recovery.active()) {
    stats.breakdown = false;  // rolling back, not stopping
    return Step::kFault;
  }
  stats.stagnated = true;
  return Step::kStop;
}

Step AttemptRunner::observe_gap(double true_norm_sq, bool& force_replace) {
  const double true_norm = std::sqrt(std::max(true_norm_sq, 0.0));
  if (!std::isfinite(true_norm))
    return recovery.active() ? Step::kFault : Step::kGo;
  const GapMonitor::Action act = gap.observe(rnorm, true_norm, stats);
  telem.note_gap(true_norm, gap.last_gap());
  if (act == GapMonitor::Action::kReplace) force_replace = true;
  if (act != GapMonitor::Action::kEscalate) return Step::kGo;
  if (recovery.active()) {
    // Two gap-triggered replacements failed to close the gap: the
    // recurrences are unstable at this depth.  Hand the RecoveryManager a
    // direct degrade-s request.
    recovery.escalate_degrade();
    return Step::kFault;
  }
  stats.stagnated = true;
  return Step::kStop;
}

Step AttemptRunner::scalar_failure(const ScalarWork::Result& sw) {
  if (sw.gram_breakdown) ++stats.gram_breakdowns;
  if (recovery.active()) return Step::kFault;
  stats.breakdown = true;
  stats.stagnated = true;
  return Step::kStop;
}

ScgColumn::ScgColumn(Engine& engine, const ShiftedBasis& basis)
    : basis(&basis),
      chain(engine.new_block(static_cast<std::size_t>(basis.s()) + 1)),
      chain_next(engine.new_block(static_cast<std::size_t>(basis.s()) + 1)),
      dir(engine, static_cast<std::size_t>(basis.s())),
      update(engine),
      scalar_work(basis.s()) {}

namespace {

// Degrees 1..s of `chain` from its column 0: s SPMVs, fused into one halo
// exchange when an MPK is attached (monomial only; shifted chains
// interleave the three-term combinations).
void build_basis(Engine& engine, const ShiftedBasis& basis, VecBlock& chain,
                 Vec& scratch) {
  const std::size_t su = static_cast<std::size_t>(basis.s());
  if (basis.monomial())
    engine.apply_op_powers(chain[0], std::span<Vec>(chain.data() + 1, su));
  else
    extend_chain(engine, basis, ChainView{&chain, nullptr}, 1, su, scratch);
}

}  // namespace

void ScgColumn::start(Engine& engine, const Vec& b, const Vec& x,
                      Vec& scratch) {
  engine.apply_op(x, scratch);
  engine.waxpy(chain[0], -1.0, scratch, b);
  build_basis(engine, *basis, chain, scratch);
}

void ScgColumn::step(Engine& engine, const ScalarWork::Result& sw,
                     const Vec& b, Vec& x, bool replace, Vec& scratch) {
  dir.update(update, sw, outer == 0, chain, chain, basis, x);
  update.block_combine(chain_next[0], chain[0], dir.ap_cur, sw.alpha);
  update.run();
  if (replace) {
    engine.apply_op(x, scratch);
    engine.waxpy(chain_next[0], -1.0, scratch, b);
  }
  build_basis(engine, *basis, chain_next, scratch);
}

void ScgColumn::dot_pairs(const DotLayout& layout, bool next,
                          std::vector<DotPair>& out) const {
  const VecBlock& c = next ? chain_next : chain;
  build_dot_pairs(layout, c, c, dir.ap_cur, out);
}

void ScgColumn::advance() {
  std::swap(chain, chain_next);
  dir.advance();
  ++outer;
}

}  // namespace pipescg::krylov::sstep
