#include "pipescg/krylov/scg_sspmv.hpp"

#include <deque>
#include <optional>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {
namespace sstep {
namespace {

enum class Phase { kAnchor, kStep, kDone };

// One right-hand side of the blocking core: its attempt runner (recovery,
// gap monitor, telemetry, iterations, rnorm), the current attempt's basis
// and system, and its slice of the fused dot batch.
struct Lane {
  Lane(Engine& engine, const Vec& b, Vec& x, const SolverOptions& opts,
       const std::string& method, double b_norm, const BasisSpec& spec)
      : run(engine, b, x, opts, method, opts.s, b_norm, spec),
        gap_r(run.gap.enabled() ? engine.new_vec() : Vec()),
        gap_u(run.gap.enabled() ? engine.new_vec() : Vec()) {}

  // A fresh attempt at depth run.s: the basis of b - A x, and the initial
  // (current-chain) slice for the next fused batch.
  void anchor(Engine& engine, bool two, Vec& scratch) {
    basis.emplace(run.basis_spec, run.s);
    sys.emplace(engine, *basis, two);
    sys->start(engine, run.b, run.x, scratch);
    layout = DotLayout{run.s, two, !basis->monomial()};
    sys->dot_pairs(layout, /*next=*/false, pairs);
    phase = Phase::kStep;
    fresh = true;
    gap_due = false;
    force_replace = false;
  }

  // Scalar work and the outer step on the last reduced slice, then the
  // slice for the next fused batch.
  void step(Engine& engine, const BlockingPolicy& policy, NormType flavor,
            Vec& scratch) {
    const ScalarWork::Result sw =
        sys->scalar_work.step(layout, values, &*basis);
    if (!sw.ok) return end(run.scalar_failure(sw));
    run.telem.capture(sw);
    if (run.recovery.should_save(run.rnorm))
      run.recovery.save(run.x.span(), run.iterations, run.rnorm);

    // The recurred residual needs no SPMV -- unless the gap monitor
    // demanded a replacement, which re-anchors it to the truth.  The
    // explicit-residual policy anchors every outer iteration; those
    // rebuilds are the method itself, not replacements.
    const bool replaced_now = policy.explicit_residual || force_replace;
    if (force_replace) ++run.stats.replacements;
    force_replace = false;
    sys->step(engine, sw, run.b, run.x, replaced_now, scratch);

    // Gap check.  Skipped on truth-anchored iterations -- the comparison
    // would be vacuously zero and reset the failure ladder without
    // measuring recurrence health -- so never under explicit residuals.
    // The dots are blocking, so a due check resolves in the SAME batch
    // (the true-residual dot rides the one collective the outer iteration
    // already performs) and a triggered replacement lands at the next
    // outer iteration's residual rebuild.
    const auto period = static_cast<std::size_t>(run.gap_period);
    gap_due = run.gap.enabled() && !replaced_now &&
              (sys->outer + 1) % period == 0;
    sys->dot_pairs(layout, /*next=*/true, pairs);
    if (gap_due)
      pairs.push_back(
          true_residual(engine, run.b, run.x, flavor, gap_r, gap_u));
    fresh = false;
  }

  // The verdicts on this column's reduced slice.
  void settle(Engine& engine) {
    const std::span<const double> active(values.data(), layout.total());
    if (run.recovery.active() && !batch_finite(active))
      return end(Step::kFault);
    if (!fresh) run.iterations += static_cast<std::size_t>(run.s);
    run.rnorm = layout.norm(values, run.opts.norm);
    if (fresh) diverge = detail::DivergenceDetector(run.rnorm);
    if (gap_due) {
      const Step st = run.observe_gap(values[layout.total()], force_replace);
      if (st != Step::kGo) return end(st);
    }
    if (const Step st = run.checkpoint(); st != Step::kGo) return end(st);
    if (!fresh) {
      engine.mark_iteration(run.iterations - 1, run.rnorm);
      if (run.recovery.active() && diverge.update(run.rnorm))
        return end(Step::kFault);
      sys->advance();
    }
    if (run.rnorm < run.tol || run.iterations >= run.opts.max_iterations)
      end(Step::kStop);
  }

  // A fault rolls back into a fresh attempt (or, with the budget spent,
  // ends the column); a stop ends it.
  void end(Step st) {
    if (st == Step::kStop) run.stats.converged = run.rnorm < run.tol;
    phase = st == Step::kFault && run.recover() ? Phase::kAnchor : Phase::kDone;
  }

  AttemptRunner run;
  Vec gap_r, gap_u;  // the gap check's true residual, when the monitor is on
  std::optional<ShiftedBasis> basis;
  std::optional<ScgColumn> sys;
  DotLayout layout{};
  detail::DivergenceDetector diverge{0.0};
  std::vector<DotPair> pairs;  // this round's slice of the fused batch
  std::vector<double> values;  // ...and its reduced values
  Phase phase = Phase::kAnchor;
  bool fresh = false;  // the slice is the attempt's initial one
  bool gap_due = false;
  bool force_replace = false;
};

}  // namespace

std::vector<SolveStats> blocking_core(Engine& engine, std::span<const Vec> bs,
                                      std::span<Vec> xs,
                                      const SolverOptions& opts,
                                      const std::string& method_name,
                                      const BlockingPolicy& policy) {
  PIPESCG_CHECK(!bs.empty() && xs.size() == bs.size(),
                "blocking_core needs matching, non-empty b/x column sets");
  const bool two = policy.preconditioned;
  // One chain carries no PC: its true residual is always the plain one.
  const NormType flavor = two ? opts.norm : NormType::kUnpreconditioned;
  // Setup collectives in the single-RHS order: every column's ||b|| in one
  // fused batch, then the basis shifts, resolved once for the shared
  // operator (a monomial spec passes through with no kernels).
  const std::vector<double> b_norms =
      detail::compute_b_norm(engine, bs, opts.norm);
  const BasisSpec spec = resolve_basis(engine, opts.basis, two);
  // A lane's system points at its own basis, so lanes never relocate.
  std::deque<Lane> lanes;
  for (std::size_t i = 0; i < bs.size(); ++i)
    lanes.emplace_back(engine, bs[i], xs[i], opts, method_name, b_norms[i],
                       spec)
        .run.column = i;
  Vec scratch = engine.new_vec();
  std::vector<DotPair> fused;
  std::vector<double> fused_values;

  for (;;) {
    // Phase 1: every live column's outer step -- or, for a fresh or rolled
    // back attempt, its anchor -- and its slice of the fused batch.
    fused.clear();
    for (Lane& c : lanes) {
      if (c.phase == Phase::kStep) c.step(engine, policy, flavor, scratch);
      if (c.phase == Phase::kAnchor) c.anchor(engine, two, scratch);
      if (c.phase == Phase::kStep)
        fused.insert(fused.end(), c.pairs.begin(), c.pairs.end());
    }
    if (fused.empty()) break;
    // Phase 2: ONE allreduce for every live column.
    fused_values.assign(fused.size(), 0.0);
    engine.dots(fused, fused_values);
    // Phase 3: each column's verdicts on its own slice.
    auto next = fused_values.begin();
    for (Lane& c : lanes) {
      if (c.phase != Phase::kStep) continue;
      const auto end = next + static_cast<std::ptrdiff_t>(c.pairs.size());
      c.values.assign(next, end);
      next = end;
      c.settle(engine);
    }
  }

  std::vector<SolveStats> out;
  out.reserve(lanes.size());
  for (Lane& c : lanes) out.push_back(c.run.finish());
  return out;
}

}  // namespace sstep

SolveStats ScgSspmvSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                 const SolverOptions& opts) const {
  return std::move(sstep::blocking_core(engine, {&b, 1}, {&x, 1}, opts,
                                        name(),
                                        {/*preconditioned=*/false,
                                         /*explicit_residual=*/false})[0]);
}

}  // namespace pipescg::krylov
