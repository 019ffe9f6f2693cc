#include "pipescg/krylov/scg_sspmv.hpp"

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {
namespace sstep {

SolveStats blocking_core(Engine& engine, const Vec& b, Vec& x,
                         const SolverOptions& opts,
                         const std::string& method_name,
                         const BlockingPolicy& policy) {
  const bool two = policy.preconditioned;
  AttemptRunner run(engine, b, x, opts, method_name, two);
  std::size_t& iterations = run.iterations;
  double& rnorm = run.rnorm;
  // One chain carries no PC: its true residual is always the plain one.
  const NormType flavor = two ? opts.norm : NormType::kUnpreconditioned;
  Vec gap_r = engine.new_vec();
  Vec scratch = engine.new_vec();

  return run.run(opts.s, [&](int s_att) -> Step {
    const ShiftedBasis basis(run.basis_spec, s_att);
    ScgColumn col(engine, basis, two);
    col.start(engine, b, x, scratch);

    const DotLayout layout{s_att, two, !basis.monomial()};
    std::vector<DotPair> pairs;
    // One spare slot for the piggybacked gap-check dot.
    std::vector<double> values(layout.total() + 1);
    const std::span<const double> active(values.data(), layout.total());
    col.dot_pairs(layout, /*next=*/false, pairs);
    engine.dots(pairs, values);
    if (run.recovery.active() && !batch_finite(active)) return Step::kFault;
    rnorm = layout.norm(values, opts.norm);
    detail::DivergenceDetector diverge(rnorm);
    if (const Step st = run.checkpoint(s_att); st != Step::kGo) return st;

    // Gap monitor: the dots are blocking, so a due check resolves in the
    // SAME batch (the true-residual dot rides the one collective the outer
    // iteration already performs) and a triggered replacement lands at the
    // next outer iteration's residual rebuild.
    bool force_replace = false;
    while (rnorm >= run.tol && iterations < opts.max_iterations) {
      const ScalarWork::Result sw = col.scalar_work.step(layout, values, &basis);
      if (!sw.ok) {
        if (run.scalar_failure(sw) == Step::kFault) return Step::kFault;
        break;
      }
      run.telem.capture(sw);
      if (run.recovery.should_save(rnorm))
        run.recovery.save(x.span(), iterations, rnorm);

      // The recurred residual needs no SPMV -- unless the gap monitor
      // demanded a replacement, which re-anchors it to the truth.  The
      // explicit-residual policy anchors every outer iteration; those
      // rebuilds are the method itself, not replacements.
      const bool replaced_now = policy.explicit_residual || force_replace;
      if (force_replace) ++run.stats.replacements;
      force_replace = false;
      col.step(engine, sw, b, x, replaced_now, scratch);

      // Gap check.  Skipped on truth-anchored iterations -- the comparison
      // would be vacuously zero and reset the failure ladder without
      // measuring recurrence health -- so never under explicit residuals.
      const bool gap_due =
          run.gap.enabled() && !replaced_now &&
          ((col.outer + 1) % static_cast<std::size_t>(run.gap_period)) == 0;
      col.dot_pairs(layout, /*next=*/true, pairs);
      if (gap_due)
        pairs.push_back(true_residual(engine, b, x, flavor, gap_r, scratch));
      engine.dots(pairs, values);
      if (run.recovery.active() && !batch_finite(active)) return Step::kFault;

      iterations += static_cast<std::size_t>(s_att);
      rnorm = layout.norm(values, opts.norm);
      if (gap_due) {
        const Step st = run.observe_gap(values[layout.total()], force_replace);
        if (st == Step::kFault) return st;
        if (st == Step::kStop) break;
      }
      const Step st = run.checkpoint(s_att);
      if (st == Step::kFault) return st;
      if (st == Step::kStop) break;
      engine.mark_iteration(iterations - 1, rnorm);
      if (run.recovery.active() && diverge.update(rnorm)) return Step::kFault;
      col.advance();
    }
    run.stats.converged = rnorm < run.tol;
    return Step::kStop;
  });
}

}  // namespace sstep

SolveStats ScgSspmvSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                 const SolverOptions& opts) const {
  return sstep::blocking_core(engine, b, x, opts, name(),
                              {/*preconditioned=*/false,
                               /*explicit_residual=*/false});
}

}  // namespace pipescg::krylov
