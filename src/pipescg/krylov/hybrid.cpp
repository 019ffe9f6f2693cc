#include "pipescg/krylov/hybrid.hpp"

#include "pipescg/krylov/pipecg_oati.hpp"
#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {

SolveStats HybridSolver::solve(Engine& engine, const Vec& b, Vec& x,
                               const SolverOptions& opts) const {
  // Phase 1: PIPE-PsCG with stagnation detection on and tight truth
  // anchoring (period-4 residual replacement, like the "non-recurrence
  // computations" of PIPECG-OATI): the phase must make *real* progress for
  // the handoff to pay, and its stall must be detectable.
  SolverOptions phase1 = opts;
  phase1.detect_stagnation = true;
  if (phase1.replacement_period == 0) phase1.replacement_period = 4;
  SolveStats stats = sstep::pipelined_core(
      engine, b, x, phase1, name(), {opts.s, /*preconditioned=*/true});
  if (stats.converged || stats.iterations >= opts.max_iterations) {
    stats.method = name();
    return stats;
  }
  if (stats.breakdown && stats.recoveries > 0) {
    // Phase 1 exhausted its recovery budget; the tail would inherit the
    // same fault environment, so report instead of thrashing.
    stats.method = name();
    return stats;
  }

  // Phase 2: PIPECG-OATI from the PIPE-PsCG iterate (paper: "we extract the
  // solution x* calculated by PIPE-PsCG and provide it as initial solution
  // to the PIPECG-OATI method").
  SolverOptions phase2 = opts;
  phase2.detect_stagnation = false;
  phase2.max_iterations = opts.max_iterations - stats.iterations;
  PipeCgOatiSolver oati;
  SolveStats tail = oati.solve(engine, b, x, phase2);

  // Merge the two phases into one report.
  SolveStats merged;
  merged.method = name();
  merged.converged = tail.converged;
  merged.stagnated = tail.stagnated;
  merged.breakdown = tail.breakdown;
  merged.iterations = stats.iterations + tail.iterations;
  merged.b_norm = stats.b_norm;
  merged.final_rnorm = tail.final_rnorm;
  merged.true_residual = tail.true_residual;
  merged.recoveries = stats.recoveries + tail.recoveries;
  merged.final_s = tail.final_s;
  merged.history = stats.history;
  for (const auto& [it, rnorm] : tail.history)
    merged.history.emplace_back(stats.iterations + it, rnorm);
  return merged;
}

}  // namespace pipescg::krylov
