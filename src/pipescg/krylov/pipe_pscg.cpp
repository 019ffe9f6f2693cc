#include "pipescg/krylov/pipe_pscg.hpp"

#include <algorithm>
#include <utility>

#include "pipescg/krylov/sstep_common.hpp"

namespace pipescg::krylov {
namespace sstep {
namespace {

// Extend the interleaved power chain w_j = A v_{j-1}, v_j = M^{-1} w_j for
// j = 1..w.size() from `seed` = v_0.  With a real preconditioner the M^{-1}
// between consecutive SPMVs makes the chain (M^{-1}A)^j seed -- no
// matrix-powers kernel can fuse that, so the loop stays interleaved.
// Without one, apply_pc is a plain copy, the chain degenerates to pure
// powers of A, and an attached MPK collapses the s halo exchanges into one;
// the apply_pc copies are kept so v_j stays a distinct vector and the
// pc_applies counter semantics are unchanged (a null-pc apply_pc does not
// count).  See DESIGN.md section 8.
void extend_power_chain(Engine& engine, const Vec& seed, std::span<Vec> w,
                        std::span<Vec> v) {
  if (engine.has_matrix_powers() && !engine.has_preconditioner()) {
    engine.apply_op_powers(seed, w);
    for (std::size_t j = 0; j < w.size(); ++j) engine.apply_pc(w[j], v[j]);
    return;
  }
  for (std::size_t j = 0; j < w.size(); ++j) {
    engine.apply_op(j == 0 ? seed : v[j - 1], w[j]);
    engine.apply_pc(w[j], v[j]);
  }
}

// One basis chain of the pipelined loop, double-buffered: degrees 0..s in
// `lo`, the overlap-window extension s+1..2s in `ext`, and the power towers
// T[j] = p_j(op) op P_cur, j = 0..s (T[0] = op P_cur).
struct Chain {
  Chain(Engine& engine, std::size_t s)
      : lo(engine.new_block(s + 1)),
        lo_next(engine.new_block(s + 1)),
        ext(engine.new_block(s)),
        ext_next(engine.new_block(s)) {
    for (std::size_t j = 0; j <= s; ++j) {
      t_prev.push_back(engine.new_block(s));
      t_cur.push_back(engine.new_block(s));
    }
  }

  ChainView view(bool next) {
    return next ? ChainView{&lo_next, &ext_next} : ChainView{&lo, &ext};
  }
  // Degrees [first, first + count), which lie wholly in lo or in ext.
  std::span<Vec> degrees(bool next, std::size_t first, std::size_t count) {
    VecBlock& l = next ? lo_next : lo;
    if (first < l.size()) return std::span<Vec>(l.data() + first, count);
    VecBlock& e = next ? ext_next : ext;
    return std::span<Vec>(e.data() + (first - l.size()), count);
  }
  void advance() {
    std::swap(lo, lo_next);
    std::swap(ext, ext_next);
    std::swap(t_prev, t_cur);
  }

  VecBlock lo, lo_next, ext, ext_next;
  std::vector<VecBlock> t_prev, t_cur;
};

}  // namespace

SolveStats pipelined_core(Engine& engine, const Vec& b, Vec& x,
                          const SolverOptions& opts,
                          const std::string& method_name,
                          const PipelinedPolicy& policy) {
  const bool two = policy.preconditioned;
  AttemptRunner run(engine, b, x, opts, method_name, two);
  SolveStats& stats = run.stats;
  std::size_t& iterations = run.iterations;
  double& rnorm = run.rnorm;
  const double n_global = static_cast<double>(engine.global_size());
  // One chain carries no PC: its true residual is always the plain one.
  const NormType flavor = two ? opts.norm : NormType::kUnpreconditioned;

  Vec scratch = engine.new_vec();
  Vec scratch2 = engine.new_vec();
  Vec gap_r = engine.new_vec();
  Vec gap_u = engine.new_vec();

  return run.run(policy.s, [&](int s_att) -> Step {
    const std::size_t su = static_cast<std::size_t>(s_att);
    const ShiftedBasis basis(run.basis_spec, s_att);
    const bool shifted = !basis.monomial();

    // chains[0] is the u-side V = (M^{-1}A)^j u (or the single S = A^j r),
    // chains.back() the r-side W = (A M^{-1})^j r; every per-chain kernel
    // runs u side first.  Direction block P_cur is u-side.
    std::vector<Chain> chains;
    chains.reserve(2);
    chains.emplace_back(engine, su);
    if (two) chains.emplace_back(engine, su);
    Chain& u = chains.front();
    Chain& r = chains.back();
    VecBlock p_prev = engine.new_block(su), p_cur = engine.new_block(su);
    VectorBatch update(engine);

    // Degrees [first, first + s) of the (next) chains from degree first-1:
    // s SPMVs (+ s PCs with two chains).
    const auto extend = [&](bool next, std::size_t first) {
      if (shifted && two)
        extend_chain_pc(engine, basis, r.view(next), u.view(next), first, su,
                        scratch);
      else if (shifted)
        extend_chain(engine, basis, u.view(next), first, su, scratch);
      else if (two)
        extend_power_chain(engine, u.view(next)[first - 1],
                           r.degrees(next, first, su),
                           u.degrees(next, first, su));
      else
        engine.apply_op_powers(u.view(next)[first - 1],
                               u.degrees(next, first, su));
    };
    // r = b - A x (u = M^{-1} r) and its basis, explicitly.
    const auto anchor = [&](bool next) {
      VecBlock& r0 = next ? r.lo_next : r.lo;
      engine.apply_op(x, scratch);
      engine.waxpy(r0[0], -1.0, scratch, b);
      if (two) engine.apply_pc(r0[0], (next ? u.lo_next : u.lo)[0]);
      extend(next, 1);
    };

    // --- setup: r_0, u_0, power basis, first dot batch, extended powers --
    anchor(/*next=*/false);
    const DotLayout layout{s_att, two, shifted};
    std::vector<DotPair> pairs;
    // One spare slot for the piggybacked gap-check dot; on iterations with
    // no check pending only the leading layout.total() values are live.
    std::vector<double> values(layout.total() + 1);
    const std::span<const double> active(values.data(), layout.total());
    build_dot_pairs(layout, r.lo, u.lo, r.t_cur[0], pairs);  // C = 0
    DotHandle handle = engine.dot_post(pairs);
    // Overlapped with the first allreduce: extend powers to 2s
    // (paper Alg. 5 line 10 / Alg. 6 line 13).
    extend(/*next=*/false, su + 1);

    const int replacement_period = resolve_replacement_period(opts, s_att);
    ScalarWork scalar_work(s_att);
    detail::StallDetector stall(opts.stall_improvement, opts.stall_window);
    detail::DivergenceDetector diverge(0.0);
    std::size_t outer = 0;
    bool force_replace = false;
    bool gap_pending = false;

    for (;;) {
      engine.dot_wait(handle, values);
      // Fault gate: a corrupted kernel output (SDC) or overflow lands in
      // the moments / Gram cross-block as NaN or Inf.  Detect before the
      // values feed anything; the roll back reruns from the checkpoint.
      // Only the ACTIVE prefix is gated -- the spare gap slot holds a stale
      // value on iterations with no check pending.
      if (run.recovery.active() && !batch_finite(active)) return Step::kFault;
      rnorm = layout.norm(values, opts.norm);
      if (gap_pending) {
        // The true-residual dot posted last iteration resolved in the same
        // allreduce as this batch: both norms describe the CURRENT iterate,
        // so the comparison is apples-to-apples and cost zero extra
        // collectives.
        gap_pending = false;
        const Step st = run.observe_gap(values[layout.total()], force_replace);
        if (st == Step::kFault) return st;
        if (st == Step::kStop) break;
      }
      const Step st = run.checkpoint(s_att);
      if (st == Step::kFault) return st;
      if (st == Step::kStop) break;
      if (iterations > 0) engine.mark_iteration(iterations - 1, rnorm);
      if (outer == 0) diverge = detail::DivergenceDetector(rnorm);

      if (rnorm < run.tol) {
        // Verified acceptance: the recurred residual can cross the threshold
        // spuriously (rounding drift); declare convergence only when the true
        // residual confirms it, otherwise re-anchor and keep iterating.
        const double true_norm =
            true_flavored_norm(engine, b, x, flavor, scratch, scratch2);
        rnorm = true_norm;
        stats.history.back().second = true_norm;
        if (true_norm < run.tol) {
          stats.converged = true;
          break;
        }
        force_replace = true;
      }
      if (iterations >= opts.max_iterations) break;
      // Divergence safeguard: the recurred residual ran away (rounding in
      // the power-basis recurrences, or a silent fault).  Roll back when we
      // can, stop instead of amplifying further when we can't.
      if (diverge.update(rnorm)) {
        if (run.recovery.active()) return Step::kFault;
        stats.stagnated = true;
        break;
      }
      // A genuinely improving iterate is worth checkpointing (raw copy; no
      // engine kernels, so clean-run trajectories are untouched).
      if (run.recovery.should_save(rnorm))
        run.recovery.save(x.span(), iterations, rnorm);
      // Stagnation detection evaluates only *honest* residual checkpoints:
      // with replacement enabled those are the iterations right after a
      // truth anchoring (the pure recurred residual can keep "improving"
      // while the true residual stalls).
      const bool honest_checkpoint =
          replacement_period == 0 || outer == 0 ||
          ((outer - 1) % static_cast<std::size_t>(
                             std::max(replacement_period, 1))) == 0;
      if (opts.detect_stagnation && honest_checkpoint && stall.update(rnorm)) {
        stats.stagnated = true;
        break;
      }

      // Scalar work (two s x s LU solves behind an SPD Cholesky guard).
      const ScalarWork::Result sw = scalar_work.step(layout, values, &basis);
      if (!sw.ok) {
        const Step fail = run.scalar_failure(sw);
        if (fail == Step::kFault) return fail;
        break;
      }
      run.telem.capture(sw);
      const bool first = outer == 0;

      // The outer update, issued in the drivers' call order and run as one
      // blocked pass.  Direction block: P_cur = V[0..s-1] + P_prev B
      // (Alg. 5 line 17).
      for (std::size_t c = 0; c < su; ++c) update.copy(u.lo[c], p_cur[c]);
      if (!first) update.block_maxpy(p_cur, p_prev, sw.b);

      // Towers T[j] = seed + T_prev[j] B (Alg. 5 lines 14-20).  Monomial
      // seed column c of tower j is the basis vector of degree j+1+c (a
      // copy; degrees beyond s read the extension); a shifted basis seeds
      // with the expansion of p_j(x) * x * p_c(x) over the chain -- degree
      // <= j+c+1 <= 2s, exactly what basis+extension hold.
      for (std::size_t j = 0; j <= su; ++j) {
        for (std::size_t c = 0; c < su; ++c) {
          for (Chain& ch : chains) {
            if (shifted)
              combine_chain(update,
                            basis.seed(static_cast<int>(j),
                                       static_cast<int>(c)),
                            ch.view(false), ch.t_cur[j][c]);
            else
              update.copy(ch.view(false)[j + 1 + c], ch.t_cur[j][c]);
          }
        }
        if (!first)
          for (Chain& ch : chains)
            update.block_maxpy(ch.t_cur[j], ch.t_prev[j], sw.b);
      }

      // x_{i+1} = x_i + P_cur alpha.
      update.block_axpy(x, p_cur, sw.alpha);

      // New bases: normally pure recurrence (Alg. 5 lines 21-25, Alg. 6
      // lines 28-33, no PC or SPMV); replacement iterations anchor the
      // residual to the truth (van der Vorst-style residual replacement)
      // and rebuild the powers explicitly, resetting accumulated drift --
      // this keeps the reported residual honest, which is what makes
      // stagnation *detectable* for the Hybrid switch.
      const bool replace =
          force_replace ||
          (replacement_period > 0 && outer > 0 &&
           (outer % static_cast<std::size_t>(replacement_period)) == 0);
      force_replace = false;
      if (!replace)
        for (std::size_t j = 0; j <= su; ++j)
          for (Chain& ch : chains)
            update.block_combine(ch.lo_next[j], ch.lo[j], ch.t_cur[j],
                                 sw.alpha);
      update.run();
      if (replace) {
        ++stats.replacements;
        anchor(/*next=*/true);
      }

      if (policy.extra_flops_per_outer > 0.0) {
        engine.charge(policy.extra_flops_per_outer * n_global,
                      policy.extra_flops_per_outer * n_global * 8.0);
      }

      // Gap monitor: on due iterations measure the true residual of the
      // just-updated iterate (one SPMV + at most one PC) and ride its norm
      // dot on the batch below -- the allreduce schedule is untouched.
      // Skipped on replacement iterations: the basis was just anchored to
      // the truth, so the comparison would be vacuously zero and reset the
      // failure ladder without measuring recurrence health.
      const bool gap_due =
          run.gap.enabled() && !replace &&
          ((outer + 1) % static_cast<std::size_t>(run.gap_period)) == 0;
      DotPair gap_pair{};
      if (gap_due) gap_pair = true_residual(engine, b, x, flavor, gap_r, gap_u);

      // Post the dots for the *next* iteration (moments + cross + norms)...
      build_dot_pairs(layout, r.lo_next, u.lo_next, r.t_cur[0], pairs);
      if (gap_due) {
        pairs.push_back(gap_pair);
        gap_pending = true;
      }
      handle = engine.dot_post(pairs);

      // ...and overlap the s SPMVs (+ s PCs) that extend the powers to 2s
      // (Alg. 5 line 28 / Alg. 6 line 36 / Alg. 7 line 20).
      extend(/*next=*/true, su + 1);

      for (Chain& ch : chains) ch.advance();
      std::swap(p_prev, p_cur);
      iterations += su;
      ++outer;
    }
    return Step::kStop;
  });
}

}  // namespace sstep

SolveStats PipePscgSolver::solve(Engine& engine, const Vec& b, Vec& x,
                                 const SolverOptions& opts) const {
  return sstep::pipelined_core(engine, b, x, opts, name(),
                               {opts.s, /*preconditioned=*/true});
}

}  // namespace pipescg::krylov
