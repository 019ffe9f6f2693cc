#include "pipescg/krylov/multi_rhs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/par/comm.hpp"

namespace pipescg::krylov {

using sstep::DotLayout;
using sstep::ScalarWork;

std::size_t max_batch_columns(int s, bool shifted_basis) {
  const DotLayout layout{s, /*preconditioned=*/false, shifted_basis};
  return par::Team::kMaxPayload / layout.total();
}

namespace {

// Everything one right-hand side carries through the lockstep loop: the
// same sstep::ScgColumn blocking_core runs for scg-sspmv, plus its stats and
// its slice of the fused batch.  Only the dot batches are shared with the other
// columns.
struct Column {
  Column(Engine& engine, const ShiftedBasis& basis)
      : sys(engine, basis) {}

  sstep::ScgColumn sys;
  sstep::TelemetrySnapshot telem;
  SolveStats stats;
  std::vector<double> values;  // this column's slice of the fused batch
  double tol = 0.0;
  double rnorm = 0.0;
  std::size_t iterations = 0;
  bool active = true;
};

}  // namespace

std::vector<SolveStats> scg_multi_solve(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts) {
  using namespace sstep;
  const std::size_t k = bs.size();
  PIPESCG_CHECK(k >= 1 && xs.size() == k,
                "scg_multi_solve needs matching, non-empty b/x column sets");
  // The gap monitor needs the single-RHS attempt runner's rollback and
  // replacement machinery; a batch column would silently ignore it.
  PIPESCG_CHECK(opts.gap_tol <= 0.0,
                "scg_multi_solve does not run the residual-gap monitor "
                "(gap_tol > 0); solve gap-monitored systems singly");
  const int s = opts.s;
  const std::size_t su = static_cast<std::size_t>(s);

  // Basis shifts resolved once for the whole batch: every column shares the
  // operator, so one power-iteration estimate serves all of them.
  const BasisSpec basis_spec =
      resolve_basis(engine, opts.basis, /*preconditioned=*/false);
  const ShiftedBasis sbasis(basis_spec, s);
  const bool shifted = !sbasis.monomial();

  const DotLayout layout{s, /*preconditioned=*/false, shifted};
  PIPESCG_CHECK(k <= max_batch_columns(s, shifted),
                "multi-RHS batch of " + std::to_string(k) +
                    " columns exceeds max_batch_columns(s=" +
                    std::to_string(s) + ") = " +
                    std::to_string(max_batch_columns(s, shifted)) +
                    " (fused payload would overflow one allreduce)");

  std::vector<Column> cols;
  cols.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    cols.emplace_back(engine, sbasis);
    cols[i].stats.method = "scg-sspmv";
    cols[i].stats.final_s = s;
    record_basis(cols[i].stats, basis_spec);
    cols[i].values.assign(layout.total(), 0.0);
  }
  Vec scratch = engine.new_vec();

  // --- fused b-norm batch (mirrors detail::compute_b_norm per column) ----
  {
    std::vector<Vec> us;  // PC images, only for the preconditioned flavors
    us.reserve(k);
    std::vector<DotPair> pairs;
    pairs.reserve(k);
    const bool plain = opts.norm == NormType::kUnpreconditioned ||
                       !engine.has_preconditioner();
    for (std::size_t i = 0; i < k; ++i) {
      if (plain) {
        pairs.push_back(DotPair{&bs[i], &bs[i]});
      } else {
        us.emplace_back(engine.new_vec());
        engine.apply_pc(bs[i], us.back());
        const Vec& lhs =
            opts.norm == NormType::kPreconditioned ? us.back() : bs[i];
        pairs.push_back(DotPair{&lhs, &us.back()});
      }
    }
    std::vector<double> vals(k, 0.0);
    engine.dots(pairs, vals);
    for (std::size_t i = 0; i < k; ++i) {
      cols[i].stats.b_norm = std::sqrt(std::max(vals[i], 0.0));
      cols[i].tol = detail::threshold(cols[i].stats, opts);
    }
  }

  // --- initial residual and power basis per column ------------------------
  for (std::size_t i = 0; i < k; ++i)
    cols[i].sys.start(engine, bs[i], xs[i], scratch);

  // Fused dot batch across the active columns: each contributes its full
  // DotLayout slice contiguously, so scattering the reduced payload back is
  // a fixed-stride copy.  Reused across iterations.
  std::vector<DotPair> fused;
  std::vector<double> fused_values;
  std::vector<Column*> batch_order;
  std::vector<DotPair> col_pairs;

  const auto reduce_active = [&](bool next_basis) {
    fused.clear();
    batch_order.clear();
    for (Column& c : cols) {
      if (!c.active) continue;
      c.sys.dot_pairs(layout, next_basis, col_pairs);
      fused.insert(fused.end(), col_pairs.begin(), col_pairs.end());
      batch_order.push_back(&c);
    }
    if (batch_order.empty()) return;
    fused_values.assign(fused.size(), 0.0);
    engine.dots(fused, fused_values);  // ONE allreduce for every column
    std::size_t offset = 0;
    for (Column* c : batch_order) {
      std::copy(fused_values.begin() + static_cast<std::ptrdiff_t>(offset),
                fused_values.begin() +
                    static_cast<std::ptrdiff_t>(offset + layout.total()),
                c->values.begin());
      offset += layout.total();
    }
  };

  // Checkpoints carry the column index, so per-column observers (the
  // anomaly stall windows) never mix the k interleaved residual streams.
  reduce_active(/*next_basis=*/false);
  for (std::size_t i = 0; i < k; ++i) {
    Column& c = cols[i];
    c.rnorm = layout.norm(c.values, opts.norm);
    if (!detail::checkpoint(c.stats, opts, 0, c.rnorm, i, c.telem.take(s))) {
      c.active = false;  // non-finite initial batch: frozen, breakdown set
      continue;
    }
    if (c.rnorm < c.tol || c.iterations >= opts.max_iterations)
      c.active = false;
  }

  // --- lockstep outer loop ------------------------------------------------
  const auto any_active = [&] {
    return std::any_of(cols.begin(), cols.end(),
                       [](const Column& c) { return c.active; });
  };

  while (any_active()) {
    for (std::size_t i = 0; i < k; ++i) {
      Column& c = cols[i];
      if (!c.active) continue;
      const ScalarWork::Result sw =
          c.sys.scalar_work.step(layout, c.values, &sbasis);
      if (!sw.ok) {
        // No rollback in the batched driver: freeze this column with the
        // failure flagged and keep the others iterating.
        if (sw.gram_breakdown) ++c.stats.gram_breakdowns;
        c.stats.breakdown = true;
        c.stats.stagnated = true;
        c.active = false;
        continue;
      }
      c.telem.capture(sw);
      c.sys.step(engine, sw, bs[i], xs[i], /*replace=*/false, scratch);
    }

    reduce_active(/*next_basis=*/true);

    for (std::size_t i = 0; i < k; ++i) {
      Column& c = cols[i];
      if (!c.active) continue;
      c.iterations += su;
      c.rnorm = layout.norm(c.values, opts.norm);
      if (!detail::checkpoint(c.stats, opts, c.iterations, c.rnorm, i,
                              c.telem.take(s))) {
        c.stats.stagnated = true;
        c.active = false;
        continue;
      }
      engine.mark_iteration(c.iterations - 1, c.rnorm);
      if (c.rnorm < c.tol || c.iterations >= opts.max_iterations) {
        c.active = false;
        continue;
      }
      c.sys.advance();
    }
  }

  std::vector<SolveStats> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Column& c = cols[i];
    c.stats.converged = c.rnorm < c.tol && !c.stats.breakdown;
    c.stats.iterations = c.iterations;
    c.stats.final_rnorm = c.rnorm;
    detail::finalize_stats(engine, bs[i], xs[i], opts, c.stats);
    out.push_back(std::move(c.stats));
  }
  return out;
}

}  // namespace pipescg::krylov
