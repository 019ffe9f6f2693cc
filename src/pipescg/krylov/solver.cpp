#include "pipescg/krylov/solver.hpp"

#include <algorithm>
#include <cmath>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::krylov {

namespace {

const char* norm_name(NormType norm) {
  switch (norm) {
    case NormType::kPreconditioned:
      return "preconditioned";
    case NormType::kUnpreconditioned:
      return "unpreconditioned";
    case NormType::kNatural:
      return "natural";
  }
  return "?";
}

}  // namespace

std::string to_string(NormType norm) { return norm_name(norm); }

namespace detail {

std::vector<double> compute_b_norm(Engine& engine, std::span<const Vec> bs,
                                   NormType norm) {
  // Every driver starts here, so this is where a rank's solve begins.
  if (obs::Profiler* prof = obs::Profiler::current()) prof->begin_solve();
  const bool plain =
      norm == NormType::kUnpreconditioned || !engine.has_preconditioner();
  std::vector<Vec> us;  // PC images, one per column when not plain
  us.reserve(bs.size());
  std::vector<DotPair> pairs;
  for (const Vec& b : bs) {
    if (plain) {
      pairs.push_back(DotPair{&b, &b});
      continue;
    }
    Vec& u = us.emplace_back(engine.new_vec());
    engine.apply_pc(b, u);
    pairs.push_back(DotPair{norm == NormType::kPreconditioned ? &u : &b, &u});
  }
  std::vector<double> norms(bs.size());
  engine.dots(pairs, norms);
  for (double& v : norms) v = std::sqrt(std::max(v, 0.0));
  return norms;
}

double threshold(const SolveStats& stats, const SolverOptions& opts) {
  return std::max(opts.rtol * stats.b_norm, opts.atol);
}

void finalize_stats(Engine& engine, const Vec& b, const Vec& x,
                    const SolverOptions& opts, SolveStats& stats) {
  if (!opts.compute_true_residual) return;
  Vec ax = engine.new_vec();
  engine.apply_op(x, ax);
  Vec r = engine.new_vec();
  engine.waxpy(r, -1.0, ax, b);  // r = b - Ax
  stats.true_residual = std::sqrt(std::max(engine.dot(r, r), 0.0));
}

bool checkpoint(SolveStats& stats, const SolverOptions& opts,
                std::size_t iteration, double rnorm, std::size_t column,
                obs::Checkpoint readings) {
  stats.history.emplace_back(iteration, rnorm);
  // Every driver (s-step, pipelined, plain CG, batched multi-RHS) funnels
  // through here, and the observers only read -- no collectives, no solver
  // state -- so a monitored solve iterates bitwise identically to a bare
  // one.
  readings.iteration = iteration;
  readings.rnorm = rnorm;
  readings.column = column;
  readings.norm_flavor = norm_name(opts.norm);
  readings.recoveries = stats.recoveries;
  obs::checkpoint(readings);
  if (opts.monitor) opts.monitor(IterationInfo{iteration, rnorm});
  if (!std::isfinite(rnorm)) {
    stats.breakdown = true;
    return false;
  }
  return true;
}

bool StallDetector::update(double rnorm) {
  if (!std::isfinite(rnorm)) return true;
  if (best_ < 0.0 || rnorm < best_ * improvement_) {
    best_ = std::max(rnorm, 0.0);
    since_improvement_ = 0;
    return false;
  }
  ++since_improvement_;
  return since_improvement_ >= window_;
}

}  // namespace detail
}  // namespace pipescg::krylov
