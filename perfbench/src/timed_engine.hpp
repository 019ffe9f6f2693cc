// TimedEngine: an Engine decorator that times every call the Krylov driver
// makes into the layers below it, from outside the program.
//
// The decorator forwards the operator, preconditioner, reduction and
// iteration hooks to the wrapped engine and times each call.  The BLAS-1 and
// block kernels are NOT forwarded: they are Engine's own non-virtual base
// code, so they run unchanged on the decorator itself and the traced iterates
// are the untraced ones bit for bit.  Their logical-unfused byte charges
// arrive through record_compute (global_scale() == 1, so the sum is the
// rank-local byte count) and are passed on to the wrapped engine in its own
// global units.
//
// Per rank, whatever the solve spends outside the timed calls is the krylov
// layer's self time (vector passes, Gram/scalar work, driver logic), so the
// budget spmv + pc + dot_post + allreduce_wait + self == wall closes by
// construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>

#include "pipescg/krylov/engine.hpp"

namespace perfbench {

/// One rank's layer budget for one solve.
struct LayerTimes {
  std::size_t spmv_calls = 0;       ///< apply_op calls + powers outputs
  double spmv_s = 0.0;              ///< local SPMV + its halo exchange
  std::size_t pc_calls = 0;         ///< real preconditioner applications
  double pc_s = 0.0;
  std::size_t allreduce_posts = 0;  ///< dot batches posted
  double dot_post_s = 0.0;          ///< local dot partials + the post
  double allreduce_wait_s = 0.0;    ///< exposed reduction wait
  std::size_t iterations = 0;       ///< CG-equivalent iterations
  double vector_bytes = 0.0;        ///< rank-local logical vector bytes
  double wall_s = 0.0;              ///< the rank's wall time of the solve call

  double self_s() const {
    return wall_s - spmv_s - pc_s - dot_post_s - allreduce_wait_s;
  }
};

class TimedEngine final : public pipescg::krylov::Engine {
 public:
  explicit TimedEngine(Engine& inner) : inner_(inner) {}

  std::size_t local_size() const override { return inner_.local_size(); }
  std::size_t global_size() const override { return inner_.global_size(); }
  bool has_preconditioner() const override {
    return inner_.has_preconditioner();
  }
  bool has_matrix_powers() const override {
    return inner_.has_matrix_powers();
  }

  void apply_op(const pipescg::krylov::Vec& x,
                pipescg::krylov::Vec& y) override {
    const Clock::time_point t0 = Clock::now();
    inner_.apply_op(x, y);
    t_.spmv_s += since(t0);
    ++t_.spmv_calls;
  }
  void apply_op_powers(const pipescg::krylov::Vec& x,
                       std::span<pipescg::krylov::Vec> outs) override {
    const Clock::time_point t0 = Clock::now();
    inner_.apply_op_powers(x, outs);
    t_.spmv_s += since(t0);
    t_.spmv_calls += outs.size();
  }
  void apply_pc(const pipescg::krylov::Vec& r,
                pipescg::krylov::Vec& u) override {
    const Clock::time_point t0 = Clock::now();
    inner_.apply_pc(r, u);
    t_.pc_s += since(t0);
    if (inner_.has_preconditioner()) ++t_.pc_calls;
  }
  pipescg::krylov::DotHandle dot_post(
      std::span<const pipescg::krylov::DotPair> pairs,
      bool blocking = false) override {
    const Clock::time_point t0 = Clock::now();
    pipescg::krylov::DotHandle h = inner_.dot_post(pairs, blocking);
    t_.dot_post_s += since(t0);
    ++t_.allreduce_posts;
    return h;
  }
  void dot_wait(pipescg::krylov::DotHandle& handle,
                std::span<double> out) override {
    const Clock::time_point t0 = Clock::now();
    inner_.dot_wait(handle, out);
    t_.allreduce_wait_s += since(t0);
  }
  void mark_iteration(std::uint64_t iter, double rnorm) override {
    inner_.mark_iteration(iter, rnorm);
    t_.iterations = static_cast<std::size_t>(iter) + 1;
  }

  /// The budget so far; wall_s is left for the caller to fill in.
  const LayerTimes& times() const { return t_; }

 protected:
  void record_compute(double flops, double bytes) override {
    t_.vector_bytes += bytes;
    // Same global scale SpmdEngine applies to its own vector ops.
    const double g = static_cast<double>(inner_.global_size()) /
                     static_cast<double>(inner_.local_size() > 0
                                             ? inner_.local_size()
                                             : 1);
    inner_.charge(flops * g, bytes * g);
  }
  double global_scale() const override { return 1.0; }

 private:
  using Clock = std::chrono::steady_clock;
  static double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  Engine& inner_;
  LayerTimes t_;
};

}  // namespace perfbench
