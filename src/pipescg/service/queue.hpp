// AdmissionQueue: FIFO admission control in front of a Session.
//
// A production solver service receives requests from many producers and
// executes them on ONE warm rank team; the queue is the seam between the
// two.  Producers submit() SolveContexts (thread-safe); the session thread
// drains them (Session::drain), popping *runs of batchable jobs* so that k
// compatible requests against the same operator leave the queue as one
// multi-RHS solve (krylov::scg_multi_solve) -- the admission policy IS the
// batching policy.  Jobs that cannot batch (different method, tolerance, or
// block depth, or a method without a multi-RHS variant) pop singly and run
// back-to-back on the same warm team.
//
// FIFO fairness is preserved across batch boundaries: next_batch() only
// groups a *prefix* of the queue, so a job never overtakes an incompatible
// job that arrived before it.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "pipescg/service/solve_context.hpp"

namespace pipescg::service {

/// True when two contexts may share one multi-RHS batch: same method with a
/// batched driver ("scg-sspmv" is the one multi-RHS-capable method today),
/// identical convergence contract (s, rtol, atol, norm, max_iterations, no
/// step limit), identical stability settings (basis spec, gap monitor,
/// recovery budget) and the same compute_true_residual -- a batch runs every
/// column with its head's options.  A job with an iteration monitor batches
/// with nothing: the head's callback would fire for every column.
bool batchable(const SolveContext& a, const SolveContext& b);

class AdmissionQueue {
 public:
  /// Admit a job (FIFO).  The context must outlive the queue entry and must
  /// not be enqueued twice; its state moves to kQueued.  Thread-safe.
  void submit(SolveContext* ctx);

  /// Jobs currently waiting.  Thread-safe.
  std::size_t pending() const;

  /// Pop the longest batchable prefix of the queue, capped at `max_batch`
  /// (>= 1).  Returns an empty vector when the queue is empty; a singleton
  /// when the head job cannot batch with its successor.  Thread-safe.
  std::vector<SolveContext*> next_batch(std::size_t max_batch);

  /// next_batch() calls that returned more than one job.
  std::size_t batches() const;

 private:
  mutable std::mutex mu_;
  std::deque<SolveContext*> queue_;
  std::size_t batches_ = 0;
};

}  // namespace pipescg::service
