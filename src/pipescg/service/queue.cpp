#include "pipescg/service/queue.hpp"

#include <algorithm>

namespace pipescg::service {

bool batchable(const SolveContext& a, const SolveContext& b) {
  // Only scg-sspmv has a batched driver (krylov::scg_multi_solve); a step
  // limit makes iteration budgets diverge mid-batch, so limited jobs run
  // singly.
  if (a.method() != "scg-sspmv" || b.method() != "scg-sspmv") return false;
  if (a.step_limit() != 0 || b.step_limit() != 0) return false;
  const krylov::SolverOptions& oa = a.options();
  const krylov::SolverOptions& ob = b.options();
  // The head's monitor would fire for every column of the batch.
  if (oa.monitor || ob.monitor) return false;
  // A batch runs every column with its head's options, so everything the
  // solve reads must match -- the basis spec included, or a Chebyshev job
  // queued behind a monomial one would silently run monomial.
  const krylov::BasisSpec& ba = oa.basis;
  const krylov::BasisSpec& bb = ob.basis;
  return oa.s == ob.s && oa.rtol == ob.rtol && oa.atol == ob.atol &&
         oa.norm == ob.norm && oa.max_iterations == ob.max_iterations &&
         ba.type == bb.type && ba.lambda_min == bb.lambda_min &&
         ba.lambda_max == bb.lambda_max &&
         ba.power_iterations == bb.power_iterations &&
         ba.interval_ratio == bb.interval_ratio &&
         oa.gap_tol == ob.gap_tol &&
         oa.gap_check_period == ob.gap_check_period &&
         oa.recovery == ob.recovery &&
         oa.max_recoveries == ob.max_recoveries &&
         oa.compute_true_residual == ob.compute_true_residual;
}

void AdmissionQueue::submit(SolveContext* ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  ctx->state_ = JobState::kQueued;
  ctx->enqueued_at_ = std::chrono::steady_clock::now();
  queue_.push_back(ctx);
}

std::size_t AdmissionQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<SolveContext*> AdmissionQueue::next_batch(std::size_t max_batch) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SolveContext*> out;
  if (queue_.empty()) return out;
  out.push_back(queue_.front());
  queue_.pop_front();
  // Longest batchable PREFIX only: grouping never lets a job overtake an
  // incompatible earlier arrival.
  while (out.size() < std::max<std::size_t>(max_batch, 1) &&
         !queue_.empty() && batchable(*out.front(), *queue_.front())) {
    out.push_back(queue_.front());
    queue_.pop_front();
  }
  if (out.size() > 1) ++batches_;
  return out;
}

std::size_t AdmissionQueue::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

}  // namespace pipescg::service
