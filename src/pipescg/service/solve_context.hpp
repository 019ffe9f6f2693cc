// SolveContext: one solve request as a resumable job.
//
// The krylov drivers are free functions over an Engine -- one call, one
// converged (or failed) solve.  The service layer wraps a request in a
// SolveContext that owns the *global* right-hand side and iterate, so the
// same job can be submitted to a Session repeatedly: every submission
// continues from the current iterate (Krylov solvers start from the
// provided initial guess), and `step_limit` bounds how many CG-equivalent
// iterations one submission may spend.  Resubmitting a partially converged
// context is a *restart* -- the Krylov space is rebuilt from the current
// residual, so iteration counts can differ from one uninterrupted solve --
// but the iterate trajectory is monotone in the same sense a restarted CG
// is, and a context left to run with step_limit == 0 is exactly the
// one-shot driver call.
//
// Thread-safety: a context belongs to one submitter at a time.  The Session
// mutates it while solving (see DESIGN.md section 12 for the full ownership
// contract); producers may build and enqueue contexts from other threads as
// long as each context is enqueued once.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pipescg/krylov/solver.hpp"
#include "pipescg/obs/tracing.hpp"

namespace pipescg::service {

/// Lifecycle of a SolveContext inside the service.
enum class JobState : std::uint8_t {
  kPending,  ///< constructed, not yet queued or solved
  kQueued,   ///< sitting in an AdmissionQueue
  kRunning,  ///< a Session is executing it on the rank team
  kDone,     ///< last submission finished (converged or budget exhausted)
  kFailed,   ///< the solve aborted (exception; see error())
  kExpired,  ///< deadline passed before a submission could start (terminal)
};

/// Stable lowercase name of a JobState ("pending", "queued", ...).
const char* to_string(JobState state);

class Session;
class AdmissionQueue;

class SolveContext {
 public:
  /// A job solving A x = b for the Session's operator A.  `method` is any
  /// krylov registry name; `b` is the GLOBAL right-hand side (the session
  /// scatters it over the rank team); the iterate starts at zero.
  SolveContext(std::string method, std::vector<double> b,
               krylov::SolverOptions opts)
      : method_(std::move(method)), opts_(opts), b_(std::move(b)),
        x_(b_.size(), 0.0) {}

  const std::string& method() const { return method_; }
  const krylov::SolverOptions& options() const { return opts_; }
  JobState state() const { return state_; }

  const std::vector<double>& b() const { return b_; }
  /// Current global iterate: zero before the first submission, the
  /// (partial) solution after each one.
  const std::vector<double>& x() const { return x_; }

  /// CG-equivalent iteration budget per submission; 0 (default) lets one
  /// submission run to opts.max_iterations.  The remaining overall budget
  /// is opts.max_iterations - total_iterations() regardless.
  void set_step_limit(std::size_t limit) { step_limit_ = limit; }
  std::size_t step_limit() const { return step_limit_; }

  /// Absolute deadline for STARTING work on this job.  The Session checks
  /// it when the job is dequeued and again before every resumed chunk of a
  /// step-limited solve; a submission that would begin after the deadline
  /// moves the context to the kExpired terminal state instead of running
  /// (work already done -- the current iterate -- is kept).  Unset by
  /// default: no deadline.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Statistics of the most recent submission.
  const krylov::SolveStats& stats() const { return stats_; }
  /// CG-equivalent iterations accumulated over all submissions.
  std::size_t total_iterations() const { return total_iterations_; }
  /// Times this context has been executed by a Session.
  std::size_t submissions() const { return submissions_; }
  bool converged() const { return stats_.converged; }
  /// What() of the exception that aborted the last submission (kFailed).
  const std::string& error() const { return error_; }

  /// Process-unique trace id minted at construction; every span and alert
  /// this request produces carries it.  Batched columns keep their own ids
  /// (recorded as column annotations); the merged trace file is keyed by
  /// the batch head's id.
  std::uint64_t trace_id() const { return trace_.trace_id; }
  /// Path of the merged per-request trace written for the most recent
  /// traced submission (empty when tracing was off).
  const std::string& trace_path() const { return trace_path_; }

 private:
  friend class Session;
  friend class AdmissionQueue;

  std::string method_;
  krylov::SolverOptions opts_;
  std::vector<double> b_;
  std::vector<double> x_;
  std::size_t step_limit_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  JobState state_ = JobState::kPending;
  obs::tracing::TraceContext trace_ = obs::tracing::new_trace();
  std::string trace_path_;
  krylov::SolveStats stats_;
  std::size_t total_iterations_ = 0;
  std::size_t submissions_ = 0;
  std::string error_;
  // Set by AdmissionQueue::submit; read by Session::drain for the
  // admission-wait latency histogram.
  std::chrono::steady_clock::time_point enqueued_at_{};
};

}  // namespace pipescg::service
