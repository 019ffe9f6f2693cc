// Session: solver-as-a-service over one operator.
//
// The runtime used to solve one system per process run: every solve paid
// partition construction, ghost-run discovery, matrix-powers closure, and
// preconditioner setup, then spawned (and joined) a team of rank threads.
// A Session makes that cost a ONE-TIME event: it caches everything about
// the operator that is independent of the right-hand side --
//
//   * the row-block sparse::Partition,
//   * each rank's sparse::DistCsr (remapped local CSR + GhostPull run
//     lists),
//   * each rank's depth-s sparse::MatrixPowers closure (optional),
//   * each rank's pointwise Jacobi preconditioner on its own rows,
//   * the par::PersistentTeam of rank threads,
//
// and then serves any number of SolveContexts against that warm state.
// This is the same cost-shape argument the paper makes for the s-step
// methods themselves -- amortize a fixed cost (there: one reduction; here:
// operator setup and thread spawn) over many units of useful work -- and
// it is what makes a "heavy traffic" deployment viable: thousands of
// solves against a handful of operators.
//
// Cached-setup accounting: SetupCounters records every expensive build;
// tests assert the counters FREEZE after construction (a warm solve builds
// nothing), and bench_service reports the measured amortization.
//
// Ownership/thread-safety contract: see DESIGN.md section 12.  In short --
// the Session owns all cached state; a SolveContext owns its b/x/stats; at
// most one thread calls solve/solve_batch/drain at a time; rank threads
// never touch a context directly, only the slices the session hands them.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "pipescg/fault/spec.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/service/queue.hpp"
#include "pipescg/service/solve_context.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/partition.hpp"

namespace pipescg::service {

struct SessionConfig {
  int ranks = 2;                 ///< persistent rank-team size
  bool use_preconditioner = true;  ///< build Jacobi on each rank's own rows
  bool mpk = false;              ///< build the depth-s MatrixPowers closure
  int s = 3;                     ///< closure depth == largest opts.s served

  // Session-wide stability defaults, applied to every served solve whose
  // own SolverOptions left the knob at its unset value (a context that set
  // one explicitly wins).  See krylov::SolverOptions for semantics.
  krylov::BasisSpec basis;       ///< s-step basis family served by default
  int replacement_period = 0;    ///< residual-replacement cadence (0 = auto)
  double gap_tol = 0.0;          ///< gap-monitor tolerance (<= 0 = off)
  int gap_check_period = 0;      ///< gap-check cadence (0 = auto)

  /// Deterministic fault injection on the rank team (tests / chaos drills):
  /// each rank thread installs a fault::Injector built from this list for
  /// the duration of every solve.  Empty (default) = no injection.
  std::vector<fault::FaultSpec> fault_specs;
};

/// Non-owning observability wiring for a Session.  Everything is optional
/// and composable: a trace sink turns on per-request distributed tracing, an
/// alert sink / registry turn on the online anomaly detectors and live
/// metric families, a sampler gets flushed on early-termination events
/// (deadline expiry) so the terminal snapshot is never lost.  All pointed-to
/// objects must outlive the session (or a reset via set_observability).
struct Observability {
  obs::tracing::TraceSink* traces = nullptr;
  obs::anomaly::AlertSink* alerts = nullptr;
  obs::metrics::Registry* registry = nullptr;
  obs::metrics::MetricsSampler* sampler = nullptr;

  /// Gate for the mid-solve detectors (straggler/stall); queue-pressure
  /// monitoring rides the alert sink regardless.
  bool detectors = true;
  obs::anomaly::StragglerConfig straggler;
  obs::anomaly::StallConfig stall;
  obs::anomaly::QueuePressureConfig queue_pressure;
};

/// Counts of the expensive per-operator builds a Session performs.  All of
/// them happen in the constructor ("cold"); warm solves must not move any
/// build counter -- that is the cache contract the tests pin down.
struct SetupCounters {
  std::size_t partition_builds = 0;  ///< row-block partitions computed
  std::size_t dist_builds = 0;       ///< per-rank DistCsr constructions
  std::size_t mpk_builds = 0;        ///< per-rank MatrixPowers closures
  std::size_t pc_builds = 0;         ///< per-rank preconditioner setups
  std::size_t team_spawns = 0;       ///< rank-team thread spawns
  std::size_t warm_hits = 0;         ///< solves served entirely from cache
};

class Session {
 public:
  /// Cold setup: partitions `a`, builds every rank's distributed slice,
  /// ghost-run lists, optional matrix-powers closure and local
  /// preconditioner, and spawns the persistent rank team.  Everything the
  /// constructor builds is reused by every subsequent solve; setup_seconds()
  /// reports what it cost.
  Session(sparse::CsrMatrix a, SessionConfig config);

  int ranks() const { return config_.ranks; }
  std::size_t unknowns() const { return a_.rows(); }
  const SessionConfig& config() const { return config_; }
  const sparse::CsrMatrix& matrix() const { return a_; }

  /// Execute one job on the warm team.  Scatters ctx.b()/ctx.x() over the
  /// ranks, runs the context's method against the cached state, gathers the
  /// solution back, and updates the context's stats/state.  On a solver or
  /// runtime exception the context moves to kFailed with error() set; the
  /// session itself stays usable (the persistent team recovers its
  /// collective state).
  void solve(SolveContext& ctx);

  /// Execute k jobs as batched multi-RHS solves (one s-step basis build
  /// cadence, dot batches widened to the batch's columns;
  /// krylov::scg_multi_solve), split into consecutive batches of at most
  /// krylov::max_batch_columns(opts) columns, the widest fused payload one
  /// allreduce carries.  All contexts must be mutually batchable(); a
  /// single-element span degenerates to solve().
  void solve_batch(std::span<SolveContext* const> ctxs);

  /// Drain the admission queue: repeatedly pop the next batchable run
  /// (capped at `max_batch` columns) and execute it as solve_batch does,
  /// until the queue is empty.  Records per-job admission-wait latency.
  /// Returns the number of jobs executed.
  std::size_t drain(AdmissionQueue& queue, std::size_t max_batch = 16);

  /// Install (or replace, or clear with {}) the session's observability
  /// wiring: request tracing, anomaly detection, live metric families,
  /// sampler flush-on-expiry.  Call between solves, not during one.
  void set_observability(Observability obs);

  // --- observability ------------------------------------------------------
  const SetupCounters& setup_counters() const { return counters_; }
  /// Wall seconds the constructor spent building the cached state.
  double setup_seconds() const { return setup_seconds_; }
  /// Jobs completed (single + batched columns).
  std::size_t solves() const { return solves_; }
  /// Jobs whose deadline passed before a submission could start (kExpired).
  std::size_t expired() const { return expired_; }
  /// Bodies executed on the persistent team (== solve calls + batch calls).
  std::size_t team_runs() const { return team_->runs(); }
  /// Wall-clock latency of every completed solve (p50/p95/p99 via
  /// LatencyHistogram::quantile); batched columns record the batch latency.
  const obs::LatencyHistogram& solve_latency() const { return solve_latency_; }
  /// Admission wait (submit -> execution start) of drained jobs.
  const obs::LatencyHistogram& queue_latency() const { return queue_latency_; }
  /// Flattened observable state for obs::metrics::register_session (the
  /// histogram pointers reference this session; keep it alive while used).
  obs::metrics::SessionSnapshot snapshot() const;

 private:
  // Everything one rank needs to construct its SpmdEngine, built once.
  struct RankState {
    std::unique_ptr<sparse::DistCsr> dist;
    std::unique_ptr<sparse::MatrixPowers> mpk;
    std::unique_ptr<precond::JacobiPreconditioner> pc;
  };

  // Shared body of solve/solve_batch/drain: run `ctxs` as consecutive
  // batches of at most krylov::max_batch_columns(opts) columns.  `queued`
  // jobs (drain) record their admission wait as their own batch starts.
  void execute(std::span<SolveContext* const> ctxs, bool queued);
  // Run one batch on the team (1 => single-RHS solver, else
  // scg_multi_solve) and finalize every context.
  void run_chunk(std::span<SolveContext* const> ctxs);
  /// A context's options with the session's stability defaults filled in
  /// for the knobs it left unset.
  krylov::SolverOptions resolved_options(const SolveContext& ctx) const;

  // Route one alert through the sink and the pipescg_anomaly_* metrics.
  // Called from the service thread (queue/deadline alerts) and from rank
  // 0's thread mid-solve (straggler/stall, via the MidSolveProbe
  // trampoline); those never overlap -- the service thread is blocked in
  // team_->run() whenever rank threads execute.
  void emit_alert(const obs::anomaly::Alert& alert);

  // Live metric cells, registered by set_observability (null when no
  // registry is wired).
  struct LiveMetrics {
    obs::metrics::Counter* solves = nullptr;
    obs::metrics::Counter* expired = nullptr;
    obs::metrics::Gauge* queue_depth = nullptr;
    obs::metrics::Gauge* straggler_rank = nullptr;
    obs::metrics::Counter* alerts_straggler = nullptr;
    obs::metrics::Counter* alerts_stall = nullptr;
    obs::metrics::Counter* alerts_saturation = nullptr;
    obs::metrics::Counter* alerts_deadline = nullptr;
  };

  sparse::CsrMatrix a_;
  SessionConfig config_;
  sparse::Partition partition_;
  std::vector<RankState> rank_state_;
  std::unique_ptr<par::PersistentTeam> team_;

  SetupCounters counters_;
  double setup_seconds_ = 0.0;
  std::size_t solves_ = 0;
  std::size_t expired_ = 0;
  obs::LatencyHistogram solve_latency_;
  obs::LatencyHistogram queue_latency_;

  Observability obs_;
  LiveMetrics live_metrics_;
  obs::anomaly::QueuePressureMonitor queue_monitor_;
};

}  // namespace pipescg::service
