// Online anomaly detection for the service layer.
//
// Post-mortem reports (obs/report.hpp) explain a solve after it finished;
// the detectors here watch it WHILE it runs, at the same outer-iteration
// checkpoint boundaries the telemetry layer already uses, and publish
// structured alerts an operator can act on mid-flight.  Three families,
// matching the production failure modes of pipelined s-step methods
// (exposed reductions under system noise; silent convergence stagnation;
// admission backlog blowing deadlines):
//
//   straggler        one rank computing slower than its peers.  Detected
//                    from the OTHER ranks' point of view: every rank
//                    publishes its cumulative allreduce-wait + halo seconds
//                    at each checkpoint (relaxed atomic store of its own
//                    slot); rank 0 computes a rolling per-rank z-score over
//                    the trailing window.  The straggler is the rank whose
//                    wait is anomalously LOW -- it arrives late everywhere,
//                    so it never waits, while every peer spins waiting for
//                    its contribution.
//   convergence_stall the residual norm plateaus over a window without the
//                    growth that marks divergence (divergence already has a
//                    detector in the drivers; a stall is the quiet failure
//                    the related work warns about).
//   queue_saturation / deadline_pressure -- admission-side: queue depth
//                    crossing a threshold (rising edge), and jobs reaching
//                    execution with less deadline headroom than the
//                    session's observed p95 solve latency (or already
//                    expired).
//
// Alerts are appended as JSONL to --alerts-out and counted in
// pipescg_anomaly_* metric families; every alert carries the trace_id of
// the request that raised it, linking alert -> merged Perfetto trace.
//
// Numerical-trajectory contract: detectors only READ measurements; they
// add no collectives and never touch solver state, so a monitored solve
// iterates bitwise identically to an unmonitored one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipescg/obs/slot.hpp"

namespace pipescg::obs::anomaly {

/// One structured alert.  `value` / `threshold` carry the measurement that
/// tripped the detector (z-score, plateau ratio, queue depth...) so the
/// JSONL stream is machine-actionable, not just prose.
struct Alert {
  std::string family;    ///< "straggler" | "convergence_stall" |
                         ///< "queue_saturation" | "deadline_pressure"
  std::string severity;  ///< "warning" | "critical"
  std::string message;
  std::uint64_t trace_id = 0;  ///< request that raised it (0 = none)
  int rank = -1;               ///< offending rank (-1 = not rank-scoped)
  std::uint64_t iteration = 0;
  double value = 0.0;
  double threshold = 0.0;
};

/// Thread-safe alert stream: every emit() appends one JSON line to `path`
/// (flushed immediately, so `tail -f` and the ops console see alerts live)
/// and keeps an in-memory copy for tests and end-of-run summaries.  An
/// empty path keeps the stream memory-only.
class AlertSink {
 public:
  explicit AlertSink(std::string path = {});

  const std::string& path() const { return path_; }
  void emit(const Alert& alert);
  std::size_t emitted() const;
  std::vector<Alert> alerts() const;

  static std::string to_json_line(const Alert& alert);
  static std::vector<Alert> parse_jsonl(std::string_view text);

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::vector<Alert> alerts_;
};

// --- straggler --------------------------------------------------------------

struct StragglerConfig {
  /// Z-score the candidate's window wait must sit BELOW the rank mean by.
  /// Note the hard bound: a single outlier among P ranks can reach at most
  /// |z| = sqrt(P - 1) (1.0 at P = 2, 1.41 at P = 3), so this is
  /// deliberately far below the textbook 3-sigma.
  double z_threshold = 1.2;
  /// ...and its wait must also be at most this fraction of the max rank
  /// wait in the window (guards the z-score against near-uniform noise).
  double dominance = 0.25;
  /// Mean per-rank wait accumulated over the window must exceed this many
  /// seconds before any evaluation fires -- an idle or tiny solve has
  /// nothing worth blaming.
  double min_mean_seconds = 1e-4;
  /// Checkpoints per rolling window.
  std::size_t window = 8;
  /// Consecutive evaluations that must blame the SAME rank.
  int consecutive = 3;
};

/// Rolling per-rank z-score straggler detector.  publish() is called by any
/// rank thread for its own slot (relaxed atomic store, no locks, no
/// collectives); evaluate() is called by rank 0 only and owns all rolling
/// state, so the only cross-thread traffic is the atomic slots.
class StragglerDetector {
 public:
  StragglerDetector(int ranks, StragglerConfig config = {});

  int ranks() const { return static_cast<int>(cum_.size()); }
  const StragglerConfig& config() const { return config_; }

  /// Rank `r` publishes its cumulative exposed-wait seconds (allreduce wait
  /// + halo phases) since the solve started.
  void publish(int rank, double cum_wait_seconds);

  /// Rank 0 only: snapshot all slots, update the rolling window, and return
  /// an alert if a straggler is confirmed.  Fires at most once per rank per
  /// solve.
  std::optional<Alert> evaluate(std::uint64_t iteration);

  /// Rank currently under suspicion (-1 when none): feeds the
  /// pipescg_anomaly_straggler_rank gauge.
  int candidate() const { return streak_rank_; }

 private:
  struct Slot {
    alignas(64) std::atomic<double> v{0.0};
  };
  StragglerConfig config_;
  std::vector<Slot> cum_;
  // Rolling state, touched only by evaluate() (rank 0):
  std::deque<std::vector<double>> history_;
  int streak_rank_ = -1;
  int streak_ = 0;
  std::vector<bool> fired_;
};

// --- convergence stall ------------------------------------------------------

struct StallConfig {
  /// Checkpoints per plateau window.
  std::size_t window = 24;
  /// Relative improvement over the window below which progress counts as
  /// stalled: fires when rnorm_now >= rnorm_window_start * (1 - this).
  double min_improvement = 0.05;
  /// Growth beyond this factor is divergence, not a stall -- the drivers'
  /// own divergence detector owns that case, so we stay silent.
  double divergence_factor = 10.0;
};

/// Residual-plateau detector over the checkpoint stream (rank 0 feeds it).
/// One window per right-hand side: a batched multi-RHS solve interleaves k
/// columns' checkpoints, and one shared window would compare one column's
/// residual against another's.
class StallDetector {
 public:
  explicit StallDetector(StallConfig config = {});

  const StallConfig& config() const { return config_; }

  std::optional<Alert> feed(std::uint64_t iteration, double rnorm,
                            std::size_t column = 0);

 private:
  StallConfig config_;
  std::vector<std::deque<double>> windows_;  // indexed by column
};

// --- queue pressure ---------------------------------------------------------

struct QueuePressureConfig {
  /// Queue depth at drain time that counts as saturated (rising edge).
  std::size_t depth_threshold = 32;
  /// Deadline headroom below `headroom_factor * p95 solve latency` at
  /// execution start raises deadline_pressure.
  double headroom_factor = 1.0;
};

/// Admission-side monitor, driven from the service thread (no
/// synchronization needed).
class QueuePressureMonitor {
 public:
  explicit QueuePressureMonitor(QueuePressureConfig config = {});

  const QueuePressureConfig& config() const { return config_; }

  /// Queue depth observed at the top of a drain round.  Rising-edge alert:
  /// fires when depth crosses the threshold, re-arms when it falls below.
  std::optional<Alert> on_depth(std::size_t depth);

  /// A job with a deadline is about to execute with `headroom_seconds`
  /// left, against an observed p95 solve latency.  `expired` marks a job
  /// that already missed (the kExpired path).
  std::optional<Alert> on_dispatch(double headroom_seconds,
                                   double p95_solve_seconds, bool expired,
                                   std::uint64_t trace_id);

 private:
  QueuePressureConfig config_;
  bool saturated_ = false;
};

// --- mid-solve probe --------------------------------------------------------

/// Per-rank-thread glue installed for the duration of a monitored solve
/// (the same thread-local Install idiom as Profiler).  Each
/// checkpoint: every rank publishes its own profiler's exposed-wait total
/// to the shared StragglerDetector; rank 0 additionally runs the straggler
/// evaluation and the stall detector and emits any resulting alerts to the
/// sink.  Alert counters live in the service layer (see
/// service::Session::set_observability), reached via the emit callback
/// captured in `on_alert`.
class MidSolveProbe : public ThreadSlot<MidSolveProbe> {
 public:
  struct Shared {
    StragglerDetector* straggler = nullptr;  ///< shared across ranks
    StallDetector* stall = nullptr;          ///< rank 0 only
    AlertSink* sink = nullptr;
    std::uint64_t trace_id = 0;
    /// Optional hook run (on rank 0's thread) after each emitted alert --
    /// the service layer bumps pipescg_anomaly_* metrics here.
    void (*on_alert)(void* arg, const Alert& alert) = nullptr;
    void* on_alert_arg = nullptr;
  };

  MidSolveProbe(Shared* shared, int rank) : shared_(shared), rank_(rank) {}

  int rank() const { return rank_; }

  /// Called from obs::checkpoint on the owning rank thread;
  /// `column` is the right-hand side of a batched solve (0 otherwise).
  void on_checkpoint(std::uint64_t iteration, double rnorm,
                     std::size_t column = 0);

 private:
  void emit(Alert alert);

  Shared* shared_;
  int rank_;
};

}  // namespace pipescg::obs::anomaly
