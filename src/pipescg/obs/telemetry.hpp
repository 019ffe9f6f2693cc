// Per-iteration convergence telemetry.
//
// The residual history in SolveStats answers "did it converge"; this layer
// answers "how was it converging" -- per checkpoint it captures the
// residual-norm flavour, the s-step scalar work (the alpha step sizes and
// the magnitude of the B recurrence matrix), the current block size s (which
// degrades under replacement/recovery), and the running fault-recovery
// count.  That is the numerical-stability signal the pipelined s-step
// literature tracks: a collapsing alpha or an exploding ||B||_F precedes a
// residual-norm plateau by several outer iterations.
//
// Every driver reaches the sink through the one checkpoint hook below
// (obs::checkpoint, called by krylov::detail::checkpoint at every residual
// checkpoint), which costs one thread-local null check per observer that
// is not installed -- so unobserved runs stay bit-identical.  Records land
// in a newest-kept obs::Ring (drop count kept) and are written as JSON
// Lines: one self-contained object per line, greppable and streamable, the
// natural shape for per-iteration series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pipescg/obs/ring.hpp"
#include "pipescg/obs/slot.hpp"

namespace pipescg::obs {

/// One checkpoint snapshot.  `alpha` holds the s step sizes of the most
/// recent completed scalar work (empty before the first outer iteration);
/// `beta_fro` is the Frobenius norm of the s x s B recurrence matrix.
struct TelemetryRecord {
  std::uint64_t iteration = 0;  // CG-equivalent iteration
  double rnorm = 0.0;
  std::string norm_flavor;  // krylov::to_string(opts.norm)
  int s = 0;                // current block size (degrades under recovery)
  std::uint64_t recoveries = 0;
  std::vector<double> alpha;
  double beta_fro = 0.0;
  // Residual-gap monitor readings (SolverOptions::gap_tol): the true
  // residual norm measured this checkpoint and the relative recurred-vs-true
  // gap.  -1 = no gap check resolved at this checkpoint; the JSONL keys
  // ("true_rnorm", "gap") are emitted only when a check resolved, so
  // monitor-off runs serialize byte-identically to the historical format.
  double true_rnorm = -1.0;
  double gap = -1.0;
};

class ConvergenceTelemetry : public ThreadSlot<ConvergenceTelemetry> {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit ConvergenceTelemetry(std::string method = "",
                                std::size_t capacity = kDefaultCapacity)
      : method_(std::move(method)), ring_(capacity) {}

  void record(TelemetryRecord rec) { ring_.push(std::move(rec)); }

  std::size_t size() const { return ring_.size(); }
  /// Records overwritten because the ring filled (oldest-first eviction).
  std::size_t dropped() const { return ring_.dropped(); }

  /// Retained records in chronological order.
  std::vector<TelemetryRecord> records() const { return ring_.items(); }

  /// JSON Lines: one object per retained record, newline-terminated.  When
  /// the telemetry was constructed with a method label every line carries a
  /// "method" key, so lines from several solves can share one file.
  std::string to_jsonl() const;
  void write_jsonl(const std::string& path) const;

  /// Inverse of to_jsonl (blank lines skipped); used by tests and tools.
  /// Throws base::Error on a malformed line.
  static std::vector<TelemetryRecord> parse_jsonl(std::string_view text);

 private:
  std::string method_;
  Ring<TelemetryRecord> ring_;
};

/// One driver checkpoint as the observers see it.  krylov::detail::checkpoint
/// fills the identity fields; the s-step drivers add their scalar-work
/// readings (s, alpha, ||B||_F, gap), which other drivers leave at the
/// defaults.
struct Checkpoint {
  std::uint64_t iteration = 0;  // CG-equivalent iteration
  double rnorm = 0.0;
  std::size_t column = 0;       // right-hand side of a batched solve
  std::string_view norm_flavor;
  int s = 0;                    // 0 = the method has no s parameter
  std::uint64_t recoveries = 0;
  std::span<const double> alpha;
  double beta_fro = 0.0;
  double true_rnorm = -1.0;     // gap readings; -1 = no check resolved here
  double gap = -1.0;
};

/// The one checkpoint hook, fanned out to every installed observer: the
/// rank's Profiler (an outer_iteration span), the MidSolveProbe (straggler
/// and stall detectors), the LiveSolve gauges and the ConvergenceTelemetry
/// sink.  Each absent observer costs one thread-local null check.
void checkpoint(const Checkpoint& cp);

}  // namespace pipescg::obs
