// Deterministic per-rank fault injector for the SPMD runtime.
//
// One Injector is constructed per rank thread from a shared parsed
// --fault-spec list and installed thread-locally (Injector::Install, the
// obs::ThreadSlot every per-thread observer uses): the runtime's hook
// points -- par::Comm (allreduce post, halo exchange) and
// krylov::SpmdEngine (SPMV / PC output) -- consult Injector::current() and
// pay a single thread-local null check when no injector is installed, so a
// clean run is unperturbed.
//
// Every fault is deterministic: events are counted per (rank, target) and a
// fault fires exactly when its 0-based `iter` index comes up; SDC entry and
// bit selection come from a Rng seeded with spec.seed ^ rank.  The same
// --fault-spec therefore yields an identical corruption, an identical
// detection point, and an identical recovery trajectory on every run --
// which is what makes the fault-matrix tests assertable.
//
// Fault semantics:
//   slow   compute slowdown: SlowScope measures each wrapped kernel and
//          sleeps (factor - 1) x elapsed, making the rank `factor`x slower
//          at compute while leaving every value untouched (a straggler).
//   sdc    silent data corruption: flip bits in one entry of the targeted
//          kernel's output vector (single-shot, at event index `iter`).
//   stall  delay the targeted event by `ms` milliseconds (a late allreduce
//          contribution stretches every peer's wait spin).
//   die    throw RankDeath at the targeted event: the rank unwinds out of
//          the team body and stops participating; surviving ranks block in
//          collectives until the par::Comm watchdog converts their spin
//          into a CommTimeout diagnostic.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>

#include "pipescg/base/error.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/fault/spec.hpp"
#include "pipescg/obs/slot.hpp"

namespace pipescg::fault {

/// Thrown by a `kind=die` fault: the injected analogue of a rank crash.
class RankDeath : public Error {
 public:
  explicit RankDeath(const std::string& what) : Error(what) {}
};

class Injector : public obs::ThreadSlot<Injector> {
 public:
  /// `specs` is the shared parsed --fault-spec list; `rank` selects which
  /// entries apply to this thread.
  Injector(std::vector<FaultSpec> specs, int rank);

  int rank() const { return rank_; }

  /// Combined compute slowdown for this rank (1.0 = no slow fault).
  double slow_factor() const { return slow_factor_; }

  /// Faults actually fired so far on this rank.
  std::size_t injected() const { return injected_; }

  // --- hook points (called by par::Comm / krylov::SpmdEngine) -------------
  /// Count one SPMV output and perturb it if a matching fault is due.
  void on_spmv(std::span<double> out) { on_event(FaultTarget::kSpmv, out); }
  /// Count one preconditioner application output.
  void on_pc(std::span<double> out) { on_event(FaultTarget::kPc, out); }
  /// Count one allreduce post (before the contribution is published).
  void on_allreduce_post() { on_event(FaultTarget::kAllreduce, {}); }
  /// Count one batched halo exchange.
  void on_halo_exchange() { on_event(FaultTarget::kHalo, {}); }

 private:
  void on_event(FaultTarget target, std::span<double> out);
  void fire(const FaultSpec& spec, std::span<double> out);
  void corrupt(const FaultSpec& spec, std::span<double> out);

  std::vector<FaultSpec> specs_;
  int rank_;
  double slow_factor_ = 1.0;
  std::uint64_t events_[4] = {0, 0, 0, 0};  // per-FaultTarget counters
  std::size_t injected_ = 0;
};

/// RAII compute-slowdown scope: measures the wrapped kernel and, when the
/// installed injector carries a `slow` fault for this rank, sleeps
/// (factor - 1) x elapsed on destruction.  Null-safe and free when no
/// injector (or no slow fault) is installed.
class SlowScope {
 public:
  explicit SlowScope(Injector* inj)
      : inj_(inj != nullptr && inj->slow_factor() > 1.0 ? inj : nullptr) {
    if (inj_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~SlowScope();
  SlowScope(const SlowScope&) = delete;
  SlowScope& operator=(const SlowScope&) = delete;

 private:
  Injector* inj_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace pipescg::fault
