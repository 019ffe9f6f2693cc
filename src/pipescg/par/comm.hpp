// In-process SPMD runtime: the library's substitute for MPI on this offline
// target (see DESIGN.md, "Substitutions").
//
// A Team spawns P ranks (one std::thread each) that execute the same function
// SPMD-style, communicating through a Comm handle.  The Comm provides the
// collective operations the solvers need:
//
//  * barrier()                        -- synchronization
//  * allreduce_sum()                  -- blocking allreduce (MPI_Allreduce)
//  * iallreduce_sum() / wait()        -- non-blocking allreduce
//                                        (MPI_Iallreduce + MPI_Wait)
//  * expose() / peer_read()           -- RMA-style neighbor access used by
//                                        the distributed SPMV halo exchange
//                                        (models MPI_Get in an epoch)
//
// The non-blocking allreduce is genuinely non-blocking: posting stores the
// local contribution into a per-rank slot with a release publication and
// returns immediately; compute proceeds; wait() spins until all P ranks have
// contributed and then performs a *fixed-order* summation so results are
// bit-deterministic regardless of thread scheduling.
//
// Ordering contract (same as MPI): all ranks must post every collective --
// barrier, allreduce_sum/iallreduce_sum, expose/close_epoch, exchange --
// in the same order, and matching posts must agree
// on their payload shape (the allreduce count; the exposed window length for
// the window-based collectives).  A bounded ring of in-flight operations
// provides backpressure; exceeding kMaxInflight outstanding unposted
// generations simply makes the poster spin until the slot is recycled.
// Violations are detected rather than silently corrupting: mismatched
// allreduce payload counts fail a cheap always-on check at post time
// (peer_read's bounds check catches a mismatched window), and mismatched
// *ordering* deadlocks -- which the spin-loop watchdog below converts into
// a CommTimeout diagnostic instead of a hang.
//
// Watchdog: every spin loop in the runtime (barrier, allreduce wait,
// post backpressure) is bounded by a global watchdog timeout
// (set_comm_watchdog_ms, default 30 s).  A rank that spins past the
// deadline -- because a peer died, stalled indefinitely, or violated the
// ordering contract -- throws CommTimeout carrying a per-rank state dump
// (what it was waiting on, generation/slot, progress counters, and the
// rank's last profiler activity) instead of hanging the team forever.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "pipescg/base/error.hpp"

namespace pipescg::par {

class Team;

/// Thrown by a rank whose collective spin exceeded the watchdog timeout:
/// the in-process analogue of an MPI fault-tolerance error class
/// (MPIX_ERR_PROC_FAILED).  The message carries the rank's state dump.
class CommTimeout : public Error {
 public:
  CommTimeout(int rank, const std::string& what) : Error(what), rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Watchdog timeout for the runtime's spin loops, in milliseconds.
/// <= 0 disables the watchdog (unbounded spins, the pre-fault-layer
/// behavior).  The default is 30000 ms -- far beyond any legitimate
/// collective on an in-process team, so clean runs never trip it.
void set_comm_watchdog_ms(double ms);
double comm_watchdog_ms();

/// Process-wide count of CommTimeout throws (watchdog trips) since start.
/// Exported as pipescg_watchdog_trips_total by
/// obs::metrics::register_fault, and the number the fault harness reports.
std::uint64_t comm_watchdog_trips();

/// RAII watchdog override (tests use short timeouts and must restore).
class ScopedWatchdog {
 public:
  explicit ScopedWatchdog(double ms) : prev_(comm_watchdog_ms()) {
    set_comm_watchdog_ms(ms);
  }
  ~ScopedWatchdog() { set_comm_watchdog_ms(prev_); }
  ScopedWatchdog(const ScopedWatchdog&) = delete;
  ScopedWatchdog& operator=(const ScopedWatchdog&) = delete;

 private:
  double prev_;
};

/// Handle for an in-flight non-blocking allreduce.
struct AllreduceRequest {
  std::uint64_t op_id = 0;
  std::size_t count = 0;
  bool active = false;
};

/// One pre-registered ghost pull of a batched halo exchange (see
/// Comm::exchange): `length` doubles starting at `remote_offset` within
/// `peer`'s exposed window land at `local_offset` within the puller's ghost
/// buffer.  Run lists are built once at operator-construction time and
/// replayed every exchange -- the in-process analogue of a persistent
/// MPI neighborhood collective (MPI_Neighbor_alltoallv with a cached
/// datatype, or a pre-registered RMA access pattern).
struct GhostPull {
  int peer = 0;                  ///< rank whose window is read
  std::size_t remote_offset = 0; ///< offset within the peer's local slice
  std::size_t local_offset = 0;  ///< offset within the ghost buffer
  std::size_t length = 0;        ///< doubles transferred
};

/// Contiguous [begin, end) row range owned by a rank.
struct RankRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Balanced block partition of n items over `size` ranks: the first
/// n % size ranks get one extra item.
RankRange block_range(std::size_t n, int rank, int size);

/// Per-rank communicator handle.  Not copyable; owned by the Team's rank loop
/// and passed to the SPMD body by reference.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  void barrier();

  /// Blocking sum-allreduce; in and out may alias.  All ranks must pass the
  /// same count (checked at post time; a mismatch throws on the violating
  /// rank and times out the others).
  void allreduce_sum(std::span<const double> in, std::span<double> out);

  /// Post a non-blocking sum-allreduce of `in`.  The contents of `in` are
  /// copied at post time; the caller may reuse the buffer immediately.
  AllreduceRequest iallreduce_sum(std::span<const double> in);

  /// Complete a previously posted iallreduce; writes the reduced values.
  void wait(AllreduceRequest& req, std::span<double> out);

  /// RMA-style exposure epoch: every rank publishes a read-only window, then
  /// after the collective call any rank may peer_read() from any window
  /// until close_epoch().  Models MPI_Win_fence + MPI_Get.
  ///
  /// Epoch semantics: expose() is collective and opens the epoch (a barrier
  /// guarantees every window is published); peer_read() may then be called
  /// any number of times against any rank; close_epoch() is collective and
  /// guarantees all reads completed before any window may change.  Ranks
  /// must not mutate their exposed buffer between expose() and
  /// close_epoch().
  void expose(std::span<const double> window);
  /// Read `out.size()` entries starting at `offset` within `peer`'s window.
  /// Only valid inside an expose()/close_epoch() epoch.
  void peer_read(int peer, std::size_t offset, std::span<double> out) const;
  /// Close the current exposure epoch (collective).
  void close_epoch();

  /// Batched halo exchange: ONE epoch that exposes `window` and executes a
  /// pre-registered pull list into `ghosts` -- expose, every pull, close.
  /// This is the primitive the distributed operators (sparse::DistCsr,
  /// sparse::MatrixPowers) use for their halo
  /// exchanges; the per-epoch cost is paid once regardless of how many runs
  /// or how deep a ghost region is pulled, which is exactly what the
  /// matrix-powers kernel exploits (one deep exchange per s-step block
  /// instead of s shallow ones).  Collective: every rank of the team must
  /// call it, each with its own run list (possibly empty).  Records
  /// halo_epochs / halo_messages / halo_volume_doubles into the calling
  /// thread's obs profiler.
  void exchange(std::span<const GhostPull> pulls,
                std::span<const double> window, std::span<double> ghosts);

 private:
  friend class Team;
  friend class PersistentTeam;
  Comm(Team* team, int rank) : team_(team), rank_(rank) {}
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  Team* team_;
  int rank_;
  std::uint64_t next_op_id_ = 0;
};

/// A team of P SPMD ranks.  Usage:
///
///   par::Team::run(4, [&](par::Comm& comm) { ... SPMD body ... });
///
/// The call returns when all ranks finish.  If any rank throws, the first
/// exception (by rank order) is rethrown on the calling thread after all
/// ranks have been joined.
class Team {
 public:
  static void run(int num_ranks, const std::function<void(Comm&)>& body);

  /// Maximum number of doubles per allreduce payload.
  static constexpr std::size_t kMaxPayload = 4096;
  /// Maximum in-flight allreduce generations before posting backpressures.
  static constexpr std::size_t kMaxInflight = 8;

 private:
  friend class Comm;
  friend class PersistentTeam;
  explicit Team(int num_ranks);

  struct Slot {
    std::atomic<std::uint64_t> generation{0};
    std::atomic<int> contributed{0};
    std::atomic<int> consumed{0};
    // Payload sanity tag: count + 1 of the current tenant, 0 = unset.  The
    // first contributor CAS-installs it; every later contributor verifies
    // its own count against it, so ranks disagreeing on an allreduce's
    // payload shape (a collective-ordering violation) fail loudly at post
    // time instead of summing garbage.  Cheap enough to keep on in release.
    std::atomic<std::uint64_t> count_tag{0};
    std::vector<double> contributions;  // P * kMaxPayload
  };

  int num_ranks_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::span<const double>> windows_;

  // Central barrier implemented with a sense-reversing counter so it can be
  // reused without C++20 std::barrier template/functor friction.
  std::atomic<int> barrier_count_{0};
  std::atomic<int> barrier_sense_{0};

  void barrier_impl(int rank);
  AllreduceRequest post_impl(Comm& comm, std::span<const double> in);
  void wait_impl(const AllreduceRequest& req, std::span<double> out, int rank);
};

/// A team of P SPMD ranks whose threads are spawned ONCE and reused across
/// bodies -- the service layer's substitute for Team::run, which pays a
/// thread spawn + join per solve.  A production MPI runtime keeps its ranks
/// alive for the lifetime of the job; this is the in-process analogue, and
/// it is what lets a warm service::Session amortize thread creation the
/// same way it amortizes partition/closure/preconditioner setup.
///
///   par::PersistentTeam team(4);
///   team.run([&](par::Comm& comm) { ... solve 1 ... });
///   team.run([&](par::Comm& comm) { ... solve 2 ... });  // same threads
///
/// Semantics match Team::run: run() blocks until every rank finished the
/// body, and if any rank threw, the first exception (by rank order) is
/// rethrown on the calling thread.  A body that throws does NOT poison the
/// team: the underlying collective state is recreated for the next run, so
/// a failed solve (e.g. a fault-injection CommTimeout) leaves the team
/// reusable.  run() itself is not thread-safe -- one submitter at a time
/// (the admission queue in service/ serializes submissions).
///
/// Each worker parks on a condition variable between bodies (no spinning,
/// no watchdog interaction while idle); per-run Comm objects carry fresh
/// op-id counters so every body observes the same collective-ordering state
/// it would under Team::run.
class PersistentTeam {
 public:
  explicit PersistentTeam(int num_ranks);
  ~PersistentTeam();
  PersistentTeam(const PersistentTeam&) = delete;
  PersistentTeam& operator=(const PersistentTeam&) = delete;

  int size() const { return num_ranks_; }

  /// Execute `body` SPMD on the persistent ranks; blocks until all finish.
  void run(const std::function<void(Comm&)>& body);

  /// Bodies executed so far -- the team-reuse counter the session's
  /// cached-setup tests assert on (threads spawned == size(), always).
  std::size_t runs() const { return runs_; }

 private:
  void worker(int rank);

  int num_ranks_;
  std::size_t runs_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;   // bumped per run(); workers chase it
  int done_count_ = 0;             // ranks finished with current generation
  bool shutdown_ = false;
  const std::function<void(Comm&)>* body_ = nullptr;
  // The Team's collective state (slot generations, op ids) persists across
  // bodies, so each rank keeps ONE Comm whose op-id counter advances for
  // the team's whole lifetime -- exactly like an MPI communicator.  Both
  // are recreated after a failed body: an exception can unwind a rank
  // mid-collective, which breaks the op-id lockstep for good.
  std::unique_ptr<Team> team_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

}  // namespace pipescg::par
