#include "pipescg/par/comm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>

#include "pipescg/base/error.hpp"
#include "pipescg/fault/injector.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::par {
namespace {

std::atomic<double> g_watchdog_ms{30000.0};
std::atomic<std::uint64_t> g_watchdog_trips{0};

// Spin with progressively more yielding.  On oversubscribed machines (this
// target has a single core) pure spinning would serialize horribly, so we
// yield early and often.  pause() returns true once the watchdog deadline
// has passed, so every spin loop in the runtime is bounded: the caller
// composes a CommTimeout with its live state instead of hanging.  The clock
// is consulted only every 1024 yields, keeping the hot path untouched.
class Backoff {
 public:
  bool pause() {
    if (spins_ < 16) {
      ++spins_;
      return false;
    }
    std::this_thread::yield();
    if ((++yields_ & 1023u) != 0) return false;
    const double limit = g_watchdog_ms.load(std::memory_order_relaxed);
    if (limit <= 0.0) return false;  // watchdog disabled
    const auto now = std::chrono::steady_clock::now();
    if (!started_) {
      start_ = now;
      started_ = true;
      return false;
    }
    elapsed_ms_ =
        std::chrono::duration<double, std::milli>(now - start_).count();
    return elapsed_ms_ >= limit;
  }

  double elapsed_ms() const { return elapsed_ms_; }

 private:
  int spins_ = 0;
  std::uint32_t yields_ = 0;
  bool started_ = false;
  std::chrono::steady_clock::time_point start_{};
  double elapsed_ms_ = 0.0;
};

// Compose the per-rank state dump and throw CommTimeout.  `where` names the
// spin loop; `detail` carries its live state (generation, slot, progress
// counters).  The calling thread's profiler, when installed, contributes
// its last recorded activity -- which iteration the rank reached, how many
// spans it recorded and which one closed last -- so a post-mortem can tell
// a straggler from a dead peer.
[[noreturn]] void throw_comm_timeout(const char* where, int rank,
                                     double elapsed_ms,
                                     const std::string& detail) {
  std::ostringstream os;
  os << "comm watchdog: rank " << rank << " timed out after " << elapsed_ms
     << " ms in " << where;
  if (!detail.empty()) os << " (" << detail << ")";
  if (const obs::Profiler* prof = obs::Profiler::current()) {
    // spans= counts every span the rank recorded, evicted ones included:
    // the ring keeps only the newest, and the count measures progress.
    os << "; profiler: iterations=" << prof->counters().iterations
       << " spans=" << prof->ring().size() + prof->ring().dropped();
    if (prof->ring().size() > 0) os << " last=" << prof->ring().back().name;
  }
  g_watchdog_trips.fetch_add(1, std::memory_order_relaxed);
  throw CommTimeout(rank, os.str());
}

}  // namespace

void set_comm_watchdog_ms(double ms) {
  g_watchdog_ms.store(ms, std::memory_order_relaxed);
}

double comm_watchdog_ms() {
  return g_watchdog_ms.load(std::memory_order_relaxed);
}

std::uint64_t comm_watchdog_trips() {
  return g_watchdog_trips.load(std::memory_order_relaxed);
}

RankRange block_range(std::size_t n, int rank, int size) {
  PIPESCG_CHECK(size > 0 && rank >= 0 && rank < size,
                "invalid rank/size in block_range");
  const std::size_t p = static_cast<std::size_t>(size);
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  const std::size_t begin = r * base + std::min(r, extra);
  const std::size_t len = base + (r < extra ? 1 : 0);
  return RankRange{begin, begin + len};
}

Team::Team(int num_ranks) : num_ranks_(num_ranks) {
  PIPESCG_CHECK(num_ranks >= 1, "team needs at least one rank");
  slots_.reserve(kMaxInflight);
  for (std::size_t i = 0; i < kMaxInflight; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->generation.store(i, std::memory_order_relaxed);
    slot->contributions.assign(
        static_cast<std::size_t>(num_ranks) * kMaxPayload, 0.0);
    slots_.push_back(std::move(slot));
  }
  windows_.assign(static_cast<std::size_t>(num_ranks), {});
}

void Team::barrier_impl(int rank) {
  const int sense = barrier_sense_.load(std::memory_order_relaxed);
  if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) ==
      num_ranks_ - 1) {
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_sense_.store(1 - sense, std::memory_order_release);
  } else {
    Backoff backoff;
    while (barrier_sense_.load(std::memory_order_acquire) == sense) {
      if (backoff.pause()) {
        std::ostringstream os;
        os << "arrived=" << barrier_count_.load(std::memory_order_relaxed)
           << "/" << num_ranks_ << " sense=" << sense;
        throw_comm_timeout("barrier", rank, backoff.elapsed_ms(), os.str());
      }
    }
  }
}

AllreduceRequest Team::post_impl(Comm& comm, std::span<const double> in) {
  PIPESCG_CHECK(in.size() <= kMaxPayload,
                "allreduce payload exceeds Team::kMaxPayload");
  if (fault::Injector* inj = fault::Injector::current())
    inj->on_allreduce_post();
  const std::uint64_t id = comm.next_op_id_++;
  Slot& slot = *slots_[id % kMaxInflight];

  // Backpressure: wait until the slot has been fully recycled for this
  // generation (all ranks consumed the previous tenant).
  Backoff backoff;
  while (slot.generation.load(std::memory_order_acquire) != id) {
    if (backoff.pause()) {
      std::ostringstream os;
      os << "op=" << id << " slot=" << id % kMaxInflight << " slot_generation="
         << slot.generation.load(std::memory_order_relaxed);
      throw_comm_timeout("allreduce post backpressure", comm.rank(),
                         backoff.elapsed_ms(), os.str());
    }
  }

  // Payload sanity: the first contributor installs the count tag, every
  // later contributor must agree -- a mismatch means the ranks posted
  // different collectives into the same generation (ordering violation).
  const std::uint64_t tag = static_cast<std::uint64_t>(in.size()) + 1;
  std::uint64_t expected = 0;
  if (!slot.count_tag.compare_exchange_strong(expected, tag,
                                              std::memory_order_acq_rel)) {
    PIPESCG_CHECK(expected == tag,
                  "allreduce payload count mismatch across ranks: this rank "
                  "posted " + std::to_string(in.size()) + " doubles, a peer "
                  "posted " + std::to_string(expected - 1) +
                  " (collective-ordering contract violated; see par/comm.hpp)");
  }
  double* mine = slot.contributions.data() +
                 static_cast<std::size_t>(comm.rank()) * kMaxPayload;
  std::copy(in.begin(), in.end(), mine);
  slot.contributed.fetch_add(1, std::memory_order_release);

  AllreduceRequest req;
  req.op_id = id;
  req.count = in.size();
  req.active = true;
  return req;
}

void Team::wait_impl(const AllreduceRequest& req, std::span<double> out,
                     int rank) {
  Slot& slot = *slots_[req.op_id % kMaxInflight];
  Backoff backoff;
  while (slot.contributed.load(std::memory_order_acquire) != num_ranks_) {
    if (backoff.pause()) {
      std::ostringstream os;
      os << "op=" << req.op_id << " slot=" << req.op_id % kMaxInflight
         << " contributed="
         << slot.contributed.load(std::memory_order_relaxed) << "/"
         << num_ranks_;
      throw_comm_timeout("allreduce wait", rank, backoff.elapsed_ms(),
                         os.str());
    }
  }

  PIPESCG_CHECK(out.size() >= req.count, "allreduce output buffer too small");
  // Fixed-order reduction: deterministic result independent of scheduling.
  for (std::size_t j = 0; j < req.count; ++j) {
    double acc = 0.0;
    for (int r = 0; r < num_ranks_; ++r)
      acc += slot.contributions[static_cast<std::size_t>(r) * kMaxPayload + j];
    out[j] = acc;
  }

  // Last consumer recycles the slot for generation id + kMaxInflight.
  if (slot.consumed.fetch_add(1, std::memory_order_acq_rel) ==
      num_ranks_ - 1) {
    slot.consumed.store(0, std::memory_order_relaxed);
    slot.contributed.store(0, std::memory_order_relaxed);
    slot.count_tag.store(0, std::memory_order_relaxed);
    slot.generation.store(req.op_id + kMaxInflight,
                          std::memory_order_release);
  }
}

void Team::run(int num_ranks, const std::function<void(Comm&)>& body) {
  Team team(num_ranks);
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_ranks), nullptr);

  if (num_ranks == 1) {
    Comm comm(&team, 0);
    body(comm);
    return;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    threads.emplace_back([&team, &body, &errors, r]() {
      try {
        Comm comm(&team, r);
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

PersistentTeam::PersistentTeam(int num_ranks) : num_ranks_(num_ranks) {
  PIPESCG_CHECK(num_ranks >= 1, "persistent team needs at least one rank");
  team_.reset(new Team(num_ranks));
  comms_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r)
    comms_.emplace_back(new Comm(team_.get(), r));
  errors_.assign(static_cast<std::size_t>(num_ranks), nullptr);
  threads_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r)
    threads_.emplace_back([this, r] { worker(r); });
}

PersistentTeam::~PersistentTeam() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void PersistentTeam::worker(int rank) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(Comm&)>* body = nullptr;
    Comm* comm = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      body = body_;
      comm = comms_[static_cast<std::size_t>(rank)].get();
    }
    try {
      (*body)(*comm);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[static_cast<std::size_t>(rank)] = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++done_count_;
    }
    cv_.notify_all();
  }
}

void PersistentTeam::run(const std::function<void(Comm&)>& body) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PIPESCG_CHECK(body_ == nullptr,
                  "PersistentTeam::run is not reentrant (one submitter at "
                  "a time; see service::AdmissionQueue)");
    body_ = &body;
    done_count_ = 0;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    ++generation_;
  }
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_count_ == num_ranks_; });
  body_ = nullptr;
  ++runs_;
  std::exception_ptr first = nullptr;
  for (auto& e : errors_)
    if (e != nullptr) {
      first = e;
      break;
    }
  if (first != nullptr) {
    // A rank unwound mid-collective: slot generations / op ids are out of
    // lockstep for good, so rebuild the collective state (fresh Team and
    // Comms) before the next body -- the team itself stays usable.
    team_.reset(new Team(num_ranks_));
    comms_.clear();
    for (int r = 0; r < num_ranks_; ++r)
      comms_.emplace_back(new Comm(team_.get(), r));
    lock.unlock();
    std::rethrow_exception(first);
  }
}

int Comm::size() const { return team_->num_ranks_; }

void Comm::barrier() { team_->barrier_impl(rank_); }

void Comm::allreduce_sum(std::span<const double> in, std::span<double> out) {
  // A blocking collective (MPI_Allreduce): the post..completion interval is
  // all wait-spin as far as the profiler is concerned.
  obs::Profiler* prof = obs::Profiler::current();
  AllreduceRequest req;
  {
    obs::SpanScope span(prof, obs::SpanKind::kAllreducePost);
    req = team_->post_impl(*this, in);
  }
  obs::SpanScope span(prof, obs::SpanKind::kAllreduceWaitBlocking);
  team_->wait_impl(req, out, rank_);
}

AllreduceRequest Comm::iallreduce_sum(std::span<const double> in) {
  obs::SpanScope span(obs::Profiler::current(),
                      obs::SpanKind::kAllreducePost);
  return team_->post_impl(*this, in);
}

void Comm::wait(AllreduceRequest& req, std::span<double> out) {
  PIPESCG_CHECK(req.active, "wait on inactive allreduce request");
  // Completion of an MPI_Iallreduce-style request: time measured here is
  // reduction latency the solver failed to hide behind compute.
  obs::SpanScope span(obs::Profiler::current(),
                      obs::SpanKind::kAllreduceWaitNonblocking);
  team_->wait_impl(req, out, rank_);
  req.active = false;
}

void Comm::expose(std::span<const double> window) {
  obs::SpanScope span(obs::Profiler::current(), obs::SpanKind::kHaloExpose);
  team_->windows_[static_cast<std::size_t>(rank_)] = window;
  team_->barrier_impl(rank_);  // opens the epoch: all windows published
}

void Comm::peer_read(int peer, std::size_t offset,
                     std::span<double> out) const {
  obs::SpanScope span(obs::Profiler::current(), obs::SpanKind::kHaloPeerRead);
  PIPESCG_CHECK(peer >= 0 && peer < size(), "peer_read peer out of range");
  const std::span<const double>& w =
      team_->windows_[static_cast<std::size_t>(peer)];
  PIPESCG_CHECK(offset + out.size() <= w.size(),
                "peer_read outside exposed window");
  std::copy(w.begin() + static_cast<std::ptrdiff_t>(offset),
            w.begin() + static_cast<std::ptrdiff_t>(offset + out.size()),
            out.begin());
}

void Comm::close_epoch() {
  obs::SpanScope span(obs::Profiler::current(), obs::SpanKind::kHaloClose);
  team_->barrier_impl(rank_);  // all reads done before windows may change
}

void Comm::exchange(std::span<const GhostPull> pulls,
                    std::span<const double> window,
                    std::span<double> ghosts) {
  if (fault::Injector* inj = fault::Injector::current())
    inj->on_halo_exchange();
  obs::Profiler* prof = obs::Profiler::current();
  const double t0 = prof != nullptr ? prof->now() : 0.0;
  expose(window);
  std::size_t volume = 0;
  for (const GhostPull& pull : pulls) {
    PIPESCG_CHECK(pull.local_offset + pull.length <= ghosts.size(),
                  "ghost pull outside the ghost buffer");
    peer_read(pull.peer, pull.remote_offset,
              ghosts.subspan(pull.local_offset, pull.length));
    volume += pull.length;
  }
  close_epoch();
  if (prof != nullptr) {
    // Whole-epoch latency sample (expose + peer reads + close) for the
    // halo-exchange histogram; the per-phase spans above stay disjoint.
    prof->record_halo_exchange(prof->now() - t0);
    obs::Profiler::Counters& c = prof->counters();
    ++c.halo_epochs;
    c.halo_messages += pulls.size();
    c.halo_volume_doubles += volume;
  }
}

}  // namespace pipescg::par
