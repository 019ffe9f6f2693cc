#include "pipescg/service/session.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>

#include "pipescg/base/error.hpp"
#include "pipescg/base/timer.hpp"
#include "pipescg/fault/injector.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/spmd_engine.hpp"

namespace pipescg::service {

Session::Session(sparse::CsrMatrix a, SessionConfig config)
    : a_(std::move(a)), config_(config) {
  PIPESCG_CHECK(config_.ranks >= 1, "Session needs at least one rank");
  PIPESCG_CHECK(config_.s >= 1, "Session closure depth s must be >= 1");
  PIPESCG_CHECK(a_.rows() >= static_cast<std::size_t>(config_.ranks),
                "operator has fewer rows than ranks");

  const WallTimer timer;
  partition_ = sparse::Partition(a_.rows(), config_.ranks);
  ++counters_.partition_builds;

  const std::vector<double> full_diag =
      config_.use_preconditioner ? a_.diagonal() : std::vector<double>{};
  rank_state_.resize(static_cast<std::size_t>(config_.ranks));
  for (int r = 0; r < config_.ranks; ++r) {
    RankState& rs = rank_state_[static_cast<std::size_t>(r)];
    rs.dist = std::make_unique<sparse::DistCsr>(a_, partition_, r);
    ++counters_.dist_builds;
    if (config_.mpk) {
      rs.mpk = std::make_unique<sparse::MatrixPowers>(a_, partition_, r,
                                                      config_.s);
      ++counters_.mpk_builds;
    }
    if (config_.use_preconditioner) {
      const std::size_t begin = partition_.begin(r);
      const std::size_t end = partition_.end(r);
      std::vector<double> local_diag(
          full_diag.begin() + static_cast<std::ptrdiff_t>(begin),
          full_diag.begin() + static_cast<std::ptrdiff_t>(end));
      rs.pc = std::make_unique<precond::JacobiPreconditioner>(
          std::move(local_diag), a_.stats());
      ++counters_.pc_builds;
    }
  }

  team_ = std::make_unique<par::PersistentTeam>(config_.ranks);
  ++counters_.team_spawns;
  setup_seconds_ = timer.seconds();
}

obs::metrics::SessionSnapshot Session::snapshot() const {
  obs::metrics::SessionSnapshot s;
  s.ranks = config_.ranks;
  s.solves = solves_;
  s.team_runs = team_->runs();
  s.setup_seconds = setup_seconds_;
  s.partition_builds = counters_.partition_builds;
  s.dist_builds = counters_.dist_builds;
  s.mpk_builds = counters_.mpk_builds;
  s.pc_builds = counters_.pc_builds;
  s.team_spawns = counters_.team_spawns;
  s.warm_hits = counters_.warm_hits;
  s.expired = expired_;
  s.solve_latency = &solve_latency_;
  s.queue_latency = &queue_latency_;
  return s;
}

void Session::solve(SolveContext& ctx) {
  SolveContext* one[] = {&ctx};
  execute(one, /*queued=*/false);
}

void Session::solve_batch(std::span<SolveContext* const> ctxs) {
  PIPESCG_CHECK(!ctxs.empty(), "solve_batch needs at least one context");
  for (std::size_t i = 1; i < ctxs.size(); ++i)
    PIPESCG_CHECK(batchable(*ctxs[0], *ctxs[i]),
                  "solve_batch contexts are not mutually batchable "
                  "(method/s/tolerance/norm/max_iterations/stability "
                  "settings must match, no step limit, no monitor)");
  execute(ctxs, /*queued=*/false);
}

void Session::set_observability(Observability obs) {
  obs_ = obs;
  queue_monitor_ = obs::anomaly::QueuePressureMonitor(obs_.queue_pressure);
  live_metrics_ = LiveMetrics{};
  if (obs_.registry == nullptr) return;
  obs::metrics::Registry& reg = *obs_.registry;
  live_metrics_.solves = &reg.counter(
      "pipescg_live_solves_total", "Jobs completed by the session so far");
  live_metrics_.expired = &reg.counter(
      "pipescg_live_expired_total",
      "Jobs whose deadline passed before a submission could start");
  live_metrics_.queue_depth = &reg.gauge(
      "pipescg_live_queue_depth",
      "Admission-queue depth observed at the last drain round");
  live_metrics_.straggler_rank = &reg.gauge(
      "pipescg_anomaly_straggler_rank",
      "Rank currently suspected of straggling (-1 = none)");
  live_metrics_.straggler_rank->set(-1.0);
  auto alerts = [&reg](const char* family) -> obs::metrics::Counter* {
    return &reg.counter("pipescg_anomaly_alerts_total",
                        "Anomaly alerts emitted, by detector family",
                        {{"family", family}});
  };
  live_metrics_.alerts_straggler = alerts("straggler");
  live_metrics_.alerts_stall = alerts("convergence_stall");
  live_metrics_.alerts_saturation = alerts("queue_saturation");
  live_metrics_.alerts_deadline = alerts("deadline_pressure");
}

void Session::emit_alert(const obs::anomaly::Alert& alert) {
  if (obs_.alerts != nullptr) obs_.alerts->emit(alert);
  obs::metrics::Counter* counter = nullptr;
  if (alert.family == "straggler") counter = live_metrics_.alerts_straggler;
  else if (alert.family == "convergence_stall")
    counter = live_metrics_.alerts_stall;
  else if (alert.family == "queue_saturation")
    counter = live_metrics_.alerts_saturation;
  else if (alert.family == "deadline_pressure")
    counter = live_metrics_.alerts_deadline;
  if (counter != nullptr) counter->inc();
  if (alert.family == "straggler" &&
      live_metrics_.straggler_rank != nullptr)
    live_metrics_.straggler_rank->set(static_cast<double>(alert.rank));
}

std::size_t Session::drain(AdmissionQueue& queue, std::size_t max_batch) {
  std::size_t executed = 0;
  for (;;) {
    const std::size_t depth = queue.pending();
    if (live_metrics_.queue_depth != nullptr)
      live_metrics_.queue_depth->set(static_cast<double>(depth));
    if (obs_.alerts != nullptr || obs_.registry != nullptr) {
      if (std::optional<obs::anomaly::Alert> alert =
              queue_monitor_.on_depth(depth))
        emit_alert(*alert);
    }
    const std::vector<SolveContext*> batch = queue.next_batch(max_batch);
    if (batch.empty()) break;
    execute(batch, /*queued=*/true);
    executed += batch.size();
  }
  if (live_metrics_.queue_depth != nullptr)
    live_metrics_.queue_depth->set(0.0);
  return executed;
}

krylov::SolverOptions Session::resolved_options(
    const SolveContext& ctx) const {
  // Session-wide stability defaults: knobs the context left unset inherit
  // the session's.
  krylov::SolverOptions opts = ctx.opts_;
  if (opts.basis.type == krylov::BasisType::kMonomial)
    opts.basis = config_.basis;
  if (opts.replacement_period == 0)
    opts.replacement_period = config_.replacement_period;
  if (opts.gap_tol <= 0.0) opts.gap_tol = config_.gap_tol;
  if (opts.gap_check_period == 0)
    opts.gap_check_period = config_.gap_check_period;
  return opts;
}

void Session::execute(std::span<SolveContext* const> ctxs, bool queued) {
  // The fused dot payload bounds the batch width (wider at large s, for
  // shifted bases and under the gap monitor); a longer run executes as
  // consecutive batches.  A lone job runs as it is, whatever its method.
  const std::size_t width =
      ctxs.size() == 1
          ? 1
          : std::max<std::size_t>(1, krylov::max_batch_columns(
                                         resolved_options(*ctxs.front())));
  for (std::size_t i = 0; i < ctxs.size(); i += width) {
    const std::span<SolveContext* const> chunk =
        ctxs.subspan(i, std::min(width, ctxs.size() - i));
    if (queued) {
      const auto start = std::chrono::steady_clock::now();
      for (const SolveContext* ctx : chunk)
        queue_latency_.add(
            std::chrono::duration<double>(start - ctx->enqueued_at_).count());
    }
    run_chunk(chunk);
  }
}

void Session::run_chunk(std::span<SolveContext* const> ctxs) {
  // Per-submission iteration budget: what max_iterations leaves after the
  // iterations earlier submissions already spent, clamped by step_limit.
  // Exhausted contexts complete immediately without touching the team.
  std::vector<SolveContext*> live;
  live.reserve(ctxs.size());
  std::size_t budget = std::numeric_limits<std::size_t>::max();
  const bool alerting = obs_.alerts != nullptr || obs_.registry != nullptr;
  bool any_expired = false;
  const auto now = std::chrono::steady_clock::now();
  for (SolveContext* ctx : ctxs) {
    PIPESCG_CHECK(ctx->b_.size() == a_.rows(),
                  "context right-hand side has " +
                      std::to_string(ctx->b_.size()) +
                      " entries, operator has " + std::to_string(a_.rows()) +
                      " rows");
    // Deadline check at the start of every submission: this covers both
    // dequeue (drain -> execute) and each resumed chunk of a step-limited
    // job.  An expired job keeps the iterate it has but never runs again.
    if (ctx->has_deadline_ && now > ctx->deadline_) {
      ctx->state_ = JobState::kExpired;
      ctx->error_ = "deadline exceeded before execution";
      ++expired_;
      any_expired = true;
      if (live_metrics_.expired != nullptr) live_metrics_.expired->inc();
      if (alerting) {
        if (std::optional<obs::anomaly::Alert> alert =
                queue_monitor_.on_dispatch(
                    /*headroom_seconds=*/0.0,
                    solve_latency_.quantile(0.95), /*expired=*/true,
                    ctx->trace_.trace_id))
          emit_alert(*alert);
      }
      continue;
    }
    if (ctx->has_deadline_ && alerting) {
      // Dispatching with less headroom than the session's observed p95
      // solve latency: the job will probably blow its deadline mid-queue
      // next time around -- warn while an operator can still shed load.
      const double headroom =
          std::chrono::duration<double>(ctx->deadline_ - now).count();
      if (std::optional<obs::anomaly::Alert> alert =
              queue_monitor_.on_dispatch(headroom,
                                         solve_latency_.quantile(0.95),
                                         /*expired=*/false,
                                         ctx->trace_.trace_id))
        emit_alert(*alert);
    }
    std::size_t remaining =
        ctx->opts_.max_iterations > ctx->total_iterations_
            ? ctx->opts_.max_iterations - ctx->total_iterations_
            : 0;
    if (ctx->step_limit_ > 0)
      remaining = std::min(remaining, ctx->step_limit_);
    if (remaining == 0) {
      ctx->state_ = JobState::kDone;
      continue;
    }
    budget = std::min(budget, remaining);
    ctx->state_ = JobState::kRunning;
    live.push_back(ctx);
  }
  // Deadline expiry is a terminal event the metrics file must reflect even
  // though no solve ran: flush the sampler so the last window is not
  // silently dropped (satellite of the observability contract).
  if (any_expired && obs_.sampler != nullptr) obs_.sampler->flush();
  if (live.empty()) return;

  const std::size_t k = live.size();
  // Applied uniformly to a batch: batchable() guarantees the contexts share
  // their convergence contract and stability settings.
  krylov::SolverOptions opts = resolved_options(*live[0]);
  opts.max_iterations = budget;
  const std::string& method = live[0]->method_;
  const int ranks = config_.ranks;

  // --- per-request observability setup ------------------------------------
  // Tracing renders the request's recording as one Chrome trace; the
  // detectors need measured per-rank waits, so either one turns the
  // recording on.  All of it only OBSERVES: no collectives, no solver
  // state, so the iterate trajectory is bitwise identical with
  // observability on or off.
  const bool tracing_on = obs_.traces != nullptr;
  const bool detectors_on = alerting && obs_.detectors && ranks >= 2;

  // Recording epoch: the earliest instant this request touched the service
  // (its enqueue, for drained jobs), so queue wait is on the trace.
  auto epoch = now;
  for (const SolveContext* ctx : live)
    if (ctx->enqueued_at_ != std::chrono::steady_clock::time_point{} &&
        ctx->enqueued_at_ < epoch)
      epoch = ctx->enqueued_at_;
  std::unique_ptr<obs::SolveProfile> profile;
  if (tracing_on || detectors_on)
    profile = std::make_unique<obs::SolveProfile>(
        ranks, obs::Profiler::kDefaultCapacity, live[0]->trace_, epoch);
  // The request root opens at the epoch on the service track; every rank
  // track nests under it.
  std::optional<obs::SpanScope> request;
  if (tracing_on) {
    obs::Profiler& svc = profile->service();
    request.emplace(&svc, "request", /*start=*/0.0);
    for (int r = 0; r < ranks; ++r)
      profile->rank(r).nest_under(request->span_id());
    for (std::size_t c = 0; c < k; ++c) {
      const SolveContext* ctx = live[c];
      if (ctx->enqueued_at_ == std::chrono::steady_clock::time_point{})
        continue;
      svc.record(
          "queue_wait",
          std::chrono::duration<double>(ctx->enqueued_at_ - epoch).count(),
          svc.now(),
          {{"column", static_cast<double>(c)},
           {"column_trace_id", static_cast<double>(ctx->trace_.trace_id)}});
    }
  }

  std::unique_ptr<obs::anomaly::StragglerDetector> straggler;
  std::unique_ptr<obs::anomaly::StallDetector> stall;
  obs::anomaly::MidSolveProbe::Shared probe_shared;
  if (detectors_on) {
    straggler = std::make_unique<obs::anomaly::StragglerDetector>(
        ranks, obs_.straggler);
    stall = std::make_unique<obs::anomaly::StallDetector>(obs_.stall);
    probe_shared.straggler = straggler.get();
    probe_shared.stall = stall.get();
    probe_shared.sink = nullptr;  // alerts route through emit_alert below
    probe_shared.trace_id = live[0]->trace_.trace_id;
    probe_shared.on_alert = [](void* arg,
                               const obs::anomaly::Alert& alert) {
      static_cast<Session*>(arg)->emit_alert(alert);
    };
    probe_shared.on_alert_arg = this;
  }

  const WallTimer timer;
  std::vector<krylov::SolveStats> stats(k);
  bool failed = false;
  std::string failure;
  try {
    team_->run([&](par::Comm& comm) {
      const int rank = comm.rank();
      const RankState& rs = rank_state_[static_cast<std::size_t>(rank)];
      const bool use_pc =
          rs.pc != nullptr && krylov::solver_uses_preconditioner(method);
      const sparse::MatrixPowers* mpk =
          rs.mpk != nullptr && opts.s <= rs.mpk->depth() ? rs.mpk.get()
                                                        : nullptr;

      // Deterministic fault injection (tests / chaos drills).
      std::optional<fault::Injector> injector;
      std::optional<fault::Injector::Install> injector_install;
      if (!config_.fault_specs.empty()) {
        injector.emplace(config_.fault_specs, rank);
        injector_install.emplace(&*injector);
      }

      // The rank's track of the recording; rank_solve is its root span.
      obs::Profiler* prof =
          profile != nullptr ? &profile->rank(rank) : nullptr;
      const obs::SpanScope rank_scope(prof, "rank_solve");

      std::optional<obs::anomaly::MidSolveProbe> probe;
      std::optional<obs::anomaly::MidSolveProbe::Install> probe_install;
      if (detectors_on) {
        probe.emplace(&probe_shared, rank);
        probe_install.emplace(&*probe);
      }

      krylov::SpmdEngine engine(comm, *rs.dist,
                                use_pc ? rs.pc.get() : nullptr, prof, mpk);
      const std::size_t begin = partition_.begin(rank);
      const std::size_t len = partition_.local_size(rank);

      std::vector<krylov::Vec> bs;
      std::vector<krylov::Vec> xs;
      bs.reserve(k);
      xs.reserve(k);
      {
        const obs::SpanScope scope(prof, "scatter");
        for (const SolveContext* ctx : live) {
          krylov::Vec b = engine.new_vec();
          krylov::Vec x = engine.new_vec();
          for (std::size_t i = 0; i < len; ++i) {
            b[i] = ctx->b_[begin + i];
            x[i] = ctx->x_[begin + i];
          }
          bs.push_back(std::move(b));
          xs.push_back(std::move(x));
        }
      }

      std::vector<krylov::SolveStats> local_stats;
      {
        const obs::SpanScope scope(prof, "solve");
        if (k == 1) {
          local_stats.push_back(krylov::make_solver(method)->solve(
              engine, bs[0], xs[0], opts));
        } else {
          local_stats = krylov::scg_multi_solve(
              engine, std::span<const krylov::Vec>(bs),
              std::span<krylov::Vec>(xs), opts);
        }
      }

      // Every rank writes its own disjoint row slice of each iterate; the
      // replicated scalar stats are taken from rank 0.
      {
        const obs::SpanScope scope(prof, "gather");
        for (std::size_t c = 0; c < k; ++c)
          for (std::size_t i = 0; i < len; ++i)
            live[c]->x_[begin + i] = xs[c][i];
      }
      if (rank == 0)
        for (std::size_t c = 0; c < k; ++c) stats[c] = std::move(local_stats[c]);
    });
  } catch (const std::exception& e) {
    // The persistent team has already recovered its collective state; the
    // jobs in flight are what failed.
    failed = true;
    failure = e.what();
  }
  const double seconds = timer.seconds();

  if (live_metrics_.straggler_rank != nullptr && straggler != nullptr)
    live_metrics_.straggler_rank->set(
        static_cast<double>(straggler->candidate()));

  if (request) {
    request->arg("columns", static_cast<double>(k));
    request->arg("setup_cache_hit", 1.0);
    request->arg("failed", failed ? 1.0 : 0.0);
    request.reset();
    const std::string path = obs_.traces->write(*profile);
    for (SolveContext* ctx : live) ctx->trace_path_ = path;
  }

  if (failed) {
    for (SolveContext* ctx : live) {
      ctx->state_ = JobState::kFailed;
      ctx->error_ = failure;
      ++ctx->submissions_;
    }
    return;
  }

  for (std::size_t c = 0; c < k; ++c) {
    SolveContext* ctx = live[c];
    ctx->stats_ = std::move(stats[c]);
    ctx->total_iterations_ += ctx->stats_.iterations;
    ++ctx->submissions_;
    ctx->error_.clear();
    ctx->state_ = JobState::kDone;
    solve_latency_.add(seconds);
  }
  solves_ += k;
  counters_.warm_hits += k;
  if (live_metrics_.solves != nullptr)
    live_metrics_.solves->add(static_cast<double>(k));
}

}  // namespace pipescg::service
