// perfbench: measured time to solution of the CG variants on a warm 2-rank
// service::Session, open-loop serving latency through the AdmissionQueue,
// and -- with --trace 1 -- a per-layer budget from a separate traced pass.
//
//   perfbench --workload poisson125|ecology2|serve --seed N --seconds S
//             --trace 0|1
//
// The seed picks x* (b = A x*) and, on serve, the arrival schedule; the
// program only receives the generated inputs.  Every solve is checked
// (converged, no error, iteration count equal to the first solve of the same
// system, and the harness's own residual/error check) and counted.  The last
// line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  perfbench/README.md defines every metric.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "machine.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/service/queue.hpp"
#include "pipescg/service/session.hpp"
#include "pipescg/service/solve_context.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace {

using namespace pipescg;
using perfbench::median;
using perfbench::quantile;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 2;
constexpr int kBasisDepth = 3;
constexpr std::size_t kMaxBatch = 16;
// The timed methods: the paper's PIPE-PsCG and its preconditioned baselines.
// The unpreconditioned PIPE-sCG is left out (README.md, "Methods"); the
// unpreconditioned s-step driver is covered by scg-sspmv, which serve serves
// and the traced pass traces on every workload.
const std::vector<std::string> kMethods = {"pcg", "pipecg", "pscg",
                                           "pipe-pscg"};
const std::string kServeMethod = "scg-sspmv";
constexpr double kInf = std::numeric_limits<double>::infinity();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string key(const std::string& method) {
  std::string k = method;
  std::replace(k.begin(), k.end(), '-', '_');
  return k;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed).split(stream).next_u64();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  double rtol = 0.0;
  bool serve = false;
  int setup_start = 0;     // Session constructions at the start
  int setup_per_round = 0; // ... and after every round or drain
  int trace_rounds = 0;    // untraced/traced pairs per method, traced pass
  int p1_rounds = 0;       // 1-rank pcg solves, traced pass
  // Harness check limits: any solve that met rtol in its own norm passes
  // with margin; a wrong answer (garbage, wrong system, lost slice) cannot.
  double max_relres = 0.0;
  double max_relerr = 0.0;
};

Workload lookup(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "poisson125") {
    w.rtol = 1e-5;
    // A construction here copies and rebuilds ~300 MB, so the samples stay
    // at the start rather than eat into the few timed rounds.
    w.setup_start = 7;
    w.setup_per_round = 0;
    w.trace_rounds = 2;
    w.p1_rounds = 3;
    w.max_relres = 1e-3;
    w.max_relerr = 1e-3;
  } else if (name == "ecology2") {
    w.rtol = 1e-2;
    w.setup_start = 9;
    w.setup_per_round = 4;
    w.trace_rounds = 3;
    w.p1_rounds = 5;
    // rtol 1e-2 on a near-singular operator: the unpreconditioned
    // scg-sspmv meets it with ||x - x*|| still ~0.9 ||x*||, so the residual
    // check carries the weight here.
    w.max_relres = 1e-2;
    w.max_relerr = 1.0;
  } else if (name == "serve") {
    w.rtol = 1e-6;
    w.serve = true;
    w.setup_start = 41;
    w.setup_per_round = 2;
    w.trace_rounds = 15;
    w.p1_rounds = 15;
    w.max_relres = 1e-4;
    w.max_relerr = 1e-3;
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (poisson125, ecology2, serve)");
  }
  return w;
}

sparse::CsrMatrix make_operator(const Workload& w) {
  if (w.name == "poisson125") return sparse::make_poisson125_csr(48);
  if (w.name == "ecology2") return sparse::make_ecology2_like(300, 300);
  return sparse::make_thermal2_like(32, 32);
}

krylov::SolverOptions solver_options(const Workload& w) {
  krylov::SolverOptions opts;
  opts.rtol = w.rtol;
  opts.s = kBasisDepth;
  return opts;
}

// Open-loop arrival rate on serve, frozen once; it must never track the
// measured speed of the build under test, or the load would follow the
// program.  On a 4-vCPU Xeon KVM guest a solo scg-sspmv solve through the
// observability-wired session took 4-6 ms (~200 requests/s), but a 16-wide
// batch served only ~120 requests/s (the per-solve recording grows with the
// batch).  At 60% of the solo capacity a burst that forms a wide batch tipped
// the queue into a runaway backlog in 2 of 5 runs.  At 62/s the service is
// about a third busy: the median latency holds steady, while the tail still
// swings with the machine (reported per layer, unbounded).
constexpr double kServeRate = 62.0;  // requests per second

// --- output ------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char buf[64];
      // JSON has no infinity: a metric made infinite by a failed request is
      // written as a huge finite number (the run is reported incorrect).
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 1e300;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      s += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return s + "}";
  }
  void print_table() const {
    for (const Row& r : rows_)
      std::printf("  %-34s %14.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

// Operation accounting: every solve the benchmark runs is one operation.
struct Ops {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::printf("FAILED: %s\n", what.c_str());
  }
};

// Checks every solve.  The first solve of a (method, right-hand side) pair
// fixes its reference iteration count; every later solve of the same system
// must repeat it (reductions run in a fixed order, so counts are
// deterministic).
struct Checker {
  const Workload& w;
  const sparse::CsrMatrix& a;
  std::map<std::pair<std::string, std::size_t>, std::size_t> reference_iters;
  double worst_relres = 0.0;  // over every checked solve, for the log
  double worst_relerr = 0.0;

  // True when the solve result is acceptable; the reason otherwise.
  bool verify(const std::string& method, std::size_t rhs_index,
              const perfbench::Rhs& rhs, bool converged, std::size_t iters,
              std::span<const double> x, std::string* why) {
    if (!converged) {
      *why = "did not converge";
      return false;
    }
    const auto [ref, fresh] =
        reference_iters.try_emplace({method, rhs_index}, iters);
    if (!fresh && ref->second != iters) {
      *why = "iterations " + std::to_string(iters) + " != reference " +
             std::to_string(ref->second);
      return false;
    }
    const perfbench::Check c = perfbench::check_solution(a, rhs, x);
    worst_relres = std::max(worst_relres, c.relres);
    worst_relerr = std::max(worst_relerr, c.relerr);
    if (!(c.relres <= w.max_relres) || !(c.relerr <= w.max_relerr)) {
      *why = "harness check: relres " + std::to_string(c.relres) +
             " relerr " + std::to_string(c.relerr);
      return false;
    }
    return true;
  }

  bool verify(const service::SolveContext& ctx, std::size_t rhs_index,
              const perfbench::Rhs& rhs, std::string* why) {
    if (ctx.state() != service::JobState::kDone) {
      *why = std::string("state ") + service::to_string(ctx.state()) + ": " +
             ctx.error();
      return false;
    }
    return verify(ctx.method(), rhs_index, rhs, ctx.converged(),
                  ctx.stats().iterations, ctx.x(), why);
  }
};

// --- setup -------------------------------------------------------------------

service::SessionConfig session_config() {
  service::SessionConfig cfg;
  cfg.ranks = kRanks;
  cfg.s = kBasisDepth;
  return cfg;
}

// Times Session constructions: the constructor alone, since the matrix copy
// it consumes is made beforehand.  Samples are drawn at the start of the run
// and after every round of the timed phases, so a slow episode of the
// machine moves only some of them (one block of constructions at the start
// let the per-run median move by 30% between runs).
class SetupSampler {
 public:
  SetupSampler(const sparse::CsrMatrix& a, int per_round)
      : a_(a), per_round_(per_round) {}

  std::unique_ptr<service::Session> construct() {
    sparse::CsrMatrix copy = a_;
    const Clock::time_point t0 = Clock::now();
    auto s = std::make_unique<service::Session>(std::move(copy),
                                                session_config());
    seconds_.push_back(seconds_between(t0, Clock::now()));
    return s;
  }
  void between_rounds() {
    for (int k = 0; k < per_round_; ++k) construct();
  }
  double median() const { return perfbench::median(seconds_); }

 private:
  const sparse::CsrMatrix& a_;
  int per_round_;
  std::vector<double> seconds_;
};

// --- closed loop: methods round-robin on the warm session --------------------

struct ClosedLoop {
  std::map<std::string, std::vector<double>> seconds;  // per method
  std::vector<double> all;                             // every request
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::size_t iterations = 0;
};

// One client, methods interleaved round-robin (slow episodes then hit every
// method alike); the n-th round recorded in `out` solves pool[n % size].
// Runs whole rounds while the next one still fits in `budget_s`, and at
// least `min_rounds`, appending to `out`; `setup`, when given, samples
// Session constructions after every round.
void closed_loop(service::Session& session, const Workload& w,
                 const std::vector<std::string>& methods,
                 const std::vector<perfbench::Rhs>& pool, double budget_s,
                 int min_rounds, Checker& checker, Ops& ops, ClosedLoop& out,
                 SetupSampler* setup = nullptr) {
  const krylov::SolverOptions opts = solver_options(w);
  const std::size_t round0 = out.all.size() / methods.size();
  const Clock::time_point t0 = Clock::now();
  double last_round = 0.0;
  for (int round = 0;; ++round) {
    const double elapsed = seconds_between(t0, Clock::now());
    if (round >= min_rounds && elapsed + last_round > budget_s) break;
    const Clock::time_point r0 = Clock::now();
    const std::size_t j =
        (round0 + static_cast<std::size_t>(round)) % pool.size();
    const perfbench::Rhs& rhs = pool[j];
    for (const std::string& m : methods) {
      service::SolveContext ctx(m, rhs.b, opts);
      const Clock::time_point s0 = Clock::now();
      session.solve(ctx);
      const double s = seconds_between(s0, Clock::now());
      std::string why;
      const bool ok = checker.verify(ctx, j, rhs, &why);
      ops.record(ok, m + ": " + why);
      out.seconds[m].push_back(ok ? s : kInf);
      out.all.push_back(ok ? s : kInf);
      out.busy_s += s;
      out.iterations += ctx.stats().iterations;
    }
    if (setup != nullptr) setup->between_rounds();
    last_round = seconds_between(r0, Clock::now());
  }
  out.wall_s += seconds_between(t0, Clock::now());
}

// --- serve: open loop and backlog --------------------------------------------

struct OpenLoop {
  std::vector<double> latency;     // scheduled arrival -> batch return
  std::vector<double> queue_wait;  // submit -> batch start
  std::vector<double> lag;         // submit - scheduled arrival
  std::vector<double> widths;      // batch sizes
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::size_t backlog_end = 0;     // deepest queue when a segment's last
                                   // arrival landed
  std::size_t iterations = 0;
};

// One open-loop segment of `duration_s`, appended to `out`.  `seed` picks the
// segment's Poisson arrival schedule at the frozen rate.
void open_loop(service::Session& session, const Workload& w,
               const std::vector<perfbench::Rhs>& pool, std::uint64_t seed,
               double duration_s, Checker& checker, Ops& ops, OpenLoop& out) {
  Rng rng(seed);
  std::vector<double> due;  // seconds after phase start
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.next_double()) / kServeRate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  const std::size_t n = due.size();
  const krylov::SolverOptions opts = solver_options(w);
  std::vector<std::unique_ptr<service::SolveContext>> ctxs;
  std::unordered_map<const service::SolveContext*, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) {
    ctxs.push_back(std::make_unique<service::SolveContext>(
        kServeMethod, pool[i % pool.size()].b, opts));
    index[ctxs.back().get()] = i;
  }

  std::vector<double> latency(n, kInf);
  std::size_t backlog_end = 0;
  std::vector<Clock::time_point> submitted_at(n);
  service::AdmissionQueue queue;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t submitted = 0;  // guarded by mu

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };
  std::jthread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due_at(i));
      submitted_at[i] = Clock::now();
      queue.submit(ctxs[i].get());
      if (i + 1 == n) backlog_end = queue.pending();
      {
        const std::lock_guard<std::mutex> lock(mu);
        ++submitted;
      }
      cv.notify_one();
    }
  });

  // Service loop: next_batch + solve_batch, so every completion is seen.
  std::size_t popped = 0;
  while (popped < n) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return submitted > popped; });
    }
    const std::vector<service::SolveContext*> batch =
        queue.next_batch(kMaxBatch);
    if (batch.empty()) continue;
    popped += batch.size();
    const Clock::time_point b0 = Clock::now();
    session.solve_batch(batch);
    const Clock::time_point b1 = Clock::now();
    out.busy_s += seconds_between(b0, b1);
    out.widths.push_back(static_cast<double>(batch.size()));
    for (const service::SolveContext* ctx : batch) {
      const std::size_t i = index.at(ctx);
      out.queue_wait.push_back(seconds_between(submitted_at[i], b0));
      out.lag.push_back(seconds_between(due_at(i), submitted_at[i]));
      out.iterations += ctx->stats().iterations;
      std::string why;
      const bool ok = checker.verify(*ctx, i % pool.size(),
                                     pool[i % pool.size()], &why);
      ops.record(ok, "open-loop request " + std::to_string(i) + ": " + why);
      if (ok) latency[i] = seconds_between(due_at(i), b1);
    }
  }
  generator.join();
  out.wall_s += seconds_between(start, Clock::now());
  out.latency.insert(out.latency.end(), latency.begin(), latency.end());
  out.backlog_end = std::max(out.backlog_end, backlog_end);
}

struct Backlog {
  std::vector<double> solves_per_s;
  std::vector<double> widths;
};

// M requests submitted at once, run through Session::drain at full batch
// width; repeated while the next repetition still fits in `budget_s`, and at
// least `min_reps` times, appending to `out`.
void backlog(service::Session& session, const Workload& w,
             const std::vector<perfbench::Rhs>& pool, double budget_s,
             int min_reps, Checker& checker, Ops& ops, SetupSampler& setup,
             Backlog& out) {
  constexpr std::size_t kRequests = 64;
  const krylov::SolverOptions opts = solver_options(w);
  const Clock::time_point t0 = Clock::now();
  double last = 0.0;
  for (int rep = 0;; ++rep) {
    if (rep >= min_reps && seconds_between(t0, Clock::now()) + last > budget_s)
      break;
    const Clock::time_point r0 = Clock::now();
    std::vector<std::unique_ptr<service::SolveContext>> ctxs;
    service::AdmissionQueue queue;
    for (std::size_t i = 0; i < kRequests; ++i) {
      ctxs.push_back(std::make_unique<service::SolveContext>(
          kServeMethod, pool[i % pool.size()].b, opts));
      queue.submit(ctxs.back().get());
    }
    const std::size_t runs0 = session.team_runs();
    const Clock::time_point d0 = Clock::now();
    const std::size_t executed = session.drain(queue, kMaxBatch);
    const double drain_s = seconds_between(d0, Clock::now());
    std::size_t ok_count = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      std::string why;
      const bool ok =
          checker.verify(*ctxs[i], i % pool.size(), pool[i % pool.size()],
                         &why);
      ops.record(ok, "backlog request " + std::to_string(i) + ": " + why);
      ok_count += ok ? 1 : 0;
    }
    out.solves_per_s.push_back(static_cast<double>(ok_count) / drain_s);
    out.widths.push_back(static_cast<double>(executed) /
                         static_cast<double>(session.team_runs() - runs0));
    setup.between_rounds();
    last = seconds_between(r0, Clock::now());
  }
}

// --- traced pass -------------------------------------------------------------

using perfbench::LayerTimes;

// Mean over ranks of one LayerTimes field or accessor.
template <typename Field>
double rank_mean(const std::vector<LayerTimes>& ranks, Field field) {
  double s = 0.0;
  for (const LayerTimes& t : ranks)
    s += static_cast<double>(std::invoke(field, t));
  return s / static_cast<double>(ranks.size());
}

void traced_pass(const Workload& w, const sparse::CsrMatrix& a,
                 const perfbench::Rhs& rhs, Checker& checker, Ops& ops,
                 Metrics& out) {
  const krylov::SolverOptions opts = solver_options(w);

  std::vector<double> dist_s, pc_s, team_s;
  std::unique_ptr<perfbench::RankTeam> team;
  for (int k = 0; k < w.setup_start; ++k) {
    team.reset();
    team = std::make_unique<perfbench::RankTeam>(a, kRanks);
    dist_s.push_back(team->setup_times().dist_s);
    pc_s.push_back(team->setup_times().pc_s);
    team_s.push_back(team->setup_times().team_s);
  }

  // One checked solve; a traced solve must also reproduce `untraced_x`
  // bit for bit.
  auto solve_checked = [&](perfbench::RankTeam& t, const std::string& m,
                           const std::vector<double>* untraced_x) {
    const bool traced = untraced_x != nullptr;
    perfbench::RankTeam::Result r = t.solve(m, rhs.b, opts, traced);
    std::string why;
    bool ok = checker.verify(m, 0, rhs, r.stats.converged, r.stats.iterations,
                             r.x, &why);
    if (ok && traced && r.x != *untraced_x) {
      ok = false;
      why = "iterate differs from the untraced solve";
    }
    ops.record(ok, std::string(traced ? "traced " : "untraced ") + m + " (" +
                       std::to_string(t.ranks()) + " ranks): " + why);
    return r;
  };

  std::vector<std::string> methods = kMethods;
  methods.push_back(kServeMethod);
  std::vector<double> p2_pcg;
  for (const std::string& m : methods) {
    std::vector<double> untraced_wall, traced_wall, spmv_s, pc, post, wait,
        self, gbs;
    perfbench::RankTeam::Result last;
    // Up to trace_rounds pairs, but no new pair once a method has used
    // kMethodCap seconds (unpreconditioned scg-sspmv runs thousands of
    // iterations on ecology2).
    constexpr double kMethodCap = 6.0;
    const Clock::time_point m0 = Clock::now();
    for (int r = 0; r < w.trace_rounds; ++r) {
      if (r > 0 && seconds_between(m0, Clock::now()) > kMethodCap) break;
      const perfbench::RankTeam::Result u = solve_checked(*team, m, nullptr);
      last = solve_checked(*team, m, &u.x);
      const std::vector<LayerTimes>& lt = last.ranks;
      untraced_wall.push_back(rank_mean(u.ranks, &LayerTimes::wall_s));
      traced_wall.push_back(rank_mean(lt, &LayerTimes::wall_s));
      spmv_s.push_back(rank_mean(lt, &LayerTimes::spmv_s));
      pc.push_back(rank_mean(lt, &LayerTimes::pc_s));
      post.push_back(rank_mean(lt, &LayerTimes::dot_post_s));
      wait.push_back(rank_mean(lt, &LayerTimes::allreduce_wait_s));
      self.push_back(rank_mean(lt, &LayerTimes::self_s));
      double g = 0.0;
      for (int k = 0; k < kRanks; ++k) {
        const LayerTimes& t = lt[static_cast<std::size_t>(k)];
        g += static_cast<double>(t.spmv_calls) *
             static_cast<double>(team->spmv_bytes_per_apply(k)) / t.spmv_s *
             1e-9;
      }
      gbs.push_back(g / kRanks);
    }
    if (m == "pcg") p2_pcg = untraced_wall;
    const std::vector<LayerTimes>& lt = last.ranks;
    const std::string k = key(m);
    out.add("sparse.spmv_calls." + k, rank_mean(lt, &LayerTimes::spmv_calls),
            "count");
    out.add("sparse.spmv_s." + k, median(spmv_s), "s");
    out.add("sparse.spmv_gbs." + k, median(gbs), "GB/s");
    if (krylov::solver_uses_preconditioner(m)) {
      out.add("precond.pc_calls." + k, rank_mean(lt, &LayerTimes::pc_calls),
              "count");
      out.add("precond.pc_s." + k, median(pc), "s");
    }
    out.add("par.allreduce_posts." + k,
            rank_mean(lt, &LayerTimes::allreduce_posts), "count");
    out.add("par.dot_post_s." + k, median(post), "s");
    out.add("par.allreduce_wait_s." + k, median(wait), "s");
    out.add("krylov.iterations." + k, rank_mean(lt, &LayerTimes::iterations),
            "count");
    out.add("krylov.self_s." + k, median(self), "s");
    out.add("krylov.vector_bytes." + k,
            rank_mean(lt, &LayerTimes::vector_bytes), "bytes");
    out.add("traced.overhead." + k,
            median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
  }
  out.add("setup.dist_s", median(dist_s), "s");
  out.add("setup.pc_s", median(pc_s), "s");
  out.add("setup.team_s", median(team_s), "s");

  // Plain 1-rank baseline of the same problem.
  team.reset();
  perfbench::RankTeam one(a, 1);
  std::vector<double> p1;
  for (int r = 0; r < w.p1_rounds; ++r)
    p1.push_back(solve_checked(one, "pcg", nullptr).ranks[0].wall_s);
  out.add("par.p1_pcg_s", median(p1), "s");
  out.add("par.p2_speedup_pcg", median(p1) / median(p2_pcg), "ratio");
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = std::stoi(v) != 0;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload w = lookup(args.workload);
  const perfbench::CpuTimes cpu0 = perfbench::read_cpu_times();
  const double load0 = perfbench::load_average();

  const sparse::CsrMatrix a = make_operator(w);
  // Every phase rotates over a seeded pool of systems (request or round j
  // solves pool[j % size]), so a metric is a median over several instances
  // rather than one instance's iteration count.
  std::vector<perfbench::Rhs> pool;
  for (std::uint64_t j = 0; j < (w.serve ? 16u : 4u); ++j)
    pool.push_back(perfbench::make_rhs(a, derive_seed(args.seed, j)));
  const perfbench::Rhs& rhs = pool[0];

  // Same-run bandwidth reference: 2 threads, arrays >= 4x the LLC.
  const std::size_t llc = perfbench::llc_bytes();
  const perfbench::StreamResult stream = perfbench::stream_triad(
      std::max<std::size_t>(4 * llc, std::size_t{64} << 20), 2, 5);

  Checker checker{w, a, {}, 0.0, 0.0};
  Ops ops;
  Metrics e2e;
  Metrics layers;
  bool valid = true;
  std::string invalid_reason;

  SetupSampler setup(a, w.setup_per_round);
  std::unique_ptr<service::Session> session;
  for (int k = 0; k < w.setup_start; ++k) {
    session.reset();
    session = setup.construct();
  }

  obs::metrics::Registry registry;
  obs::anomaly::AlertSink alerts;
  if (w.serve) {
    service::Observability o;
    o.alerts = &alerts;
    o.registry = &registry;
    o.detectors = true;
    session->set_observability(o);
  }

  // Warm-up, untimed: faults in the lazily touched pages.  On serve it also
  // fixes every reference iteration count before the open loop starts.
  {
    const std::vector<std::string> warm =
        w.serve ? kMethods : std::vector<std::string>{kMethods[0]};
    ClosedLoop unused;
    closed_loop(*session, w, warm, pool, 0.0, 1, checker, ops, unused);
    for (std::size_t j = 0; w.serve && j < pool.size(); ++j) {
      service::SolveContext ctx(kServeMethod, pool[j].b, solver_options(w));
      session->solve(ctx);
      std::string why;
      ops.record(checker.verify(ctx, j, pool[j], &why),
                 "warm-up " + kServeMethod + ": " + why);
    }
  }

  const double budget = args.seconds;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              budget, args.trace ? 1 : 0);
  if (!w.serve) {
    ClosedLoop cl;
    closed_loop(*session, w, kMethods, pool, budget, 4, checker, ops, cl,
                &setup);
    e2e.add("setup_s", setup.median(), "s");
    for (const std::string& m : kMethods)
      e2e.add("tts_" + key(m) + "_s", median(cl.seconds.at(m)), "s");
    e2e.add("solves_per_s", static_cast<double>(cl.all.size()) / cl.busy_s,
            "1/s");
    e2e.add("latency_p50_s", quantile(cl.all, 0.50), "s");
    layers.add("service.latency_p90_s", quantile(cl.all, 0.90), "s");
    layers.add("service.latency_p99_s", quantile(cl.all, 0.99), "s");
    layers.add("service.queue_wait_p50_s", 0.0, "s");
    layers.add("service.queue_wait_p99_s", 0.0, "s");
    layers.add("service.batch_width_mean", 1.0, "count");
    layers.add("service.batch_width_backlog", 1.0, "count");
    layers.add("service.busy_share", cl.busy_s / cl.wall_s, "ratio");
    layers.add("service.generator_lag_p99_s", 0.0, "s");
    layers.add("service.backlog_end", 0.0, "count");
    layers.add("krylov.iterations_mean",
               static_cast<double>(cl.iterations) /
                   static_cast<double>(cl.all.size()),
               "count");
    std::printf("closed loop: %zu solves in %.2f s\n", cl.all.size(),
                cl.wall_s);
  } else {
    // The three phases run in kServeCycles interleaved cycles, so every
    // metric draws its samples from the whole run: one solo phase of 2.5 s
    // let a single slow episode of the machine move a run's tts by 15%.
    constexpr int kServeCycles = 5;
    const double cycle = budget / kServeCycles;
    ClosedLoop cl;
    OpenLoop ol;
    Backlog bl;
    for (int c = 0; c < kServeCycles; ++c) {
      closed_loop(*session, w, kMethods, pool, 0.1 * cycle, 4, checker, ops,
                  cl, &setup);
      open_loop(*session, w, pool, derive_seed(args.seed, 0xa881 + c),
                0.65 * cycle, checker, ops, ol);
      backlog(*session, w, pool, 0.25 * cycle, 1, checker, ops, setup, bl);
    }
    e2e.add("setup_s", setup.median(), "s");
    for (const std::string& m : kMethods)
      e2e.add("tts_" + key(m) + "_s", median(cl.seconds.at(m)), "s");
    e2e.add("solves_per_s", median(bl.solves_per_s), "1/s");
    e2e.add("latency_p50_s", quantile(ol.latency, 0.50), "s");
    layers.add("service.latency_p90_s", quantile(ol.latency, 0.90), "s");
    layers.add("service.latency_p99_s", quantile(ol.latency, 0.99), "s");
    layers.add("service.queue_wait_p50_s", quantile(ol.queue_wait, 0.50), "s");
    layers.add("service.queue_wait_p99_s", quantile(ol.queue_wait, 0.99), "s");
    double width = 0.0;
    for (double x : ol.widths) width += x;
    layers.add("service.batch_width_mean",
               width / static_cast<double>(ol.widths.size()), "count");
    layers.add("service.batch_width_backlog", median(bl.widths), "count");
    layers.add("service.busy_share", ol.busy_s / ol.wall_s, "ratio");
    layers.add("service.generator_lag_p99_s", quantile(ol.lag, 0.99), "s");
    layers.add("service.backlog_end", static_cast<double>(ol.backlog_end),
               "count");
    layers.add("krylov.iterations_mean",
               static_cast<double>(ol.iterations) /
                   static_cast<double>(ol.latency.size()),
               "count");
    // A growing backlog means the frozen rate overloaded the service: the
    // run measured a queue, not the service, and is reported invalid.
    if (ol.backlog_end > kMaxBatch) {
      valid = false;
      invalid_reason = "open-loop backlog grew to " +
                       std::to_string(ol.backlog_end) + " requests";
    }
    std::printf(
        "open loop: %zu requests at %.0f/s in %.2f s, %zu beyond p99; "
        "backlog: %zu drains at %.1f..%.1f solves/s\n",
        ol.latency.size(), kServeRate, ol.wall_s,
        ol.latency.size() - static_cast<std::size_t>(
                                0.99 * static_cast<double>(ol.latency.size())),
        bl.solves_per_s.size(),
        *std::min_element(bl.solves_per_s.begin(), bl.solves_per_s.end()),
        *std::max_element(bl.solves_per_s.begin(), bl.solves_per_s.end()));
  }
  layers.add("obs.alerts", static_cast<double>(alerts.emitted()), "count");

  if (args.trace) {
    session.reset();
    traced_pass(w, a, rhs, checker, ops, layers);
  }
  layers.add("mem.stream_gbs", stream.gbs, "GB/s");

  const perfbench::CpuTimes cpu1 = perfbench::read_cpu_times();
  std::printf(
      "context: {\"nproc\": %d, \"llc_bytes\": %zu, \"stream_array_bytes\": "
      "%zu, \"stream_threads\": %d, \"mem.stream_gbs\": %.4f, "
      "\"cpu_steal_share\": %.5f, \"loadavg_start\": %.2f, \"loadavg_end\": "
      "%.2f, \"worst_relres\": %.3g, \"worst_relerr\": %.3g, \"valid\": "
      "%s}\n",
      perfbench::processor_count(), llc, stream.array_bytes, stream.threads,
      stream.gbs, perfbench::steal_share(cpu0, cpu1), load0,
      perfbench::load_average(), checker.worst_relres, checker.worst_relerr,
      valid ? "true" : "false");
  if (!valid) std::printf("INVALID RUN: %s\n", invalid_reason.c_str());
  std::map<std::string, std::size_t> families;
  for (const obs::anomaly::Alert& al : alerts.alerts()) ++families[al.family];
  for (const auto& [family, count] : families)
    std::printf("alerts: %s x%zu\n", family.c_str(), count);

  const Metrics& shown = args.trace ? layers : e2e;
  shown.print_table();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      (valid && ops.failed == 0) ? "true" : "false", ops.attempted, ops.failed,
      shown.json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
