#include "pipescg/obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/solver.hpp"

namespace pipescg::obs::metrics {
namespace {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; label keys are the
// same without ':' (and a "__" prefix is reserved).
bool valid_identifier(const std::string& s, bool colon) {
  auto head = [colon](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           (colon && c == ':');
  };
  if (s.empty() || !head(s[0])) return false;
  for (const char c : s)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

// Escaping per the exposition format: backslash and line feed, plus the
// double quote inside label values (not in HELP text).
void append_escaped(std::string& out, const std::string& v, bool quote) {
  for (const char c : v) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else if (quote && c == '"')
      out += "\\\"";
    else
      out += c;
  }
}

// `{k1="v1",k2="v2"}` (empty string for no labels); also the series sort and
// identity key within a family.
std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    append_escaped(out, labels[i].second, /*quote=*/true);
    out += '"';
  }
  out += '}';
  return out;
}

// Extra labels appended to an already-rendered label set (for histogram
// `le` buckets).
std::string render_labels_with(const Labels& labels, const std::string& key,
                               const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return render_labels(extended);
}

const char* type_name(int t) {
  static constexpr const char* kNames[] = {"counter", "gauge", "histogram"};
  return kNames[t];
}

}  // namespace

void Counter::add(double delta) {
  PIPESCG_CHECK(delta >= 0.0, "metrics: counter add must be non-negative");
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

// One labeled series: exactly one of the three cells is live, fixed by the
// owning family's type.
struct Registry::Series {
  Labels labels;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

struct Registry::Family {
  Type type;
  std::string help;
  // Keyed (and therefore ordered) by the rendered label set.
  std::map<std::string, std::unique_ptr<Series>> series;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Series& Registry::series(const std::string& name,
                                   const std::string& help, Type type,
                                   Labels&& labels) {
  PIPESCG_CHECK(valid_identifier(name, /*colon=*/true),
                "metrics: invalid metric name '" + name + "'");
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    PIPESCG_CHECK(labels[i].first.rfind("__", 0) != 0 &&
                      valid_identifier(labels[i].first, /*colon=*/false),
                  "metrics: invalid label key '" + labels[i].first + "' on '" +
                      name + "'");
    PIPESCG_CHECK(i == 0 || labels[i - 1].first != labels[i].first,
                  "metrics: duplicate label key '" + labels[i].first +
                      "' on '" + name + "'");
  }
  const std::string key = render_labels(labels);

  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, inserted] = families_.try_emplace(name);
  if (inserted) {
    fit->second = std::make_unique<Family>();
    fit->second->type = type;
    fit->second->help = help;
  } else {
    PIPESCG_CHECK(fit->second->type == type,
                  "metrics: '" + name + "' already registered as " +
                      type_name(static_cast<int>(fit->second->type)));
  }
  auto [sit, series_inserted] = fit->second->series.try_emplace(key);
  if (series_inserted) {
    sit->second = std::make_unique<Series>();
    sit->second->labels = std::move(labels);
  }
  return *sit->second;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           Labels labels) {
  return series(name, help, Type::kCounter, std::move(labels)).counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       Labels labels) {
  return series(name, help, Type::kGauge, std::move(labels)).gauge;
}

Histogram& Registry::histogram(const std::string& name, const std::string& help,
                               Labels labels) {
  return series(name, help, Type::kHistogram, std::move(labels)).histogram;
}

std::string Registry::prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " ";
    append_escaped(out, family->help, /*quote=*/false);
    out += "\n# TYPE " + name + " ";
    out += type_name(static_cast<int>(family->type));
    out += '\n';
    for (const auto& [label_key, s] : family->series) {
      switch (family->type) {
        case Type::kCounter:
        case Type::kGauge:
          out += name + label_key + " " +
                 json::number_to_string(family->type == Type::kCounter
                                            ? s->counter.value()
                                            : s->gauge.value()) +
                 "\n";
          break;
        case Type::kHistogram: {
          // Cumulative buckets, non-empty ones only (64 log2 buckets per
          // series would dominate the exposition), closed by +Inf.
          const LatencyHistogram h = s->histogram.snapshot();
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
            const std::uint64_t b = h.bucket(i);
            if (b == 0) continue;
            cumulative += b;
            out += name + "_bucket" +
                   render_labels_with(
                       s->labels, "le",
                       json::number_to_string(
                           LatencyHistogram::bucket_floor_seconds(i + 1))) +
                   " " + std::to_string(cumulative) + "\n";
          }
          out += name + "_bucket" +
                 render_labels_with(s->labels, "le", "+Inf") + " " +
                 std::to_string(h.count()) + "\n";
          out += name + "_sum" + label_key + " " +
                 json::number_to_string(h.sum_seconds()) + "\n";
          out += name + "_count" + label_key + " " +
                 std::to_string(h.count()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

json::Value Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value doc = json::Value::object();
  for (const auto& [name, family] : families_) {
    json::Value fam = json::Value::object();
    fam.set("type", type_name(static_cast<int>(family->type)));
    fam.set("help", family->help);
    json::Value series_arr = json::Value::array();
    for (const auto& [label_key, s] : family->series) {
      json::Value entry = json::Value::object();
      json::Value labels = json::Value::object();
      for (const auto& [k, v] : s->labels) labels.set(k, v);
      entry.set("labels", std::move(labels));
      switch (family->type) {
        case Type::kCounter:
        case Type::kGauge:
          entry.set("value", family->type == Type::kCounter
                                 ? s->counter.value()
                                 : s->gauge.value());
          break;
        case Type::kHistogram: {
          const LatencyHistogram h = s->histogram.snapshot();
          entry.set("count", h.count());
          entry.set("sum_seconds", h.sum_seconds());
          entry.set("p50_seconds", h.quantile(0.50));
          entry.set("p95_seconds", h.quantile(0.95));
          entry.set("p99_seconds", h.quantile(0.99));
          break;
        }
      }
      series_arr.push_back(std::move(entry));
    }
    fam.set("series", std::move(series_arr));
    doc.set(name, std::move(fam));
  }
  return doc;
}

void Registry::write_textfile(const std::string& path) const {
  const std::string text = prometheus();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    PIPESCG_CHECK(out.good(), "metrics: cannot open '" + tmp + "' for writing");
    out << text;
    out.close();
    PIPESCG_CHECK(out.good(), "metrics: error writing '" + tmp + "'");
  }
  PIPESCG_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
                "metrics: cannot rename '" + tmp + "' to '" + path + "'");
}

// --- sampler ----------------------------------------------------------------

MetricsSampler::MetricsSampler(const Registry& registry, std::string path,
                               double period_ms)
    : registry_(registry), path_(std::move(path)), period_ms_(period_ms) {
  PIPESCG_CHECK(period_ms_ > 0.0, "metrics: sampler period must be positive");
}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void MetricsSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void MetricsSampler::flush() {
  // A monitoring tick must never take down the solve it watches; a full
  // disk or vanished directory degrades to a missed sample.
  try {
    registry_.write_textfile(path_);
    samples_.fetch_add(1, std::memory_order_relaxed);
  } catch (const Error&) {
  }
}

void MetricsSampler::run() {
  const auto period = std::chrono::duration<double, std::milli>(period_ms_);
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, period, [this] { return stopping_; })) {
    lock.unlock();
    flush();
    lock.lock();
  }
  lock.unlock();
  flush();  // final flush: the file ends reflecting the completed state
}

// --- bridges ----------------------------------------------------------------

namespace {

Labels with(const Labels& base, std::initializer_list<Labels::value_type> add) {
  Labels out = base;
  out.insert(out.end(), add.begin(), add.end());
  return out;
}

}  // namespace

void register_stats(Registry& registry, const krylov::SolveStats& stats,
                    const Labels& base) {
  registry.gauge("pipescg_solve_iterations",
                 "CG-equivalent iterations of the completed solve", base)
      .set(static_cast<double>(stats.iterations));
  registry.gauge("pipescg_solve_converged",
                 "1 when the solve reached its tolerance", base)
      .set(stats.converged ? 1.0 : 0.0);
  registry.gauge("pipescg_solve_stagnated",
                 "1 when the residual stalled before the tolerance", base)
      .set(stats.stagnated ? 1.0 : 0.0);
  registry.gauge("pipescg_solve_breakdown",
                 "1 on scalar-work breakdown (singular s x s system)", base)
      .set(stats.breakdown ? 1.0 : 0.0);
  registry.gauge("pipescg_solve_final_rnorm",
                 "final residual norm in the convergence-test flavor", base)
      .set(stats.final_rnorm);
  registry.gauge("pipescg_solve_b_norm", "right-hand-side norm", base)
      .set(stats.b_norm);
  registry.gauge("pipescg_solve_final_s",
                 "s-step block size the solver finished with (0 when the "
                 "method has no s parameter)",
                 base)
      .set(static_cast<double>(stats.final_s));
  registry.gauge("pipescg_solve_recoveries",
                 "fault-recovery rollback-restarts during the solve", base)
      .set(static_cast<double>(stats.recoveries));
  registry.gauge("pipescg_solve_replacements",
                 "residual replacements performed (scheduled, verified-"
                 "acceptance and gap-triggered)",
                 base)
      .set(static_cast<double>(stats.replacements));
  registry.gauge("pipescg_solve_gram_breakdowns",
                 "soft-failed near-singular Gram (scalar-work) solves", base)
      .set(static_cast<double>(stats.gram_breakdowns));
  // Residual-gap monitor family (SolverOptions::gap_tol): -1 = the monitor
  // never performed a check (off, or the solve finished before the first
  // check was due).
  registry.gauge("pipescg_residual_gap",
                 "relative recurred-vs-true residual gap at the last check",
                 base)
      .set(stats.last_residual_gap);
  registry.gauge("pipescg_residual_gap_max",
                 "largest relative residual gap observed during the solve",
                 base)
      .set(stats.max_residual_gap);
  registry.gauge("pipescg_residual_gap_checks",
                 "gap checks the monitor performed", base)
      .set(static_cast<double>(stats.gap_checks));
  registry.gauge("pipescg_residual_gap_failed_replacements",
                 "gap-triggered replacements that did not close the gap",
                 base)
      .set(static_cast<double>(stats.failed_replacements));
}

void register_profile(Registry& registry, const SolveProfile& profile,
                      const Labels& base) {
  registry.gauge("pipescg_ranks", "SPMD ranks of the measured solve", base)
      .set(static_cast<double>(profile.ranks()));
  registry.gauge("pipescg_counters_uniform",
                 "1 when every rank recorded identical kernel counters "
                 "(SolveProfile::counters_uniform)",
                 base)
      .set(profile.counters_uniform() ? 1.0 : 0.0);

  double total_bytes = 0.0;
  double max_spmv_seconds = 0.0;
  for (int r = 0; r < profile.ranks(); ++r) {
    const Profiler& p = profile.rank(r);
    const Labels rank_labels = with(base, {{"rank", std::to_string(r)}});
    const Profiler::Counters& c = p.counters();
    const std::pair<const char*, std::size_t> counters[] = {
        {"pipescg_spmvs_total", c.spmvs},
        {"pipescg_pc_applies_total", c.pc_applies},
        {"pipescg_allreduces_total", c.allreduces},
        {"pipescg_iterations_total", c.iterations},
        {"pipescg_mpk_blocks_total", c.mpk_blocks},
        {"pipescg_recoveries_total", c.recoveries},
        {"pipescg_halo_epochs_total", c.halo_epochs},
        {"pipescg_halo_messages_total", c.halo_messages},
        {"pipescg_halo_volume_doubles_total", c.halo_volume_doubles},
        {"pipescg_spmv_bytes_total", c.spmv_bytes},
    };
    for (const auto& [name, value] : counters)
      registry.counter(name, "per-rank kernel counter (obs::Profiler)",
                       rank_labels)
          .add(static_cast<double>(value));

    for (std::size_t k = 0; k < kSpanKindCount; ++k) {
      const SpanKind kind = static_cast<SpanKind>(k);
      const Profiler::KindTotal t = p.total(kind);
      const Labels span_labels =
          with(rank_labels, {{"span_kind", to_string(kind)}});
      registry.counter("pipescg_span_seconds_total",
                       "measured seconds accumulated per span kind per rank",
                       span_labels)
          .add(t.seconds);
      registry.counter("pipescg_span_count_total",
                       "measured spans recorded per span kind per rank",
                       span_labels)
          .add(static_cast<double>(t.count));
    }

    // Measured kernel throughput from bytes moved (operator shape, counted
    // by DistCsr/MatrixPowers) over measured local-SPMV seconds.
    const Profiler::KindTotal spmv = p.total(SpanKind::kSpmvLocal);
    total_bytes += static_cast<double>(c.spmv_bytes);
    max_spmv_seconds = std::max(max_spmv_seconds, spmv.seconds);
    registry.gauge("pipescg_spmv_throughput_bytes_per_second",
                   "measured local-SPMV memory throughput: bytes moved "
                   "(from operator shape) / measured spmv_local seconds",
                   rank_labels)
        .set(spmv.seconds > 0.0 ? static_cast<double>(c.spmv_bytes) /
                                      spmv.seconds
                                : 0.0);
  }
  registry.gauge("pipescg_spmv_throughput_bytes_per_second",
                 "measured local-SPMV memory throughput: bytes moved "
                 "(from operator shape) / measured spmv_local seconds",
                 with(base, {{"rank", "all"}}))
      .set(max_spmv_seconds > 0.0 ? total_bytes / max_spmv_seconds : 0.0);

  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    registry
        .histogram("pipescg_span_latency_seconds",
                   "cross-rank latency distribution per span kind",
                   with(base, {{"span_kind", to_string(kind)}}))
        .merge_from(profile.merged_histogram(kind));
  }
  registry
      .histogram("pipescg_span_latency_seconds",
                 "cross-rank latency distribution per span kind",
                 with(base, {{"span_kind", "halo_exchange"}}))
      .merge_from(profile.merged_halo_exchange_histogram());
}

void register_fault(Registry& registry, std::size_t injected_faults,
                    std::size_t recoveries, std::size_t watchdog_trips,
                    const Labels& base) {
  registry.counter("pipescg_fault_injected_total",
                   "deterministic faults fired by the --fault-spec injector",
                   base)
      .add(static_cast<double>(injected_faults));
  registry.counter("pipescg_fault_recoveries_total",
                   "rollback-restart recoveries performed by the drivers",
                   base)
      .add(static_cast<double>(recoveries));
  registry.counter("pipescg_watchdog_trips_total",
                   "comm-watchdog timeouts thrown (par::CommTimeout)", base)
      .add(static_cast<double>(watchdog_trips));
}

void register_session(Registry& registry, const SessionSnapshot& snapshot,
                      const Labels& base) {
  const auto with_kind = [&](const char* kind) {
    Labels labels = base;
    labels.emplace_back("kind", kind);
    return labels;
  };
  const char* build_help =
      "expensive per-operator builds the session performed (cold setup "
      "only; warm solves must not move these)";
  registry.counter("pipescg_session_setup_builds_total", build_help,
                   with_kind("partition"))
      .add(static_cast<double>(snapshot.partition_builds));
  registry.counter("pipescg_session_setup_builds_total", build_help,
                   with_kind("dist"))
      .add(static_cast<double>(snapshot.dist_builds));
  registry.counter("pipescg_session_setup_builds_total", build_help,
                   with_kind("mpk"))
      .add(static_cast<double>(snapshot.mpk_builds));
  registry.counter("pipescg_session_setup_builds_total", build_help,
                   with_kind("pc"))
      .add(static_cast<double>(snapshot.pc_builds));
  registry.counter("pipescg_session_setup_builds_total", build_help,
                   with_kind("team"))
      .add(static_cast<double>(snapshot.team_spawns));
  registry.gauge("pipescg_session_ranks",
                 "persistent rank-team size of the session", base)
      .set(static_cast<double>(snapshot.ranks));
  registry.gauge("pipescg_session_setup_seconds",
                 "wall cost of the session's one-time cold setup", base)
      .set(snapshot.setup_seconds);
  registry.counter("pipescg_session_solves_total",
                   "jobs the session completed (single + batched columns)",
                   base)
      .add(static_cast<double>(snapshot.solves));
  registry.counter("pipescg_session_warm_hits_total",
                   "solves served entirely from the cached operator state",
                   base)
      .add(static_cast<double>(snapshot.warm_hits));
  registry.counter("pipescg_session_team_runs_total",
                   "bodies executed on the persistent rank team", base)
      .add(static_cast<double>(snapshot.team_runs));
  registry.counter("pipescg_session_expired_total",
                   "jobs dropped because their deadline passed before "
                   "execution (or between resumed chunks)",
                   base)
      .add(static_cast<double>(snapshot.expired));
  if (snapshot.solve_latency)
    registry
        .histogram("pipescg_session_solve_latency_seconds",
                   "wall-clock latency of completed solves", base)
        .merge_from(*snapshot.solve_latency);
  if (snapshot.queue_latency)
    registry
        .histogram("pipescg_session_queue_wait_seconds",
                   "admission wait (submit to execution start) of drained "
                   "jobs",
                   base)
        .merge_from(*snapshot.queue_latency);
}

// --- live solve monitoring --------------------------------------------------

LiveSolve::LiveSolve(Registry& registry, const Labels& base)
    : iteration_(registry.gauge("pipescg_live_iteration",
                                "CG-equivalent iteration of the most recent "
                                "driver checkpoint",
                                base)),
      rnorm_(registry.gauge("pipescg_live_rnorm",
                            "residual norm at the most recent checkpoint",
                            base)),
      s_(registry.gauge("pipescg_live_s",
                        "current s-step block size (degrades under recovery)",
                        base)),
      recoveries_(registry.gauge("pipescg_live_recoveries",
                                 "fault recoveries so far in the running solve",
                                 base)),
      gap_(registry.gauge("pipescg_residual_gap",
                          "relative recurred-vs-true residual gap at the "
                          "last check",
                          base)),
      checkpoints_(registry.counter("pipescg_live_checkpoints_total",
                                    "driver checkpoints observed", base)) {
  gap_.set(-1.0);  // "no check yet" sentinel, matching SolveStats
}

void LiveSolve::checkpoint(std::uint64_t iteration, double rnorm, int s,
                           std::uint64_t recoveries, double gap) {
  iteration_.set(static_cast<double>(iteration));
  rnorm_.set(rnorm);
  s_.set(static_cast<double>(s));
  recoveries_.set(static_cast<double>(recoveries));
  if (gap >= 0.0) gap_.set(gap);
  checkpoints_.inc();
}

}  // namespace pipescg::obs::metrics
