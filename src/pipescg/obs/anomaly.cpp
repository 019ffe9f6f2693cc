#include "pipescg/obs/anomaly.hpp"

#include <cmath>
#include <fstream>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::obs::anomaly {

// --- AlertSink --------------------------------------------------------------

AlertSink::AlertSink(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  // Truncate at construction so one run's stream is self-contained; emits
  // then append.
  std::ofstream os(path_, std::ios::binary | std::ios::trunc);
  PIPESCG_CHECK(os.good(), "cannot open alerts output file " + path_);
}

std::string AlertSink::to_json_line(const Alert& alert) {
  json::Value v = json::Value::object();
  v.set("family", alert.family);
  v.set("severity", alert.severity);
  v.set("message", alert.message);
  v.set("trace_id", alert.trace_id);
  v.set("rank", alert.rank);
  v.set("iteration", alert.iteration);
  v.set("value", alert.value);
  v.set("threshold", alert.threshold);
  return v.dump(-1);
}

void AlertSink::emit(const Alert& alert) {
  std::lock_guard<std::mutex> lock(mu_);
  alerts_.push_back(alert);
  if (path_.empty()) return;
  std::ofstream os(path_, std::ios::binary | std::ios::app);
  PIPESCG_CHECK(os.good(), "cannot append to alerts output file " + path_);
  os << to_json_line(alert) << '\n';
  os.flush();
}

std::size_t AlertSink::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_.size();
}

std::vector<Alert> AlertSink::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

std::vector<Alert> AlertSink::parse_jsonl(std::string_view text) {
  std::vector<Alert> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const json::Value v = json::parse(line);
    Alert a;
    a.family = v.at("family").as_string();
    a.severity = v.at("severity").as_string();
    a.message = v.at("message").as_string();
    a.trace_id = static_cast<std::uint64_t>(v.at("trace_id").as_number());
    a.rank = static_cast<int>(v.at("rank").as_number());
    a.iteration = static_cast<std::uint64_t>(v.at("iteration").as_number());
    a.value = v.at("value").as_number();
    a.threshold = v.at("threshold").as_number();
    out.push_back(std::move(a));
  }
  return out;
}

// --- StragglerDetector ------------------------------------------------------

StragglerDetector::StragglerDetector(int ranks, StragglerConfig config)
    : config_(config), cum_(static_cast<std::size_t>(ranks)),
      fired_(static_cast<std::size_t>(ranks), false) {
  PIPESCG_CHECK(ranks >= 2, "straggler detection needs at least two ranks");
  PIPESCG_CHECK(config_.window >= 1, "straggler window must be >= 1");
}

void StragglerDetector::publish(int rank, double cum_wait_seconds) {
  cum_[static_cast<std::size_t>(rank)].v.store(cum_wait_seconds,
                                               std::memory_order_relaxed);
}

std::optional<Alert> StragglerDetector::evaluate(std::uint64_t iteration) {
  const std::size_t p = cum_.size();
  std::vector<double> cur(p);
  for (std::size_t r = 0; r < p; ++r)
    cur[r] = cum_[r].v.load(std::memory_order_relaxed);
  history_.push_back(cur);
  if (history_.size() > config_.window + 1) history_.pop_front();
  if (history_.size() < 2) return std::nullopt;

  // Wait accumulated per rank over the trailing window.
  const std::vector<double>& base = history_.front();
  std::vector<double> delta(p);
  double mean = 0.0;
  double max_wait = 0.0;
  for (std::size_t r = 0; r < p; ++r) {
    delta[r] = cur[r] - base[r];
    if (delta[r] < 0.0) delta[r] = 0.0;
    mean += delta[r];
    max_wait = std::max(max_wait, delta[r]);
  }
  mean /= static_cast<double>(p);
  if (mean < config_.min_mean_seconds) {
    streak_rank_ = -1;
    streak_ = 0;
    return std::nullopt;
  }
  double var = 0.0;
  for (std::size_t r = 0; r < p; ++r)
    var += (delta[r] - mean) * (delta[r] - mean);
  const double sd = std::sqrt(var / static_cast<double>(p));
  if (sd <= 0.0) {
    streak_rank_ = -1;
    streak_ = 0;
    return std::nullopt;
  }
  // The straggler is the rank whose wait is anomalously LOW: everyone else
  // spins waiting for its late contributions, so ITS waits collapse.
  std::size_t rmin = 0;
  for (std::size_t r = 1; r < p; ++r)
    if (delta[r] < delta[rmin]) rmin = r;
  const double z = (delta[rmin] - mean) / sd;
  const bool suspect = z <= -config_.z_threshold &&
                       delta[rmin] <= config_.dominance * max_wait;
  if (!suspect) {
    streak_rank_ = -1;
    streak_ = 0;
    return std::nullopt;
  }
  if (static_cast<int>(rmin) == streak_rank_) {
    ++streak_;
  } else {
    streak_rank_ = static_cast<int>(rmin);
    streak_ = 1;
  }
  if (streak_ < config_.consecutive || fired_[rmin]) return std::nullopt;
  fired_[rmin] = true;
  Alert alert;
  alert.family = "straggler";
  alert.severity = "warning";
  alert.message = "rank " + std::to_string(rmin) +
                  " is straggling: its exposed wait is " +
                  std::to_string(z) + " sigma below the rank mean over the "
                  "trailing window (peers are spinning on its "
                  "contributions)";
  alert.rank = static_cast<int>(rmin);
  alert.iteration = iteration;
  alert.value = z;
  alert.threshold = -config_.z_threshold;
  return alert;
}

// --- StallDetector ----------------------------------------------------------

StallDetector::StallDetector(StallConfig config) : config_(config) {
  PIPESCG_CHECK(config_.window >= 2, "stall window must be >= 2");
}

std::optional<Alert> StallDetector::feed(std::uint64_t iteration,
                                         double rnorm, std::size_t column) {
  if (column >= windows_.size()) windows_.resize(column + 1);
  std::deque<double>& window = windows_[column];
  if (!std::isfinite(rnorm) || rnorm <= 0.0) {
    window.clear();
    return std::nullopt;
  }
  window.push_back(rnorm);
  if (window.size() > config_.window) window.pop_front();
  if (window.size() < config_.window) return std::nullopt;
  const double start = window.front();
  const double ratio = rnorm / start;
  // Runaway growth is divergence -- the drivers' own detector owns it.
  if (ratio > config_.divergence_factor) return std::nullopt;
  if (ratio < 1.0 - config_.min_improvement) return std::nullopt;
  window.clear();  // re-arm only after a fresh full window
  Alert alert;
  alert.family = "convergence_stall";
  alert.severity = "warning";
  alert.message = "residual norm plateaued: " + std::to_string(ratio) +
                  "x over the last " + std::to_string(config_.window) +
                  " checkpoints (not diverging, just not converging)";
  alert.iteration = iteration;
  alert.value = ratio;
  alert.threshold = 1.0 - config_.min_improvement;
  return alert;
}

// --- QueuePressureMonitor ---------------------------------------------------

QueuePressureMonitor::QueuePressureMonitor(QueuePressureConfig config)
    : config_(config) {}

std::optional<Alert> QueuePressureMonitor::on_depth(std::size_t depth) {
  if (depth < config_.depth_threshold) {
    saturated_ = false;
    return std::nullopt;
  }
  if (saturated_) return std::nullopt;  // rising edge only
  saturated_ = true;
  Alert alert;
  alert.family = "queue_saturation";
  alert.severity = "warning";
  alert.message = "admission queue depth " + std::to_string(depth) +
                  " reached the saturation threshold";
  alert.value = static_cast<double>(depth);
  alert.threshold = static_cast<double>(config_.depth_threshold);
  return alert;
}

std::optional<Alert> QueuePressureMonitor::on_dispatch(
    double headroom_seconds, double p95_solve_seconds, bool expired,
    std::uint64_t trace_id) {
  const double needed = config_.headroom_factor * p95_solve_seconds;
  if (!expired && headroom_seconds >= needed) return std::nullopt;
  Alert alert;
  alert.family = "deadline_pressure";
  alert.severity = expired ? "critical" : "warning";
  alert.message =
      expired ? "deadline expired before execution could start"
              : "deadline headroom " + std::to_string(headroom_seconds) +
                    "s is below the observed p95 solve latency";
  alert.trace_id = trace_id;
  alert.value = headroom_seconds;
  alert.threshold = needed;
  return alert;
}

// --- MidSolveProbe ----------------------------------------------------------

void MidSolveProbe::on_checkpoint(std::uint64_t iteration, double rnorm,
                                  std::size_t column) {
  if (shared_ == nullptr) return;
  if (StragglerDetector* det = shared_->straggler) {
    if (const Profiler* prof = Profiler::current()) {
      const double wait =
          prof->total(SpanKind::kAllreduceWaitBlocking).seconds +
          prof->total(SpanKind::kAllreduceWaitNonblocking).seconds +
          prof->total(SpanKind::kHaloExpose).seconds +
          prof->total(SpanKind::kHaloPeerRead).seconds +
          prof->total(SpanKind::kHaloClose).seconds;
      det->publish(rank_, wait);
    }
    if (rank_ == 0) {
      if (std::optional<Alert> alert = det->evaluate(iteration))
        emit(std::move(*alert));
    }
  }
  if (rank_ == 0 && shared_->stall != nullptr) {
    if (std::optional<Alert> alert =
            shared_->stall->feed(iteration, rnorm, column))
      emit(std::move(*alert));
  }
}

void MidSolveProbe::emit(Alert alert) {
  if (alert.trace_id == 0) alert.trace_id = shared_->trace_id;
  if (shared_->sink != nullptr) shared_->sink->emit(alert);
  if (shared_->on_alert != nullptr)
    shared_->on_alert(shared_->on_alert_arg, alert);
}

}  // namespace pipescg::obs::anomaly
