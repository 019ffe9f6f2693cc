#include "pipescg/obs/telemetry.hpp"

#include <fstream>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::obs {

void checkpoint(const Checkpoint& cp) {
  if (Profiler* prof = Profiler::current())
    prof->checkpoint(cp.iteration, cp.rnorm);
  if (anomaly::MidSolveProbe* probe = anomaly::MidSolveProbe::current())
    probe->on_checkpoint(cp.iteration, cp.rnorm, cp.column);
  if (metrics::LiveSolve* live = metrics::LiveSolve::current())
    live->checkpoint(cp.iteration, cp.rnorm, cp.s, cp.recoveries, cp.gap);
  ConvergenceTelemetry* sink = ConvergenceTelemetry::current();
  if (sink == nullptr) return;
  TelemetryRecord rec;
  rec.iteration = cp.iteration;
  rec.rnorm = cp.rnorm;
  rec.norm_flavor = std::string(cp.norm_flavor);
  rec.s = cp.s;
  rec.recoveries = cp.recoveries;
  rec.alpha.assign(cp.alpha.begin(), cp.alpha.end());
  rec.beta_fro = cp.beta_fro;
  rec.true_rnorm = cp.true_rnorm;
  rec.gap = cp.gap;
  sink->record(std::move(rec));
}

std::string ConvergenceTelemetry::to_jsonl() const {
  std::string out;
  for (const TelemetryRecord& rec : records()) {
    json::Value v = json::Value::object();
    if (!method_.empty()) v.set("method", method_);
    v.set("iter", rec.iteration);
    v.set("rnorm", rec.rnorm);
    v.set("norm", rec.norm_flavor);
    v.set("s", rec.s);
    v.set("recoveries", rec.recoveries);
    json::Value alpha = json::Value::array();
    for (double a : rec.alpha) alpha.push_back(a);
    v.set("alpha", std::move(alpha));
    v.set("beta_fro", rec.beta_fro);
    if (rec.gap >= 0.0) {
      v.set("true_rnorm", rec.true_rnorm);
      v.set("gap", rec.gap);
    }
    out += v.dump(-1);
    out += '\n';
  }
  return out;
}

void ConvergenceTelemetry::write_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  PIPESCG_CHECK(os.good(), "cannot open telemetry output file");
  os << to_jsonl();
  PIPESCG_CHECK(os.good(), "telemetry write failed");
}

std::vector<TelemetryRecord> ConvergenceTelemetry::parse_jsonl(
    std::string_view text) {
  std::vector<TelemetryRecord> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    const json::Value v = json::parse(line);
    TelemetryRecord rec;
    rec.iteration = static_cast<std::uint64_t>(v.at("iter").as_number());
    rec.rnorm = v.at("rnorm").as_number();
    rec.norm_flavor = v.at("norm").as_string();
    rec.s = static_cast<int>(v.at("s").as_number());
    rec.recoveries =
        static_cast<std::uint64_t>(v.at("recoveries").as_number());
    const json::Value& alpha = v.at("alpha");
    for (std::size_t i = 0; i < alpha.size(); ++i)
      rec.alpha.push_back(alpha.at(i).as_number());
    rec.beta_fro = v.at("beta_fro").as_number();
    if (v.contains("gap")) {
      rec.true_rnorm = v.at("true_rnorm").as_number();
      rec.gap = v.at("gap").as_number();
    }
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace pipescg::obs
