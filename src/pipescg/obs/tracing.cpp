#include "pipescg/obs/tracing.hpp"

#include <atomic>
#include <filesystem>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/chrome_trace.hpp"

namespace pipescg::obs::tracing {

TraceContext new_trace() {
  static std::atomic<std::uint64_t> next{1};
  TraceContext ctx;
  ctx.trace_id = next.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

json::Value merge_trace(const SolveProfile& trace) {
  const std::uint64_t trace_id = trace.context().trace_id;
  ChromeTraceBuilder builder;
  add_profile(builder, trace, /*pid=*/0,
              "request " + std::to_string(trace_id));
  json::Value doc = builder.build();
  doc.set("trace_id", static_cast<double>(trace_id));
  return doc;
}

TraceSink::TraceSink(std::string dir) : dir_(std::move(dir)) {
  PIPESCG_CHECK(!dir_.empty(), "trace sink directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PIPESCG_CHECK(!ec, "cannot create trace directory " + dir_);
}

std::string TraceSink::path_for(std::uint64_t trace_id) const {
  return dir_ + "/trace_" + std::to_string(trace_id) + ".json";
}

std::string TraceSink::write(const SolveProfile& trace) {
  const std::string path = path_for(trace.context().trace_id);
  const json::Value doc = merge_trace(trace);
  std::lock_guard<std::mutex> lock(mu_);
  json::write_file(path, doc);
  ++written_;
  return path;
}

std::size_t TraceSink::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

}  // namespace pipescg::obs::tracing
