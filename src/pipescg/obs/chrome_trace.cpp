#include "pipescg/obs/chrome_trace.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace pipescg::obs {
namespace {

json::Value metadata_event(int pid, int tid, const std::string& kind,
                           const std::string& name) {
  json::Value e = json::Value::object();
  e.set("ph", "M");
  e.set("name", kind);
  e.set("pid", pid);
  e.set("tid", tid);
  json::Value args = json::Value::object();
  args.set("name", name);
  e.set("args", std::move(args));
  return e;
}

}  // namespace

ChromeTraceBuilder::ChromeTraceBuilder() {
  doc_ = json::Value::object();
  doc_.set("traceEvents", json::Value::array());
  doc_.set("displayTimeUnit", "ms");
}

json::Value* ChromeTraceBuilder::events() { return &doc_.at("traceEvents"); }

void ChromeTraceBuilder::name_process(int pid, const std::string& name) {
  events()->push_back(metadata_event(pid, 0, "process_name", name));
}

void ChromeTraceBuilder::name_thread(int pid, int tid,
                                     const std::string& name) {
  events()->push_back(metadata_event(pid, tid, "thread_name", name));
}

void ChromeTraceBuilder::add_span(int pid, int tid, const std::string& name,
                                  const std::string& category,
                                  double start_seconds, double end_seconds,
                                  json::Value args) {
  json::Value e = json::Value::object();
  e.set("ph", "X");
  e.set("name", name);
  e.set("cat", category);
  e.set("pid", pid);
  e.set("tid", tid);
  e.set("ts", start_seconds * 1e6);  // microseconds
  e.set("dur", (end_seconds - start_seconds) * 1e6);
  if (!args.is_null()) e.set("args", std::move(args));
  events()->push_back(std::move(e));
}

void add_profile(ChromeTraceBuilder& builder, const SolveProfile& profile,
                 int pid, const std::string& process_name) {
  const tracing::TraceContext& ctx = profile.context();
  const int ranks = profile.ranks();
  const int tracks = ranks + (profile.service().ring().size() > 0 ? 1 : 0);
  builder.name_process(pid, process_name);
  for (int t = 0; t < tracks; ++t)
    builder.name_thread(pid, t, t < ranks ? "rank " + std::to_string(t)
                                          : std::string("service"));
  for (int t = 0; t < tracks; ++t) {
    std::vector<Span> spans =
        (t < ranks ? profile.rank(t) : profile.service()).spans();
    // Deterministic order independent of rank interleaving: span data alone
    // decides the output (span ids break start-time ties).
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       return a.start != b.start ? a.start < b.start
                                                 : a.span_id < b.span_id;
                     });
    for (const Span& s : spans) {
      json::Value args = json::Value::object();
      if (ctx.valid()) {
        args.set("trace_id", static_cast<double>(ctx.trace_id));
        args.set("span_id", static_cast<double>(s.span_id));
        args.set("parent_span_id", static_cast<double>(s.parent_span_id));
      }
      for (const SpanArg& a : s.args)
        if (a.key != nullptr) args.set(a.key, a.value);
      builder.add_span(pid, t, s.name, ctx.valid() ? "request" : "measured",
                       s.start, s.end,
                       args.size() > 0 ? std::move(args) : json::Value());
    }
  }
}

void add_schedule(ChromeTraceBuilder& builder,
                  std::span<const sim::ScheduledSpan> schedule, int pid,
                  const std::string& process_name) {
  builder.name_process(pid, process_name);
  builder.name_thread(pid, 0, "rank (modeled)");
  builder.name_thread(pid, 1, "network (allreduces)");
  for (const sim::ScheduledSpan& s : schedule) {
    const bool network = s.kind == sim::ScheduledSpan::Kind::kAllreduce;
    std::string name = to_string(s.kind);
    if (network || s.kind == sim::ScheduledSpan::Kind::kAllreduceWait)
      name += s.blocking ? " (blocking)" : " (non-blocking)";
    builder.add_span(pid, network ? 1 : 0, name, "modeled", s.start, s.end);
  }
}

}  // namespace pipescg::obs
