#include "pipescg/obs/chrome_trace.hpp"

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
  builder.name_process(pid, process_name);
  for (int r = 0; r < profile.ranks(); ++r) {
    builder.name_thread(pid, r, "rank " + std::to_string(r));
    for (const Span& s : profile.rank(r).spans())
      builder.add_span(pid, r, to_string(s.kind), "measured", s.start, s.end);
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
