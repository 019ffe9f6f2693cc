#include "pipescg/obs/tracing.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/chrome_trace.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::obs::tracing {

TraceContext new_trace() {
  static std::atomic<std::uint64_t> next{1};
  TraceContext ctx;
  ctx.trace_id = next.fetch_add(1, std::memory_order_relaxed);
  return ctx;
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(TraceContext ctx, SpanRing& ring, Clock::time_point base)
    : ctx_(ctx), ring_(ring), epoch_(Clock::now()) {
  ring_.set_clock_offset(
      std::chrono::duration<double>(epoch_ - base).count());
  parents_.push_back(ctx_.parent_span_id);
}

Tracer::Tracer(TraceContext ctx, SpanRing& ring)
    : ctx_(ctx), ring_(ring), epoch_(Clock::now()) {
  parents_.push_back(ctx_.parent_span_id);
}

std::uint64_t Tracer::record(
    std::string name, double start, double end,
    std::vector<std::pair<std::string, double>> args) {
  TraceSpan span;
  span.name = std::move(name);
  span.span_id = ring_.mint();
  span.parent_span_id = current_parent();
  span.start = start;
  span.end = end;
  span.args = std::move(args);
  const std::uint64_t id = span.span_id;
  ring_.push(std::move(span));
  return id;
}

std::uint64_t Tracer::mark(std::string name,
                           std::vector<std::pair<std::string, double>> args) {
  const double t = now();
  return record(std::move(name), t, t, std::move(args));
}

void Tracer::checkpoint(std::uint64_t iteration, double rnorm) {
  const double t = now();
  record("outer_iteration", last_checkpoint_, t,
         {{"iteration", static_cast<double>(iteration)}, {"rnorm", rnorm}});
  last_checkpoint_ = t;
}

// --- TraceScope -------------------------------------------------------------

TraceScope::TraceScope(Tracer* t, std::string name) : t_(t) {
  if (t_ == nullptr) return;
  name_ = std::move(name);
  span_id_ = t_->ring_.mint();
  start_ = t_->now();
  t_->parents_.push_back(span_id_);
  // Checkpoint spans measure time since the previous checkpoint; the first
  // one inside a fresh scope must not reach back before the scope opened
  // (it would escape its parent in the merged trace).
  t_->last_checkpoint_ = start_;
}

TraceScope::~TraceScope() {
  if (t_ == nullptr) return;
  t_->parents_.pop_back();
  TraceSpan span;
  span.name = std::move(name_);
  span.span_id = span_id_;
  span.parent_span_id = t_->current_parent();
  span.start = start_;
  span.end = t_->now();
  t_->ring_.push(std::move(span));
}

// --- RequestTrace -----------------------------------------------------------

RequestTrace::RequestTrace(TraceContext ctx, int ranks, std::size_t capacity,
                           Clock::time_point base)
    : ctx_(ctx), base_(base) {
  PIPESCG_CHECK(ranks >= 1, "RequestTrace needs at least one rank");
  rings_.reserve(static_cast<std::size_t>(ranks) + 1);
  for (int r = 0; r <= ranks; ++r)
    rings_.emplace_back(capacity, static_cast<std::uint64_t>(r));
}

void RequestTrace::add_profile(const SolveProfile& profile,
                               std::span<const std::uint64_t> rank_roots) {
  const int nr = std::min(ranks(), profile.ranks());
  PIPESCG_CHECK(rank_roots.size() >= static_cast<std::size_t>(nr),
                "add_profile needs a root span id per rank");
  for (int r = 0; r < nr; ++r) {
    const Profiler& prof = profile.rank(r);
    SpanRing& ring = rank_ring(r);
    // Profiler span times are relative to the profile epoch; re-express them
    // relative to this ring's clock so the ring's offset aligns them.
    const double prof_offset =
        std::chrono::duration<double>(prof.epoch() - base_).count() -
        ring.clock_offset();
    for (const Span& s : prof.spans()) {
      TraceSpan span;
      span.name = to_string(s.kind);
      span.span_id = ring.mint();
      span.parent_span_id = rank_roots[static_cast<std::size_t>(r)];
      span.start = s.start + prof_offset;
      span.end = s.end + prof_offset;
      ring.push(std::move(span));
    }
  }
}

// --- merge ------------------------------------------------------------------

json::Value merge_trace(const RequestTrace& trace) {
  struct Event {
    int tid;
    double start;  // aligned seconds
    double end;
    const TraceSpan* span;
  };
  std::vector<std::vector<TraceSpan>> ring_spans;
  std::vector<Event> events;
  const int tracks = trace.ranks() + 1;
  ring_spans.reserve(static_cast<std::size_t>(tracks));
  for (int t = 0; t < tracks; ++t) {
    const SpanRing& ring = t < trace.ranks() ? trace.rank_ring(t)
                                             : trace.service_ring();
    ring_spans.push_back(ring.items());
    for (const TraceSpan& s : ring_spans.back()) {
      events.push_back(Event{t, s.start + ring.clock_offset(),
                             s.end + ring.clock_offset(), &s});
    }
  }
  // Deterministic order independent of rank interleaving: span data alone
  // decides the output (span ids break start-time ties per track).
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.start != b.start) return a.start < b.start;
                     return a.span->span_id < b.span->span_id;
                   });

  ChromeTraceBuilder builder;
  const double trace_id = static_cast<double>(trace.context().trace_id);
  builder.name_process(0, "request " +
                              std::to_string(trace.context().trace_id));
  for (int t = 0; t < tracks; ++t)
    builder.name_thread(0, t,
                        t < trace.ranks() ? "rank " + std::to_string(t)
                                          : std::string("service"));
  for (const Event& e : events) {
    json::Value args = json::Value::object();
    args.set("trace_id", trace_id);
    args.set("span_id", static_cast<double>(e.span->span_id));
    args.set("parent_span_id", static_cast<double>(e.span->parent_span_id));
    for (const auto& [key, value] : e.span->args) args.set(key, value);
    builder.add_span(0, e.tid, e.span->name, "request", e.start, e.end,
                     std::move(args));
  }
  json::Value doc = builder.build();
  doc.set("trace_id", trace_id);
  return doc;
}

// --- TraceSink --------------------------------------------------------------

TraceSink::TraceSink(std::string dir) : dir_(std::move(dir)) {
  PIPESCG_CHECK(!dir_.empty(), "trace sink directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PIPESCG_CHECK(!ec, "cannot create trace directory " + dir_);
}

std::string TraceSink::path_for(std::uint64_t trace_id) const {
  return dir_ + "/trace_" + std::to_string(trace_id) + ".json";
}

std::string TraceSink::write(const RequestTrace& trace) {
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
