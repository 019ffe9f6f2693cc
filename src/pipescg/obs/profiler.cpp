#include "pipescg/obs/profiler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "pipescg/base/error.hpp"

namespace pipescg::obs {

namespace {

// Bucket index for a duration: floor(log2(ns)) clamped to [0, kBuckets),
// computed with integer bit-scan so repeated adds are deterministic and
// branch-light.
std::size_t histogram_bucket(double seconds) {
  const double ns = seconds * 1e9;
  if (!(ns >= 1.0)) return 0;  // sub-ns, negative, and NaN all land in 0
  const auto ticks = static_cast<std::uint64_t>(
      std::min(ns, 9.2e18));  // clamp below 2^63 before the cast
  return static_cast<std::size_t>(63 - std::countl_zero(ticks | 1U));
}

}  // namespace

void LatencyHistogram::add(double seconds) {
  ++counts_[histogram_bucket(seconds)];
  if (count_ == 0 || seconds < min_) min_ = seconds;
  if (seconds > max_) max_ = seconds;
  sum_ += seconds;
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  sum_ += other.sum_;
  count_ += other.count_;
}

double LatencyHistogram::bucket_floor_seconds(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i)) * 1e-9;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based: ceil(q * count), at least 1.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (seen + counts_[i] >= rank) {
      // Geometric interpolation inside [2^i, 2^(i+1)) ns.
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(counts_[i]);
      const double est = bucket_floor_seconds(i) * std::exp2(frac);
      // The estimate is a factor-of-2 interpolation; the exact extrema are
      // tracked, so clamp to them (keeps quantile(0)>=min, quantile(1)<=max).
      return std::clamp(est, min_, max_);
    }
    seen += counts_[i];
  }
  return max_;
}

std::uint64_t Profiler::record(const char* name, double start, double end,
                               std::initializer_list<SpanArg> args) {
  return push_named(name, start, end, mint(), {args.begin(), args.size()});
}

std::uint64_t Profiler::push_named(const char* name, double start, double end,
                                   std::uint64_t id,
                                   std::span<const SpanArg> args) {
  PIPESCG_CHECK(args.size() <= Span::kMaxArgs, "too many span args");
  Span span(name, start, end, id, current_parent());
  std::copy(args.begin(), args.end(), span.args.begin());
  push(span);
  return id;
}

std::uint64_t Profiler::mark(const char* name,
                             std::initializer_list<SpanArg> args) {
  const double t = now();
  return record(name, t, t, args);
}

void Profiler::checkpoint(std::uint64_t iteration, double rnorm) {
  const double t = now();
  const double start = last_checkpoint_ < 0.0 ? t : last_checkpoint_;
  last_checkpoint_ = t;
  record("outer_iteration", start, t,
         {{"iteration", static_cast<double>(iteration)}, {"rnorm", rnorm}});
}

SpanScope::SpanScope(Profiler* p, const char* name, double start)
    : p_(p), name_(name), start_(start) {
  if (p_ == nullptr) return;
  span_id_ = p_->mint();
  p_->parents_.push_back(span_id_);
  // Checkpoint spans measure time since the previous checkpoint; the first
  // one inside a fresh scope must not reach back before the scope opened
  // (it would escape its parent in the exported trace).
  p_->last_checkpoint_ = start_;
}

void SpanScope::arg(const char* key, double value) {
  PIPESCG_CHECK(nargs_ < Span::kMaxArgs, "too many span args");
  args_[nargs_++] = SpanArg{key, value};
}

void SpanScope::close() {
  if (name_ == nullptr) {
    p_->record(kind_, start_, p_->now());
    return;
  }
  p_->parents_.pop_back();
  p_->push_named(name_, start_, p_->now(), span_id_, {args_.data(), nargs_});
}

SolveProfile::SolveProfile(int ranks, std::size_t capacity,
                           tracing::TraceContext context,
                           Profiler::Clock::time_point epoch)
    : context_(context),
      service_(ranks, epoch, capacity, context.parent_span_id) {
  profilers_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r)
    profilers_.emplace_back(r, epoch, capacity, context.parent_span_id);
}

SolveProfile::Aggregate SolveProfile::aggregate(SpanKind kind) const {
  Aggregate a;
  std::vector<double> seconds;
  seconds.reserve(profilers_.size());
  for (const Profiler& p : profilers_) {
    const Profiler::KindTotal t = p.total(kind);
    seconds.push_back(t.seconds);
    a.count += t.count;
  }
  if (seconds.empty()) return a;
  std::sort(seconds.begin(), seconds.end());
  a.min = seconds.front();
  a.max = seconds.back();
  a.median = seconds[seconds.size() / 2];
  return a;
}

LatencyHistogram SolveProfile::merged_histogram(SpanKind kind) const {
  LatencyHistogram h;
  for (const Profiler& p : profilers_) h.merge(p.histogram(kind));
  return h;
}

LatencyHistogram SolveProfile::merged_halo_exchange_histogram() const {
  LatencyHistogram h;
  for (const Profiler& p : profilers_) h.merge(p.halo_exchange_histogram());
  return h;
}

bool SolveProfile::counters_uniform() const {
  if (profilers_.empty()) return true;
  const Profiler::Counters& c0 = profilers_.front().counters();
  for (const Profiler& p : profilers_) {
    const Profiler::Counters& c = p.counters();
    // halo_* and spmv_bytes are legitimately rank-dependent (boundary ranks
    // pull fewer ghost runs / own fewer nonzeros) and are not part of the
    // uniformity contract.
    if (c.spmvs != c0.spmvs || c.pc_applies != c0.pc_applies ||
        c.allreduces != c0.allreduces || c.iterations != c0.iterations ||
        c.mpk_blocks != c0.mpk_blocks)
      return false;
  }
  return true;
}

std::string SolveProfile::summary() const {
  std::ostringstream os;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-28s %10s %12s %12s %12s\n", "span",
                "count", "min(s)", "median(s)", "max(s)");
  os << buf;
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    const Aggregate a = aggregate(kind);
    if (a.count == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-28s %10zu %12.3e %12.3e %12.3e\n",
                  to_string(kind), a.count, a.min, a.median, a.max);
    os << buf;
  }
  return os.str();
}

}  // namespace pipescg::obs
