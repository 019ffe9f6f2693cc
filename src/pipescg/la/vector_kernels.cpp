#include "pipescg/la/vector_kernels.hpp"

#include <algorithm>
#include <atomic>

#include "pipescg/base/error.hpp"

namespace pipescg::la {
namespace {

// Block length for the fused dot batch: 2048 doubles = 16 KiB per stream,
// so a block of every pair's two streams stays L1/L2-resident while the
// batch iterates over pairs.
constexpr std::size_t kDotBlock = 2048;

// Block length for lincomb: 512 doubles = 4 KiB of dst.
constexpr std::size_t kCombBlock = 512;

std::atomic<bool> g_fused{true};

// acc + sum_i x[i] y[i], added in index order: the reduction that stays
// scalar under the SIMD contract.
double dot_acc(double acc, const double* __restrict__ x,
               const double* __restrict__ y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

// The shift epilogue on dst[i0, i0 + n) in one pass:
// dst = (av + c[0] x[0] [+ c[1] x[1]]) [* inv], each element's operations in
// the unfused chain's order.  The shape is a compile-time constant, so the
// loop is branch-free and vectorizes.
template <int kTerms, bool kScale>
void shift_sweep(double* dst, const double* av, const double* c,
                 const double* const* x, double inv, std::size_t i0,
                 std::size_t n) {
  double* __restrict__ d = dst + i0;
  const double* __restrict__ a = av + i0;
  const double* __restrict__ x0 = kTerms > 0 ? x[0] + i0 : nullptr;
  const double* __restrict__ x1 = kTerms > 1 ? x[1] + i0 : nullptr;
  const double c0 = c[0], c1 = c[1];
  for (std::size_t i = 0; i < n; ++i) {
    double acc = a[i];
    if constexpr (kTerms > 0) acc += c0 * x0[i];
    if constexpr (kTerms > 1) acc += c1 * x1[i];
    if constexpr (kScale) acc *= inv;
    d[i] = acc;
  }
}

}  // namespace

KernelStats& kernel_stats() {
  thread_local KernelStats stats;
  return stats;
}

bool fused_kernels_enabled() {
  return g_fused.load(std::memory_order_relaxed);
}

void set_fused_kernels_enabled(bool on) {
  g_fused.store(on, std::memory_order_relaxed);
}

void dot_batch(std::span<const DotView> pairs, std::size_t n,
               std::span<double> out) {
  PIPESCG_CHECK(out.size() >= pairs.size(), "dot_batch output too small");
  KernelStats& stats = kernel_stats();
  ++stats.dot_batches;
  // Iterate blocks outermost so every pair reads the block while it is
  // cache-resident -- one pass over the working set for the whole batch.
  // Each pair's accumulator is carried across blocks in out[p], so its
  // additions happen in the order of its own full-length loop.  The unfused
  // reference is the same code over one full-length block: a sweep per pair.
  const bool fused = fused_kernels_enabled();
  stats.dot_sweeps += fused ? 1 : pairs.size();
  const std::size_t block = fused ? kDotBlock : n;
  for (std::size_t p = 0; p < pairs.size(); ++p) out[p] = 0.0;
  for (std::size_t i0 = 0; i0 < n; i0 += block) {
    const std::size_t len = std::min(block, n - i0);
    for (std::size_t p = 0; p < pairs.size(); ++p)
      out[p] = dot_acc(out[p], pairs[p].x + i0, pairs[p].y + i0, len);
  }
}

void axpy(double* y, double a, const double* x, std::size_t n) {
  double* __restrict__ yp = y;
  const double* __restrict__ xp = x;
  for (std::size_t i = 0; i < n; ++i) yp[i] += a * xp[i];
}

// Flattened (every call inlined), so lincomb carries its vector loops in its
// own body rather than in per-block calls.
[[gnu::flatten]] void lincomb(double* dst, const double* base,
                              std::span<const double> coeff,
                              std::span<const double* const> xs,
                              std::size_t n) {
  PIPESCG_CHECK(coeff.size() == xs.size(), "lincomb shape mismatch");
  // Fused: blocks small enough that dst stays in L1 while every term streams
  // through it once, two terms per sweep.  The unfused reference is the same
  // code over one full-length block: the start pass, then one axpy sweep per
  // term (axpy_pair splits itself).
  const std::size_t block = fused_kernels_enabled() ? kCombBlock : n;
  for (std::size_t i0 = 0; i0 < n; i0 += block) {
    const std::size_t len = std::min(block, n - i0);
    double* d = dst + i0;
    if (base == nullptr)
      std::fill_n(d, len, 0.0);
    else if (base != dst)
      std::copy_n(base + i0, len, d);
    std::size_t k = 0;
    for (; k + 1 < xs.size(); k += 2)
      axpy_pair(d, coeff[k], xs[k] + i0, coeff[k + 1], xs[k + 1] + i0, len);
    if (k < xs.size()) axpy(d, coeff[k], xs[k] + i0, len);
  }
}

void scale(double* x, double a, std::size_t n) {
  double* __restrict__ xp = x;
  for (std::size_t i = 0; i < n; ++i) xp[i] *= a;
}

void aypx(double* y, double a, const double* x, std::size_t n) {
  double* __restrict__ yp = y;
  const double* __restrict__ xp = x;
  for (std::size_t i = 0; i < n; ++i) yp[i] = xp[i] + a * yp[i];
}

void axpy_pair(double* y, double a1, const double* x1, double a2,
               const double* x2, std::size_t n) {
  if (!fused_kernels_enabled()) {
    axpy(y, a1, x1, n);
    axpy(y, a2, x2, n);
    return;
  }
  double* __restrict__ yp = y;
  const double* __restrict__ x1p = x1;
  const double* __restrict__ x2p = x2;
  // Per element ((y + a1 x1) + a2 x2): the same two additions the separate
  // sweeps perform, in the same order -- bitwise identical, one pass.
  for (std::size_t i = 0; i < n; ++i) yp[i] = (yp[i] + a1 * x1p[i]) + a2 * x2p[i];
}

void shift_combine(double* dst, const double* av, double theta,
                   const double* p1, double sigma, const double* p2,
                   double gamma, std::size_t n) {
  shift_combine_with_dots(dst, av, theta, p1, sigma, p2, gamma, n, {}, {});
}

void shift_combine_with_dots(double* dst, const double* av, double theta,
                             const double* p1, double sigma, const double* p2,
                             double gamma, std::size_t n,
                             std::span<const double* const> others,
                             std::span<double> partials) {
  PIPESCG_CHECK(partials.size() >= others.size(),
                "shift_combine_with_dots output too small");
  // The unfused chain's guards: no theta term when theta == 0, no sigma term
  // without p2 or when sigma == 0, no scale when gamma == 1.  The active
  // terms come first in coeff/xs.
  const bool with_theta = theta != 0.0;
  const std::size_t terms =
      (with_theta ? 1 : 0) + (p2 != nullptr && sigma != 0.0 ? 1 : 0);
  const double coeff[2] = {with_theta ? -theta : -sigma, -sigma};
  const double* const xs[2] = {with_theta ? p1 : p2, p2};
  const bool with_scale = gamma != 1.0;
  const double inv = 1.0 / gamma;
  // Fused: produce and dot the column block by block while the block is
  // cache-hot -- one pass.  Unfused: the copy/axpy/axpy/scale chain over the
  // whole column, then a sweep per partial.  Each partial's additions run in
  // sequential order either way.
  const bool fused = fused_kernels_enabled();
  KernelStats& stats = kernel_stats();
  ++stats.basis_steps;
  stats.basis_passes += fused ? 1 : 1 + terms + (with_scale ? 1 : 0);
  if (!others.empty()) stats.dot_sweeps += fused ? 1 : others.size();
  if (!fused) {
    lincomb(dst, av, {coeff, terms}, {xs, terms}, n);
    if (with_scale) scale(dst, inv, n);
  }
  const std::size_t block = fused ? kDotBlock : n;
  for (std::size_t k = 0; k < others.size(); ++k) partials[k] = 0.0;
  for (std::size_t i0 = 0; i0 < n; i0 += block) {
    const std::size_t len = std::min(block, n - i0);
    switch (fused ? 2 * terms + (with_scale ? 1 : 0) : 6) {  // 6: unfused
      case 0: shift_sweep<0, false>(dst, av, coeff, xs, inv, i0, len); break;
      case 1: shift_sweep<0, true>(dst, av, coeff, xs, inv, i0, len); break;
      case 2: shift_sweep<1, false>(dst, av, coeff, xs, inv, i0, len); break;
      case 3: shift_sweep<1, true>(dst, av, coeff, xs, inv, i0, len); break;
      case 4: shift_sweep<2, false>(dst, av, coeff, xs, inv, i0, len); break;
      case 5: shift_sweep<2, true>(dst, av, coeff, xs, inv, i0, len); break;
    }
    for (std::size_t k = 0; k < others.size(); ++k)
      partials[k] = dot_acc(partials[k], dst + i0, others[k] + i0, len);
  }
}

}  // namespace pipescg::la
