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

// Block length for lincomb_program: 512 doubles = 4 KiB per vector, so one
// block of every vector an s-step outer update touches (about 80 for
// PIPE-PsCG at s = 3) stays L2-resident while the program's ops run on it.
constexpr std::size_t kProgramBlock = 512;

std::atomic<bool> g_fused{true};

// Pairs summed together in one loop of the fused dot batch.  Each is an
// independent add chain, so the core overlaps their additions instead of
// waiting out one add's latency per element; 6 pairs' 12 streams still fit
// the general registers.
constexpr std::size_t kDotGroup = 6;

// out[g] += sum_i pairs[g].x[i0 + i] * pairs[g].y[i0 + i] over [0, n) for
// the kPairs pairs of one group: each pair's sum in its own register, added
// in element order -- the reduction that stays scalar under the SIMD
// contract.  The chains never mix, so each partial is bitwise the pair's
// own full-length loop.
//
// The pair loop is unrolled so the accumulators live in registers.  Left
// alone, GCC then packs two pairs' accumulators into one addpd (the loop
// vectorizer's reduction groups, or SLP after it).  Each lane would be a
// different pair, so that is bitwise too, but tools/check_simd.py cannot
// tell such a sum from a reassociated one in object code, so both passes
// are off here.  An empty asm pinning each accumulator to its register
// also keeps the adds scalar, but runs the 18-pair batch half as fast.
template <std::size_t kPairs>
[[gnu::optimize("no-tree-loop-vectorize", "no-tree-slp-vectorize")]]
void dot_batch_group(const DotView* pairs, std::size_t i0, std::size_t n,
                     double* out) {
  const double* x[kPairs];
  const double* y[kPairs];
  double acc[kPairs];
  for (std::size_t g = 0; g < kPairs; ++g) {
    x[g] = pairs[g].x + i0;
    y[g] = pairs[g].y + i0;
    acc[g] = out[g];
  }
  for (std::size_t i = 0; i < n; ++i)
#pragma GCC unroll 8
    for (std::size_t g = 0; g < kPairs; ++g) acc[g] += x[g][i] * y[g][i];
  for (std::size_t g = 0; g < kPairs; ++g) out[g] = acc[g];
}

// Every pair over [i0, i0 + n): full groups of kDotGroup, then one smaller
// compile-time shape for the rest.
void dot_batch_block(std::span<const DotView> pairs, std::size_t i0,
                     std::size_t n, double* out) {
  std::size_t p = 0;
  for (; p + kDotGroup <= pairs.size(); p += kDotGroup)
    dot_batch_group<kDotGroup>(&pairs[p], i0, n, out + p);
  switch (pairs.size() - p) {
    case 1: dot_batch_group<1>(&pairs[p], i0, n, out + p); break;
    case 2: dot_batch_group<2>(&pairs[p], i0, n, out + p); break;
    case 3: dot_batch_group<3>(&pairs[p], i0, n, out + p); break;
    case 4: dot_batch_group<4>(&pairs[p], i0, n, out + p); break;
    case 5: dot_batch_group<5>(&pairs[p], i0, n, out + p); break;
    default: break;
  }
}

// Where an element's sum starts: +0.0, base[i], or dst[i] itself.
enum class Start { kZero, kBase, kDst };

// dst[i0, i0 + n) = (start + c[0] x[0] + ... + c[kTerms-1] x[kTerms-1])
// [* inv], each element's operations in term order with the accumulator in
// a register.  The shape is a compile-time constant, so the loop is
// branch-free and vectorizes.
template <Start kStart, int kTerms, bool kScale = false>
void sweep(double* dst, const double* base, const double* c,
           const double* const* x, double inv, std::size_t i0,
           std::size_t n) {
  double* __restrict__ d = dst + i0;
  const double* __restrict__ b = kStart == Start::kBase ? base + i0 : nullptr;
  const double* __restrict__ x0 = kTerms > 0 ? x[0] + i0 : nullptr;
  const double* __restrict__ x1 = kTerms > 1 ? x[1] + i0 : nullptr;
  const double* __restrict__ x2 = kTerms > 2 ? x[2] + i0 : nullptr;
  const double* __restrict__ x3 = kTerms > 3 ? x[3] + i0 : nullptr;
  const double c0 = kTerms > 0 ? c[0] : 0.0, c1 = kTerms > 1 ? c[1] : 0.0;
  const double c2 = kTerms > 2 ? c[2] : 0.0, c3 = kTerms > 3 ? c[3] : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc;
    if constexpr (kStart == Start::kZero)
      acc = 0.0;
    else if constexpr (kStart == Start::kBase)
      acc = b[i];
    else
      acc = d[i];
    if constexpr (kTerms > 0) acc += c0 * x0[i];
    if constexpr (kTerms > 1) acc += c1 * x1[i];
    if constexpr (kTerms > 2) acc += c2 * x2[i];
    if constexpr (kTerms > 3) acc += c3 * x3[i];
    if constexpr (kScale) acc *= inv;
    d[i] = acc;
  }
}

// Up to four terms from `start` in one sweep.
template <Start kStart>
void sweep_terms(std::size_t terms, double* dst, const double* base,
                 const double* c, const double* const* x, std::size_t i0,
                 std::size_t n) {
  switch (terms) {
    case 0:
      if constexpr (kStart != Start::kDst)
        sweep<kStart, 0>(dst, base, c, x, 1.0, i0, n);
      break;
    case 1: sweep<kStart, 1>(dst, base, c, x, 1.0, i0, n); break;
    case 2: sweep<kStart, 2>(dst, base, c, x, 1.0, i0, n); break;
    case 3: sweep<kStart, 3>(dst, base, c, x, 1.0, i0, n); break;
    default: sweep<kStart, 4>(dst, base, c, x, 1.0, i0, n); break;
  }
}

// One lincomb on [i0, i0 + n): the start and the first four terms in one
// register-carried sweep, longer term lists chained through dst four at a
// time in the same term order.
void lincomb_block(const LincombOp& op, std::size_t i0, std::size_t n) {
  const double* c = op.coeff.data();
  const double* const* x = op.xs.data();
  const std::size_t terms = op.xs.size();
  std::size_t k = std::min<std::size_t>(terms, 4);
  if (op.base == nullptr)
    sweep_terms<Start::kZero>(k, op.dst, nullptr, c, x, i0, n);
  else if (op.base != op.dst)
    sweep_terms<Start::kBase>(k, op.dst, op.base, c, x, i0, n);
  else
    sweep_terms<Start::kDst>(k, op.dst, nullptr, c, x, i0, n);
  for (; k < terms; k += 4)
    sweep_terms<Start::kDst>(std::min<std::size_t>(terms - k, 4), op.dst,
                             nullptr, c + k, x + k, i0, n);
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
  const bool fused = fused_kernels_enabled();
  stats.dot_sweeps += fused ? 1 : pairs.size();
  for (std::size_t p = 0; p < pairs.size(); ++p) out[p] = 0.0;
  if (!fused) {
    // The reference: one full-length sweep per pair.
    for (std::size_t p = 0; p < pairs.size(); ++p)
      dot_batch_group<1>(&pairs[p], 0, n, &out[p]);
    return;
  }
  // Iterate blocks outermost so every pair reads the block while it is
  // cache-resident -- one pass over the working set for the whole batch.
  // Each pair's accumulator is carried across blocks in out[p], so its
  // additions happen in the order of its own full-length loop.
  for (std::size_t i0 = 0; i0 < n; i0 += kDotBlock)
    dot_batch_block(pairs, i0, std::min(kDotBlock, n - i0), out.data());
}

void axpy(double* y, double a, const double* x, std::size_t n) {
  double* __restrict__ yp = y;
  const double* __restrict__ xp = x;
  for (std::size_t i = 0; i < n; ++i) yp[i] += a * xp[i];
}

void lincomb(double* dst, const double* base, std::span<const double> coeff,
             std::span<const double* const> xs, std::size_t n) {
  const LincombOp op{dst, base, coeff, xs};
  lincomb_program({&op, 1}, n);
}

// Flattened (every call inlined), so the program executor carries its vector
// loops in its own body rather than in per-block calls.
[[gnu::flatten]] void lincomb_program(std::span<const LincombOp> ops,
                                      std::size_t n) {
  if (ops.empty()) return;
  for (const LincombOp& op : ops)
    PIPESCG_CHECK(op.coeff.size() == op.xs.size(), "lincomb shape mismatch");
  KernelStats& stats = kernel_stats();
  ++stats.programs;
  if (!fused_kernels_enabled()) {
    // The reference: each op a whole-vector call in program order -- the
    // start pass, then one axpy sweep per term.
    for (const LincombOp& op : ops) {
      if (op.base == nullptr)
        std::fill_n(op.dst, n, 0.0);
      else if (op.base != op.dst)
        std::copy_n(op.base, n, op.dst);
      for (std::size_t k = 0; k < op.xs.size(); ++k)
        axpy(op.dst, op.coeff[k], op.xs[k], n);
      stats.program_passes += (op.base == op.dst ? 0 : 1) + op.xs.size();
    }
    return;
  }
  // Fused: block by block, every op on the block before the next block.
  // Each element replays the whole program restricted to its index, so this
  // is exact under any aliasing between ops (one op may read what an earlier
  // one wrote, or write what an earlier one read).
  ++stats.program_passes;
  for (std::size_t i0 = 0; i0 < n; i0 += kProgramBlock) {
    const std::size_t len = std::min(kProgramBlock, n - i0);
    for (const LincombOp& op : ops) lincomb_block(op, i0, len);
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

void shift_combine(double* dst, const double* av, double theta,
                   const double* p1, double sigma, const double* p2,
                   double gamma, std::size_t n) {
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
  // Fused: one sweep.  Unfused: the copy/axpy/axpy/scale chain.
  const bool fused = fused_kernels_enabled();
  KernelStats& stats = kernel_stats();
  ++stats.basis_steps;
  stats.basis_passes += fused ? 1 : 1 + terms + (with_scale ? 1 : 0);
  if (!fused) {
    lincomb(dst, av, {coeff, terms}, {xs, terms}, n);
    if (with_scale) scale(dst, inv, n);
    return;
  }
  constexpr Start kAv = Start::kBase;
  switch (2 * terms + (with_scale ? 1 : 0)) {
    case 0: sweep<kAv, 0, false>(dst, av, coeff, xs, inv, 0, n); break;
    case 1: sweep<kAv, 0, true>(dst, av, coeff, xs, inv, 0, n); break;
    case 2: sweep<kAv, 1, false>(dst, av, coeff, xs, inv, 0, n); break;
    case 3: sweep<kAv, 1, true>(dst, av, coeff, xs, inv, 0, n); break;
    case 4: sweep<kAv, 2, false>(dst, av, coeff, xs, inv, 0, n); break;
    case 5: sweep<kAv, 2, true>(dst, av, coeff, xs, inv, 0, n); break;
  }
}

}  // namespace pipescg::la
