// Fused BLAS-1 kernels for the s-step hot loops.
//
// The s-step drivers spend their vector time in the per-outer dot batch
// ((2s+1) moment pairs + s^2 cross pairs + norm extras, a separate sweep
// per pair in the naive form), the basis-build epilogue (copy + up to two
// axpys + a scale per new column) and the outer update of P, the power
// towers, x and the recurred bases (an axpy sweep per term, about 60
// whole-vector calls per PIPE-PsCG outer iteration).  The kernels here make
// each ONE pass:
//   * dot_batch       -- i-blocked so the working set stays cache-resident
//                        across pairs: one memory pass per batch.  Within
//                        a block the pairs run in groups of six, each in
//                        its own register accumulator: a lone pair is one
//                        dependent add chain, bound by add latency on a
//                        cache-resident rank, and a group's chains are
//                        independent, so the core overlaps them;
//   * lincomb_program -- an ordered list of lincombs
//                        dst = start + sum_k c_k x_k run block by block
//                        (every op on an L2-sized block before the next
//                        block), each op carrying its accumulator in a
//                        register across up to four terms: one memory pass
//                        per outer update.  lincomb is a program of one;
//   * shift_combine   -- the three-term-recurrence epilogue
//                        dst = (av - theta p1 - sigma p2) / gamma in one pass.
//
// Fusion contract (DESIGN.md section 14): every fused kernel performs the
// exact per-element floating-point operation sequence of its unfused
// reference, so fused and unfused results are bitwise identical -- fusion
// changes WHEN memory is touched, never WHAT arithmetic runs.  For a
// program that holds under any aliasing between its ops: the ops are
// element-wise, so blocking replays the sequential program at each index.
// set_fused_kernels_enabled(false) routes every call through the unfused
// reference loops; the parity tests and bench_kernels rely on that switch.
//
// SIMD contract: vectorized == scalar, bit for bit.  The element-wise loops
// take restrict-qualified pointers and compile to packed SSE/AVX code (the
// build selects GCC's dynamic vectorizer cost model); each lane runs one
// element's scalar operations in scalar order.  Reductions (every dot loop)
// keep the scalar addition order: GCC may form the products in packed
// registers but adds them one at a time, since a packed sum would
// reassociate.  The build must never add -ffast-math, -fassociative-math or
// -mfma (contraction changes rounding); tools/check_simd.py checks the
// object code for both halves.  Vec storage is 64-byte aligned; the kernels
// accept any alignment.
#pragma once

#include <cstddef>
#include <new>
#include <span>
#include <vector>

namespace pipescg::la {

/// Thread-local memory-pass counters.  The counter tests pin the headline
/// claim with these: per outer iteration the dot batch drops from
/// pairs-many sweeps (>= 2s+1) to one, the basis step from up to 4 to one,
/// the outer update (a program) from one per start and term to one.
struct KernelStats {
  std::size_t dot_batches = 0;   // batches executed (fused or not)
  std::size_t dot_sweeps = 0;    // memory passes over the dot working set
  std::size_t basis_steps = 0;   // shift_combine calls
  std::size_t basis_passes = 0;  // memory passes those steps performed
  std::size_t programs = 0;        // lincomb_program calls (lincomb included)
  std::size_t program_passes = 0;  // memory passes those programs performed
  void reset() { *this = KernelStats{}; }
};
KernelStats& kernel_stats();

/// Process-wide switch (default on).  Off = unfused reference loops, for
/// parity tests and the fused-vs-unfused benchmark pairs.
bool fused_kernels_enabled();
void set_fused_kernels_enabled(bool on);

/// RAII toggle for tests.
class FusedKernelsGuard {
 public:
  explicit FusedKernelsGuard(bool on)
      : previous_(fused_kernels_enabled()) {
    set_fused_kernels_enabled(on);
  }
  ~FusedKernelsGuard() { set_fused_kernels_enabled(previous_); }
  FusedKernelsGuard(const FusedKernelsGuard&) = delete;
  FusedKernelsGuard& operator=(const FusedKernelsGuard&) = delete;

 private:
  bool previous_;
};

/// One dot product over rank-local arrays.
struct DotView {
  const double* x;
  const double* y;
};

/// out[p] = sum_i pairs[p].x[i] * pairs[p].y[i] for i in [0, n).  Fused:
/// one i-blocked pass (per-pair accumulators carried across blocks, so each
/// pair's additions happen in the exact order of its own full-length loop),
/// summing groups of pairs in one loop as independent chains.  Unfused: one
/// full sweep per pair.  Bitwise-identical results either way: chains never
/// mix, and each adds its products in element order from +0.0.
void dot_batch(std::span<const DotView> pairs, std::size_t n,
               std::span<double> out);

/// y += a x (restrict-qualified reference axpy).
void axpy(double* y, double a, const double* x, std::size_t n);

/// dst = start + sum_k coeff[k] xs[k] in one pass, each element summed in
/// term order from start = base[i], +0.0 (base == nullptr) or dst[i]
/// (base == dst).  Every term is applied, zero coefficients included (a NaN
/// under one propagates).  xs may not alias dst.
void lincomb(double* dst, const double* base, std::span<const double> coeff,
             std::span<const double* const> xs, std::size_t n);

/// One lincomb of a program: dst = start + sum_k coeff[k] xs[k], with the
/// start and aliasing rules of lincomb.
struct LincombOp {
  double* dst;
  const double* base;
  std::span<const double> coeff;
  std::span<const double* const> xs;
};

/// Runs `ops` in order over [0, n), with results bitwise those of one
/// whole-vector lincomb call per op.  Fused: one pass, block by block, each
/// op finishing a block before the next op starts on it -- exact under any
/// aliasing between ops, since every op is element-wise.  Unfused: the
/// sequential whole-vector calls, each a start pass plus one axpy sweep per
/// term.
void lincomb_program(std::span<const LincombOp> ops, std::size_t n);

/// x *= a; y = x + a y (y may not alias x).
void scale(double* x, double a, std::size_t n);
void aypx(double* y, double a, const double* x, std::size_t n);

/// The shifted-basis three-term epilogue, one pass:
///   dst = (av - theta p1 [- sigma p2]) * (1 / gamma)
/// with the unfused path's guards replicated exactly: the theta term is
/// skipped when theta == 0, the sigma term when p2 == nullptr or sigma == 0,
/// the scale when gamma == 1 (monomial basis: plain copy).  dst may not
/// alias the inputs.
void shift_combine(double* dst, const double* av, double theta,
                   const double* p1, double sigma, const double* p2,
                   double gamma, std::size_t n);

/// 64-byte-aligned allocator: Vec storage lands on cache-line/AVX-512
/// boundaries.
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;
  static_assert(Alignment >= alignof(T) && (Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

using AlignedDoubles = std::vector<double, AlignedAllocator<double>>;

}  // namespace pipescg::la
