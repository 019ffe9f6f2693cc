#include "pipescg/sparse/dist_stencil.hpp"

#include <algorithm>
#include <utility>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::sparse {
namespace {

int plane_owner(std::size_t gz, std::size_t nz, int ranks) {
  for (int r = 0; r < ranks; ++r)
    if (gz < par::block_range(nz, r, ranks).end) return r;
  PIPESCG_CHECK(false, "plane outside the grid");
  return -1;
}

// Pull list for ghost global planes [gz_lo, gz_hi) landing at
// (gz - buf_base_z) * plane within the ghost buffer, coalescing contiguous
// same-owner planes into one run.  The range may span multiple peer slabs
// (deep halos with depth * reach > slab thickness).
void append_plane_pulls(std::size_t gz_lo, std::size_t gz_hi,
                        std::ptrdiff_t buf_base_z, std::size_t plane,
                        std::size_t nz, int ranks,
                        std::vector<par::GhostPull>& pulls) {
  std::size_t gz = gz_lo;
  while (gz < gz_hi) {
    const int owner = plane_owner(gz, nz, ranks);
    const par::RankRange owner_range = par::block_range(nz, owner, ranks);
    const std::size_t run_end = std::min(gz_hi, owner_range.end);
    pulls.push_back(par::GhostPull{
        owner, (gz - owner_range.begin) * plane,
        static_cast<std::size_t>(static_cast<std::ptrdiff_t>(gz) -
                                 buf_base_z) *
            plane,
        (run_end - gz) * plane});
    gz = run_end;
  }
}

}  // namespace

DistStencil3D::DistStencil3D(Stencil3D stencil, std::size_t nx,
                             std::size_t ny, std::size_t nz, int rank,
                             int ranks, int powers_depth)
    : stencil_(std::move(stencil)), nx_(nx), ny_(ny), nz_(nz), rank_(rank),
      ranks_(ranks), powers_depth_(powers_depth) {
  const par::RankRange range = par::block_range(nz, rank, ranks);
  z_begin_ = range.begin;
  z_end_ = range.end;
  const std::size_t reach = static_cast<std::size_t>(stencil_.reach);
  PIPESCG_CHECK(range.size() >= reach || ranks == 1,
                "each rank must own at least `reach` z-planes");
  PIPESCG_CHECK(powers_depth >= 1 && powers_depth <= 16,
                "powers_depth must be in [1, 16]");
  const std::size_t plane = nx_ * ny_;
  ghosted_.assign((local_planes() + 2 * reach) * plane, 0.0);

  // Depth-1 pull list (apply): up to `reach` planes per side, clipped.
  append_plane_pulls(z_begin_ - std::min(reach, z_begin_), z_begin_,
                     static_cast<std::ptrdiff_t>(z_begin_) -
                         static_cast<std::ptrdiff_t>(reach),
                     plane, nz_, ranks_, pulls_);
  append_plane_pulls(z_end_, std::min(nz_, z_end_ + reach),
                     static_cast<std::ptrdiff_t>(z_begin_) -
                         static_cast<std::ptrdiff_t>(reach),
                     plane, nz_, ranks_, pulls_);

  // Depth-s pull list and ping-pong buffers (apply_powers): the deep ghost
  // region is powers_depth * reach planes per side, again clipped at the
  // domain boundary.  Never-pulled out-of-domain planes stay zero and the
  // sweep's global-z bounds check keeps them unread.
  const std::size_t deep = static_cast<std::size_t>(powers_depth_) * reach;
  deep_cur_.assign((local_planes() + 2 * deep) * plane, 0.0);
  deep_next_.assign(deep_cur_.size(), 0.0);
  const std::ptrdiff_t deep_base =
      static_cast<std::ptrdiff_t>(z_begin_) -
      static_cast<std::ptrdiff_t>(deep);
  append_plane_pulls(z_begin_ - std::min(deep, z_begin_), z_begin_,
                     deep_base, plane, nz_, ranks_, deep_pulls_);
  append_plane_pulls(z_end_, std::min(nz_, z_end_ + deep), deep_base, plane,
                     nz_, ranks_, deep_pulls_);
}

std::size_t DistStencil3D::deep_ghost_count() const {
  std::size_t total = 0;
  for (const par::GhostPull& pull : deep_pulls_) total += pull.length;
  return total;
}

void DistStencil3D::stencil_sweep(std::size_t gz_lo, std::size_t gz_hi,
                                  std::ptrdiff_t src_base_z,
                                  const double* src,
                                  std::ptrdiff_t dst_base_z,
                                  double* dst) const {
  const int r = stencil_.reach;
  for (std::size_t gz = gz_lo; gz < gz_hi; ++gz) {
    const std::size_t dst_plane =
        static_cast<std::size_t>(static_cast<std::ptrdiff_t>(gz) -
                                 dst_base_z);
    for (std::size_t j = 0; j < ny_; ++j) {
      for (std::size_t i = 0; i < nx_; ++i) {
        double acc = 0.0;
        for (int dk = -r; dk <= r; ++dk) {
          const std::ptrdiff_t gkz = static_cast<std::ptrdiff_t>(gz) + dk;
          if (gkz < 0 || gkz >= static_cast<std::ptrdiff_t>(nz_)) continue;
          const std::size_t zslab =
              static_cast<std::size_t>(gkz - src_base_z);
          for (int dj = -r; dj <= r; ++dj) {
            const std::ptrdiff_t jj = static_cast<std::ptrdiff_t>(j) + dj;
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(ny_)) continue;
            for (int di = -r; di <= r; ++di) {
              const std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(i) + di;
              if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(nx_)) continue;
              const double w = stencil_at(di, dj, dk);
              if (w == 0.0) continue;
              acc += w * src[(zslab * ny_ + static_cast<std::size_t>(jj)) *
                                 nx_ +
                             static_cast<std::size_t>(ii)];
            }
          }
        }
        dst[(dst_plane * ny_ + j) * nx_ + i] = acc;
      }
    }
  }
}

void DistStencil3D::apply(par::Comm& comm, std::span<const double> x_local,
                          std::span<double> y_local) {
  PIPESCG_CHECK(x_local.size() == local_rows() &&
                    y_local.size() == local_rows(),
                "distributed stencil apply size mismatch");
  const std::size_t reach = static_cast<std::size_t>(stencil_.reach);
  const std::size_t plane = nx_ * ny_;

  // Stage owned planes into the center of the ghosted buffer, then one
  // batched epoch pulls the boundary planes from the up/down neighbors.
  std::copy(x_local.begin(), x_local.end(),
            ghosted_.begin() + static_cast<std::ptrdiff_t>(reach * plane));
  comm.exchange(pulls_, x_local, ghosted_);

  obs::SpanScope span(obs::Profiler::current(), obs::SpanKind::kSpmvLocal);
  stencil_sweep(z_begin_, z_end_,
                static_cast<std::ptrdiff_t>(z_begin_) -
                    static_cast<std::ptrdiff_t>(reach),
                ghosted_.data(), static_cast<std::ptrdiff_t>(z_begin_),
                y_local.data());
}

void DistStencil3D::apply_powers(par::Comm& comm,
                                 std::span<const double> x_local,
                                 std::span<const std::span<double>> outs) {
  const std::size_t count = outs.size();
  PIPESCG_CHECK(count >= 1 &&
                    count <= static_cast<std::size_t>(powers_depth_),
                "stencil powers block exceeds powers_depth");
  PIPESCG_CHECK(x_local.size() == local_rows(),
                "stencil powers input size mismatch");
  for (const std::span<double>& out : outs)
    PIPESCG_CHECK(out.size() == local_rows(),
                  "stencil powers output size mismatch");
  const std::size_t reach = static_cast<std::size_t>(stencil_.reach);
  const std::size_t plane = nx_ * ny_;
  const std::size_t deep = static_cast<std::size_t>(powers_depth_) * reach;
  const std::ptrdiff_t deep_base =
      static_cast<std::ptrdiff_t>(z_begin_) -
      static_cast<std::ptrdiff_t>(deep);

  // The one halo epoch of the whole block: pull all deep ghost planes.
  std::copy(x_local.begin(), x_local.end(),
            deep_cur_.begin() + static_cast<std::ptrdiff_t>(deep * plane));
  comm.exchange(deep_pulls_, x_local, deep_cur_);
  obs::Profiler* prof = obs::Profiler::current();
  if (prof != nullptr) ++prof->counters().mpk_blocks;

  for (std::size_t k = 1; k <= count; ++k) {
    // Shrinking onion: sweep k still computes the ghost planes the
    // remaining sweeps need, (count - k) * reach per side.
    const std::size_t margin = (count - k) * reach;
    const std::size_t gz_lo = z_begin_ - std::min(margin, z_begin_);
    const std::size_t gz_hi = std::min(nz_, z_end_ + margin);
    {
      obs::SpanScope span(prof, obs::SpanKind::kSpmvLocal);
      stencil_sweep(gz_lo, gz_hi, deep_base, deep_cur_.data(), deep_base,
                    deep_next_.data());
    }
    std::copy(deep_next_.begin() + static_cast<std::ptrdiff_t>(deep * plane),
              deep_next_.begin() +
                  static_cast<std::ptrdiff_t>((deep + local_planes()) *
                                              plane),
              outs[k - 1].begin());
    std::swap(deep_cur_, deep_next_);
  }
}

OperatorStats DistStencil3D::stats() const {
  OperatorStats s;
  s.rows = global_rows();
  std::size_t taps = 0;
  for (double w : stencil_.weights)
    if (w != 0.0) ++taps;
  s.nnz = s.rows * taps;
  s.kind = GridKind::kGrid3d;
  s.nx = nx_;
  s.ny = ny_;
  s.nz = nz_;
  s.halo_width = stencil_.reach;
  return s;
}

}  // namespace pipescg::sparse
