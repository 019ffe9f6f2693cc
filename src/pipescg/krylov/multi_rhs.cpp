#include "pipescg/krylov/multi_rhs.hpp"

#include <string>

#include "pipescg/base/error.hpp"
#include "pipescg/krylov/sstep_common.hpp"
#include "pipescg/par/comm.hpp"

namespace pipescg::krylov {

std::size_t max_batch_columns(const SolverOptions& opts) {
  const sstep::DotLayout layout{opts.s, /*preconditioned=*/false,
                                opts.basis.type != BasisType::kMonomial};
  const std::size_t gap_slot = opts.gap_tol > 0.0 ? 1 : 0;
  return par::Team::kMaxPayload / (layout.total() + gap_slot);
}

std::vector<SolveStats> scg_multi_solve(Engine& engine,
                                        std::span<const Vec> bs,
                                        std::span<Vec> xs,
                                        const SolverOptions& opts) {
  const std::size_t cap = max_batch_columns(opts);
  PIPESCG_CHECK(bs.size() <= cap,
                "multi-RHS batch of " + std::to_string(bs.size()) +
                    " columns exceeds max_batch_columns = " +
                    std::to_string(cap) +
                    " (fused payload would overflow one allreduce)");
  return sstep::blocking_core(engine, bs, xs, opts, "scg-sspmv",
                              {/*preconditioned=*/false,
                               /*explicit_residual=*/false});
}

}  // namespace pipescg::krylov
