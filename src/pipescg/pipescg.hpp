// Umbrella header: the public API of the pipescg library.
//
// pipescg reproduces "Pipelined Preconditioned s-step Conjugate Gradient
// Methods for Distributed Memory Systems" (Tiwari & Vadhiyar, IEEE CLUSTER
// 2021).  Typical use:
//
//   auto a = pipescg::sparse::make_poisson125_csr(32);
//   pipescg::precond::JacobiPreconditioner pc(a);
//   pipescg::krylov::SerialEngine engine(a, &pc);
//   auto b = /* rhs */;
//   pipescg::krylov::Vec x = engine.new_vec();
//   auto solver = pipescg::krylov::make_solver("pipe-pscg");
//   auto stats = solver->solve(engine, b, x, {});
//
// See README.md for the architecture overview and examples/ for runnable
// programs.
#pragma once

#include "pipescg/base/cli.hpp"
#include "pipescg/base/error.hpp"
#include "pipescg/base/rng.hpp"
#include "pipescg/base/timer.hpp"
#include "pipescg/fault/injector.hpp"
#include "pipescg/fault/recovery.hpp"
#include "pipescg/fault/spec.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/solver.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/la/cholesky.hpp"
#include "pipescg/obs/analysis.hpp"
#include "pipescg/obs/anomaly.hpp"
#include "pipescg/obs/chrome_trace.hpp"
#include "pipescg/obs/json.hpp"
#include "pipescg/obs/metrics.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/obs/report.hpp"
#include "pipescg/obs/telemetry.hpp"
#include "pipescg/obs/tracing.hpp"
#include "pipescg/la/dense_matrix.hpp"
#include "pipescg/la/lu.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/amg.hpp"
#include "pipescg/precond/chebyshev.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/precond/multigrid.hpp"
#include "pipescg/precond/preconditioner.hpp"
#include "pipescg/precond/ssor.hpp"
#include "pipescg/service/queue.hpp"
#include "pipescg/service/session.hpp"
#include "pipescg/service/solve_context.hpp"
#include "pipescg/sim/auto_tune.hpp"
#include "pipescg/sim/cost_table.hpp"
#include "pipescg/sim/machine_model.hpp"
#include "pipescg/sim/timeline.hpp"
#include "pipescg/sim/trace.hpp"
#include "pipescg/sparse/coo_builder.hpp"
#include "pipescg/sparse/csr_matrix.hpp"
#include "pipescg/sparse/bytes_model.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/format.hpp"
#include "pipescg/sparse/matrix_market.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/partition.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/sell_matrix.hpp"
#include "pipescg/sparse/spgemm.hpp"
#include "pipescg/sparse/stencil.hpp"
#include "pipescg/sparse/stencil_operator.hpp"
#include "pipescg/sparse/surrogates.hpp"
