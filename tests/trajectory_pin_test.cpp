// Trajectory pins for the s-step drivers.
//
// Every s-step method (plus the batched multi-RHS driver) is solved over a
// grid of basis families, depths and engines, and each cell is pinned
// exactly: iteration count, residual replacements, recoveries, final s, and
// FNV-1a hashes over the bit patterns of the residual history and of the
// solution.  Serial cells also hash the recorded event trace (kernel order,
// payload sizes, charged FLOPs), so a driver refactor that reorders one
// engine call -- even one that leaves the iterates alone -- fails here.
//
// The expected table was generated from the drivers before they were
// restructured onto the shared skeleton; a cell missing from the table
// prints its generated row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "pipescg/fault/injector.hpp"
#include "pipescg/fault/spec.hpp"
#include "pipescg/krylov/multi_rhs.hpp"
#include "pipescg/krylov/registry.hpp"
#include "pipescg/krylov/serial_engine.hpp"
#include "pipescg/krylov/spmd_engine.hpp"
#include "pipescg/par/comm.hpp"
#include "pipescg/precond/jacobi.hpp"
#include "pipescg/sim/trace.hpp"
#include "pipescg/sparse/dist_csr.hpp"
#include "pipescg/sparse/matrix_powers.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace pipescg::krylov {
namespace {

constexpr const char* kMulti = "multi3";  // 3-column scg_multi_solve
constexpr std::size_t kColumns = 3;

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
};

struct Pin {
  const char* cell;
  std::size_t iterations;
  std::size_t replacements;
  std::size_t recoveries;
  int final_s;
  std::uint64_t history_hash;
  std::uint64_t x_hash;
  std::uint64_t trace_hash;  // serial cells only (0 otherwise)
};

struct CellSpec {
  std::string method;
  BasisType basis = BasisType::kMonomial;
  int s = 3;
  int ranks = 0;  // 0 = SerialEngine
  bool mpk = false;
  std::string faults;  // SPMD only
  bool escalate = false;

  std::string name() const {
    std::ostringstream os;
    os << method << '/' << to_string(basis) << "/s" << s << '/'
       << (ranks == 0 ? std::string("serial")
                      : "spmd" + std::to_string(ranks))
       << (mpk ? "/mpk" : "") << (faults.empty() ? "" : "/fault")
       << (escalate ? "/gap-escalate" : "");
    return os.str();
  }
};

// Problem: thermal2-like 16x16 (or ecology2-like for the escalation cells)
// with a non-trivial smooth solution.
sparse::CsrMatrix cell_matrix(const CellSpec& c) {
  return c.escalate ? sparse::make_ecology2_like(24, 24)
                    : sparse::make_thermal2_like(16, 16);
}

std::vector<double> cell_rhs(const sparse::CsrMatrix& a, std::size_t col) {
  std::vector<double> xstar(a.rows());
  for (std::size_t i = 0; i < xstar.size(); ++i)
    xstar[i] = 1.0 + 0.5 * std::sin(static_cast<double>(i + 7 * col + 1));
  std::vector<double> b(a.rows(), 0.0);
  a.apply(xstar, b);
  return b;
}

SolverOptions cell_opts(const CellSpec& c) {
  SolverOptions opts;
  opts.rtol = 1e-8;
  opts.s = c.s;
  opts.max_iterations = 600;
  opts.basis.type = c.basis;
  if (c.escalate) {
    opts.rtol = 1e-5;
    opts.max_iterations = 3000;
    opts.replacement_period = -1;
    opts.gap_tol = 1e-15;
    opts.gap_check_period = 1;
  }
  return opts;
}

struct CellOut {
  std::vector<SolveStats> stats;          // one per column
  std::vector<std::vector<double>> xs;    // global solutions
  std::uint64_t trace_hash = 0;
};

// Run the cell's solve on `engine` for the columns held in bs/xs.
std::vector<SolveStats> run_on(Engine& engine, const CellSpec& c,
                               std::span<const Vec> bs, std::span<Vec> xs) {
  const SolverOptions opts = cell_opts(c);
  if (c.method == kMulti) return scg_multi_solve(engine, bs, xs, opts);
  return {make_solver(c.method)->solve(engine, bs[0], xs[0], opts)};
}

bool uses_pc(const CellSpec& c) {
  return c.method != kMulti && solver_uses_preconditioner(c.method);
}

CellOut run_cell(const CellSpec& c) {
  const sparse::CsrMatrix a = cell_matrix(c);
  const std::size_t n = a.rows();
  const std::size_t k = c.method == kMulti ? kColumns : 1;
  std::vector<std::vector<double>> b_full;
  for (std::size_t col = 0; col < k; ++col) b_full.push_back(cell_rhs(a, col));
  CellOut out;
  out.xs.assign(k, std::vector<double>(n, 0.0));

  if (c.ranks == 0) {
    precond::JacobiPreconditioner pc(a);
    sim::EventTrace trace;
    SerialEngine engine(a, uses_pc(c) ? &pc : nullptr, &trace);
    std::vector<Vec> bs, xs;
    for (std::size_t col = 0; col < k; ++col) {
      bs.push_back(engine.new_vec());
      xs.push_back(engine.new_vec());
      for (std::size_t i = 0; i < n; ++i) bs[col][i] = b_full[col][i];
    }
    out.stats = run_on(engine, c, bs, xs);
    for (std::size_t col = 0; col < k; ++col)
      for (std::size_t i = 0; i < n; ++i) out.xs[col][i] = xs[col][i];
    Fnv h;
    for (const sim::Event& e : trace.events()) {
      h.u64(static_cast<std::uint64_t>(e.kind));
      h.u64(e.id);
      h.f64(e.flops);
      h.f64(e.bytes);
      h.u64(e.index);
      h.f64(e.value);
    }
    out.trace_hash = h.h;
    return out;
  }

  const std::vector<fault::FaultSpec> specs =
      fault::parse_fault_specs(c.faults);
  const sparse::Partition part(n, c.ranks);
  std::mutex mutex;
  par::Team::run(c.ranks, [&](par::Comm& comm) {
    fault::Injector injector(specs, comm.rank());
    const fault::Injector::Install install(specs.empty() ? nullptr
                                                         : &injector);
    const sparse::DistCsr dist(a, part, comm.rank());
    const std::size_t begin = part.begin(comm.rank());
    const std::size_t len = part.local_size(comm.rank());
    const std::vector<double> full_diag = a.diagonal();
    std::vector<double> local_diag(
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin),
        full_diag.begin() + static_cast<std::ptrdiff_t>(begin + len));
    precond::JacobiPreconditioner local_pc(std::move(local_diag), a.stats());
    const std::unique_ptr<sparse::MatrixPowers> mpk =
        c.mpk ? std::make_unique<sparse::MatrixPowers>(a, part, comm.rank(),
                                                       c.s)
              : nullptr;
    SpmdEngine engine(comm, dist, uses_pc(c) ? &local_pc : nullptr,
                      /*profiler=*/nullptr, mpk.get());
    std::vector<Vec> bs, xs;
    for (std::size_t col = 0; col < k; ++col) {
      bs.push_back(engine.new_vec());
      xs.push_back(engine.new_vec());
      for (std::size_t i = 0; i < len; ++i) bs[col][i] = b_full[col][begin + i];
    }
    std::vector<SolveStats> stats = run_on(engine, c, bs, xs);
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t col = 0; col < k; ++col)
      for (std::size_t i = 0; i < len; ++i) out.xs[col][begin + i] = xs[col][i];
    if (comm.rank() == 0) out.stats = std::move(stats);
  });
  return out;
}

Pin summarize(const CellOut& out) {
  Pin p{};
  Fnv hist, xh;
  for (const SolveStats& st : out.stats) {
    p.iterations += st.iterations;
    p.replacements += st.replacements;
    p.recoveries += st.recoveries;
    p.final_s = st.final_s;
    hist.u64(st.history.size());
    for (const auto& [it, rnorm] : st.history) {
      hist.u64(it);
      hist.f64(rnorm);
    }
  }
  for (const std::vector<double>& x : out.xs)
    for (double v : x) xh.f64(v);
  p.history_hash = hist.h;
  p.x_hash = xh.h;
  p.trace_hash = out.trace_hash;
  return p;
}

std::string format_row(const std::string& cell, const Pin& p) {
  std::ostringstream os;
  os << "    {\"" << cell << "\", " << p.iterations << ", " << p.replacements
     << ", " << p.recoveries << ", " << p.final_s << ", 0x" << std::hex
     << p.history_hash << "ull, 0x" << p.x_hash << "ull, 0x" << p.trace_hash
     << "ull},";
  return os.str();
}

// clang-format off
const Pin kPins[] = {
#include "trajectory_pins.inc"
};
// clang-format on

const Pin* find_pin(const std::string& cell) {
  for (const Pin& p : kPins)
    if (cell == p.cell) return &p;
  return nullptr;
}

void check_cell(const CellSpec& c) {
  const std::string cell = c.name();
  const Pin got = summarize(run_cell(c));
  const Pin* want = find_pin(cell);
  if (want == nullptr) {
    ADD_FAILURE() << "no pin for cell; generated row:\n"
                  << format_row(cell, got);
    return;
  }
  EXPECT_EQ(got.iterations, want->iterations) << cell;
  EXPECT_EQ(got.replacements, want->replacements) << cell;
  EXPECT_EQ(got.recoveries, want->recoveries) << cell;
  EXPECT_EQ(got.final_s, want->final_s) << cell;
  EXPECT_EQ(got.history_hash, want->history_hash) << cell;
  EXPECT_EQ(got.x_hash, want->x_hash) << cell;
  EXPECT_EQ(got.trace_hash, want->trace_hash) << cell;
  if (::testing::Test::HasFailure())
    std::cout << "actual row:\n" << format_row(cell, got) << "\n";
}

// MPK only changes the unpreconditioned monomial chains; the pin covers it
// on the methods that carry one.
bool mpk_applies(const std::string& method) {
  return method == "scg" || method == "scg-sspmv" || method == "pipe-scg" ||
         method == kMulti;
}

class TrajectoryPinTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TrajectoryPinTest, GridMatchesPinnedTable) {
  const std::string method = GetParam();
  for (BasisType basis : {BasisType::kMonomial, BasisType::kNewton,
                          BasisType::kChebyshev}) {
    for (int s : {2, 3, 5}) {
      CellSpec c;
      c.method = method;
      c.basis = basis;
      c.s = s;
      check_cell(c);
      c.ranks = 2;
      check_cell(c);
      if (mpk_applies(method)) {
        c.mpk = true;
        check_cell(c);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, TrajectoryPinTest,
                         ::testing::Values("scg", "pscg", "scg-sspmv",
                                           "pipe-scg",
                                           "pipe-pscg", "pipecg-oati",
                                           "pipecg3", "hybrid", kMulti),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// Two SDC flips close together: the first forces a rollback, the second
// lands before the restarted attempt saves a checkpoint, so the recovery
// ladder degrades s.
TEST(TrajectoryPinExtraTest, InjectedFaultRollsBackAndDegrades) {
  for (const char* method : {"scg-sspmv", "pipe-scg", "pipe-pscg"}) {
    CellSpec c;
    c.method = method;
    c.ranks = 3;
    c.faults =
        "kind=sdc:target=spmv:iter=40:bit=61;"
        "kind=sdc:target=spmv:iter=44:bit=61";
    check_cell(c);
  }
}

// An unattainable gap tolerance: every check fails, two failed
// replacements escalate, and the ladder degrades s through recovery.
TEST(TrajectoryPinExtraTest, GapToleranceEscalationDegrades) {
  for (const char* method : {"scg-sspmv", "pipe-scg", "pipe-pscg", kMulti}) {
    CellSpec c;
    c.method = method;
    c.s = 6;
    c.escalate = true;
    check_cell(c);
  }
}

}  // namespace
}  // namespace pipescg::krylov
