// Self-test of the traced pass: for every traced method, on small versions of
// the benchmark's operators and 2 ranks,
//   * the TimedEngine iterates are bitwise equal to the untraced solve's,
//   * its call counts equal obs::SolveProfile's counters (spmvs, pc_applies,
//     allreduces, iterations) for the same solve,
//   * per rank, spmv + pc + dot_post + allreduce_wait + self sums to the
//     traced wall time, with no negative share.
// Exits 0 when every check holds; prints each failed check and exits 1
// otherwise.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pipescg/obs/profiler.hpp"
#include "pipescg/sparse/poisson125.hpp"
#include "pipescg/sparse/surrogates.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

void check_method(const pipescg::sparse::CsrMatrix& a, const std::string& label,
                  const std::string& method, double rtol) {
  const perfbench::Rhs rhs = perfbench::make_rhs(a, 7);
  pipescg::krylov::SolverOptions opts;
  opts.rtol = rtol;
  opts.s = 3;
  perfbench::RankTeam team(a, 2);
  pipescg::obs::SolveProfile plain_profile(2);
  pipescg::obs::SolveProfile traced_profile(2);
  const perfbench::RankTeam::Result plain =
      team.solve(method, rhs.b, opts, /*traced=*/false, &plain_profile);
  const perfbench::RankTeam::Result traced =
      team.solve(method, rhs.b, opts, /*traced=*/true, &traced_profile);
  const std::string at = label + "/" + method;

  expect(plain.stats.converged, at + ": untraced solve converged");
  expect(traced.x == plain.x, at + ": traced iterate bitwise equal");
  expect(traced.stats.iterations == plain.stats.iterations,
         at + ": traced iteration count equal");
  for (int r = 0; r < 2; ++r) {
    const perfbench::LayerTimes& t = traced.ranks[static_cast<std::size_t>(r)];
    const auto& c = traced_profile.rank(r).counters();
    const auto& u = plain_profile.rank(r).counters();
    const std::string rk = at + " rank " + std::to_string(r);
    expect(t.spmv_calls == c.spmvs, rk + ": spmv calls == profile spmvs");
    expect(t.pc_calls == c.pc_applies,
           rk + ": pc calls == profile pc_applies");
    expect(t.allreduce_posts == c.allreduces,
           rk + ": allreduce posts == profile allreduces");
    expect(t.iterations == c.iterations,
           rk + ": iterations == profile iterations");
    expect(c.spmvs == u.spmvs && c.pc_applies == u.pc_applies &&
               c.allreduces == u.allreduces && c.iterations == u.iterations,
           rk + ": traced profile counters == untraced profile counters");
    expect(t.spmv_calls > 0 && t.allreduce_posts > 0 && t.iterations > 0,
           rk + ": budget saw work");
    const double parts =
        t.spmv_s + t.pc_s + t.dot_post_s + t.allreduce_wait_s + t.self_s();
    expect(std::fabs(parts - t.wall_s) <= 1e-9 * t.wall_s,
           rk + ": layer times sum to the traced wall time");
    expect(t.spmv_s >= 0.0 && t.pc_s >= 0.0 && t.dot_post_s >= 0.0 &&
               t.allreduce_wait_s >= 0.0 && t.self_s() >= 0.0,
           rk + ": no negative share");
    expect(t.vector_bytes > 0.0, rk + ": vector bytes charged");
  }
}

}  // namespace

int main() {
  const std::vector<std::string> methods = {"pcg", "pipecg", "pscg",
                                            "pipe-pscg", "scg-sspmv"};
  const pipescg::sparse::CsrMatrix poisson =
      pipescg::sparse::make_poisson125_csr(12);
  const pipescg::sparse::CsrMatrix ecology =
      pipescg::sparse::make_ecology2_like(40, 40);
  const pipescg::sparse::CsrMatrix thermal =
      pipescg::sparse::make_thermal2_like(16, 16);
  for (const std::string& m : methods) {
    check_method(poisson, "poisson125(12)", m, 1e-5);
    check_method(ecology, "ecology2(40x40)", m, 1e-2);
    check_method(thermal, "thermal2(16x16)", m, 1e-6);
  }
  if (failures == 0) {
    std::printf("perfbench self-test: all checks passed (%zu methods x 3 "
                "operators)\n",
                methods.size());
    return 0;
  }
  std::printf("perfbench self-test: %d checks failed\n", failures);
  return 1;
}
