// Analytic machine model of a Cray-XC40-like distributed-memory system.
//
// The paper measures on SahasraT (1376 nodes x 24 cores, Aries interconnect,
// cray-mpich with DMAPP async progress).  We price each solver kernel for a
// given rank count with a roofline-flavoured model:
//
//   kernel time   = max(flops / flop_rate, bytes / mem_bw_effective)
//   SPMV          = kernel time + neighbor messages (halo exchange)
//   allreduce     = (lat_base + lat_hop * ceil(log2 R)^hop_exponent
//                    + bytes_beta * bytes * ceil(log2 R))
//   non-blocking  = an `unoverlappable_fraction` of the allreduce cost is
//                   charged as compute at post time (models the async
//                   progress engine stealing cycles: the paper needed
//                   MPICH_NEMESIS_ASYNC_PROGRESS=1, which is known to add
//                   software overhead); the remainder proceeds concurrently
//                   and wait() advances the clock to max(now, post + G).
//
// The hop_exponent > 1 default reflects measured Cray allreduce behaviour
// under async progress at scale (super-logarithmic growth); together with
// the roofline these defaults reproduce the crossover structure of the
// paper's Figs. 1-4 (see EXPERIMENTS.md for the calibration record).
#pragma once

#include <cstddef>
#include <string>

#include "pipescg/sparse/format.hpp"
#include "pipescg/sparse/operator.hpp"

namespace pipescg::sim {

struct MachineModel {
  // Topology.
  int cores_per_node = 24;

  // Compute roofline, per core.
  double flop_rate = 2.0e9;        // sustained flop/s on sparse kernels
  double mem_bw = 2.8e9;           // bytes/s per core (node bw / cores)
  double cache_boost = 2.0;        // bw multiplier when the per-node working
  double llc_bytes = 3.0e7;        // set fits in the last-level cache

  // Network: neighbor (halo) messages.
  double neigh_latency = 1.5e-6;   // per message
  double link_bw = 8.0e9;          // bytes/s per rank for halo payloads

  // Network: allreduce (blocking MPI_Allreduce, vendor-tuned).
  double lat_base = 5.0e-6;        // fixed software cost per allreduce
  double lat_hop = 0.7e-6;         // per ceil(log2 R)^hop_exponent
  double hop_exponent = 2.0;
  double bytes_beta = 4.0e-10;     // per byte per hop

  // Non-blocking allreduce (MPI_Iallreduce with the async progress engine
  // the paper enables via MPICH_NEMESIS_ASYNC_PROGRESS): optionally slower
  // end-to-end than the tuned blocking collective by `nonblocking_penalty`
  // (1.0 = no penalty; raise it to study async-progress overhead -- see the
  // ablation in bench_fig1), and a fraction of it cannot be hidden
  // (progress threads steal cycles).
  double nonblocking_penalty = 1.0;
  double unoverlappable_fraction = 0.15;

  /// Total ranks for a node count.
  int ranks_for_nodes(int nodes) const { return nodes * cores_per_node; }

  /// Time for a pure compute kernel on one rank of `ranks`.
  /// `total_flops`/`total_bytes` are whole-problem quantities; the kernel is
  /// assumed perfectly partitioned.
  double compute_seconds(double total_flops, double total_bytes,
                         int ranks) const;

  /// Local compute portion of one SPMV (roofline, no halo terms).
  double spmv_compute_seconds(const sparse::OperatorStats& stats,
                              int ranks) const;

  // Format pricing.  spmv_compute_seconds above is the historical 12 B/nnz
  // calibration every existing bench/report is pinned to; it stays untouched.
  // The per-format model below prices the LOCAL sweep with honest traffic:
  // CSR moves 16 B/nnz (8 B value + 8 B int64 index), SELL-C-sigma moves
  // sell_padding * 12 B/nnz (8 B value + 4 B int32 index, scaled by the
  // expected chunk-padding overhead).  Only the new format advisories
  // (sim::suggest_format, print_format_table) consume it.
  double sell_padding = 1.03;  // slots/nnz after the sigma-window sort

  /// Local sweep time of one SPMV stored in `format` at `ranks` ranks.
  double local_spmv_seconds(const sparse::OperatorStats& stats, int ranks,
                            sparse::SparseFormat format) const;

  /// One SPMV of an operator with the given stats at `ranks` ranks:
  /// compute + one halo exchange (messages * latency + volume / bandwidth).
  double spmv_seconds(const sparse::OperatorStats& stats, int ranks) const;

  /// An s-SPMV matrix-powers block (sparse::MatrixPowers) at `ranks` ranks:
  ///   s * compute + redundant_flop(s) + 1 * (alpha + beta * deep_halo)
  /// versus s * (compute + alpha + beta * halo) for s chained spmv_seconds.
  /// The depth-s ghost region is modelled as s stacked depth-1 halos (exact
  /// for slab-partitioned stencils, a good estimate for banded CSR), so the
  /// deep volume is s * halo_doubles and the redundant ghost rows number
  /// sum_{l=1..s-1} (s-l) * halo_doubles = s(s-1)/2 * halo_doubles, each
  /// recomputed at the operator's average row cost.  Message latency is
  /// paid ONCE -- the whole point of the kernel.
  double spmv_block_seconds(const sparse::OperatorStats& stats, int ranks,
                            int s) const;

  /// Blocking allreduce of `doubles` values across `ranks` ranks.
  double allreduce_seconds(int ranks, std::size_t doubles) const;

  // One-time session setup (service::Session): partitioning, per-rank
  // distributed-CSR remap + ghost-run discovery, the optional depth-s
  // matrix-powers closure, preconditioner setup, and spawning the rank
  // team.  Modelled as structure-streaming passes over the operator (the
  // builds are pointer-chasing over nnz, priced at the memory roofline with
  // `setup_pass_factor` passes) plus a per-rank thread/communicator spawn
  // cost.  Deliberately coarse -- its role is the amortization story, not
  // kernel-level fidelity.
  double setup_pass_factor = 3.0;   // structure passes per build
  double spawn_per_rank = 50.0e-6;  // thread + communicator spawn

  /// Wall cost of the cold Session setup for an operator with `stats` at
  /// `ranks` ranks.  `s_depth` > 1 adds the matrix-powers closure (one more
  /// structure pass per ghost layer); `with_pc` adds the diagonal pass.
  double setup_seconds(const sparse::OperatorStats& stats, int ranks,
                       int s_depth, bool with_pc) const;

  /// End-to-end latency of the non-blocking allreduce.
  double iallreduce_seconds(int ranks, std::size_t doubles) const {
    return nonblocking_penalty * allreduce_seconds(ranks, doubles);
  }

  /// Descriptive label for reports.
  std::string describe() const;

  /// The default calibration used by the benches.
  static MachineModel cray_xc40_like() { return MachineModel{}; }
};

}  // namespace pipescg::sim
