// Solver event traces.
//
// A solver run on the SerialEngine records the exact sequence of kernel
// invocations and allreduce post/wait points.  The sequence is independent of
// the simulated rank count (the numerics are identical however the vectors
// are partitioned), so a single solve yields the timing for *every* node
// count via Timeline::evaluate -- this is what lets the benches sweep 1..140
// nodes from one solve per method.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipescg/sparse/operator.hpp"

namespace pipescg::sim {

enum class EventKind : std::uint8_t {
  kCompute,        // generic vector work: flops + bytes
  kSpmv,           // one SPMV of operator `index`
  kPcApply,        // one preconditioner application of profile `index`
  kAllreducePost,  // allreduce posted: id + payload doubles; value == 1.0
                   // marks a *blocking* collective (MPI_Allreduce), 0.0 a
                   // non-blocking one (MPI_Iallreduce)
  kAllreduceWait,  // wait on allreduce `id`
  kIterationMark,  // end of CG-equivalent iteration `iter`, residual `value`
};

struct Event {
  EventKind kind;
  std::uint64_t id = 0;       // allreduce id or iteration number
  double flops = 0.0;         // kCompute
  double bytes = 0.0;         // kCompute / payload doubles for posts
  std::uint32_t index = 0;    // operator / pc profile index
  double value = 0.0;         // residual norm for iteration marks
};

/// Cost profile of a preconditioner application, in whole-problem units.
struct PcCostProfile {
  std::string name = "identity";
  double flops = 0.0;
  double bytes = 0.0;
  // Communication per apply, expressed as equivalent SPMV halo exchanges
  // (e.g. SSOR ~ 1, MG V-cycle ~ 2 x levels).
  double halo_exchanges = 0.0;
  // Stats used to size those halo exchanges (usually the operator's).
  sparse::OperatorStats stats;
};

class EventTrace {
 public:
  /// Register metadata; returns the index events refer to.
  std::uint32_t register_operator(const sparse::OperatorStats& stats);
  std::uint32_t register_pc(const PcCostProfile& profile);

  void record(const Event& e) { events_.push_back(e); }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<sparse::OperatorStats>& operators() const {
    return operators_;
  }
  const std::vector<PcCostProfile>& pcs() const { return pcs_; }

  /// Kernel counters (cross-checked against Table I in tests/benches).
  struct Counters {
    std::size_t spmvs = 0;
    std::size_t pc_applies = 0;
    std::size_t allreduces = 0;
    std::size_t iterations = 0;  // CG-equivalent iterations
    double vector_flops = 0.0;   // VMA + dot flops (excl. SPMV/PC)
  };
  Counters counters() const;

 private:
  std::vector<Event> events_;
  std::vector<sparse::OperatorStats> operators_;
  std::vector<PcCostProfile> pcs_;
};

}  // namespace pipescg::sim
