#include "pipescg/fault/recovery.hpp"

#include <algorithm>
#include <cmath>

#include "pipescg/base/error.hpp"
#include "pipescg/obs/profiler.hpp"

namespace pipescg::fault {

bool RecoveryManager::should_save(double rnorm) const {
  if (!enabled_ || !std::isfinite(rnorm)) return false;
  return !has_checkpoint() || rnorm < rnorm_;
}

void RecoveryManager::save(std::span<const double> x, std::size_t iteration,
                           double rnorm) {
  if (!enabled_) return;
  x_.assign(x.begin(), x.end());
  iteration_ = iteration;
  rnorm_ = rnorm;
  saved_since_failure_ = true;
}

std::size_t RecoveryManager::restore(std::span<double> x) const {
  PIPESCG_CHECK(has_checkpoint(), "rollback without a checkpoint");
  PIPESCG_CHECK(x.size() == x_.size(), "rollback size mismatch");
  std::copy(x_.begin(), x_.end(), x.begin());
  // Every rollback is an instantaneous mark on the rank's track, so
  // recovery attempts show up in the recording and the request trace.
  if (obs::Profiler* prof = obs::Profiler::current())
    prof->mark("recovery_rollback",
               {{"iteration", static_cast<double>(iteration_)},
                {"rnorm", rnorm_}});
  return iteration_;
}

bool RecoveryManager::admit_failure() {
  if (!enabled_) return false;
  ++recoveries_;
  if (obs::Profiler* prof = obs::Profiler::current())
    prof->mark("recovery_failure_admitted",
               {{"recoveries", static_cast<double>(recoveries_)}});
  if (escalated_) {
    // Gap-monitor escalation: jump straight to the degrade-s threshold.
    consecutive_ = 2;
    escalated_ = false;
  } else {
    consecutive_ = saved_since_failure_ ? 1 : consecutive_ + 1;
  }
  saved_since_failure_ = false;
  return recoveries_ <= static_cast<std::size_t>(std::max(max_recoveries_, 0));
}

}  // namespace pipescg::fault
