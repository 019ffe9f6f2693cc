#include "pipescg/service/solve_context.hpp"

namespace pipescg::service {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kExpired:
      return "expired";
  }
  return "unknown";
}

}  // namespace pipescg::service
