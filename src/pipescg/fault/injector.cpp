#include "pipescg/fault/injector.hpp"

#include <cstring>
#include <sstream>
#include <thread>

namespace pipescg::fault {

Injector::Injector(std::vector<FaultSpec> specs, int rank)
    : specs_(std::move(specs)), rank_(rank) {
  // Slow faults compose multiplicatively and are consulted per kernel via
  // SlowScope rather than per event, so fold them out of the event list.
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == FaultKind::kSlow && spec.rank == rank_)
      slow_factor_ *= spec.factor;
  }
}

void Injector::on_event(FaultTarget target, std::span<double> out) {
  const std::uint64_t index = events_[static_cast<std::size_t>(target)]++;
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == FaultKind::kSlow) continue;  // handled by SlowScope
    if (!spec.matches(rank_, target) || spec.iter != index) continue;
    fire(spec, out);
  }
}

void Injector::fire(const FaultSpec& spec, std::span<double> out) {
  switch (spec.kind) {
    case FaultKind::kStall:
      ++injected_;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          spec.ms));
      break;
    case FaultKind::kDie: {
      ++injected_;
      std::ostringstream os;
      os << "injected rank death: rank " << rank_ << " at "
         << to_string(spec.target) << " event " << spec.iter;
      throw RankDeath(os.str());
    }
    case FaultKind::kSdc:
      corrupt(spec, out);
      break;
    case FaultKind::kSlow:
      break;
  }
}

void Injector::corrupt(const FaultSpec& spec, std::span<double> out) {
  if (out.empty()) return;  // sdc only perturbs value-producing targets
  // Entry and bit choices are a pure function of (seed, rank), never of
  // wall-clock or addresses, so reruns corrupt identically.
  Rng rng(spec.seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(
                                                   rank_ + 1)));
  const std::size_t entry = static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(out.size())));
  std::uint64_t bitsrep;
  std::memcpy(&bitsrep, &out[entry], sizeof(bitsrep));
  if (spec.bit >= 0) {
    bitsrep ^= (1ull << spec.bit);
  } else {
    for (int b = 0; b < spec.bits; ++b)
      bitsrep ^= (1ull << rng.next_below(64));
  }
  std::memcpy(&out[entry], &bitsrep, sizeof(bitsrep));
  ++injected_;
}

SlowScope::~SlowScope() {
  if (inj_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  std::this_thread::sleep_for(elapsed * (inj_->slow_factor() - 1.0));
}

}  // namespace pipescg::fault
