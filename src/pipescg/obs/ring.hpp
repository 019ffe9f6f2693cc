// Fixed-capacity newest-kept ring, the retention policy of every bounded
// observation buffer (per-rank span recorders, convergence telemetry).
//
// Storage grows on demand, in fixed chunks that growth never copies, up to
// the capacity; once full, each push overwrites the oldest retained item
// and dropped() counts it, so a pathologically long solve degrades to "most
// recent window" instead of unbounded memory.  Single-writer, no locks.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "pipescg/base/error.hpp"

namespace pipescg::obs {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {
    PIPESCG_CHECK(capacity_ > 0, "ring capacity must be positive");
  }

  std::size_t size() const { return size_; }
  /// Items overwritten because the ring was full.
  std::size_t dropped() const { return dropped_; }

  /// Push T(args...), constructed in place while the ring fills.
  template <class... Args>
  void push(Args&&... args) {
    if (size_ < capacity_) {
      if (size_ % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
      chunks_.back().emplace_back(std::forward<Args>(args)...);
      ++size_;
      return;
    }
    at(head_) = T(std::forward<Args>(args)...);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
  }

  /// The newest item; the ring must not be empty.
  const T& back() const { return at((head_ == 0 ? size_ : head_) - 1); }

  /// Retained items in push order (oldest retained first).
  std::vector<T> items() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i)
      out.push_back(at((head_ + i) % size_));
    return out;
  }

 private:
  static constexpr std::size_t kChunk = 256;

  T& at(std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  const T& at(std::size_t i) const { return chunks_[i / kChunk][i % kChunk]; }

  std::size_t capacity_;
  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
  std::size_t head_ = 0;  // oldest retained item once full
  std::size_t dropped_ = 0;
};

}  // namespace pipescg::obs
