// Fixed-capacity newest-kept ring, the retention policy of every bounded
// observation buffer (request-trace span rings, convergence telemetry).
//
// Storage grows on demand up to the capacity; once full, each push
// overwrites the oldest retained item and dropped() counts it, so a
// pathologically long solve degrades to "most recent window" instead of
// unbounded memory.  Single-writer, no locks.
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

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  /// Items overwritten because the ring was full.
  std::size_t dropped() const { return dropped_; }

  void push(T item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return;
    }
    items_[head_] = std::move(item);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }

  /// Retained items in push order (oldest retained first).
  std::vector<T> items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i)
      out.push_back(items_[(head_ + i) % items_.size()]);
    return out;
  }

 private:
  std::size_t capacity_;
  std::vector<T> items_;
  std::size_t head_ = 0;  // oldest retained item once full
  std::size_t dropped_ = 0;
};

}  // namespace pipescg::obs
