// lz::obs — the bounded ring the event trace, the span tracer and the
// time-series sampler keep their records in.
//
// Fixed capacity, overwrite-oldest: a push into a full ring replaces the
// oldest entry and counts one overwrite; items() copies the entries out
// oldest-first. Every member takes one leaf mutex: the rings are written
// only while their owner is armed, so contention does not matter.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "support/types.h"

namespace lz::obs {

template <typename T>
class Ring {
 public:
  // Resize to `capacity` slots and drop every entry and the overwrite
  // count. A zero-capacity ring ignores pushes.
  void reset(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.assign(capacity, T{});
    head_ = count_ = 0;
    overwritten_ = 0;
  }

  // Drop every entry and the overwrite count; keep the capacity.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    head_ = count_ = 0;
    overwritten_ = 0;
  }

  // Store `value`; true when it overwrote the oldest entry.
  bool push(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (slots_.empty()) return false;
    slots_[head_] = std::move(value);
    head_ = (head_ + 1) % slots_.size();
    if (count_ < slots_.size()) {
      ++count_;
      return false;
    }
    ++overwritten_;
    return true;
  }

  // The entries, oldest first.
  std::vector<T> items() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> out;
    out.reserve(count_);
    const std::size_t start = count_ < slots_.size() ? 0 : head_;
    for (std::size_t i = 0; i < count_; ++i)
      out.push_back(slots_[(start + i) % slots_.size()]);
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  u64 overwritten() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overwritten_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<T> slots_;
  std::size_t head_ = 0;  // next write index
  std::size_t count_ = 0;
  u64 overwritten_ = 0;
};

}  // namespace lz::obs
