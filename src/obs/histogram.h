// lz::obs — log-bucketed latency histograms (HDR-histogram style).
//
// Fixed-memory value-distribution recorders for simulated-cycle latencies
// (domain switch, DVM shootdown, syscall forward, world switch). Values are
// bucketed by a power-of-two major bucket subdivided into 16 linear minor
// buckets, so the relative quantization error is bounded by 1/16 (6.25%)
// while the whole range [0, 2^64) fits in 976 buckets (~8 KiB of atomics).
//
// record() is a single relaxed atomic add — safe from every simulated-core
// thread, lock-free, and commutative, so totals are deterministic regardless
// of thread interleaving (the same contract as obs::Counter). Histograms
// observe and never charge: recording can never perturb cycle totals,
// counters, or the simulated sections of a report.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.h"

namespace lz::obs {

// Relaxed CAS loops lowering / raising `a` to `v`.
inline void atomic_min(std::atomic<u64>& a, u64 v) {
  u64 cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void atomic_max(std::atomic<u64>& a, u64 v) {
  u64 cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

class Histogram {
 public:
  // 16 linear sub-buckets per power-of-two major bucket.
  static constexpr unsigned kSubBucketBits = 4;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
  // Values < kSubBuckets get an exact bucket each; above that, bucket
  // index = shift * 16 + (v >> shift) with (v >> shift) in [16, 32).
  static constexpr std::size_t kNumBuckets =
      (64 - kSubBucketBits) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(u64 value, u64 count = 1) {
    buckets_[bucket_index(value)].fetch_add(count, std::memory_order_relaxed);
    atomic_min(min_, value);
    atomic_max(max_, value);
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(value * count, std::memory_order_relaxed);
  }

  u64 count() const { return count_.load(std::memory_order_relaxed); }
  u64 sum() const { return sum_.load(std::memory_order_relaxed); }
  u64 min() const;  // 0 when empty
  u64 max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  // Upper bound of the bucket holding the p-th percentile (p in [0, 100]).
  // Exact for values < 16; within 6.25% above. Deterministic for a given
  // multiset of recorded values.
  u64 percentile(double p) const;

  // Adds every bucket (and count/sum/min/max) of `other` into this
  // histogram. Used to merge per-core recorders into one distribution.
  void merge_from(const Histogram& other);

  void reset();

  static std::size_t bucket_index(u64 v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned shift = msb - kSubBucketBits;
    return static_cast<std::size_t>(shift) * kSubBuckets +
           static_cast<std::size_t>(v >> shift);
  }
  // Largest value mapping to `index` (the value percentile() reports).
  static u64 bucket_upper(std::size_t index);

 private:
  std::array<std::atomic<u64>, kNumBuckets> buckets_{};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> min_{~u64{0}};
  std::atomic<u64> max_{0};
};

// Summary row used by reports: everything a percentile section needs.
struct HistogramStats {
  std::string name;
  u64 count = 0;
  u64 min = 0;
  u64 max = 0;
  double mean = 0.0;
  u64 p50 = 0;
  u64 p90 = 0;
  u64 p99 = 0;
};

// Named histogram registry, mirroring obs::Registry: registration returns a
// stable reference (hot paths record through a cached handle), snapshots are
// name-sorted and skip empty histograms so unused instruments never appear
// in reports.
class HistogramRegistry {
 public:
  Histogram& histogram(std::string_view name);
  const Histogram* find(std::string_view name) const;
  std::vector<HistogramStats> snapshot() const;
  void reset();
  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

// The process-wide histogram registry (same lifetime model as registry()).
HistogramRegistry& histograms();

}  // namespace lz::obs
