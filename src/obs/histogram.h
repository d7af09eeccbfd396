// lz::obs — log-bucketed latency histograms (HDR-histogram style).
//
// Each power-of-two major bucket splits into 16 linear minor buckets, so
// the relative error is at most 1/16 (6.25%) and [0, 2^64) fits in 976
// buckets. record() is lock-free and commutative from any thread (relaxed
// adds, CAS loops for min and max). The HistogramRegistry's histograms,
// which every domain switch records into, skip even that: each host thread
// records into its own Shard's copy with record_owned() (loads and stores,
// no read-modify-write), and readers merge the copies into the same
// counts, sum, min, max and percentiles. Recording never charges a cycle.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.h"
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

  void record(u64 value, u64 count = 1) {
    buckets_[bucket_index(value)].fetch_add(count, std::memory_order_relaxed);
    atomic_min(min_, value);
    atomic_max(max_, value);
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(value * count, std::memory_order_relaxed);
  }
  // record(value) by the histogram's one writer (a Shard's thread).
  void record_owned(u64 value) {
    detail::owned_add(buckets_[bucket_index(value)], 1);
    detail::owned_add(count_, 1);
    detail::owned_add(sum_, value);
    if (value < min_.load(std::memory_order_relaxed)) {
      min_.store(value, std::memory_order_relaxed);
    }
    if (value > max_.load(std::memory_order_relaxed)) {
      max_.store(value, std::memory_order_relaxed);
    }
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

  // Adds every bucket (and count/sum/min/max) of `other`. It and reset()
  // walk only the buckets between min and max: exact unless a record()
  // runs concurrently.
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
  std::size_t used_end() const;  // one past the last bucket in use

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

namespace detail {
// Bumped by HistogramRegistry::reset(): a shard's copies count from the
// generation in its histogram_gen, and older ones read as empty.
inline std::atomic<u64> g_histogram_gen{0};
// The shard's copy for `slot`, made or (new generation) zeroed by the owner.
Histogram& fresh_histogram(Shard& shard, std::size_t slot);
}  // namespace detail

// A registry histogram: one slot of every Shard. A reset starts a new
// generation instead of writing into the shards (min and max cannot be
// rebased the way counts are); owners zero stale copies on their next
// record.
class ShardedHistogram {
 public:
  explicit ShardedHistogram(std::size_t slot) : slot_(slot) {}

  void record(u64 value) {
    Shard& shard = this_thread_shard();
    Histogram* h = shard.histograms[slot_].load(std::memory_order_relaxed);
    if (h == nullptr || shard.histogram_gen.load(std::memory_order_relaxed) !=
                            detail::g_histogram_gen.load(
                                std::memory_order_relaxed)) {
      h = &detail::fresh_histogram(shard, slot_);
    }
    h->record_owned(value);
  }
  // Resets `out` and merges every shard's current copy into it.
  void merge_into(Histogram& out) const;

 private:
  std::size_t slot_;
};

// Named histogram registry, mirroring obs::Registry: registration returns a
// stable reference (hot paths record through a cached handle), snapshots are
// name-sorted and skip empty histograms so unused instruments never appear
// in reports.
class HistogramRegistry {
 public:
  ShardedHistogram& histogram(std::string_view name);
  // The merged histogram as of this call (the registry's copy, which the
  // next find or snapshot rewrites), or nullptr for an unknown name.
  const Histogram* find(std::string_view name) const;
  std::vector<HistogramStats> snapshot() const;
  void reset();

 private:
  struct Entry {
    explicit Entry(std::size_t slot) : handle(slot) {}
    ShardedHistogram handle;
    mutable Histogram merged;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> histograms_;
};

// The process-wide histogram registry (same lifetime model as registry()).
HistogramRegistry& histograms();

}  // namespace lz::obs
