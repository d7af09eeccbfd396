#include "obs/histogram.h"

#include "support/status.h"

namespace lz::obs {

u64 Histogram::min() const {
  const u64 v = min_.load(std::memory_order_relaxed);
  return v == ~u64{0} ? 0 : v;
}

double Histogram::mean() const {
  const u64 n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

u64 Histogram::bucket_upper(std::size_t index) {
  if (index < kSubBuckets) return static_cast<u64>(index);
  // index = shift * 16 + (v >> shift) with (v >> shift) in [16, 32), so
  // index / 16 recovers shift + 1.
  const unsigned shift = static_cast<unsigned>(index / kSubBuckets) - 1;
  const u64 sub = static_cast<u64>(index % kSubBuckets) + kSubBuckets;
  // The bucket covers [sub << shift, ((sub + 1) << shift) - 1].
  return ((sub + 1) << shift) - 1;
}

u64 Histogram::percentile(double p) const {
  const u64 n = count();
  if (n == 0) return 0;
  // Rank of the percentile sample, 1-based, rounded up (nearest-rank).
  u64 rank = static_cast<u64>(p / 100.0 * static_cast<double>(n) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  u64 seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      const u64 upper = bucket_upper(i);
      const u64 mx = max();
      return upper < mx ? upper : mx;  // never report beyond the seen max
    }
  }
  return max();
}

std::size_t Histogram::used_end() const {
  // Every value recorded since the last reset lies in [min, max], so only
  // those buckets (a few dozen for one latency) can be nonzero.
  return count() == 0 ? 0 : bucket_index(max()) + 1;
}

void Histogram::merge_from(const Histogram& other) {
  for (std::size_t i = bucket_index(other.min()); i < other.used_end(); ++i) {
    const u64 c = other.buckets_[i].load(std::memory_order_relaxed);
    if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  if (other.count() != 0) {
    atomic_min(min_, other.min());
    atomic_max(max_, other.max());
  }
}

void Histogram::reset() {
  for (std::size_t i = bucket_index(min()); i < used_end(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~u64{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Histogram& detail::fresh_histogram(Shard& shard, std::size_t slot) {
  const u64 gen = g_histogram_gen.load(std::memory_order_relaxed);
  if (shard.histogram_gen.load(std::memory_order_relaxed) != gen) {
    for (auto& copy : shard.histograms) {
      if (Histogram* h = copy.load(std::memory_order_relaxed)) h->reset();
    }
    shard.histogram_gen.store(gen, std::memory_order_release);
  }
  Histogram* h = shard.histograms[slot].load(std::memory_order_relaxed);
  if (h == nullptr) {
    h = new Histogram;  // lives as long as its shard: forever
    shard.histograms[slot].store(h, std::memory_order_release);
  }
  return *h;
}

namespace {
// `slot`'s copy in `shard` when it counts from the current generation.
const Histogram* current_copy(const Shard& shard, std::size_t slot) {
  if (shard.histogram_gen.load(std::memory_order_acquire) !=
      detail::g_histogram_gen.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  return shard.histograms[slot].load(std::memory_order_acquire);
}
}  // namespace

void ShardedHistogram::merge_into(Histogram& out) const {
  out.reset();
  shards().for_each([&](const Shard& shard) {
    if (const Histogram* h = current_copy(shard, slot_)) out.merge_from(*h);
  });
}

ShardedHistogram& HistogramRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    LZ_CHECK(histograms_.size() < Shard::kSlots);
    it = histograms_.try_emplace(std::string(name), histograms_.size()).first;
  }
  return it->second.handle;
}

const Histogram* HistogramRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return nullptr;
  it->second.handle.merge_into(it->second.merged);
  return &it->second.merged;
}

std::vector<HistogramStats> HistogramRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramStats> out;
  out.reserve(histograms_.size());
  for (auto& [name, e] : histograms_) {
    e.handle.merge_into(e.merged);
    const Histogram& h = e.merged;
    if (h.count() == 0) continue;  // unused instruments stay out of reports
    HistogramStats s;
    s.name = name;
    s.count = h.count();
    s.min = h.min();
    s.max = h.max();
    s.mean = h.mean();
    s.p50 = h.percentile(50.0);
    s.p90 = h.percentile(90.0);
    s.p99 = h.percentile(99.0);
    out.push_back(std::move(s));
  }
  return out;
}

void HistogramRegistry::reset() {
  detail::g_histogram_gen.fetch_add(1, std::memory_order_relaxed);
}

HistogramRegistry& histograms() {
  static HistogramRegistry r;
  return r;
}

}  // namespace lz::obs
