#include "obs/timeseries.h"

#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/metrics.h"

namespace lz::obs {

void TimeSeries::arm(u64 period, std::size_t capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity ? capacity : 1;
    ring_.clear();
    ring_.resize(capacity_);
    head_ = 0;
    count_ = 0;
  }
  dropped_.store(0, std::memory_order_relaxed);
  period_.store(period ? period : 1, std::memory_order_relaxed);
  const u64 p = period_.load(std::memory_order_relaxed);
  detail::g_ts_next_due.store(cycle_ledger().total() + p,
                              std::memory_order_relaxed);
}

void TimeSeries::disarm() {
  period_.store(0, std::memory_order_relaxed);
  detail::g_ts_next_due.store(detail::kTsParked, std::memory_order_relaxed);
}

void TimeSeries::reset() {
  disarm();
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  count_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
}

void TimeSeries::poll(u64 total) {
  u64 due = detail::g_ts_next_due.load(std::memory_order_relaxed);
  const u64 period = period_.load(std::memory_order_relaxed);
  if (period == 0 || total < due) return;
  // Catch up past bursts that skipped whole periods; one sample per claim.
  const u64 next = ((total / period) + 1) * period;
  if (!detail::g_ts_next_due.compare_exchange_strong(
          due, next, std::memory_order_relaxed))
    return;  // another thread claimed this sample
  take_sample(total);
}

void TimeSeries::sample_now() {
  if (!armed()) return;
  take_sample(cycle_ledger().total());
}

void TimeSeries::take_sample(u64 total) {
  SelfProfScope prof(SelfTier::kObs);
  // Snapshot outside the ring mutex so it stays a leaf lock.
  TimeSeriesSample sample;
  sample.ts = total;
  sample.counters = registry().snapshot();
  sample.histograms = histograms().snapshot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) return;
    if (count_ == capacity_) dropped_.fetch_add(1, std::memory_order_relaxed);
    ring_[head_] = std::move(sample);
    head_ = (head_ + 1) % capacity_;
    if (count_ < capacity_) ++count_;
  }
  // Live-exposition pump rides the same due-threshold: each sample is also
  // a scrape point when a dump file is armed.
  exposition_pump().poll();
}

std::size_t TimeSeries::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::vector<TimeSeriesSample> TimeSeries::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TimeSeriesSample> out;
  out.reserve(count_);
  const std::size_t start = (head_ + capacity_ - count_) % capacity_;
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % capacity_]);
  return out;
}

TimeSeries& timeseries() {
  static TimeSeries series;
  return series;
}

void timeseries_poll_slow() { timeseries().poll(cycle_ledger().total()); }

}  // namespace lz::obs
