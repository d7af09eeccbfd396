#include "obs/timeseries.h"

#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/metrics.h"

namespace lz::obs {

void TimeSeries::arm(u64 period, std::size_t capacity) {
  ring_.reset(capacity ? capacity : 1);
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
  ring_.reset(0);
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
  ring_.push(std::move(sample));
  // Live-exposition pump rides the same due-threshold: each sample is also
  // a scrape point when a dump file is armed.
  exposition_pump().poll();
}

TimeSeries& timeseries() {
  static TimeSeries series;
  return series;
}

void timeseries_poll_slow() { timeseries().poll(cycle_ledger().total()); }

}  // namespace lz::obs
