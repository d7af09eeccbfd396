// lz::obs — time-series telemetry.
//
// A simulated-cycle-driven sampler: every `period` cycles of global
// simulated work (CycleLedger::total), snapshot the counter registry and
// the latency-histogram registry into an obs::Ring of samples, emitted as
// the `timeseries` section of lz.bench.report.v2 (rps / p99 over time).
//
// The hook sits in sim::CycleAccount::charge, the hottest function in the
// tree: disarmed, it is one relaxed load of the next-due threshold (parked
// at ~0) and a branch. Armed, every charge takes the out-of-line slow
// path, which derives the ledger total and polls; the thread whose charge
// crosses the threshold CAS-claims the sample. Sampling only reads, so
// cycle totals and golden reports do not depend on it. Sample timestamps
// are the ledger total at claim time, which under SMP may vary run to run,
// so the deterministic-report CI legs do not pass --ts-period.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/ring.h"
#include "support/types.h"

namespace lz::obs {

// The due threshold (detail::g_ts_next_due) and the charge-path slow-path
// declaration live in counters.h, below sim::CycleAccount::charge, the hook
// site; this header owns the sampler itself.

struct TimeSeriesSample {
  Cycles ts = 0;  // ledger total when the sample was claimed
  Snapshot counters;
  std::vector<HistogramStats> histograms;
};

class TimeSeries {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  // Start sampling every `period` simulated cycles, keeping the most
  // recent `capacity` samples. The first sample is due one period from
  // the current ledger total.
  void arm(u64 period, std::size_t capacity = kDefaultCapacity);
  // Park the sampler and keep recorded samples for export.
  void disarm();
  bool armed() const { return period_.load(std::memory_order_relaxed) != 0; }
  u64 period() const { return period_.load(std::memory_order_relaxed); }

  // Drop samples and disarm (test / session boundary).
  void reset();

  // Called (out of line) after each charge while armed, with the ledger
  // total; if it crossed the due threshold, CAS-claims the sample slot and
  // snapshots.
  void poll(u64 total);

  // Force a sample at the current ledger total (end-of-run flush so short
  // runs still export their final state).
  void sample_now();

  std::size_t size() const { return ring_.size(); }
  u64 dropped() const { return ring_.overwritten(); }

  // Recorded samples, oldest first.
  std::vector<TimeSeriesSample> samples() const { return ring_.items(); }

 private:
  void take_sample(u64 total);

  std::atomic<u64> period_{0};
  Ring<TimeSeriesSample> ring_;
};

TimeSeries& timeseries();

}  // namespace lz::obs
