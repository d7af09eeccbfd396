// lz::obs — time-series telemetry.
//
// A simulated-cycle-driven sampler: every `period` cycles of global
// simulated work (CycleLedger::total), snapshot the counter registry and
// the latency-histogram registry into a fixed-size ring of samples. The
// result is rps / p99-over-time data for saturation sweeps — the substrate
// the fleet-scale serving bench plots stand on — emitted as the
// `timeseries` section of lz.bench.report.v2.
//
// The sampler hooks the hottest function in the tree
// (sim::CycleAccount::charge), so the disabled cost had better be nothing:
// it is one relaxed load of the next-due threshold (parked at ~0 when
// disarmed) and one branch. When armed, every charge takes the out-of-line
// slow path, which derives the ledger total and polls, so on one core the
// first charge whose total reaches a period boundary takes the sample;
// under SMP the thread whose charge crosses the threshold CAS-claims it,
// and losers of the race skip. Sampling itself reads counters and
// histogram stats — observe-only, zero simulated cycles charged, so cycle
// totals and golden reports are byte-identical whether or not the sampler
// runs.
//
// Samples are timestamped by the ledger total at claim time. Under SMP the
// claim interleaving (and so exact sample timestamps) may vary run to run;
// the deterministic-report CI legs simply do not pass --ts-period, and the
// section is only emitted when armed.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"
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

  std::size_t size() const;
  u64 dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Recorded samples, oldest first.
  std::vector<TimeSeriesSample> samples() const;

 private:
  void take_sample(u64 total);

  std::atomic<u64> period_{0};
  std::atomic<u64> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TimeSeriesSample> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

TimeSeries& timeseries();

}  // namespace lz::obs
