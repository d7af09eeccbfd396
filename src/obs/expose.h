// lz::obs — Prometheus-style text exposition of the metrics plane.
//
// `render_exposition` serialises, in one deterministic pass, the flat
// counter registry, every labeled counter family, the flat histograms and
// labeled histogram families as `{quantile="0.5"|"0.9"|"0.99"}` lines plus
// count/min/max (mean for flat ones, sum for families), the host counters
// (`sim.trace.*`) and, optionally, the `host.self.*` ticks. Names are the
// registry names with '.' mangled to '_', families sort by name and series
// by label-set, and label values were sanitized by LabelSet::set. Every
// value outside the host and self sections derives from simulated work, so
// two same-seed runs render byte-identical snapshots.
//
// The ExpositionPump rewrites the snapshot file each time the TimeSeries
// sampler takes a sample, so a long run can be scraped with `cat`/`watch`.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>

#include "support/types.h"

namespace lz::obs {

struct ExpositionOptions {
  // Include `host.self.*` wall-clock tick attribution. Never deterministic;
  // off by default so the default exposition stays byte-identical across
  // same-seed runs.
  bool include_self = false;
};

// Render the full exposition snapshot as text.
std::string render_exposition(const ExpositionOptions& opts = {});

// Render and write to `path` (truncate). Returns false on I/O error.
bool write_exposition(const std::string& path,
                      const ExpositionOptions& opts = {});

// Periodic dump pump. Armed with a target path, poll() (called from
// TimeSeries::take_sample, i.e. from whichever simulated-core thread
// crossed the sampling threshold) rewrites the snapshot file. Writing is
// serialised by a mutex; the armed check is one relaxed load so the
// disarmed pump costs nothing on the sampling path.
class ExpositionPump {
 public:
  void arm(std::string path, ExpositionOptions opts = {});
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Dump now if armed. Safe from any thread.
  void poll();

  u64 dumps() const { return dumps_.load(std::memory_order_relaxed); }

  // Disarm and zero the dump count (reset_all()).
  void reset();

 private:
  std::atomic<bool> armed_{false};
  std::atomic<u64> dumps_{0};
  std::mutex mu_;
  std::string path_;
  ExpositionOptions opts_;
};

ExpositionPump& exposition_pump();

}  // namespace lz::obs
