// lz::obs v4 — Prometheus-style text exposition of the metrics plane.
//
// `render_exposition` serialises, in one deterministic pass:
//   * the flat counter registry (`registry().snapshot()`),
//   * every labeled counter family (`metrics()`), one line per series,
//   * flat histogram summaries and labeled histogram families as
//     `{quantile="0.5"|"0.9"|"0.99"}` gauge lines plus
//     `_count/_sum/_min/_max`,
//   * the host-counter registry (`sim.trace.*`), and
//   * optionally the `host.self.*` self-profiler ticks.
//
// Format discipline: metric names are the registry names with '.' mangled
// to '_' (Prometheus charset), families render sorted by name, series
// sorted by label-set, labels in fixed LabelKey order, values as integers
// (mean as fixed 3-decimal). Label values pass through sanitize_frame at
// LabelSet::set time, so nothing here can emit an unescaped '"' or a
// newline. Every value outside the host and self sections is derived from
// simulated work only; host counters are deterministic for a fixed
// configuration, and the opt-in self section is excluded from the
// byte-identity contract, so two same-seed runs render byte-identical
// snapshots.
//
// The ExpositionPump provides the *live* view: armed with a path, it
// rewrites the snapshot file each time the TimeSeries sampler takes a
// sample (riding the sampler's due-threshold hook in every charge), so a
// long-running bench can be scraped mid-flight with plain `cat`/`watch`.
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
