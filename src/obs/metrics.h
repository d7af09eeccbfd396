// lz::obs — the per-tenant metrics plane and the host self-profiler.
//
// Labeled metric families: `name{tenant=,domain=,core=,backend=}` series of
// Counters and Histograms. A family maps a bounded set of label
// combinations (kMaxSeriesPerFamily; the rest fold into one overflow
// series rendered with `overflow="true"`) to stable series handles that hot
// paths resolve once and record through without a lock. The plane is
// disabled by default and observe-only: every wiring site guards on
// `metrics().enabled()` (one relaxed load), and enabled series values
// depend on simulated work only, so same-seed runs render byte-identical
// expositions (expose.h).
//
// The self-profiler (`host.self.*`) brackets engine tiers and the obs
// stack's own work with host ticks, flushed at the run-exit flush points.
// Ticks are wall clock, so they never appear in JSON reports or the
// default exposition; ci.sh gates host.self.obs against the engine total.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "support/types.h"

namespace lz::obs {

// --- Labels ------------------------------------------------------------------

// The fixed, ordered label vocabulary. Exposition renders present labels in
// this order, so label order can never depend on insertion order.
enum class LabelKey : u8 { kTenant, kDomain, kCore, kBackend, kCount };
constexpr std::size_t kNumLabelKeys = static_cast<std::size_t>(LabelKey::kCount);
const char* to_string(LabelKey key);

// A small fixed vector of label values ("" = label absent). Values are
// sanitized on entry with sanitize_frame (span.h) — the same defence the
// collapsed-stack exporter uses — so a tenant named `evil";x="1` or one
// containing `;`/whitespace can never corrupt the exposition format.
class LabelSet {
 public:
  LabelSet() = default;

  LabelSet& set(LabelKey key, std::string_view value);
  LabelSet& set(LabelKey key, u64 value);

  const std::string& get(LabelKey key) const {
    return values_[static_cast<std::size_t>(key)];
  }
  bool empty() const;

  // Exposition fragment: `{tenant="a",domain="3"}` in LabelKey order, ""
  // when no label is set. Deterministic for a given set of values.
  std::string render() const;

  bool operator<(const LabelSet& o) const { return values_ < o.values_; }
  bool operator==(const LabelSet& o) const { return values_ == o.values_; }

 private:
  std::array<std::string, kNumLabelKeys> values_;
};

// --- Families ----------------------------------------------------------------

// Per-family series bound. 512 comfortably holds the fleet shapes we model
// (64 workers x a handful of domains) while capping a hostile tenant space.
constexpr std::size_t kMaxSeriesPerFamily = 512;

template <typename Instrument>
class MetricFamily {
 public:
  explicit MetricFamily(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Registers `labels` on first use and returns a stable series handle;
  // past kMaxSeriesPerFamily distinct label-sets, returns the shared
  // overflow series instead (its label renders as overflow="true").
  Instrument& with(const LabelSet& labels) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(labels);
    if (it == series_.end()) {
      if (series_.size() >= kMaxSeriesPerFamily) {
        dropped_series_.fetch_add(1, std::memory_order_relaxed);
        return overflow_;
      }
      it = series_.try_emplace(labels).first;
    }
    return it->second;
  }

  // Distinct label-sets folded into the overflow series so far.
  u64 dropped_series() const {
    return dropped_series_.load(std::memory_order_relaxed);
  }

  struct SeriesRef {
    LabelSet labels;
    const Instrument* inst;
    bool overflow;
  };

  // Series sorted by label-set (std::map order); the shared overflow series
  // is appended last (flagged) when it was ever hit. Instrument pointers
  // stay valid for the family's lifetime.
  std::vector<SeriesRef> series() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SeriesRef> out;
    out.reserve(series_.size() + 1);
    for (const auto& [labels, inst] : series_)
      out.push_back({labels, &inst, false});
    if (dropped_series_.load(std::memory_order_relaxed) > 0)
      out.push_back({LabelSet{}, &overflow_, true});
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return series_.size();
  }

  // Zero every series value; registrations and handles stay valid.
  void reset_values() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [labels, inst] : series_) inst.reset();
    overflow_.reset();
    dropped_series_.store(0, std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  mutable std::mutex mu_;
  std::map<LabelSet, Instrument> series_;
  Instrument overflow_;
  std::atomic<u64> dropped_series_{0};
};

using CounterFamily = MetricFamily<Counter>;
using HistogramFamily = MetricFamily<Histogram>;

// --- The plane ---------------------------------------------------------------

class MetricsPlane {
 public:
  // Hot-path gate: every wiring site checks this before touching a family
  // or a cached handle, so the disabled plane costs one relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Registers `name` on first use; stable reference for the process
  // lifetime (mirrors Registry::counter / HistogramRegistry::histogram).
  CounterFamily& counter_family(std::string_view name);
  HistogramFamily& histogram_family(std::string_view name);

  // Name-sorted family lists for the exposition (map iteration order).
  std::vector<const CounterFamily*> counter_families() const;
  std::vector<const HistogramFamily*> histogram_families() const;

  // Disable and zero every series value in every family. Family and series
  // handles stay valid (reset_all() calls this between bench sessions).
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  // unique_ptr: families are not movable (mutex + atomics) and handles
  // must survive rehash-free forever.
  std::map<std::string, std::unique_ptr<CounterFamily>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<HistogramFamily>, std::less<>>
      histograms_;
};

// The process-wide metrics plane (same lifetime model as registry()).
MetricsPlane& metrics();

// --- Host-side self-profiling (`host.self.*`) --------------------------------

// Engine tiers the self-profiler attributes host wall-clock to. kRun is
// the outer Core::run bracket and *includes* its sub-tiers (trace-tier
// execute, walker, oracle); kObs is everything the obs stack does on the
// host (time-series sampling, exposition rendering/writing, report
// assembly) and is disjoint from kRun.
enum class SelfTier : u8 { kRun, kTraceExec, kWalker, kOracle, kObs, kCount };
constexpr std::size_t kNumSelfTiers = static_cast<std::size_t>(SelfTier::kCount);
const char* to_string(SelfTier tier);

// Monotonic host tick source: TSC where cheap, steady_clock nanoseconds
// otherwise. Only ratios between tiers are ever consumed, so the unit does
// not need to be calibrated.
u64 host_ticks();

class SelfProfiler {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Attribute `ticks` to `tier`. Relaxed fetch_add on a per-tier global;
  // sim cores batch per-core and flush at their run-exit flush point, so
  // this is never on a per-instruction path.
  void add(SelfTier tier, u64 ticks) {
    ticks_[static_cast<std::size_t>(tier)].fetch_add(ticks,
                                                     std::memory_order_relaxed);
  }
  u64 ticks(SelfTier tier) const {
    return ticks_[static_cast<std::size_t>(tier)].load(
        std::memory_order_relaxed);
  }

  // Disable and zero all tiers.
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  std::array<std::atomic<u64>, kNumSelfTiers> ticks_{};
};

SelfProfiler& selfprof();

// RAII bracket: reads host_ticks() twice when the profiler is enabled at
// construction, nothing otherwise.
class SelfProfScope {
 public:
  explicit SelfProfScope(SelfTier tier)
      : tier_(tier), start_(selfprof().enabled() ? host_ticks() : 0) {}
  ~SelfProfScope() {
    if (start_ != 0) selfprof().add(tier_, host_ticks() - start_);
  }
  SelfProfScope(const SelfProfScope&) = delete;
  SelfProfScope& operator=(const SelfProfScope&) = delete;

 private:
  SelfTier tier_;
  u64 start_;
};

}  // namespace lz::obs
