// Host-time statistics and the metric catalogue of the repo benchmark.
//
// Every end-to-end and per-layer metric the benchmark can print is declared
// once in metric_catalogue(): its name, unit, which run reports it (the
// untraced run prints the end-to-end set, the traced run the per-layer
// set), and for per-layer metrics the workload it should move. run.py
// checks BENCHMARK.json against this table.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lzbench {

// Log-linear histogram of non-negative integer samples (nanoseconds here):
// exact below 128, then 128 sub-buckets per power of two, so a bucket is
// at most 0.8% wide. Fixed size, so recording never allocates and memory
// does not grow with run length.
class LogHistogram {
 public:
  LogHistogram();
  void record(uint64_t v, uint64_t n = 1);
  void clear();
  uint64_t count() const { return count_; }
  // The non-empty buckets as (bucket, count), to keep many histograms
  // small. merge() adds such a list back in, each bucket's samples at its
  // midpoint times `scale`.
  std::vector<std::pair<unsigned, uint64_t>> compact() const;
  void merge(const std::vector<std::pair<unsigned, uint64_t>>& c, double scale);
  // Nearest-rank quantile, interpolated inside its bucket. count() > 0.
  double quantile(double q) const;

 private:
  static constexpr unsigned kSub = 128;
  static unsigned bucket_of(uint64_t v);
  static double bucket_low(unsigned b);
  static double bucket_high(unsigned b);
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// A percentile of n samples is reported only when more than 10 samples lie
// beyond it; with fewer, the tail is a handful of outliers, not a shape.
bool percentile_reportable(uint64_t n, double q);

// Metric names are made of letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

enum class MetricRun { kEndToEnd, kPerLayer };

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  MetricRun run;
  std::string_view better;  // end-to-end only: "higher" / "lower"
  std::string_view moves;   // per-layer: workload(s) it should move on
};

const std::vector<MetricDef>& metric_catalogue();

}  // namespace lzbench
