#include "obs/metrics.h"

#include <chrono>
#include <iterator>

#include "obs/span.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace lz::obs {

const char* to_string(LabelKey key) {
  constexpr const char* kNames[] = {"tenant", "domain", "core", "backend"};
  static_assert(std::size(kNames) == kNumLabelKeys);
  const auto k = static_cast<std::size_t>(key);
  return k < std::size(kNames) ? kNames[k] : "?";
}

LabelSet& LabelSet::set(LabelKey key, std::string_view value) {
  values_[static_cast<std::size_t>(key)] = sanitize_frame(value);
  return *this;
}

LabelSet& LabelSet::set(LabelKey key, u64 value) {
  values_[static_cast<std::size_t>(key)] = std::to_string(value);
  return *this;
}

bool LabelSet::empty() const {
  for (const auto& v : values_)
    if (!v.empty()) return false;
  return true;
}

std::string LabelSet::render() const {
  std::string out;
  for (std::size_t i = 0; i < kNumLabelKeys; ++i) {
    if (values_[i].empty()) continue;
    out += out.empty() ? '{' : ',';
    out += to_string(static_cast<LabelKey>(i));
    out += "=\"";
    out += values_[i];
    out += '"';
  }
  if (!out.empty()) out += '}';
  return out;
}

CounterFamily& MetricsPlane::counter_family(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<CounterFamily>(std::string(name)))
             .first;
  return *it->second;
}

HistogramFamily& MetricsPlane::histogram_family(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<HistogramFamily>(std::string(name)))
             .first;
  return *it->second;
}

std::vector<const CounterFamily*> MetricsPlane::counter_families() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const CounterFamily*> out;
  out.reserve(counters_.size());
  for (const auto& [name, fam] : counters_) out.push_back(fam.get());
  return out;
}

std::vector<const HistogramFamily*> MetricsPlane::histogram_families() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const HistogramFamily*> out;
  out.reserve(histograms_.size());
  for (const auto& [name, fam] : histograms_) out.push_back(fam.get());
  return out;
}

void MetricsPlane::reset() {
  disable();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, fam] : counters_) fam->reset_values();
  for (auto& [name, fam] : histograms_) fam->reset_values();
}

MetricsPlane& metrics() {
  static MetricsPlane plane;
  return plane;
}

const char* to_string(SelfTier tier) {
  constexpr const char* kNames[] = {"run", "obs"};
  static_assert(std::size(kNames) == kNumSelfTiers);
  const auto t = static_cast<std::size_t>(tier);
  return t < std::size(kNames) ? kNames[t] : "?";
}

u64 host_ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
#endif
}

void SelfProfiler::reset() {
  disable();
  for (auto& t : ticks_) t.store(0, std::memory_order_relaxed);
}

SelfProfiler& selfprof() {
  static SelfProfiler prof;
  return prof;
}

}  // namespace lz::obs
