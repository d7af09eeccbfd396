#include "obs/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/span.h"

namespace lz::obs {

void Profiler::arm(u64 period) {
  period_.store(period, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

void Profiler::record(const SampleKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_samples_;
  if (key.el < el_samples_.size()) ++el_samples_[key.el];
  ++domain_samples_[{key.vmid, key.asid}];
  auto it = samples_map_.find(key);
  if (it != samples_map_.end()) {
    ++it->second;
  } else if (samples_map_.size() < kMaxKeys) {
    samples_map_.emplace(key, 1);
  } else {
    ++dropped_keys_;  // ledgers above still got the sample
  }
}

u64 Profiler::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_samples_;
}

u64 Profiler::dropped_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_keys_;
}

std::vector<Profiler::DomainSlice> Profiler::by_domain() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DomainSlice> out;
  out.reserve(domain_samples_.size());
  for (const auto& [key, n] : domain_samples_) {
    out.push_back({key.first, key.second, n});
  }
  return out;
}

std::array<u64, 3> Profiler::by_el() const {
  std::lock_guard<std::mutex> lock(mu_);
  return el_samples_;
}

std::vector<std::pair<u64, u64>> Profiler::hotspots(std::size_t top_n) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Aggregate per PC across contexts first.
  std::map<u64, u64> per_pc;
  for (const auto& [key, n] : samples_map_) per_pc[key.pc] += n;
  std::vector<std::pair<u64, u64>> out(per_pc.begin(), per_pc.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

std::string Profiler::collapsed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(samples_map_.size() * 64);
  for (const auto& [key, n] : samples_map_) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "core%u;EL%u;pan%u;vmid%u;asid%u;",
                  key.core, key.el, key.pan, key.vmid, key.asid);
    out += buf;
    // Tenant frame, when one is registered for this (VMID, ASID). The
    // label is user-supplied, so it must not smuggle flamegraph.pl's
    // frame separator (';') or the count separator (whitespace) into the
    // stack line — sanitize_frame maps those to '_'.
    const std::string label = domain_label(key.vmid, key.asid);
    if (!label.empty()) {
      out += sanitize_frame(label);
      out += ';';
    }
    std::snprintf(buf, sizeof buf, "0x%" PRIx64 " %" PRIu64 "\n", key.pc, n);
    out += buf;
  }
  return out;
}

void Profiler::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples_map_.clear();
    domain_samples_.clear();
    el_samples_.fill(0);
    total_samples_ = 0;
    dropped_keys_ = 0;
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

Profiler& profiler() {
  static Profiler p;
  return p;
}

}  // namespace lz::obs
