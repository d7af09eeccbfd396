// lz::obs — cycle-driven sampling profiler with per-domain attribution.
//
// Every N *simulated* cycles the executing core records (core, PC, EL,
// VMID/ASID of its translation context, PSTATE.PAN), so the same workload
// produces the same samples on every run, whatever the host does. Cores
// poll the armed period at run()/top-level-step boundaries and keep a
// plain bool on their hot path, so a disarmed profiler costs nothing per
// instruction. One sample attributes `period` cycles to its (domain, EL),
// so attributions sum to sampled simulated time.
//
// Exports: a per-PC hotspot table and per-domain/per-EL ledgers for the
// JSON report, and collapsed stacks (`frame;frame;... count`) for
// flamegraph.pl or speedscope.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/types.h"

namespace lz::obs {

struct SampleKey {
  u32 core = 0;
  u8 el = 0;
  u8 pan = 0;
  u16 vmid = 0;
  u16 asid = 0;
  u64 pc = 0;

  auto tie() const { return std::tuple(core, el, pan, vmid, asid, pc); }
  bool operator<(const SampleKey& o) const { return tie() < o.tie(); }
};

class Profiler {
 public:
  static constexpr std::size_t kMaxKeys = 1u << 16;
  static constexpr u64 kDefaultPeriod = 4096;

  // Arm with a sampling period in simulated cycles (0 disarms). Cores pick
  // the change up at their next run()/top-level-step boundary.
  void arm(u64 period);
  void disarm() { arm(0); }
  u64 period() const { return period_.load(std::memory_order_relaxed); }
  bool armed() const { return period() != 0; }
  // Bumped by every arm()/disarm()/reset(); cores use it to cheaply detect
  // configuration changes.
  u64 epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // Record one sample (called by sim::Core when its cycle budget elapses).
  void record(const SampleKey& key);

  u64 samples() const;
  // Distinct sample contexts that could not be stored because the bounded
  // aggregation map was full (their cycles still land in the domain/EL
  // ledgers, so attribution totals stay exact).
  u64 dropped_keys() const;

  struct DomainSlice {
    u16 vmid = 0;
    u16 asid = 0;
    u64 samples = 0;
  };
  std::vector<DomainSlice> by_domain() const;  // sorted by (vmid, asid)
  std::array<u64, 3> by_el() const;            // samples per EL0/EL1/EL2

  // Top-N PCs by sample count (count desc, then PC asc — deterministic).
  std::vector<std::pair<u64, u64>> hotspots(std::size_t top_n) const;

  // Collapsed-stack export: `core<c>;EL<e>;pan<p>;vmid<v>;asid<a>;0x<pc> N`
  // per distinct context, sorted by key. Feed straight into flamegraph.pl.
  std::string collapsed() const;

  // Drops all recorded samples; the armed period is preserved.
  void reset();

 private:
  std::atomic<u64> period_{0};
  std::atomic<u64> epoch_{0};

  mutable std::mutex mu_;
  std::map<SampleKey, u64> samples_map_;
  std::map<std::pair<u16, u16>, u64> domain_samples_;
  std::array<u64, 3> el_samples_{};
  u64 total_samples_ = 0;
  u64 dropped_keys_ = 0;
};

// The process-wide profiler (same lifetime model as registry()).
Profiler& profiler();

}  // namespace lz::obs
