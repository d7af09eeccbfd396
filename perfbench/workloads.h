// The four workloads of the repo benchmark. Each is a closed loop on one
// simulated core: op i+1 starts only after op i returns. Workloads reach
// the simulator only through its public surface (core::Env, core::LzProc,
// sim::Core memory accessors, workload::crypto, check::run_a64_fuzz), and
// every input they feed it is generated from the workload seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace lzbench {

// Host seconds of each set-up phase (per-layer `setup.*.s` metrics).
struct SetupTimes {
  double env_s = 0;      // core::Env construction
  double enter_s = 0;    // new process + LzProc::enter (sanitizer included)
  double domains_s = 0;  // domains, gates, world entry
  double data_s = 0;     // generated data installed, caches warmed
  double total() const { return env_s + enter_s + domains_s + data_s; }
};

// What the simulation computed, independent of host speed: simulated
// cycles (instructions retired for a64_streams) and a digest of the ops'
// outputs. Equal seeds must give equal fingerprints.
struct Fingerprint {
  uint64_t sim = 0;
  uint64_t digest = 0;
  bool operator==(const Fingerprint&) const = default;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds a fresh scenario from `seed`.
  virtual SetupTimes setup(uint64_t seed) = 0;
  // Runs op `index`; ops run in index order from 0. Returns false when a
  // call returned a non-OK Status or a data or isolation check failed.
  virtual bool op(uint64_t index) = 0;
  // Accumulated since setup(); ops that differ change it.
  virtual Fingerprint fingerprint() const = 0;
  // Encoded A64 words generated so far (a64_streams only).
  virtual uint64_t words() const { return 0; }
  // Ops after which the workload repeats periodic work; a measured block
  // runs a whole number of these so that every block does the same work.
  virtual uint64_t period_ops() const { return 1; }
};

const std::vector<std::string_view>& workload_names();
// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);

// Host seconds of each of the first `count` a64_streams corpus entries,
// slow ones included (`lzbench --scan-a64`).
std::vector<double> scan_a64_corpus(uint32_t count);

// FNV-1a step, the digest every workload folds its outputs into.
inline uint64_t fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

}  // namespace lzbench
