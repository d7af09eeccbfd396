// Host-speed reference of the repo benchmark.
//
// On a shared host the same code runs up to ~1.6x slower for seconds to
// minutes at a time (other tenants on the same cores and caches), and
// every timing of a run moves with it. HostSpeed times a fixed piece of
// reference work that belongs to the benchmark, not to the program under
// test: a dependent walk over a 256 KiB table plus hash-map lookups, the
// same kind of work the simulator does. Timings taken next to it are
// scaled to the reference speed, t * kRefNs / probe_ns(), so a slow spell
// of the host cancels out while a change to the program does not.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace lzbench {

class HostSpeed {
 public:
  // Host nanoseconds of one probe at the reference speed: about its
  // median on the 4-vCPU KVM guest (Intel Xeon) the benchmark was written
  // on.
  static constexpr double kRefNs = 450'000;

  HostSpeed();
  // Host nanoseconds of the reference work now: the mean of 6 timed
  // repetitions after a warm-up one, ~3 ms in all.
  double probe_ns();

 private:
  std::vector<uint32_t> next_;  // one cycle through every slot
  std::unordered_map<uint64_t, uint64_t> map_;
};

}  // namespace lzbench
