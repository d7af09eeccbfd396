#include "hostspeed.h"

#include <algorithm>
#include <numeric>

#include "spans.h"

namespace lzbench {

namespace {
constexpr uint32_t kSlots = 1 << 16;  // 256 KiB of uint32_t
constexpr uint64_t kKeys = 4'096;
constexpr int kSteps = 20'000;
constexpr int kRepeats = 6;
constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

uint64_t key_of(uint64_t k) { return k * kGolden >> 20; }
}  // namespace

HostSpeed::HostSpeed() : next_(kSlots) {
  // A fixed random cyclic permutation: each step depends on the last one
  // and lands on an unpredictable slot.
  std::vector<uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  uint64_t x = 88172645463325252ull;  // xorshift64, fixed seed
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % (i + 1)]);
  }
  for (uint32_t i = 0; i < kSlots; ++i) next_[order[i]] = order[(i + 1) % kSlots];
  for (uint64_t k = 0; k < kKeys; ++k) map_[key_of(k)] = k;
}

double HostSpeed::probe_ns() {
  // The first repetition brings the probe's data back into cache and is
  // not counted, so the program's memory footprint does not reach the
  // probe; the mean of the rest follows short bursts of other load on the
  // host as the program's own op times do.
  double total = 0;
  for (int r = 0; r <= kRepeats; ++r) {
    const int64_t t0 = now_ns();
    uint64_t h = 0;
    uint32_t p = 0;
    for (int i = 0; i < kSteps; ++i) {
      p = next_[p];
      const auto it = map_.find(key_of(p % kKeys));
      h = h * 31 + (it == map_.end() ? 1 : it->second);
      h = (h & 1) != 0 ? h ^ (h >> 7) : h + p;
    }
    asm volatile("" : : "r"(h));  // keep the loop
    if (r > 0) total += static_cast<double>(now_ns() - t0);
  }
  return total / kRepeats;
}

}  // namespace lzbench
