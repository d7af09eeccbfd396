#include "support/id_allocator.h"

#include <bit>

#include "support/status.h"

namespace lz {

IdAllocator::IdAllocator(u32 max_id, std::function<void()> flush_all)
    : max_(max_id),
      flush_all_(std::move(flush_all)),
      live_(max_id / 64 + 1, 0),
      taken_(max_id / 64 + 1, 0) {
  LZ_CHECK(max_id >= 1);
  live_[0] = taken_[0] = 1;  // ID 0 is reserved: permanently live
}

u32 IdAllocator::find_untaken(u32 from) const {
  for (u32 w = from / 64; w < taken_.size(); ++w) {
    u64 free = ~taken_[w];
    if (w == from / 64) free &= ~u64{0} << (from % 64);
    if (free == 0) continue;
    const u32 id = w * 64 + static_cast<u32>(std::countr_zero(free));
    return id <= max_ ? id : 0;
  }
  return 0;
}

std::optional<u32> IdAllocator::alloc() {
  std::lock_guard<std::mutex> lock(mu_);
  u32 id = cursor_ <= max_ ? find_untaken(cursor_) : 0;
  if (id == 0) {
    // Rollover: flush every cached translation first, then only the live
    // IDs stay taken.
    flush_all_();
    taken_ = live_;
    id = find_untaken(1);
    if (id == 0) return std::nullopt;  // every ID is live
  }
  live_[id / 64] |= u64{1} << (id % 64);
  taken_[id / 64] |= u64{1} << (id % 64);
  cursor_ = id + 1;
  return id;
}

void IdAllocator::free(u32 id) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 bit = u64{1} << (id % 64);
  LZ_CHECK(id != 0 && id <= max_ && (live_[id / 64] & bit) != 0);
  live_[id / 64] &= ~bit;
}

}  // namespace lz
