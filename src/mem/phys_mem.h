// Sparse physical memory with a frame allocator. Pages materialise on
// first touch, zero-filled; the allocator hands out zeroed frames for page
// tables, kernel structures and process memory, zeroing only a frame that
// has materialized (a recycled frame, or one written before allocation).
// Allocation counts feed the memory-overhead numbers reported in §9.
//
// Thread-safety: one PhysMem is shared by every core of the SMP machine.
// The page index is a two-level radix of std::atomic<Page*>: readers walk
// it with acquire loads and never take a lock (pages are never reclaimed,
// only reused, so a published pointer stays valid until the PhysMem is
// destroyed). Page creation and the frame allocator stay mutex-guarded;
// creation publishes the zeroed page with a release store, so any thread
// that observes the pointer also observes the zero fill. Byte accesses
// themselves are unlocked — concurrent accesses to the *same* page are the
// simulated software's own data races, exactly as on hardware.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "support/status.h"
#include "support/types.h"

namespace lz::mem {

class PhysMem {
 public:
  // [base, base + size) is the RAM window the frame allocator serves.
  explicit PhysMem(PhysAddr base = 0x4000'0000, u64 size = u64{4} << 30);
  ~PhysMem();

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  // --- Frame allocator ------------------------------------------------------
  PhysAddr alloc_frame();
  void free_frame(PhysAddr pa);
  u64 frames_in_use() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_in_use_;
  }
  u64 frames_peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_peak_;
  }

  // --- Raw access (hypervisor/device view; no translation, no checks) ------
  u64 read(PhysAddr pa, u8 size) const;
  void write(PhysAddr pa, u8 size, u64 value);
  void read_bytes(PhysAddr pa, void* out, u64 len) const;
  void write_bytes(PhysAddr pa, const void* data, u64 len);
  u32 read_word(PhysAddr pa) const { return static_cast<u32>(read(pa, 4)); }

  // Direct pointer to the backing page (created on demand). Valid until the
  // PhysMem is destroyed; pages are never reclaimed, only reused.
  u8* page_ptr(PhysAddr pa) { return page(pa).data(); }
  const u8* page_ptr(PhysAddr pa) const { return page(pa).data(); }

  bool in_ram(PhysAddr pa) const {
    return pa >= ram_base_ && pa < ram_base_ + ram_size_;
  }

 private:
  using Page = std::array<u8, kPageSize>;
  // One radix leaf: 1024 page slots (a 4 MiB physical span).
  static constexpr u64 kChunkPages = 1024;
  struct Chunk {
    std::atomic<Page*> slots[kChunkPages] = {};
  };

  // Lock-free radix lookup, inline: every page-table walk level and
  // table scan goes through it. nullptr: not materialized yet (or outside
  // the radix).
  Page* peek(u64 idx) const {
    if (idx >= radix_pages_) return nullptr;
    Chunk* c = root_[idx / kChunkPages].load(std::memory_order_acquire);
    if (c == nullptr) return nullptr;
    return c->slots[idx % kChunkPages].load(std::memory_order_acquire);
  }
  Page& page(PhysAddr pa) const {
    const u64 idx = page_index(pa);
    if (Page* p = peek(idx)) return *p;
    return materialize(idx);
  }
  // Slow path: create (or race-lose and reuse) the page under the mutex.
  Page& materialize(u64 idx) const;

  mutable std::mutex mu_;
  PhysAddr ram_base_;
  u64 ram_size_;
  PhysAddr next_frame_;
  std::vector<PhysAddr> free_list_;
  u64 frames_in_use_ = 0;
  u64 frames_peak_ = 0;

  // Radix root covering page indices [0, radix_pages_): everything from
  // PA 0 through the top of the RAM window, so the allocator's frames and
  // low "device" addresses all take the lock-free path. Out-of-range PAs
  // (tests poking arbitrary addresses) fall back to a mutexed map.
  u64 radix_pages_ = 0;
  std::unique_ptr<std::atomic<Chunk*>[]> root_;
  mutable std::unordered_map<u64, std::unique_ptr<Page>> overflow_;
};

}  // namespace lz::mem
