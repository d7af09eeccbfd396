#include "mem/phys_mem.h"

#include <cstring>

#include "mem/pte_observer.h"

namespace lz::mem {

PhysMem::PhysMem(PhysAddr base, u64 size)
    : ram_base_(base), ram_size_(size), next_frame_(base) {
  radix_pages_ = page_index(ram_base_ + ram_size_ - 1) + 1;
  const u64 chunks = (radix_pages_ + kChunkPages - 1) / kChunkPages;
  root_ = std::make_unique<std::atomic<Chunk*>[]>(chunks);
  for (u64 i = 0; i < chunks; ++i) {
    root_[i].store(nullptr, std::memory_order_relaxed);
  }
}

PhysMem::~PhysMem() {
  // The address space is going away: any observer keying per-descriptor
  // state on (this, pa) must drop it — a later PhysMem can reuse both the
  // heap address and the physical addresses.
  notify_phys_mem_destroyed(this);
  const u64 chunks = (radix_pages_ + kChunkPages - 1) / kChunkPages;
  for (u64 i = 0; i < chunks; ++i) {
    Chunk* c = root_[i].load(std::memory_order_relaxed);
    if (c == nullptr) continue;
    for (auto& slot : c->slots) {
      delete slot.load(std::memory_order_relaxed);
    }
    delete c;
  }
}

PhysAddr PhysMem::alloc_frame() {
  PhysAddr pa;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_list_.empty()) {
      pa = free_list_.back();
      free_list_.pop_back();
    } else {
      LZ_CHECK(next_frame_ + kPageSize <= ram_base_ + ram_size_);
      pa = next_frame_;
      next_frame_ += kPageSize;
    }
    ++frames_in_use_;
    frames_peak_ = std::max(frames_peak_, frames_in_use_);
  }
  // A frame that never materialized reads as zero once it does; zeroing it
  // here would only create it early and fill it twice.
  if (Page* p = peek(page_index(pa))) std::memset(p->data(), 0, kPageSize);
  return pa;
}

void PhysMem::free_frame(PhysAddr pa) {
  LZ_CHECK(page_aligned(pa) && in_ram(pa));
  std::lock_guard<std::mutex> lock(mu_);
  LZ_CHECK(frames_in_use_ > 0);
  --frames_in_use_;
  free_list_.push_back(pa);
}

PhysMem::Page& PhysMem::materialize(u64 idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (idx >= radix_pages_) {
    auto it = overflow_.find(idx);
    if (it == overflow_.end()) {
      it = overflow_.emplace(idx, std::make_unique<Page>()).first;
      it->second->fill(0);
    }
    return *it->second;
  }
  auto& chunk_slot = root_[idx / kChunkPages];
  Chunk* c = chunk_slot.load(std::memory_order_relaxed);
  if (c == nullptr) {
    c = new Chunk();
    chunk_slot.store(c, std::memory_order_release);
  }
  auto& page_slot = c->slots[idx % kChunkPages];
  Page* p = page_slot.load(std::memory_order_relaxed);
  if (p == nullptr) {
    p = new Page();  // value-initialized: zero-filled
    page_slot.store(p, std::memory_order_release);
  }
  return *p;
}

u64 PhysMem::read(PhysAddr pa, u8 size) const {
  LZ_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  LZ_CHECK(page_offset(pa) + size <= kPageSize);
  u64 value = 0;
  std::memcpy(&value, page(pa).data() + page_offset(pa), size);
  return value;
}

void PhysMem::write(PhysAddr pa, u8 size, u64 value) {
  LZ_CHECK(size == 1 || size == 2 || size == 4 || size == 8);
  LZ_CHECK(page_offset(pa) + size <= kPageSize);
  std::memcpy(page(pa).data() + page_offset(pa), &value, size);
}

void PhysMem::read_bytes(PhysAddr pa, void* out, u64 len) const {
  auto* dst = static_cast<u8*>(out);
  while (len > 0) {
    const u64 chunk = std::min(len, kPageSize - page_offset(pa));
    std::memcpy(dst, page(pa).data() + page_offset(pa), chunk);
    pa += chunk;
    dst += chunk;
    len -= chunk;
  }
}

void PhysMem::write_bytes(PhysAddr pa, const void* data, u64 len) {
  const auto* src = static_cast<const u8*>(data);
  while (len > 0) {
    const u64 chunk = std::min(len, kPageSize - page_offset(pa));
    std::memcpy(page(pa).data() + page_offset(pa), src, chunk);
    pa += chunk;
    src += chunk;
    len -= chunk;
  }
}

}  // namespace lz::mem
