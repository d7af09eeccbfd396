#include "mem/fake_phys.h"

namespace lz::mem {

IntermAddr FakePhysMap::fake_of(PhysAddr real_page) {
  LZ_CHECK(page_aligned(real_page));
  auto [it, inserted] = real_to_fake_.try_emplace(real_page);
  if (inserted) {
    it->second = first_fake_ + fake_to_real_.size() * kPageSize;
    fake_to_real_.push_back(real_page);
  }
  return it->second;
}

std::optional<IntermAddr> FakePhysMap::lookup_fake(PhysAddr real_page) const {
  auto it = real_to_fake_.find(page_floor(real_page));
  if (it == real_to_fake_.end()) return std::nullopt;
  return it->second;
}

void FakePhysMap::erase_real(PhysAddr real_page) {
  auto it = real_to_fake_.find(real_page);
  if (it == real_to_fake_.end()) return;
  fake_to_real_[page_index(it->second - first_fake_)] = kErased;
  real_to_fake_.erase(it);
}

}  // namespace lz::mem
