// Fake-physical-address randomization layer (§5.1.2).
//
// A TTBR-mode LightZone process controls its own stage-1 translation, so it
// can read the "physical" addresses in its stage-1 PTEs. To avoid leaking
// real frame numbers (which would ease Rowhammer-style targeting of kernel
// rows), the kernel module populates stage-1 PTEs with *fake* physical
// pages allocated sequentially in fault order (first fault -> 0x1000,
// second -> 0x2000, ...); stage-2 then maps fake pages to the real frames.
//
// Because fake pages are handed out sequentially and never reused, the
// fake -> real direction is a dense vector indexed by fake page number:
// real_of, which every stage-1 table hop of a kernel-managed table takes,
// is an index rather than a hash lookup.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "support/status.h"
#include "support/types.h"

namespace lz::mem {

class FakePhysMap {
 public:
  // Fake address space starts one page up so that 0 stays "never mapped".
  explicit FakePhysMap(IntermAddr first_fake = kPageSize)
      : first_fake_(first_fake) {
    LZ_CHECK(page_aligned(first_fake));
  }

  // Fake page for a real frame, allocating the next sequential fake page on
  // first use. One-to-one: a real frame always gets the same fake page.
  IntermAddr fake_of(PhysAddr real_page);

  std::optional<PhysAddr> real_of(IntermAddr fake) const {
    if (fake < first_fake_) return std::nullopt;
    const u64 i = page_index(fake - first_fake_);
    if (i >= fake_to_real_.size() || fake_to_real_[i] == kErased) {
      return std::nullopt;
    }
    return fake_to_real_[i] | page_offset(fake);
  }
  std::optional<IntermAddr> lookup_fake(PhysAddr real_page) const;

  void erase_real(PhysAddr real_page);

  u64 size() const { return real_to_fake_.size(); }

 private:
  // Not page-aligned, so no real frame (PA 0 included) can collide with it.
  static constexpr PhysAddr kErased = ~PhysAddr{0};

  IntermAddr first_fake_;
  std::unordered_map<u64, u64> real_to_fake_;  // page-aligned addresses
  // Real page of fake page first_fake_ + i * kPageSize, or kErased.
  std::vector<PhysAddr> fake_to_real_;
};

}  // namespace lz::mem
