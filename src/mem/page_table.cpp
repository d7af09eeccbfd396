#include "mem/page_table.h"

#include "mem/pte_observer.h"

namespace lz::mem {

VaRange classify_va(VirtAddr va) {
  const u64 top = va >> kVaBits;
  if (top == 0) return VaRange::kLower;
  if (top == 0xffff) return VaRange::kUpper;
  return VaRange::kInvalid;
}

template <class S>
PageTable<S>::PageTable(PhysMem& pm, u16 id, FrameOps frame_ops)
    : pm_(pm),
      frame_ops_(std::move(frame_ops)),
      root_(alloc_table_frame()),
      root_desc_(desc_addr(root_)),
      asid_(S::kStage2 ? 0 : id),
      vmid_(S::kStage2 ? id : 0) {}

template <class S>
PageTable<S>::~PageTable() {
  visit(root_, 0, 0, [this](PhysAddr table, unsigned, u64) {
    // Dead-regime teardown: the frame is released with live descriptors in
    // it, so the observer must retire its per-location state before the
    // allocator hands the PA out again.
    notify_table_free(&pm_, table);
    frame_ops_.free ? frame_ops_.free(table) : pm_.free_frame(table);
  });
}

template <class S>
void PageTable<S>::write_desc(PhysAddr table, unsigned index, unsigned level,
                              u64 in_addr, u64 new_desc) {
  u64* d = entries(table) + index;
  const u64 old_desc = *d;
  *d = new_desc;
  notify_pte_write(PteWrite{S::kStage2, &pm_, table + u64{index} * 8, in_addr,
                            level + S::kStartLevel, old_desc, new_desc, asid_,
                            vmid_});
}

template <class S>
template <class MakeDesc>
Status PageTable<S>::store_leaf(u64 in, bool map, MakeDesc&& make_desc) {
  if (!S::in_range(in)) {
    return err(Errc::kInvalidArgument, "input address out of range");
  }
  PhysAddr table = root_;
  for (unsigned level = 0; level + 1 < S::kLevels; ++level) {
    const unsigned index = S::index(in, level);
    const u64* d = entries(table) + index;
    if (!pte::valid(*d)) {
      if (!map) return err(Errc::kNotFound, "unmapped");
      write_desc(table, index, level, page_floor(in),
                 pte::make_table(desc_addr(alloc_table_frame())));
    } else if (!pte::is_table(*d)) {
      return err(Errc::kInternal, "block descriptor in walk path");
    }
    table = frame_of_desc(pte::addr(*d));
  }
  const unsigned index = S::index(in, S::kLevels - 1);
  const u64 old_desc = entries(table)[index];
  if (pte::valid(old_desc) == map) {
    return map ? err(Errc::kAlreadyExists, "already mapped")
               : err(Errc::kNotFound, "not mapped");
  }
  write_desc(table, index, S::kLevels - 1, page_floor(in),
             make_desc(old_desc));
  return Status::ok();
}

template <class S>
Status PageTable<S>::map(u64 in, u64 out_addr, const Attrs& attrs) {
  if (!page_aligned(in) || !page_aligned(out_addr)) {
    return err(Errc::kInvalidArgument, "unaligned map");
  }
  return store_leaf(in, /*map=*/true,
                    [&](u64) { return S::make_page(out_addr, attrs); });
}

template <class S>
Status PageTable<S>::unmap(u64 in) {
  return store_leaf(in, /*map=*/false, [](u64) { return u64{0}; });
}

template <class S>
Status PageTable<S>::protect(u64 in, const Attrs& attrs) {
  return store_leaf(in, /*map=*/false, [&](u64 old_desc) {
    return S::make_page(pte::addr(old_desc), attrs);
  });
}

template <class S>
Walk<S> PageTable<S>::lookup(u64 in) const {
  // Under a fake map the descriptors hold IPAs: start the walk from the
  // IPA-space root and resolve every hop through the map, exactly as the
  // hardware walker does through stage-2. The leaf out_addr stays in IPA
  // space (that is what this regime maps to).
  return walk<S>(pm_, root_desc_, in,
                 [this](u64 table) -> std::optional<PhysAddr> {
                   return frame_of_desc(table);
                 });
}

template <class S>
std::vector<PhysAddr> PageTable<S>::table_frames() const {
  std::vector<PhysAddr> out;
  visit(root_, 0, 0,
        [&out](PhysAddr table, unsigned, u64) { out.push_back(table); });
  return out;
}

template <class S>
u64 PageTable<S>::table_pages() const {
  u64 count = 0;
  visit(root_, 0, 0, [&count](PhysAddr, unsigned, u64) { ++count; });
  return count;
}

template class PageTable<Stage1Traits>;
template class PageTable<Stage2Traits>;

}  // namespace lz::mem
