#include "mem/page_table.h"

#include "mem/pte_observer.h"

namespace lz::mem {

VaRange classify_va(VirtAddr va) {
  const u64 top = va >> kVaBits;
  if (top == 0) return VaRange::kLower;
  if (top == 0xffff) return VaRange::kUpper;
  return VaRange::kInvalid;
}

S2Walk walk_stage2(const PhysMem& pm, PhysAddr root, IntermAddr ipa) {
  S2Walk w;
  if (ipa >> kIpaBits) {
    w.fault_level = 0;  // out-of-range IPA: faults before the first lookup
    return w;
  }
  u64 table = root;
  for (unsigned level = 0; level < kStage2Levels; ++level) {
    const unsigned index = s2_index(ipa, level);
    const u64 desc = reinterpret_cast<const u64*>(pm.page_ptr(table))[index];
    ++w.mem_accesses;
    if (!pte::valid(desc)) {
      // The 3-level concatenated walk starts at architectural level 1, so
      // the loop index converts to the DFSC fault level by that offset.
      w.fault_level = level + kStage2StartLevel;
      return w;
    }
    if (level == kStage2Levels - 1) {
      w.ok = true;
      w.out_addr = pte::addr(desc) | page_offset(ipa);
      w.attrs = pte::s2_attrs(desc);
      w.leaf_pa = table + u64{index} * 8;
      return w;
    }
    LZ_CHECK(pte::is_table(desc));
    table = pte::addr(desc);
  }
  return w;
}

// --- Stage1Table -------------------------------------------------------------

Stage1Table::Stage1Table(PhysMem& pm, u16 asid, FrameOps frame_ops)
    : pm_(pm), frame_ops_(std::move(frame_ops)), root_(0), asid_(asid) {
  root_ = alloc_table_frame();
  root_desc_ = desc_addr(root_);
}

Stage1Table::~Stage1Table() { free_recursive(root_, 0); }

PhysAddr Stage1Table::alloc_table_frame() {
  return frame_ops_.alloc ? frame_ops_.alloc() : pm_.alloc_frame();
}

void Stage1Table::write_desc(PhysAddr table, unsigned index, unsigned level,
                             u64 in_addr, u64 new_desc) {
  u64* d = entries(table) + index;
  const u64 old_desc = *d;
  *d = new_desc;
  notify_pte_write(PteWrite{/*stage2=*/false, &pm_, table + u64{index} * 8,
                            in_addr, level, old_desc, new_desc, asid_, vmid_});
}

Status Stage1Table::walk_to_leaf(VirtAddr va, bool create,
                                 PhysAddr* leaf_table) {
  if (classify_va(va) == VaRange::kInvalid) {
    return err(Errc::kInvalidArgument, "non-canonical VA");
  }
  PhysAddr table = root_;
  for (unsigned level = 0; level + 1 < kStage1Levels; ++level) {
    u64* d = entries(table) + s1_index(va, level);
    if (!pte::valid(*d)) {
      if (!create) return err(Errc::kNotFound, "unmapped");
      const PhysAddr next = alloc_table_frame();
      write_desc(table, s1_index(va, level), level, page_floor(va),
                 pte::make_table(desc_addr(next)));
    } else if (!pte::is_table(*d)) {
      return err(Errc::kInternal, "block descriptor in walk path");
    }
    table = frame_of_desc(pte::addr(*d));
  }
  *leaf_table = table;
  return Status::ok();
}

Status Stage1Table::map(VirtAddr va, u64 out_addr, const S1Attrs& attrs) {
  if (!page_aligned(va) || !page_aligned(out_addr)) {
    return err(Errc::kInvalidArgument, "unaligned map");
  }
  PhysAddr leaf{};
  LZ_RETURN_IF_ERROR(walk_to_leaf(va, /*create=*/true, &leaf));
  u64* d = entries(leaf) + s1_index(va, kStage1Levels - 1);
  if (pte::valid(*d)) return err(Errc::kAlreadyExists, "page already mapped");
  write_desc(leaf, s1_index(va, kStage1Levels - 1), kStage1Levels - 1, va,
             pte::make_s1_page(out_addr, attrs));
  return Status::ok();
}

Status Stage1Table::unmap(VirtAddr va) {
  PhysAddr leaf{};
  LZ_RETURN_IF_ERROR(walk_to_leaf(va, /*create=*/false, &leaf));
  u64* d = entries(leaf) + s1_index(va, kStage1Levels - 1);
  if (!pte::valid(*d)) return err(Errc::kNotFound, "page not mapped");
  write_desc(leaf, s1_index(va, kStage1Levels - 1), kStage1Levels - 1,
             page_floor(va), 0);
  return Status::ok();
}

Status Stage1Table::protect(VirtAddr va, const S1Attrs& attrs) {
  PhysAddr leaf{};
  LZ_RETURN_IF_ERROR(walk_to_leaf(va, /*create=*/false, &leaf));
  u64* d = entries(leaf) + s1_index(va, kStage1Levels - 1);
  if (!pte::valid(*d)) return err(Errc::kNotFound, "page not mapped");
  write_desc(leaf, s1_index(va, kStage1Levels - 1), kStage1Levels - 1,
             page_floor(va), pte::make_s1_page(pte::addr(*d), attrs));
  return Status::ok();
}

S1Walk Stage1Table::lookup(VirtAddr va) const {
  if (!frame_ops_.fake) return walk_stage1(pm_, root_, va);
  // Descriptors hold IPAs: start the walk from the IPA-space root and
  // resolve every hop through the fake map, exactly as the hardware walker
  // does through stage-2. The leaf out_addr stays in IPA space (that is
  // what this regime maps to).
  return walk_stage1(pm_, root_desc_, va,
                     [this](u64 ipa) -> std::optional<PhysAddr> {
                       return frame_of_desc(ipa);
                     });
}

void Stage1Table::for_each(
    const std::function<void(VirtAddr, u64)>& fn) const {
  for_each_rec(root_, 0, 0, fn);
}

void Stage1Table::for_each_rec(
    PhysAddr table, unsigned level, VirtAddr va_prefix,
    const std::function<void(VirtAddr, u64)>& fn) const {
  const unsigned shift = 12 + 9 * (kStage1Levels - 1 - level);
  const u64* t = entries(table);
  for (unsigned i = 0; i < 512; ++i) {
    const u64 desc = t[i];
    if (!pte::valid(desc)) continue;
    const VirtAddr va = va_prefix | (u64{i} << shift);
    if (level == kStage1Levels - 1) {
      fn(va, desc);
    } else {
      for_each_rec(frame_of_desc(pte::addr(desc)), level + 1, va, fn);
    }
  }
}

std::vector<PhysAddr> Stage1Table::table_frames() const {
  std::vector<PhysAddr> out;
  collect_frames(root_, 0, &out);
  return out;
}

void Stage1Table::collect_frames(PhysAddr table, unsigned level,
                                 std::vector<PhysAddr>* out) const {
  out->push_back(table);
  if (level == kStage1Levels - 1) return;
  const u64* t = entries(table);
  for (unsigned i = 0; i < 512; ++i) {
    const u64 desc = t[i];
    if (pte::is_table(desc)) {
      collect_frames(frame_of_desc(pte::addr(desc)), level + 1, out);
    }
  }
}

void Stage1Table::free_recursive(PhysAddr table, unsigned level) {
  if (level < kStage1Levels - 1) {
    const u64* t = entries(table);
    for (unsigned i = 0; i < 512; ++i) {
      const u64 desc = t[i];
      if (pte::is_table(desc)) {
        free_recursive(frame_of_desc(pte::addr(desc)), level + 1);
      }
    }
  }
  // Dead-regime teardown: the frame is released with live descriptors in
  // it, so the observer must retire its per-location state before the
  // allocator hands the PA out again.
  notify_table_free(&pm_, table);
  if (frame_ops_.free) {
    frame_ops_.free(table);
  } else {
    pm_.free_frame(table);
  }
}

// --- Stage2Table -------------------------------------------------------------

Stage2Table::Stage2Table(PhysMem& pm, u16 vmid)
    : pm_(pm), root_(pm.alloc_frame()), vmid_(vmid) {}

Stage2Table::~Stage2Table() { free_recursive(root_, 0); }

void Stage2Table::write_desc(PhysAddr table, unsigned index, unsigned level,
                             u64 in_addr, u64 new_desc) {
  u64* d = entries(table) + index;
  const u64 old_desc = *d;
  *d = new_desc;
  notify_pte_write(PteWrite{/*stage2=*/true, &pm_, table + u64{index} * 8,
                            in_addr, level, old_desc, new_desc, /*asid=*/0,
                            vmid_});
}

Status Stage2Table::walk_to_leaf(IntermAddr ipa, bool create,
                                 PhysAddr* leaf_table) {
  if (ipa >> kIpaBits) return err(Errc::kInvalidArgument, "IPA too large");
  PhysAddr table = root_;
  for (unsigned level = 0; level + 1 < kStage2Levels; ++level) {
    u64* d = entries(table) + s2_index(ipa, level);
    if (!pte::valid(*d)) {
      if (!create) return err(Errc::kNotFound, "unmapped");
      write_desc(table, s2_index(ipa, level), level + kStage2StartLevel,
                 page_floor(ipa), pte::make_table(pm_.alloc_frame()));
    }
    table = pte::addr(*d);
  }
  *leaf_table = table;
  return Status::ok();
}

Status Stage2Table::map(IntermAddr ipa, PhysAddr pa, const S2Attrs& attrs) {
  if (!page_aligned(ipa) || !page_aligned(pa)) {
    return err(Errc::kInvalidArgument, "unaligned map");
  }
  PhysAddr leaf{};
  LZ_RETURN_IF_ERROR(walk_to_leaf(ipa, /*create=*/true, &leaf));
  u64* d = entries(leaf) + s2_index(ipa, kStage2Levels - 1);
  if (pte::valid(*d)) return err(Errc::kAlreadyExists, "IPA already mapped");
  write_desc(leaf, s2_index(ipa, kStage2Levels - 1), kStage2LeafLevel, ipa,
             pte::make_s2_page(pa, attrs));
  return Status::ok();
}

Status Stage2Table::unmap(IntermAddr ipa) {
  PhysAddr leaf{};
  LZ_RETURN_IF_ERROR(walk_to_leaf(ipa, /*create=*/false, &leaf));
  u64* d = entries(leaf) + s2_index(ipa, kStage2Levels - 1);
  if (!pte::valid(*d)) return err(Errc::kNotFound, "IPA not mapped");
  write_desc(leaf, s2_index(ipa, kStage2Levels - 1), kStage2LeafLevel,
             page_floor(ipa), 0);
  return Status::ok();
}

Status Stage2Table::protect(IntermAddr ipa, const S2Attrs& attrs) {
  PhysAddr leaf{};
  LZ_RETURN_IF_ERROR(walk_to_leaf(ipa, /*create=*/false, &leaf));
  u64* d = entries(leaf) + s2_index(ipa, kStage2Levels - 1);
  if (!pte::valid(*d)) return err(Errc::kNotFound, "IPA not mapped");
  write_desc(leaf, s2_index(ipa, kStage2Levels - 1), kStage2LeafLevel,
             page_floor(ipa), pte::make_s2_page(pte::addr(*d), attrs));
  return Status::ok();
}

S2Walk Stage2Table::lookup(IntermAddr ipa) const {
  return walk_stage2(pm_, root_, ipa);
}

u64 Stage2Table::table_pages() const {
  u64 count = 0;
  count_frames(root_, 0, &count);
  return count;
}

void Stage2Table::count_frames(PhysAddr table, unsigned level,
                               u64* count) const {
  ++*count;
  if (level == kStage2Levels - 1) return;
  const u64* t = entries(table);
  for (unsigned i = 0; i < 512; ++i) {
    const u64 desc = t[i];
    if (pte::is_table(desc)) count_frames(pte::addr(desc), level + 1, count);
  }
}

void Stage2Table::free_recursive(PhysAddr table, unsigned level) {
  if (level < kStage2Levels - 1) {
    const u64* t = entries(table);
    for (unsigned i = 0; i < 512; ++i) {
      const u64 desc = t[i];
      if (pte::is_table(desc)) free_recursive(pte::addr(desc), level + 1);
    }
  }
  notify_table_free(&pm_, table);
  pm_.free_frame(table);
}

}  // namespace lz::mem
