// Stage-1 (4-level, 48-bit VA) and stage-2 (3-level, 40-bit IPA) page
// tables: hardware-style walkers that operate on raw physical memory, plus
// owner classes the kernel/hypervisor use to build and maintain tables.
//
// When stage-2 translation is active, the stage-1 walk itself is performed
// on intermediate physical addresses — every table pointer the stage-1
// walker follows is translated through a caller-supplied mapper. This is
// what lets LightZone keep a TTBR-mode process's stage-1 tables in "fake
// physical" space (§5.1.2) while stage-2 holds the real frames.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "mem/fake_phys.h"
#include "mem/phys_mem.h"
#include "mem/pte.h"
#include "support/status.h"
#include "support/types.h"

namespace lz::mem {

inline constexpr unsigned kStage1Levels = 4;
inline constexpr unsigned kStage2Levels = 3;
inline constexpr u64 kVaBits = 48;
inline constexpr u64 kIpaBits = 39;

// Fault-level convention, shared by S1Walk and S2Walk: `fault_level` is the
// *architectural* lookup level, exactly what ESR_ELx.ISS.DFSC encodes as
// "Translation/Permission fault, level N". The 48-bit stage-1 walk starts
// at architectural level 0, so its loop index is the architectural level;
// the 39-bit stage-2 walk is a 3-level walk starting at architectural
// level 1, so its loop index is offset by kStage2StartLevel. An
// out-of-range input address faults at level 0 (the fault is on the base
// register, before any lookup — DFSC's "level 0" row).
inline constexpr unsigned kStage2StartLevel = 1;
// Architectural level of the last (leaf) stage-2 lookup.
inline constexpr unsigned kStage2LeafLevel =
    kStage2StartLevel + kStage2Levels - 1;

// Which half of the address space a VA belongs to (selects TTBR0/TTBR1).
enum class VaRange { kLower, kUpper, kInvalid };
VaRange classify_va(VirtAddr va);

// Index of `va` at stage-1 level (0..3).
constexpr unsigned s1_index(VirtAddr va, unsigned level) {
  const unsigned shift = 12 + 9 * (kStage1Levels - 1 - level);
  return static_cast<unsigned>((va >> shift) & 0x1ff);
}
constexpr unsigned s2_index(IntermAddr ipa, unsigned level) {
  const unsigned shift = 12 + 9 * (kStage2Levels - 1 - level);
  return static_cast<unsigned>((ipa >> shift) & 0x1ff);
}

struct S1Walk {
  bool ok = false;
  unsigned fault_level = 0;   // architectural fault level when !ok (see above)
  bool s2_table_fault = false;  // the fault was a stage-2 miss on a table hop
  u64 s2_fault_ipa = 0;         // IPA of the table access that missed
  u64 out_addr = 0;           // IPA (or PA when stage-2 off) of the page
  S1Attrs attrs;
  PhysAddr leaf_pa = 0;       // machine PA of the leaf descriptor itself
  unsigned mem_accesses = 0;  // table loads performed (cost accounting)
};

struct S2Walk {
  bool ok = false;
  unsigned fault_level = 0;   // architectural fault level when !ok (see above)
  PhysAddr out_addr = 0;
  S2Attrs attrs;
  PhysAddr leaf_pa = 0;
  unsigned mem_accesses = 0;
};

// Hardware walkers. Each level reads its descriptor through the table
// frame's page pointer.
//
// The one stage-1 walker. `map_table(u64 table_addr)` returns the machine
// PA of a table address — the table base `root` and every next-level
// pointer — or nullopt for a stage-2 miss on that table access: the stage-2
// hop when stage-2 is on, the fake-physical resolver of a kernel-managed
// table (Stage1Table::lookup), identity otherwise. It is a template
// parameter, not a std::function, so each hop inlines into the walk.
template <class MapTable>
S1Walk walk_stage1(const PhysMem& pm, PhysAddr root, VirtAddr va,
                   MapTable&& map_table) {
  S1Walk w;
  u64 table = root;
  for (unsigned level = 0; level < kStage1Levels; ++level) {
    const std::optional<PhysAddr> table_pa = map_table(table);
    if (!table_pa) {
      w.fault_level = level;
      w.s2_table_fault = true;
      w.s2_fault_ipa = table;
      return w;  // stage-2 fault on a table access
    }
    const unsigned index = s1_index(va, level);
    const u64 desc =
        reinterpret_cast<const u64*>(pm.page_ptr(*table_pa))[index];
    ++w.mem_accesses;
    if (!pte::valid(desc)) {
      w.fault_level = level;
      return w;
    }
    if (level == kStage1Levels - 1) {
      w.ok = true;
      w.out_addr = pte::addr(desc) | page_offset(va);
      w.attrs = pte::s1_attrs(desc);
      w.leaf_pa = *table_pa + u64{index} * 8;
      return w;
    }
    LZ_CHECK(pte::is_table(desc));
    table = pte::addr(desc);
  }
  return w;
}
// Identity case: table addresses are machine PAs (stage-2 off).
inline S1Walk walk_stage1(const PhysMem& pm, PhysAddr root, VirtAddr va) {
  return walk_stage1(pm, root, va,
                     [](u64 pa) { return std::optional<PhysAddr>(pa); });
}
S2Walk walk_stage2(const PhysMem& pm, PhysAddr root, IntermAddr ipa);

// --- Owner classes ----------------------------------------------------------

// Frame allocation hooks so table frames can come from a managing kernel
// (which e.g. keeps stage-2 identity mappings in sync) instead of the raw
// machine allocator. `fake` translates between the machine frame addresses
// the builder touches and the addresses *written into table descriptors*:
// under LightZone's fake-physical scheme (§5.1.2) the descriptors hold fake
// pages that stage-2 resolves, so next-level pointers must be fake too.
// Identity when null.
struct FrameOps {
  std::function<PhysAddr()> alloc;
  std::function<void(PhysAddr)> free;
  FakePhysMap* fake = nullptr;
};

// A kernel-managed stage-1 page table (one translation regime / domain).
class Stage1Table {
 public:
  explicit Stage1Table(PhysMem& pm, u16 asid = 0, FrameOps frame_ops = {});
  ~Stage1Table();
  Stage1Table(const Stage1Table&) = delete;
  Stage1Table& operator=(const Stage1Table&) = delete;

  PhysAddr root() const { return root_; }
  u16 asid() const { return asid_; }
  void set_asid(u16 asid) { asid_ = asid; }
  // VMID of the stage-2 regime this table runs under (0 when stage-2 is
  // off). Only consumed by the PTE write-protocol observer, which needs it
  // to judge whether a broadcast TLBI's (ASID, VMID) scope covers a store.
  u16 vmid() const { return vmid_; }
  void set_vmid(u16 vmid) { vmid_ = vmid; }
  u64 ttbr() const { return make_ttbr(root_, asid_); }

  // Map/unmap/change one 4 KiB page. `out_addr` is an IPA or PA depending
  // on the regime this table serves.
  Status map(VirtAddr va, u64 out_addr, const S1Attrs& attrs);
  Status unmap(VirtAddr va);
  Status protect(VirtAddr va, const S1Attrs& attrs);
  S1Walk lookup(VirtAddr va) const;

  // Visit every mapped page (for table duplication / synchronisation).
  void for_each(const std::function<void(VirtAddr, u64 desc)>& fn) const;

  // Machine PAs of every table frame (LightZone maps these read-only in
  // stage-2 so a TTBR-mode process cannot edit its own translations).
  std::vector<PhysAddr> table_frames() const;
  u64 table_pages() const { return table_frames().size(); }

 private:
  // The 512 descriptors of a table frame: one page_ptr per table visit.
  u64* entries(PhysAddr table) const {
    return reinterpret_cast<u64*>(pm_.page_ptr(table));
  }
  // Every descriptor mutation funnels through here: it performs the store
  // and publishes it to the installed PteWriteObserver (mem/pte_observer.h).
  void write_desc(PhysAddr table, unsigned index, unsigned level,
                  u64 in_addr, u64 new_desc);
  u64 desc_addr(PhysAddr pa) const {
    return frame_ops_.fake ? frame_ops_.fake->fake_of(pa) : pa;
  }
  PhysAddr frame_of_desc(u64 desc_out) const {
    if (!frame_ops_.fake) return desc_out;
    const auto real = frame_ops_.fake->real_of(desc_out);
    LZ_CHECK(real.has_value());
    return *real;
  }
  Status walk_to_leaf(VirtAddr va, bool create, PhysAddr* leaf_table);
  void free_recursive(PhysAddr table, unsigned level);
  void collect_frames(PhysAddr table, unsigned level,
                      std::vector<PhysAddr>* out) const;
  void for_each_rec(PhysAddr table, unsigned level, VirtAddr va_prefix,
                    const std::function<void(VirtAddr, u64)>& fn) const;

  PhysAddr alloc_table_frame();

  PhysMem& pm_;
  FrameOps frame_ops_;
  PhysAddr root_;
  u64 root_desc_;  // desc_addr(root_): where lookup's walk starts
  u16 asid_;
  u16 vmid_ = 0;
};

// A stage-2 table (one VM / one confined LightZone process).
class Stage2Table {
 public:
  explicit Stage2Table(PhysMem& pm, u16 vmid = 0);
  ~Stage2Table();
  Stage2Table(const Stage2Table&) = delete;
  Stage2Table& operator=(const Stage2Table&) = delete;

  PhysAddr root() const { return root_; }
  u16 vmid() const { return vmid_; }
  void set_vmid(u16 vmid) { vmid_ = vmid; }
  u64 vttbr() const { return make_vttbr(root_, vmid_); }

  Status map(IntermAddr ipa, PhysAddr pa, const S2Attrs& attrs);
  Status unmap(IntermAddr ipa);
  Status protect(IntermAddr ipa, const S2Attrs& attrs);
  S2Walk lookup(IntermAddr ipa) const;
  u64 table_pages() const;

 private:
  // Same accessor as Stage1Table::entries: one page_ptr per table visit.
  u64* entries(PhysAddr table) const {
    return reinterpret_cast<u64*>(pm_.page_ptr(table));
  }
  void write_desc(PhysAddr table, unsigned index, unsigned level,
                  u64 in_addr, u64 new_desc);
  Status walk_to_leaf(IntermAddr ipa, bool create, PhysAddr* leaf_table);
  void free_recursive(PhysAddr table, unsigned level);
  void count_frames(PhysAddr table, unsigned level, u64* count) const;

  PhysMem& pm_;
  PhysAddr root_;
  u16 vmid_;
};

}  // namespace lz::mem
