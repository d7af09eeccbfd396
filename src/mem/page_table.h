// Stage-1 (4-level, 48-bit VA) and stage-2 (3-level, 39-bit IPA) page
// tables: one radix-table owner template and one hardware-style walker,
// each instantiated per stage from a small traits struct (level count and
// start level, input-range check, index, leaf codec).
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

// --- Stage traits -----------------------------------------------------------
//
// Everything that differs between the two stages, as data. `index` is
// shared: both are 9-bit-per-level radix walks over 4 KiB pages.
template <unsigned Levels>
struct RadixLevels {
  static constexpr unsigned kLevels = Levels;
  static constexpr unsigned shift(unsigned level) {
    return 12 + 9 * (Levels - 1 - level);
  }
  static constexpr unsigned index(u64 in, unsigned level) {
    return static_cast<unsigned>((in >> shift(level)) & 0x1ff);
  }
};

struct Stage1Traits : RadixLevels<kStage1Levels> {
  static constexpr unsigned kStartLevel = 0;
  static constexpr bool kStage2 = false;  // PteWrite::stage2
  // Input bits a walk faults on at level 0. None for stage 1: the caller
  // has already picked TTBR0/TTBR1 by the VA's top bits (classify_va).
  static constexpr u64 kWalkFaultBits = 0;
  // What map/unmap/protect accept.
  static bool in_range(u64 va) {
    return classify_va(va) != VaRange::kInvalid;
  }
  using Attrs = S1Attrs;
  static constexpr auto make_page = pte::make_s1_page;
  static constexpr auto attrs = pte::s1_attrs;
};

struct Stage2Traits : RadixLevels<kStage2Levels> {
  static constexpr unsigned kStartLevel = kStage2StartLevel;
  static constexpr bool kStage2 = true;
  static constexpr u64 kWalkFaultBits = ~u64{0} << kIpaBits;
  static bool in_range(u64 ipa) { return !(ipa & kWalkFaultBits); }
  using Attrs = S2Attrs;
  static constexpr auto make_page = pte::make_s2_page;
  static constexpr auto attrs = pte::s2_attrs;
};

template <class S>
struct Walk {
  bool ok = false;
  unsigned fault_level = 0;   // architectural fault level when !ok (see above)
  bool s2_table_fault = false;  // the fault was a stage-2 miss on a table hop
  u64 s2_fault_ipa = 0;         // IPA of the table access that missed
  u64 out_addr = 0;  // stage 1: IPA (or PA when stage-2 off); stage 2: PA
  typename S::Attrs attrs;
  PhysAddr leaf_pa = 0;       // machine PA of the leaf descriptor itself
  unsigned mem_accesses = 0;  // table loads performed (cost accounting)
};
using S1Walk = Walk<Stage1Traits>;
using S2Walk = Walk<Stage2Traits>;

// The one hardware walker. Each level reads its descriptor through the
// table frame's page pointer. `map_table(u64 table_addr)` returns the
// machine PA of a table address — the table base `root` and every
// next-level pointer — or nullopt for a stage-2 miss on that table access:
// the stage-2 hop when a stage-1 walk runs under stage-2, the fake-physical
// resolver of a kernel-managed table (PageTable::lookup), identity
// otherwise. It is a template parameter, not a std::function, so each hop
// inlines into the walk.
template <class S, class MapTable>
Walk<S> walk(const PhysMem& pm, u64 root, u64 in, MapTable&& map_table) {
  Walk<S> w;
  if (in & S::kWalkFaultBits) return w;  // faults before the first lookup
  u64 table = root;
  for (unsigned level = 0; level < S::kLevels; ++level) {
    const std::optional<PhysAddr> table_pa = map_table(table);
    if (!table_pa) {
      w.fault_level = level + S::kStartLevel;
      w.s2_table_fault = true;
      w.s2_fault_ipa = table;
      return w;  // stage-2 fault on a table access
    }
    const unsigned index = S::index(in, level);
    const u64 desc =
        reinterpret_cast<const u64*>(pm.page_ptr(*table_pa))[index];
    ++w.mem_accesses;
    if (!pte::valid(desc)) {
      w.fault_level = level + S::kStartLevel;
      return w;
    }
    if (level == S::kLevels - 1) {
      w.ok = true;
      w.out_addr = pte::addr(desc) | page_offset(in);
      w.attrs = S::attrs(desc);
      w.leaf_pa = *table_pa + u64{index} * 8;
      return w;
    }
    LZ_CHECK(pte::is_table(desc));
    table = pte::addr(desc);
  }
  return w;
}

// Identity hop: table addresses are machine PAs.
inline constexpr auto identity_table = [](u64 pa) {
  return std::optional<PhysAddr>(pa);
};

template <class MapTable>
S1Walk walk_stage1(const PhysMem& pm, PhysAddr root, VirtAddr va,
                   MapTable&& map_table) {
  return walk<Stage1Traits>(pm, root, va, map_table);
}
inline S1Walk walk_stage1(const PhysMem& pm, PhysAddr root, VirtAddr va) {
  return walk<Stage1Traits>(pm, root, va, identity_table);
}
inline S2Walk walk_stage2(const PhysMem& pm, PhysAddr root, IntermAddr ipa) {
  return walk<Stage2Traits>(pm, root, ipa, identity_table);
}

// --- Owner template ---------------------------------------------------------

// Frame allocation hooks so table frames can come from a managing kernel
// (which e.g. keeps stage-2 identity mappings in sync) instead of the raw
// machine allocator. `fake` translates between the machine frame addresses
// the builder touches and the addresses *written into table descriptors*:
// under LightZone's fake-physical scheme (§5.1.2) the descriptors hold fake
// pages that stage-2 resolves, so next-level pointers must be fake too.
// Null members mean the machine allocator and identity descriptors.
struct FrameOps {
  std::function<PhysAddr()> alloc;
  std::function<void(PhysAddr)> free;
  FakePhysMap* fake = nullptr;
};

// A kernel- or hypervisor-managed table: one stage-1 translation regime
// (domain) or one stage-2 regime (VM / confined LightZone process).
template <class S>
class PageTable {
 public:
  using Attrs = typename S::Attrs;

  // `id` is the ASID of a stage-1 table and the VMID of a stage-2 one.
  explicit PageTable(PhysMem& pm, u16 id = 0, FrameOps frame_ops = {});
  ~PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  PhysAddr root() const { return root_; }
  u16 asid() const { return asid_; }
  void set_asid(u16 asid) requires(!S::kStage2) { asid_ = asid; }
  // A stage-1 table's VMID is that of the regime it runs under (0 when
  // stage-2 is off), for the PTE write-protocol observer: it judges whether
  // a broadcast TLBI's (ASID, VMID) scope covers a store.
  u16 vmid() const { return vmid_; }
  void set_vmid(u16 vmid) { vmid_ = vmid; }
  u64 ttbr() const requires(!S::kStage2) { return make_ttbr(root_, asid_); }
  u64 vttbr() const requires(S::kStage2) { return make_vttbr(root_, vmid_); }

  // Map/unmap/change one 4 KiB page. A stage-1 `out_addr` is an IPA or PA
  // depending on the regime the table serves.
  Status map(u64 in, u64 out_addr, const Attrs& attrs);
  Status unmap(u64 in);
  Status protect(u64 in, const Attrs& attrs);
  Walk<S> lookup(u64 in) const;

  // Visit every mapped page as fn(in_addr, desc), in index order (for
  // table duplication and process teardown).
  template <class Fn>
  void for_each(Fn&& fn) const {
    visit(root_, 0, 0, [&](PhysAddr table, unsigned level, u64 prefix) {
      if (level + 1 < S::kLevels) return;
      const u64* t = entries(table);
      for (unsigned i = 0; i < 512; ++i) {
        if (pte::valid(t[i])) fn(prefix | (u64{i} << S::shift(level)), t[i]);
      }
    });
  }

  // Machine PAs of every table frame (LightZone maps a stage-1 table's
  // frames read-only in stage-2 so a TTBR-mode process cannot edit its own
  // translations).
  std::vector<PhysAddr> table_frames() const;
  u64 table_pages() const;

 private:
  // The 512 descriptors of a table frame: one page_ptr per table visit.
  u64* entries(PhysAddr table) const {
    return reinterpret_cast<u64*>(pm_.page_ptr(table));
  }
  // Every descriptor mutation funnels through here: it performs the store
  // and publishes it to the installed PteWriteObserver (mem/pte_observer.h).
  // `level` is the walk's loop index.
  void write_desc(PhysAddr table, unsigned index, unsigned level,
                  u64 in_addr, u64 new_desc);
  // map, unmap and protect: walk to `in`'s leaf slot (creating missing
  // tables for a map), require the slot empty for a map and valid
  // otherwise, and store make_desc(old descriptor) there.
  template <class MakeDesc>
  Status store_leaf(u64 in, bool map, MakeDesc&& make_desc);

  // The one recursive table visitor: on_table(frame, level, prefix) for
  // every table frame once its subtree is done — post-order, index order,
  // so teardown frees children before their parent. `prefix` is the input
  // address of the frame's entry 0; leaf frames are not scanned here.
  // Out of line: inlining the recursion into the destructor made stage-2
  // teardown ~30% slower (GCC 12, -O3).
  template <class OnTable>
  [[gnu::noinline]] void visit(PhysAddr table, unsigned level, u64 prefix,
                               OnTable&& on_table) const {
    if (level + 1 < S::kLevels) {
      const u64* t = entries(table);
      for (unsigned i = 0; i < 512; ++i) {
        if (!pte::is_table(t[i])) continue;
        visit(frame_of_desc(pte::addr(t[i])), level + 1,
              prefix | (u64{i} << S::shift(level)), on_table);
      }
    }
    on_table(table, level, prefix);
  }

  u64 desc_addr(PhysAddr pa) const {
    return frame_ops_.fake ? frame_ops_.fake->fake_of(pa) : pa;
  }
  PhysAddr frame_of_desc(u64 desc_out) const {
    if (!frame_ops_.fake) return desc_out;
    const auto real = frame_ops_.fake->real_of(desc_out);
    LZ_CHECK(real.has_value());
    return *real;
  }
  PhysAddr alloc_table_frame() {
    return frame_ops_.alloc ? frame_ops_.alloc() : pm_.alloc_frame();
  }

  PhysMem& pm_;
  FrameOps frame_ops_;
  PhysAddr root_;
  u64 root_desc_;  // desc_addr(root_): where lookup's walk starts
  u16 asid_;
  u16 vmid_;
};

extern template class PageTable<Stage1Traits>;
extern template class PageTable<Stage2Traits>;
using Stage1Table = PageTable<Stage1Traits>;
using Stage2Table = PageTable<Stage2Traits>;

}  // namespace lz::mem
