// Unit tests for the memory subsystem: physical memory, stage-1/stage-2
// page tables and hardware walkers, the combined TLB, and the fake-physical
// randomization layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "mem/fake_phys.h"
#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "support/rng.h"

namespace lz::mem {
namespace {

TEST(PhysMemTest, FrameAllocatorReusesFreedFrames) {
  PhysMem pm;
  const PhysAddr a = pm.alloc_frame();
  const PhysAddr b = pm.alloc_frame();
  EXPECT_NE(a, b);
  EXPECT_EQ(pm.frames_in_use(), 2u);
  pm.free_frame(a);
  EXPECT_EQ(pm.frames_in_use(), 1u);
  const PhysAddr c = pm.alloc_frame();
  EXPECT_EQ(c, a);  // LIFO reuse
  EXPECT_EQ(pm.frames_peak(), 2u);
}

TEST(PhysMemTest, AllocatedFramesAreZeroed) {
  PhysMem pm;
  const PhysAddr a = pm.alloc_frame();
  pm.write(a + 8, 8, 0xdeadbeefcafef00dull);
  pm.free_frame(a);
  const PhysAddr b = pm.alloc_frame();
  ASSERT_EQ(a, b);
  EXPECT_EQ(pm.read(b + 8, 8), 0u);
}

// alloc_frame zeroes only a frame that has materialized; one that has not
// reads as zero when it first does. Both kinds must come out all-zero.
TEST(PhysMemTest, FreshFramesAreZeroedWhetherTouchedOrNot) {
  constexpr PhysAddr kBase = 0x4000'0000;
  PhysMem pm(kBase, 64 * kPageSize);
  const std::vector<u8> zeros(kPageSize, 0);
  std::vector<u8> page(kPageSize);

  // Written before the allocator ever handed it out (a stray device write).
  pm.write(kBase + kPageSize + 16, 8, 0x0123456789abcdefull);
  pm.write(kBase + 2 * kPageSize - 8, 8, ~u64{0});
  const PhysAddr never = pm.alloc_frame();  // never touched at all
  const PhysAddr touched = pm.alloc_frame();
  ASSERT_EQ(never, kBase);
  ASSERT_EQ(touched, kBase + kPageSize);

  pm.read_bytes(never, page.data(), kPageSize);
  EXPECT_EQ(page, zeros);
  pm.read_bytes(touched, page.data(), kPageSize);
  EXPECT_EQ(page, zeros);
}

TEST(PhysMemTest, ReadWriteSizes) {
  PhysMem pm;
  const PhysAddr a = pm.alloc_frame();
  pm.write(a, 8, 0x1122334455667788ull);
  EXPECT_EQ(pm.read(a, 1), 0x88u);
  EXPECT_EQ(pm.read(a, 2), 0x7788u);
  EXPECT_EQ(pm.read(a, 4), 0x55667788u);
  EXPECT_EQ(pm.read(a + 4, 4), 0x11223344u);
}

TEST(PhysMemTest, BulkCopyCrossesPages) {
  PhysMem pm;
  std::vector<u8> data(kPageSize + 100, 0xab);
  const PhysAddr a = 0x8000'0000;
  pm.write_bytes(a + 4000, data.data(), data.size());
  std::vector<u8> out(data.size());
  pm.read_bytes(a + 4000, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST(VaRangeTest, Classification) {
  EXPECT_EQ(classify_va(0x400000), VaRange::kLower);
  EXPECT_EQ(classify_va(0x0000'7fff'ffff'f000), VaRange::kLower);
  EXPECT_EQ(classify_va(0xffff'0000'0000'0000), VaRange::kUpper);
  EXPECT_EQ(classify_va(0x0001'0000'0000'0000), VaRange::kInvalid);
}

TEST(Stage1Test, MapLookupUnmap) {
  PhysMem pm;
  Stage1Table tbl(pm, /*asid=*/7);
  S1Attrs attrs;
  attrs.user = true;
  ASSERT_TRUE(tbl.map(0x400000, 0x9000'0000, attrs).is_ok());

  const auto walk = tbl.lookup(0x400123);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.out_addr, 0x9000'0123u);
  EXPECT_TRUE(walk.attrs.user);
  EXPECT_EQ(walk.mem_accesses, 4u);  // 4-level walk

  EXPECT_FALSE(tbl.lookup(0x401000).ok);
  ASSERT_TRUE(tbl.unmap(0x400000).is_ok());
  EXPECT_FALSE(tbl.lookup(0x400000).ok);
}

TEST(Stage1Test, DoubleMapRejected) {
  PhysMem pm;
  Stage1Table tbl(pm);
  ASSERT_TRUE(tbl.map(0x1000, 0x9000'0000, S1Attrs{}).is_ok());
  EXPECT_FALSE(tbl.map(0x1000, 0x9000'1000, S1Attrs{}).is_ok());
}

TEST(Stage1Test, ProtectChangesAttrs) {
  PhysMem pm;
  Stage1Table tbl(pm);
  S1Attrs attrs;
  attrs.read_only = false;
  ASSERT_TRUE(tbl.map(0x1000, 0x9000'0000, attrs).is_ok());
  attrs.read_only = true;
  ASSERT_TRUE(tbl.protect(0x1000, attrs).is_ok());
  EXPECT_TRUE(tbl.lookup(0x1000).attrs.read_only);
  EXPECT_EQ(tbl.lookup(0x1000).out_addr, 0x9000'0000u);
}

TEST(Stage1Test, UpperHalfMapping) {
  PhysMem pm;
  Stage1Table tbl(pm);
  ASSERT_TRUE(tbl.map(0xffff'0000'0000'0000, 0x9000'0000, S1Attrs{}).is_ok());
  EXPECT_TRUE(tbl.lookup(0xffff'0000'0000'0008).ok);
}

TEST(Stage1Test, ForEachVisitsAllMappings) {
  PhysMem pm;
  Stage1Table tbl(pm);
  for (u64 i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        tbl.map(0x400000 + i * kPageSize, 0x9000'0000 + i * kPageSize,
                S1Attrs{})
            .is_ok());
  }
  u64 count = 0;
  tbl.for_each([&](VirtAddr va, u64 desc) {
    EXPECT_EQ(pte::addr(desc) - 0x9000'0000, va - 0x400000);
    ++count;
  });
  EXPECT_EQ(count, 10u);
}

TEST(Stage1Test, TableFramesAndDestructorFreeEverything) {
  PhysMem pm;
  const u64 before = pm.frames_in_use();
  {
    Stage1Table tbl(pm);
    ASSERT_TRUE(tbl.map(0x400000, 0x9000'0000, S1Attrs{}).is_ok());
    ASSERT_TRUE(
        tbl.map(0xffff'0000'0000'0000, 0x9000'1000, S1Attrs{}).is_ok());
    // Both VAs share L0..L2 tables (bits 47:39 and 38:30 are zero for
    // each) and diverge only at L3: root + L1 + L2 + two L3 tables.
    EXPECT_EQ(tbl.table_frames().size(), 5u);
    EXPECT_EQ(pm.frames_in_use(), before + 5);
  }
  EXPECT_EQ(pm.frames_in_use(), before);
}

TEST(Stage1Test, CustomFrameOps) {
  PhysMem pm;
  u64 allocs = 0, frees = 0;
  {
    Stage1Table tbl(pm, 0,
                    FrameOps{[&] {
                               ++allocs;
                               return pm.alloc_frame();
                             },
                             [&](PhysAddr pa) {
                               ++frees;
                               pm.free_frame(pa);
                             }});
    ASSERT_TRUE(tbl.map(0x1000, 0x9000'0000, S1Attrs{}).is_ok());
    EXPECT_EQ(allocs, 4u);
  }
  EXPECT_EQ(frees, 4u);
}

TEST(Stage2Test, MapAndWalk) {
  PhysMem pm;
  Stage2Table s2(pm, /*vmid=*/3);
  S2Attrs attrs{true, true, false, false};  // read-only
  ASSERT_TRUE(s2.map(0x1000, 0xb000'0000, attrs).is_ok());
  const auto walk = s2.lookup(0x1abc);
  ASSERT_TRUE(walk.ok);
  EXPECT_EQ(walk.out_addr, 0xb000'0abcu);
  EXPECT_FALSE(walk.attrs.write);
  EXPECT_EQ(walk.mem_accesses, 3u);  // 3-level walk
}

TEST(Stage2Test, OversizedIpaFaults) {
  PhysMem pm;
  Stage2Table s2(pm);
  EXPECT_FALSE(s2.lookup(u64{1} << 40).ok);
  EXPECT_FALSE(s2.map(u64{1} << 40, 0x9000'0000, S2Attrs{}).is_ok());
}

// Stage-1 walk with the stage-2 mapper: the table pointers themselves are
// IPAs (the fake-physical scheme of §5.1.2).
TEST(WalkTest, Stage1ThroughStage2TableMapper) {
  PhysMem pm;
  Stage2Table s2(pm);
  FakePhysMap fake;

  // Build a stage-1 table whose frames are registered at fake addresses.
  std::vector<PhysAddr> frames;
  Stage1Table tbl(pm, 0,
                  FrameOps{[&] {
                             const PhysAddr pa = pm.alloc_frame();
                             frames.push_back(pa);
                             const IntermAddr ipa = fake.fake_of(pa);
                             LZ_CHECK_OK(s2.map(
                                 ipa, pa, S2Attrs{true, true, false, false}));
                             return pa;
                           },
                           [&](PhysAddr pa) { pm.free_frame(pa); },
                           // Descriptors hold fake (IPA) pointers.
                           &fake});

  // Data page: real frame 0xb0000000 behind fake address.
  const PhysAddr data_real = 0xb000'0000;
  const IntermAddr data_fake = fake.fake_of(data_real);
  ASSERT_TRUE(s2.map(data_fake, data_real, S2Attrs{}).is_ok());
  ASSERT_TRUE(tbl.map(0x400000, data_fake, S1Attrs{}).is_ok());

  // Hardware view: TTBR holds the *fake* root; every table hop and the
  // final output go through stage-2.
  const IntermAddr fake_root = fake.fake_of(tbl.root());
  const auto s1 = walk_stage1(
      pm, ttbr_base(make_ttbr(fake_root, 0)), 0x400040,
      [&](u64 ipa) -> std::optional<PhysAddr> {
        const S2Walk w = walk_stage2(pm, s2.root(), ipa);
        if (!w.ok || !w.attrs.read) return std::nullopt;
        return w.out_addr;
      });
  ASSERT_TRUE(s1.ok);
  EXPECT_EQ(s1.out_addr, data_fake + 0x40);
  const auto final = walk_stage2(pm, s2.root(), s1.out_addr);
  ASSERT_TRUE(final.ok);
  EXPECT_EQ(final.out_addr, data_real + 0x40);
}

// Where a walk stops, pinned per level: `fault_level` is the architectural
// (DFSC) level and `mem_accesses` counts the descriptor loads made. Each
// table maps one page at 0x400000; every probe shares that page's tables
// down to the level it breaks at.
TEST(WalkTest, FaultLevelAndAccessesAtEveryLevel) {
  struct Case {
    u64 in;
    bool ok;
    unsigned fault_level;
    unsigned mem_accesses;
  };
  PhysMem pm;

  Stage1Table s1(pm);
  ASSERT_TRUE(s1.map(0x400000, 0x9000'0000, S1Attrs{}).is_ok());
  const Case s1_cases[] = {
      {u64{1} << 39, false, 0, 1},  // no level-1 table
      {u64{1} << 30, false, 1, 2},  // no level-2 table
      {0x600000, false, 2, 3},      // no level-3 table
      {0x401000, false, 3, 4},      // invalid page descriptor
      {0x400000, true, 0, 4},
  };
  for (const Case& c : s1_cases) {
    const S1Walk w = s1.lookup(c.in);
    EXPECT_EQ(w.ok, c.ok) << std::hex << c.in;
    if (!c.ok) {
      EXPECT_EQ(w.fault_level, c.fault_level) << std::hex << c.in;
    }
    EXPECT_EQ(w.mem_accesses, c.mem_accesses) << std::hex << c.in;
    EXPECT_FALSE(w.s2_table_fault);
  }

  Stage2Table s2(pm);
  ASSERT_TRUE(s2.map(0x400000, 0x9000'0000, S2Attrs{}).is_ok());
  const Case s2_cases[] = {
      {u64{1} << kIpaBits, false, 0, 0},  // oversized IPA: no lookup
      {u64{1} << 30, false, 1, 1},
      {0x600000, false, 2, 2},
      {0x401000, false, 3, 3},
      {0x400000, true, 0, 3},
  };
  for (const Case& c : s2_cases) {
    const S2Walk w = s2.lookup(c.in);
    EXPECT_EQ(w.ok, c.ok) << std::hex << c.in;
    if (!c.ok) {
      EXPECT_EQ(w.fault_level, c.fault_level) << std::hex << c.in;
    }
    EXPECT_EQ(w.mem_accesses, c.mem_accesses) << std::hex << c.in;
  }

  // A stage-1 walk through stage-2 whose hop to the level-`hop` table
  // misses: the fault is at that stage-1 level, after `hop` loads, and
  // names the table address that missed.
  PhysAddr chain[kStage1Levels] = {s1.root()};
  for (unsigned level = 1; level < kStage1Levels; ++level) {
    const unsigned shift = 12 + 9 * (kStage1Levels - level);
    const u64 index = (u64{0x400000} >> shift) & 0x1ff;
    chain[level] = pte::addr(pm.read(chain[level - 1] + index * 8, 8));
  }
  for (unsigned hop = 0; hop < kStage1Levels; ++hop) {
    Stage2Table hops(pm);
    for (unsigned level = 0; level < hop; ++level) {
      ASSERT_TRUE(hops.map(chain[level], chain[level], S2Attrs{}).is_ok());
    }
    const S1Walk w = walk_stage1(
        pm, s1.root(), 0x400000, [&](u64 ipa) -> std::optional<PhysAddr> {
          const S2Walk t = walk_stage2(pm, hops.root(), ipa);
          if (!t.ok) return std::nullopt;
          return t.out_addr;
        });
    EXPECT_FALSE(w.ok) << hop;
    EXPECT_TRUE(w.s2_table_fault) << hop;
    EXPECT_EQ(w.s2_fault_ipa, chain[hop]) << hop;
    EXPECT_EQ(w.fault_level, hop);
    EXPECT_EQ(w.mem_accesses, hop);
  }
}

TEST(TlbTest, HitMissAndPromotion) {
  Tlb tlb(2, 8);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x400;
  e.asid = 1;
  e.vmid = 0;
  e.ppage = 0x9000'0000;
  EXPECT_FALSE(tlb.lookup(0x400, 1, 0, 4).has_value());
  tlb.insert(e);
  auto hit = tlb.lookup(0x400, 1, 0, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_l1);
  EXPECT_EQ(hit->extra_cost, 0u);
  EXPECT_EQ(tlb.stats().misses, 1u);
  EXPECT_EQ(tlb.stats().l1_hits, 1u);
}

TEST(TlbTest, AsidTagging) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x400;
  e.asid = 1;
  e.vmid = 0;
  tlb.insert(e);
  EXPECT_TRUE(tlb.lookup(0x400, 1, 0, 4).has_value());
  EXPECT_FALSE(tlb.lookup(0x400, 2, 0, 4).has_value());  // other ASID
  EXPECT_FALSE(tlb.lookup(0x400, 1, 1, 4).has_value());  // other VMID
}

TEST(TlbTest, GlobalEntriesMatchAnyAsid) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x400;
  e.asid = 1;
  e.vmid = 2;
  e.global = true;
  tlb.insert(e);
  EXPECT_TRUE(tlb.lookup(0x400, 99, 2, 4).has_value());
  EXPECT_FALSE(tlb.lookup(0x400, 99, 3, 4).has_value());  // still VMID-scoped
}

TEST(TlbTest, Invalidations) {
  Tlb tlb(4, 16);
  for (u16 asid = 1; asid <= 3; ++asid) {
    TlbEntry e;
    e.valid = true;
    e.vpage = 0x400 + asid;
    e.asid = asid;
    e.vmid = 1;
    tlb.insert(e);
  }
  tlb.invalidate_asid(2, 1);
  EXPECT_TRUE(tlb.lookup(0x401, 1, 1, 4).has_value());
  EXPECT_FALSE(tlb.lookup(0x402, 2, 1, 4).has_value());
  tlb.invalidate_vmid(1);
  EXPECT_FALSE(tlb.lookup(0x401, 1, 1, 4).has_value());
}

TEST(TlbTest, InvalidateVaHitsGlobalToo) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x500;
  e.vmid = 0;
  e.global = true;
  tlb.insert(e);
  tlb.invalidate_va(0x500, /*asid=*/0, /*vmid=*/0);
  EXPECT_FALSE(tlb.lookup(0x500, 0, 0, 4).has_value());
}

// TLBI VAE1 regression: the per-VA invalidate used to drop the page for
// *every* ASID (VAAE1 semantics). It must only reach the named ASID's
// entry plus globals; a sibling ASID's translation survives.
TEST(TlbTest, InvalidateVaIsAsidScoped) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x500;
  e.vmid = 0;
  e.asid = 1;
  e.ppage = 0xA000;
  tlb.insert(e);
  e.asid = 2;
  e.ppage = 0xB000;
  tlb.insert(e);
  tlb.invalidate_va(0x500, /*asid=*/1, /*vmid=*/0);
  EXPECT_FALSE(tlb.lookup(0x500, 1, 0, 4).has_value());
  const auto other = tlb.lookup(0x500, 2, 0, 4);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->entry.ppage, 0xB000u);
}

// TLBI VAAE1: the all-ASID flavour drops every ASID's entry for the page.
TEST(TlbTest, InvalidateVaAllAsidDropsEveryAsid) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x500;
  e.vmid = 0;
  e.asid = 1;
  tlb.insert(e);
  e.asid = 2;
  tlb.insert(e);
  tlb.invalidate_va_all_asid(0x500, /*vmid=*/0);
  EXPECT_FALSE(tlb.lookup(0x500, 1, 0, 4).has_value());
  EXPECT_FALSE(tlb.lookup(0x500, 2, 0, 4).has_value());
}

// place() regression: refreshing a page's translation must evict *every*
// aliasing entry. Pre-fix, inserting over an existing per-ASID entry left
// a previously-inserted global copy for the same page in its slot, and a
// lookup from any other ASID could still hit the stale global mapping.
TEST(TlbTest, ReinsertEvictsAliasingGlobalEntry) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x500;
  e.vmid = 0;
  e.asid = 1;
  e.ppage = 0xA000;
  tlb.insert(e);  // per-ASID mapping
  TlbEntry g = e;
  g.asid = 0;
  g.global = true;
  g.ppage = 0xB000;
  tlb.insert(g);  // global mapping for the same page replaces it
  e.ppage = 0xC000;
  tlb.insert(e);  // refresh as per-ASID again: the global copy must die
  EXPECT_FALSE(tlb.lookup(0x500, /*asid=*/9, 0, 4).has_value());
  const auto hit = tlb.lookup(0x500, 1, 0, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.ppage, 0xC000u);
}

// Within a level, at most one entry may match a (vpage, asid, vmid) key
// (the tlb.h coherence invariant): re-inserting the same key refreshes in
// place instead of stacking a second copy that invalidation could miss.
TEST(TlbTest, ReinsertRefreshesInsteadOfDuplicating) {
  Tlb tlb(4, 16);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x500;
  e.vmid = 0;
  e.asid = 1;
  e.ppage = 0xA000;
  tlb.insert(e);
  e.ppage = 0xC000;
  tlb.insert(e);
  const auto hit = tlb.lookup(0x500, 1, 0, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry.ppage, 0xC000u);
  tlb.invalidate_va(0x500, 1, 0);
  EXPECT_FALSE(tlb.lookup(0x500, 1, 0, 4).has_value());
}

TEST(TlbTest, L2PromotionAfterL1Eviction) {
  Tlb tlb(1, 64);  // single-entry micro-TLB forces promotion traffic
  TlbEntry a, b;
  a.valid = b.valid = true;
  a.vpage = 1;
  b.vpage = 2;
  tlb.insert(a);
  tlb.insert(b);  // evicts `a` from L1
  auto hit = tlb.lookup(1, 0, 0, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->from_l1);
  EXPECT_EQ(hit->extra_cost, 4u);
  // Promoted now.
  hit = tlb.lookup(1, 0, 0, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_l1);
}

// The L0/trace tag of a translation is its micro-TLB slot and that slot's
// stamp. A stamp moves only when its own slot is killed (invalidated,
// alias-evicted, replaced); fills into free slots, lookups and kills of
// other slots leave it, so tags on untouched slots stay live.
TEST(TlbTest, StampsMoveOnlyForTheSlotsAKillOrRefillTouched) {
  Tlb tlb(4, 16, /*seed=*/3);
  const auto entry = [](u64 vpage, PhysAddr ppage) {
    TlbEntry e;
    e.valid = true;
    e.vpage = vpage;
    e.asid = 1;
    e.ppage = ppage;
    return e;
  };
  const auto stamps = [&] {
    std::vector<Tlb::Tag> out;
    for (u16 i = 0; i < 4; ++i) out.push_back(tlb.stamp(i));
    return out;
  };
  // Changed slots between two stamp snapshots.
  const auto moved = [](const std::vector<Tlb::Tag>& a,
                        const std::vector<Tlb::Tag>& b) {
    std::vector<u16> out;
    for (u16 i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) out.push_back(i);
    }
    return out;
  };
  EXPECT_FALSE(tlb.tag_live(Tlb::kNoTag));

  auto before = stamps();
  std::vector<Tlb::Tag> tags;
  for (u64 p = 1; p <= 4; ++p) tags.push_back(tlb.insert(entry(p, p << 12)));
  EXPECT_TRUE(moved(before, stamps()).empty());  // fills into free slots
  for (u16 i = 0; i < 4; ++i) {
    EXPECT_EQ(tags[i] & Tlb::kSlotMask, i);
    EXPECT_TRUE(tlb.tag_live(tags[i]));
  }
  ASSERT_TRUE(tlb.lookup(3, 1, 0, 7).has_value());
  EXPECT_EQ(tlb.lookup(3, 1, 0, 7)->tag, tags[2]);  // an L1 hit hands it out

  before = stamps();
  tlb.invalidate_va(2, 1, 0);
  EXPECT_EQ(moved(before, stamps()), std::vector<u16>{1});
  EXPECT_FALSE(tlb.tag_live(tags[1]));
  EXPECT_TRUE(tlb.tag_live(tags[0]));
  EXPECT_TRUE(tlb.tag_live(tags[2]));
  EXPECT_TRUE(tlb.tag_live(tags[3]));

  before = stamps();
  tags[1] = tlb.insert(entry(5, 5 << 12));  // lowest free slot: 1
  EXPECT_EQ(tags[1] & Tlb::kSlotMask, 1u);
  EXPECT_TRUE(moved(before, stamps()).empty());

  before = stamps();
  const Tlb::Tag t6 = tlb.insert(entry(6, 6 << 12));  // full: one replaced
  const auto replaced = moved(before, stamps());
  ASSERT_EQ(replaced.size(), 1u);
  EXPECT_EQ(t6 & Tlb::kSlotMask, replaced[0]);
  EXPECT_TRUE(tlb.tag_live(t6));
  for (u16 i = 0; i < 4; ++i) {
    EXPECT_EQ(tlb.tag_live(tags[i]), i != replaced[0]);
  }
  tags[replaced[0]] = t6;

  // A refreshed alias (same page, new frame) kills only the old copy's
  // slot and refills it.
  const u16 slot3 = static_cast<u16>(tlb.lookup(3, 1, 0, 7)->tag &
                                     Tlb::kSlotMask);
  before = stamps();
  const Tlb::Tag t3 = tlb.insert(entry(3, 0x77 << 12));
  EXPECT_EQ(moved(before, stamps()), std::vector<u16>{slot3});
  EXPECT_EQ(t3 & Tlb::kSlotMask, slot3);

  before = stamps();
  tlb.invalidate_asid(/*asid=*/9, /*vmid=*/0);  // matches nothing
  tlb.invalidate_va(0x99, 1, 0);
  EXPECT_TRUE(moved(before, stamps()).empty());

  before = stamps();
  tlb.invalidate_all();
  EXPECT_EQ(moved(before, stamps()), (std::vector<u16>{0, 1, 2, 3}));
}

// Reference model for the differential test below: the linear-scan TLB
// algorithm the indexed one replaced, minus the lock and the obs counters,
// with the micro-TLB slot stamps kept the plain way. Every
// lookup/insert/invalidate scans all slots of both levels; place() evicts
// aliases, then takes the lowest free slot, else rng.below(size); every
// micro-TLB slot it or an invalidation empties moves its stamp.
class LinearTlb {
 public:
  LinearTlb(std::size_t l1, std::size_t l2, u64 seed)
      : l1_(l1), l2_(l2), rng_(seed), stamps_(std::max<std::size_t>(l1, 1)) {
    for (std::size_t i = 0; i < stamps_.size(); ++i) {
      stamps_[i] = (u64{1} << 16) | i;
    }
  }

  std::optional<Tlb::Hit> lookup(u64 vpage, u16 asid, u16 vmid, Cycles l2c) {
    for (std::size_t i = 0; i < l1_.size(); ++i) {
      if (matches(l1_[i], vpage, asid, vmid)) {
        ++stats_.l1_hits;
        return Tlb::Hit{l1_[i], 0, true, stamps_[i]};
      }
    }
    for (const auto& e : l2_) {
      if (matches(e, vpage, asid, vmid)) {
        ++stats_.l2_hits;
        const TlbEntry copy = e;
        return Tlb::Hit{copy, l2c, false, tag_of(place(l1_, copy))};
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }
  Tlb::Tag insert(const TlbEntry& e) {
    const int slot = place(l1_, e);
    place(l2_, e);
    return tag_of(slot);
  }
  template <class Pred>
  void invalidate_if(Pred dead) {
    ++stats_.invalidations;
    for (auto* level : {&l1_, &l2_}) {
      for (std::size_t i = 0; i < level->size(); ++i) {
        if ((*level)[i].valid && dead((*level)[i])) kill(*level, i);
      }
    }
  }
  void invalidate_all() {
    invalidate_if([](const TlbEntry&) { return true; });
  }
  void invalidate_vmid(u16 vmid) {
    invalidate_if([&](const TlbEntry& e) { return e.vmid == vmid; });
  }
  void invalidate_asid(u16 asid, u16 vmid) {
    invalidate_if([&](const TlbEntry& e) {
      return e.vmid == vmid && !e.global && e.asid == asid;
    });
  }
  void invalidate_va(u64 vpage, u16 asid, u16 vmid) {
    invalidate_if([&](const TlbEntry& e) {
      return e.vmid == vmid && e.vpage == vpage && (e.global || e.asid == asid);
    });
  }
  void invalidate_va_all_asid(u64 vpage, u16 vmid) {
    invalidate_if([&](const TlbEntry& e) {
      return e.vmid == vmid && e.vpage == vpage;
    });
  }

  const TlbStats& stats() const { return stats_; }
  const std::vector<u64>& stamps() const { return stamps_; }
  std::size_t valid_entries() const {
    std::size_t n = 0;
    for (const auto& e : l2_) n += e.valid;
    return n;
  }

 private:
  static bool matches(const TlbEntry& e, u64 vpage, u16 asid, u16 vmid) {
    return e.valid && e.vpage == vpage && e.vmid == vmid &&
           (e.global || e.asid == asid);
  }
  static bool aliases(const TlbEntry& a, const TlbEntry& b) {
    return a.valid && a.vpage == b.vpage && a.vmid == b.vmid &&
           (a.global || b.global || a.asid == b.asid);
  }
  void kill(std::vector<TlbEntry>& level, std::size_t i) {
    level[i].valid = false;
    if (&level == &l1_) stamps_[i] += u64{1} << 16;
  }
  Tlb::Tag tag_of(int slot) const { return slot < 0 ? Tlb::kNoTag : stamps_[slot]; }
  int place(std::vector<TlbEntry>& level, const TlbEntry& e) {
    if (level.empty()) return -1;
    int free_slot = -1;
    for (std::size_t i = 0; i < level.size(); ++i) {
      if (aliases(level[i], e)) kill(level, i);
      if (!level[i].valid && free_slot < 0) free_slot = static_cast<int>(i);
    }
    if (free_slot < 0) {
      free_slot = static_cast<int>(rng_.below(level.size()));
      kill(level, free_slot);
    }
    level[free_slot] = e;
    return free_slot;
  }

  std::vector<TlbEntry> l1_, l2_;
  Rng rng_;
  TlbStats stats_;
  std::vector<u64> stamps_;
};

bool same_stats(const TlbStats& a, const TlbStats& b) {
  return a.l1_hits == b.l1_hits && a.l2_hits == b.l2_hits &&
         a.misses == b.misses && a.invalidations == b.invalidations;
}

// The hash-indexed Tlb must be observationally identical to the linear scan
// it replaced: 200k seeded ops per geometry (aliasing global/non-global
// inserts over a hot and a cold page set, lookups, all five invalidation
// scopes), with every hit and its (slot, stamp) tag, insert tag, stats
// line, micro-TLB stamp and valid-entry count compared after every op. The cold set overflows even
// the 1024-entry main TLB, so random replacement is exercised too.
TEST(TlbTest, IndexedMatchesLinearScanReference) {
  constexpr u64 kOps = 200'000;
  for (const std::size_t l1 : {0u, 1u, 16u}) {
    for (const std::size_t l2 : {0u, 64u, 1024u}) {
      SCOPED_TRACE("L1=" + std::to_string(l1) + " L2=" + std::to_string(l2));
      const u64 seed = 1000 + l1 * 7 + l2;
      Tlb tlb(l1, l2, seed);
      LinearTlb ref(l1, l2, seed);
      Rng rng(seed ^ 0x5eed);
      std::size_t peak = 0;
      const auto page = [&] {
        return rng.chance(0.5) ? rng.below(48) : 0x1000 + rng.below(3000);
      };
      const auto asid = [&] { return static_cast<u16>(1 + rng.below(4)); };
      const auto vmid = [&] { return static_cast<u16>(1 + rng.below(2)); };
      for (u64 op = 0; op < kOps; ++op) {
        const u64 kind = rng.below(10'000);
        if (kind < 4000) {
          const u64 vp = page();
          const u16 a = asid(), v = vmid();
          const auto got = tlb.lookup(vp, a, v, 7);
          const auto want = ref.lookup(vp, a, v, 7);
          ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
          if (got) {
            ASSERT_TRUE(got->entry == want->entry) << "op " << op;
            ASSERT_EQ(got->from_l1, want->from_l1) << "op " << op;
            ASSERT_EQ(got->extra_cost, want->extra_cost) << "op " << op;
            ASSERT_EQ(got->tag, want->tag) << "op " << op;
          }
        } else if (kind < 8200) {
          TlbEntry e;
          e.valid = true;
          e.vpage = page();
          e.asid = asid();
          e.vmid = vmid();
          e.global = rng.chance(0.25);
          e.stage2_on = rng.chance(0.5);
          e.ppage = rng.below(1 << 20) << kPageShift;
          e.ipa_page = rng.below(1 << 20);
          e.s1.read_only = rng.chance(0.5);
          e.s1.global = e.global;
          e.s2.write = rng.chance(0.5);
          e.s1_root = rng.below(64) << kPageShift;
          e.s2_root = e.stage2_on ? rng.below(64) << kPageShift : 0;
          ASSERT_EQ(tlb.insert(e), ref.insert(e)) << "op " << op;
        } else if (kind < 9200) {
          const u64 vp = page();
          const u16 a = asid(), v = vmid();
          tlb.invalidate_va(vp, a, v);
          ref.invalidate_va(vp, a, v);
        } else if (kind < 9992) {
          const u64 vp = page();
          const u16 v = vmid();
          tlb.invalidate_va_all_asid(vp, v);
          ref.invalidate_va_all_asid(vp, v);
        } else if (kind < 9997) {
          const u16 a = asid(), v = vmid();
          tlb.invalidate_asid(a, v);
          ref.invalidate_asid(a, v);
        } else if (kind < 9999) {
          const u16 v = vmid();
          tlb.invalidate_vmid(v);
          ref.invalidate_vmid(v);
        } else {
          tlb.invalidate_all();
          ref.invalidate_all();
        }
        ASSERT_TRUE(same_stats(tlb.stats(), ref.stats())) << "op " << op;
        for (std::size_t i = 0; i < l1; ++i) {
          ASSERT_EQ(tlb.stamp(static_cast<u16>(i)), ref.stamps()[i])
              << "op " << op << " slot " << i;
        }
        ASSERT_EQ(tlb.valid_entries(), ref.valid_entries()) << "op " << op;
        peak = std::max(peak, ref.valid_entries());
      }
      EXPECT_EQ(peak, l2);  // every non-empty main TLB filled up
    }
  }
}

TEST(FakePhysTest, SequentialAllocationInFaultOrder) {
  FakePhysMap fake;
  // The paper's example: first and second faulting frames get fake pages
  // 0x1000 and 0x2000 regardless of their real addresses.
  EXPECT_EQ(fake.fake_of(0x470ec000), 0x1000u);
  EXPECT_EQ(fake.fake_of(0x48800000), 0x2000u);
  EXPECT_EQ(fake.fake_of(0x470ec000), 0x1000u);  // stable
  EXPECT_EQ(fake.size(), 2u);
}

TEST(FakePhysTest, ReverseLookupAndErase) {
  FakePhysMap fake;
  const IntermAddr f = fake.fake_of(0xb000'0000);
  EXPECT_EQ(fake.real_of(f + 0x123).value(), 0xb000'0123u);
  EXPECT_EQ(fake.lookup_fake(0xb000'0000).value(), f);
  EXPECT_FALSE(fake.real_of(0x9999'0000).has_value());
  fake.erase_real(0xb000'0000);
  EXPECT_FALSE(fake.real_of(f).has_value());
  EXPECT_FALSE(fake.lookup_fake(0xb000'0000).has_value());
}

// The fake -> real direction is a dense vector over the sequential fake
// pages: everything outside [first, last] and every erased page misses.
TEST(FakePhysTest, DenseReverseMapBounds) {
  FakePhysMap fake(0x10000);
  EXPECT_EQ(fake.fake_of(0xa000'0000), 0x10000u);
  EXPECT_EQ(fake.fake_of(0xa000'5000), 0x11000u);
  EXPECT_FALSE(fake.real_of(0).has_value());
  EXPECT_FALSE(fake.real_of(0xfff8).has_value());  // below the first page
  EXPECT_FALSE(fake.real_of(0x12000).has_value());  // past the last page
  EXPECT_FALSE(fake.real_of(u64{1} << 40).has_value());
  EXPECT_EQ(fake.real_of(0x11ff8).value(), 0xa000'5ff8u);  // offset kept
  fake.erase_real(0xa000'0000);
  EXPECT_FALSE(fake.real_of(0x10000).has_value());
  EXPECT_FALSE(fake.real_of(0x10abc).has_value());
  EXPECT_EQ(fake.real_of(0x11000).value(), 0xa000'5000u);
  EXPECT_EQ(fake.size(), 1u);
}

TEST(FakePhysTest, RefakedPageTakesTheNextSequentialFake) {
  FakePhysMap fake;
  EXPECT_EQ(fake.fake_of(0xb000'0000), 0x1000u);
  EXPECT_EQ(fake.fake_of(0xb000'1000), 0x2000u);
  fake.erase_real(0xb000'0000);
  EXPECT_EQ(fake.fake_of(0xb000'0000), 0x3000u);  // fakes are never reused
  EXPECT_FALSE(fake.real_of(0x1000).has_value());
  EXPECT_EQ(fake.real_of(0x3000).value(), 0xb000'0000u);
  EXPECT_EQ(fake.lookup_fake(0xb000'0000).value(), 0x3000u);
}

// Erased slots hold a sentinel no real frame can equal: a frame at PA 0
// is a live mapping, not an erased one.
TEST(FakePhysTest, RealFrameAtZeroIsNotTheErasedSentinel) {
  FakePhysMap fake;
  EXPECT_EQ(fake.fake_of(0), 0x1000u);
  ASSERT_TRUE(fake.real_of(0x1000).has_value());
  EXPECT_EQ(*fake.real_of(0x1000), 0u);
  EXPECT_EQ(fake.real_of(0x1abc).value(), 0xabcu);
  fake.erase_real(0);
  EXPECT_FALSE(fake.real_of(0x1000).has_value());
}

}  // namespace
}  // namespace lz::mem
