// Tests for the break-before-make write-protocol oracle (DESIGN.md §15).
//
// Three layers:
//   * catch cases — drive Stage1Table/Stage2Table + Machine TLBI sequences
//     that violate the protocol and assert the exact divergence kind;
//   * quiet cases — the legal break/TLBI/DSB/remap sequence, in-place
//     widening, every covering TLBI scope, and dead-ASID/dead-VMID table
//     teardown with frame recycling must produce zero divergences;
//   * module regressions — named reproducers for every real bug the armed
//     oracle surfaced in the LightZone module (W^X break paths, overlay
//     coalescing, deferred stage-2 fill, free_pgt teardown ordering,
//     guest-placement frame recycling). These run whole module flows under
//     CaptureDivergences and pin the fixes.
//
// The whole file also runs under TSan in ci.sh: the 4-core test exercises
// the monitor's locking against concurrent per-core protocol streams.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "arch/platform.h"
#include "check/bbm.h"
#include "check/check.h"
#include "kernel/kernel.h"
#include "lightzone/api.h"
#include "mem/page_table.h"
#include "mem/phys_mem.h"
#include "mem/pte.h"
#include "sim/machine.h"

namespace lz::check {
namespace {

// Install the monitor explicitly (core::Env arms it too, but the raw-table
// tests never construct an Env) and isolate per-location state per test.
class BbmTest : public ::testing::Test {
 protected:
  BbmTest() {
    BbmMonitor::install();
    BbmMonitor::instance().reset();
  }
  ~BbmTest() override { BbmMonitor::instance().reset(); }

  static u64 violations() { return BbmMonitor::instance().stats().violations; }
};

mem::S1Attrs s1_rw() {
  mem::S1Attrs a;
  a.user = true;
  a.read_only = false;
  return a;
}

mem::S1Attrs s1_ro() {
  mem::S1Attrs a = s1_rw();
  a.read_only = true;
  return a;
}

constexpr VirtAddr kVa = 0x400000;

// --- Catch cases ------------------------------------------------------------

TEST_F(BbmTest, RemapWithoutTlbiIsFlagged) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_TRUE(t.unmap(kVa).is_ok());

  CaptureDivergences cap;
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_unclean");
  EXPECT_EQ(violations(), 1u);
}

TEST_F(BbmTest, WrongAsidTlbiDoesNotCover) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());  // nG (global=false)
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  // TLBI VAE1IS naming the right page but the *wrong* ASID: the stale
  // ASID-5 entry survives, so the remap is still a protocol violation.
  m.tlbi_va_is(page_index(kVa), /*asid=*/6, /*vmid=*/0);

  CaptureDivergences cap;
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_unclean");
}

TEST_F(BbmTest, RemapBeforeDsbIsFlagged) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  // Correctly-scoped invalidate, but the remap races ahead of the DSB that
  // completes it.
  m.tlbi_va_is_nosync(page_index(kVa), /*asid=*/5, /*vmid=*/0);

  CaptureDivergences cap;
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_before_dsb");

  // The DSB arriving *after* the remap does not retroactively legalise it,
  // but it does quiesce the location for the rest of the test.
  m.dsb_ish();
}

TEST_F(BbmTest, Stage1InPlaceTighteningIsFlagged) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());

  CaptureDivergences cap;
  ASSERT_TRUE(t.protect(kVa, s1_ro()).is_ok());  // RW -> RO in place
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.tighten_in_place");
}

TEST_F(BbmTest, Stage2InPlaceTighteningIsFlagged) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage2Table t(m.mem(), /*vmid=*/1);
  const PhysAddr frame = m.mem().alloc_frame();
  mem::S2Attrs rwx;
  ASSERT_TRUE(t.map(0x10000, frame, rwx).is_ok());

  mem::S2Attrs ro = rwx;
  ro.write = false;
  ro.exec = false;
  CaptureDivergences cap;
  ASSERT_TRUE(t.protect(0x10000, ro).is_ok());
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.tighten_in_place");
}

TEST_F(BbmTest, GlobalPageIgnoresAsidScopedTlbi) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  mem::S1Attrs g = s1_rw();
  g.global = true;  // nG=0: one stale entry serves every ASID
  ASSERT_TRUE(t.map(kVa, frame, g).is_ok());
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  // ASIDE1IS with the matching ASID still cannot retire a global entry.
  m.tlbi_asid_is(/*asid=*/5, /*vmid=*/0);

  CaptureDivergences cap;
  ASSERT_TRUE(t.map(kVa, frame, g).is_ok());
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_unclean");
}

TEST_F(BbmTest, WrongVmidTlbiDoesNotCoverStage2) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage2Table t(m.mem(), /*vmid=*/1);
  const PhysAddr frame = m.mem().alloc_frame();
  ASSERT_TRUE(t.map(0x10000, frame, mem::S2Attrs{}).is_ok());
  ASSERT_TRUE(t.unmap(0x10000).is_ok());
  m.tlbi_vmid_is(/*vmid=*/2);  // someone else's VM

  CaptureDivergences cap;
  ASSERT_TRUE(t.map(0x10000, frame, mem::S2Attrs{}).is_ok());
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_unclean");
}

// --- Quiet cases ------------------------------------------------------------

TEST_F(BbmTest, LegalBreakTlbiDsbRemapIsQuiet) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  CaptureDivergences cap;
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_va_is(page_index(kVa), /*asid=*/5, /*vmid=*/0);  // TLBI + DSB ISH
  ASSERT_TRUE(t.map(kVa, frame, s1_ro()).is_ok());
  EXPECT_TRUE(cap.items().empty());
  EXPECT_EQ(violations(), 0u);
}

TEST_F(BbmTest, EveryCoveringTlbiScopeIsQuiet) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  CaptureDivergences cap;

  // VAAE1IS: by page, every ASID — covers regardless of the broken ASID.
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_va_all_asid_is(page_index(kVa), /*vmid=*/0);
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());

  // ASIDE1IS with the matching ASID covers a non-global entry.
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_asid_is(/*asid=*/5, /*vmid=*/0);
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());

  // VAE1IS covers a *global* entry for any ASID when the page matches.
  mem::S1Attrs g = s1_rw();
  g.global = true;
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_va_is(page_index(kVa), /*asid=*/5, /*vmid=*/0);
  ASSERT_TRUE(t.map(kVa, frame, g).is_ok());
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_va_is(page_index(kVa), /*asid=*/7, /*vmid=*/0);
  ASSERT_TRUE(t.map(kVa, frame, g).is_ok());

  // ALLE1IS covers everything.
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_all_is();
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());

  // The split nosync + DSB pair is the same protocol as the sync form.
  ASSERT_TRUE(t.unmap(kVa).is_ok());
  m.tlbi_va_is_nosync(page_index(kVa), /*asid=*/5, /*vmid=*/0);
  m.dsb_ish();
  ASSERT_TRUE(t.map(kVa, frame, s1_rw()).is_ok());

  EXPECT_TRUE(cap.items().empty());
  EXPECT_EQ(violations(), 0u);
}

TEST_F(BbmTest, InPlaceWideningIsQuiet) {
  sim::Machine m(arch::Platform::cortex_a55());
  mem::Stage1Table t(m.mem(), /*asid=*/5);
  const PhysAddr frame = m.mem().alloc_frame();
  CaptureDivergences cap;
  ASSERT_TRUE(t.map(kVa, frame, s1_ro()).is_ok());
  ASSERT_TRUE(t.protect(kVa, s1_rw()).is_ok());  // adds rights: legal
  EXPECT_TRUE(cap.items().empty());

  mem::S2Attrs ro;
  ro.write = false;
  mem::Stage2Table s2(m.mem(), /*vmid=*/1);
  ASSERT_TRUE(s2.map(0x10000, frame, ro).is_ok());
  ASSERT_TRUE(s2.protect(0x10000, mem::S2Attrs{}).is_ok());
  EXPECT_TRUE(cap.items().empty());
  EXPECT_EQ(violations(), 0u);
}

// Dead-ASID teardown: destroying a table with live leaves must retire the
// monitor's per-location state, so a new table reusing the recycled frames
// starts clean.
TEST_F(BbmTest, DeadAsidTeardownAndFrameRecyclingIsQuiet) {
  sim::Machine m(arch::Platform::cortex_a55());
  CaptureDivergences cap;
  std::vector<PhysAddr> frames;
  for (int i = 0; i < 4; ++i) frames.push_back(m.mem().alloc_frame());
  {
    mem::Stage1Table t(m.mem(), /*asid=*/5);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(t.map(kVa + i * kPageSize, frames[i], s1_rw()).is_ok());
    }
    // One location is deliberately left broken-but-uncovered...
    ASSERT_TRUE(t.unmap(kVa).is_ok());
  }  // ...and the whole regime dies: dtor frees every table frame.
  m.tlbi_asid_is(/*asid=*/5, /*vmid=*/0);

  // A fresh table re-allocates the recycled frames (LIFO allocator) and
  // maps over the very same descriptor PAs: must be quiet.
  mem::Stage1Table t2(m.mem(), /*asid=*/6);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t2.map(kVa + i * kPageSize, frames[i], s1_rw()).is_ok());
  }
  EXPECT_TRUE(cap.items().empty());
  EXPECT_EQ(violations(), 0u);
}

// 4 cores, one protocol stream per core, concurrent broadcasts: the
// monitor must stay quiet and data-race-free (this test is in the ci.sh
// TSan leg).
TEST_F(BbmTest, FourCoreConcurrentProtocolIsQuiet) {
  sim::Machine m(arch::Platform::cortex_a55(), /*seed=*/42, /*num_cores=*/4);
  CaptureDivergences cap;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < 4; ++c) {
    threads.emplace_back([&m, c] {
      sim::Machine::CoreBinding bind(m, c);
      const u16 asid = static_cast<u16>(10 + c);
      mem::Stage1Table t(m.mem(), asid);
      const VirtAddr base = kVa + c * 0x1000000;
      const PhysAddr frame = m.mem().alloc_frame();
      for (int round = 0; round < 50; ++round) {
        const VirtAddr va = base + (round % 8) * kPageSize;
        ASSERT_TRUE(t.map(va, frame, s1_rw()).is_ok());
        ASSERT_TRUE(t.unmap(va).is_ok());
        m.tlbi_va_is(page_index(va), asid, /*vmid=*/0);
        ASSERT_TRUE(t.map(va, frame, s1_ro()).is_ok());
        ASSERT_TRUE(t.unmap(va).is_ok());
        m.tlbi_asid_is(asid, /*vmid=*/0);
      }
      m.mem().free_frame(frame);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(cap.items().empty());
  EXPECT_EQ(violations(), 0u);
}

// --- Module regressions (bugs the armed oracle surfaced) --------------------

// Each of these runs a whole LightZone flow with the oracle armed (core::Env
// installs it) and pins a fix in src/lightzone/module.cpp.

// free_pgt used to broadcast its VMID-scoped TLBI *before* destroying the
// domain table. Destruction stage-2-unmaps every table frame's read-only
// mapping (table_frame_ops), so those breaks were left uncovered — and the
// next lz_alloc recycled the same frames and fake IPAs into a fresh table,
// remapping over unclean locations (bbm.remap_unclean in
// LightZoneTest.FreeDissolvesDomainRegions and four other tests).
TEST_F(BbmTest, FreedPgtRecycleFollowsBbm) {
  core::Env env;
  auto& proc = env.new_process();
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
  CaptureDivergences cap;
  for (int round = 0; round < 3; ++round) {
    const auto pgt = lz.lz_alloc();
    ASSERT_TRUE(pgt.is_ok());
    ASSERT_TRUE(lz.lz_prot(core::Env::kHeapVa, kPageSize, pgt.value(),
                           core::kLzRead | core::kLzWrite)
                    .is_ok());
    ASSERT_TRUE(lz.module()
                    .touch_page(lz.ctx(), core::Env::kHeapVa, true, false)
                    .is_ok());
    ASSERT_TRUE(lz.lz_free(pgt.value()).is_ok());
  }
  EXPECT_TRUE(cap.items().empty());
}

// The W^X exec transition breaks every writable alias before the sanitizer
// runs; the unmap statuses used to be discarded with (void), and the
// stage-2 retire used a raw descriptor rewrite. Both directions of the
// state machine — write->exec and the JIT-style exec->write flip — must be
// clean protocol sequences now.
TEST_F(BbmTest, WxTransitionsFollowBbm) {
  core::Env env;
  auto& proc = env.new_process();
  constexpr VirtAddr kJitVa = 0x30000000;
  ASSERT_TRUE(env.kern()
                  .mmap(proc, kJitVa, kPageSize,
                        kernel::kProtRead | kernel::kProtWrite |
                            kernel::kProtExec)
                  .is_ok());
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
  CaptureDivergences cap;
  auto& mod = lz.module();
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, true, false).is_ok());
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, false, true).is_ok());
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, true, false).is_ok());  // JIT
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, false, true).is_ok());
  EXPECT_TRUE(cap.items().empty());
}

// fault_in_page used to apply overlay regions one at a time, rewriting the
// live PTE once per covering region; with a kPgtAll overlay preceding a
// domain-specific region the second write tightened in place (dropping the
// global bit). Attachments are now coalesced to one write per table.
TEST_F(BbmTest, OverlayCoalescingFollowsBbm) {
  core::Env env;
  auto& proc = env.new_process();
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
  CaptureDivergences cap;
  const auto pgt = lz.lz_alloc();
  ASSERT_TRUE(pgt.is_ok());
  // Two overlapping regions on the same page: every-table overlay first,
  // then a tighter domain-specific one.
  ASSERT_TRUE(lz.lz_prot(core::Env::kHeapVa, 4 * kPageSize, core::kPgtAll,
                         core::kLzRead | core::kLzWrite)
                  .is_ok());
  ASSERT_TRUE(lz.lz_prot(core::Env::kHeapVa, kPageSize, pgt.value(),
                         core::kLzRead)
                  .is_ok());
  ASSERT_TRUE(lz.module()
                  .touch_page(lz.ctx(), core::Env::kHeapVa, false, false)
                  .is_ok());
  ASSERT_TRUE(lz.module()
                  .touch_page(lz.ctx(), core::Env::kHeapVa + kPageSize, true,
                              false)
                  .is_ok());
  EXPECT_TRUE(cap.items().empty());
}

// With eager_stage2 off the stage-2 fill is deferred to the first stage-2
// fault; re-faulting a page whose stage-2 entry already exists with stale
// rights (a W^X transition happened in between) used to hit kAlreadyExists
// instead of resyncing. Exercise the deferred path end to end.
TEST_F(BbmTest, DeferredStage2WxFollowsBbm) {
  core::Env env;
  auto& proc = env.new_process();
  constexpr VirtAddr kJitVa = 0x30000000;
  ASSERT_TRUE(env.kern()
                  .mmap(proc, kJitVa, kPageSize,
                        kernel::kProtRead | kernel::kProtWrite |
                            kernel::kProtExec)
                  .is_ok());
  core::LzOptions ov;
  ov.eager_stage2 = false;
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1, &ov);
  CaptureDivergences cap;
  auto& mod = lz.module();
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, true, false).is_ok());
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, false, true).is_ok());
  ASSERT_TRUE(mod.touch_page(lz.ctx(), kJitVa, true, false).is_ok());
  ASSERT_TRUE(mod.touch_page(lz.ctx(), core::Env::kHeapVa, true, false)
                  .is_ok());
  EXPECT_TRUE(cap.items().empty());
}

// Guest placement: destroying a process under the Lowvisor recycles its
// frames through the guest's stage-2 identity maintenance; a fresh process
// re-mapping the recycled frames must find every location clean.
TEST_F(BbmTest, GuestProcessRecycleFollowsBbm) {
  core::Env env(core::Env::Options().placement(core::Env::Placement::kGuest));
  CaptureDivergences cap;
  for (int round = 0; round < 2; ++round) {
    auto& proc = env.new_process();
    {
      core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
      ASSERT_TRUE(lz.module()
                      .touch_page(lz.ctx(), core::Env::kHeapVa, true, false)
                      .is_ok());
      const auto pgt = lz.lz_alloc();
      ASSERT_TRUE(pgt.is_ok());
      ASSERT_TRUE(lz.lz_free(pgt.value()).is_ok());
    }
    env.kern().destroy(proc);
  }
  EXPECT_TRUE(cap.items().empty());
  EXPECT_EQ(violations(), 0u);
}

// Process teardown returns every frame it took: the kernel's demand-paged
// pages, the LightZone upper half (stub, gate code, GateTab, TTBRTab) and
// all table frames. 100 new_process + enter + touch + destroy cycles on
// host and guest placement leave frames_in_use() flat after the first
// cycle, and the teardown follows break-before-make (covering TLBI before
// each free), so the monitor stays quiet.
TEST_F(BbmTest, ProcessTeardownReturnsEveryFrame) {
  for (const auto placement :
       {core::Env::Placement::kHost, core::Env::Placement::kGuest}) {
    core::Env env(core::Env::Options().placement(placement));
    CaptureDivergences cap;
    const auto cycle = [&] {
      auto& proc = env.new_process();
      {
        core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
        for (int d = 0; d < 8; ++d) {
          const auto pgt = lz.lz_alloc();
          ASSERT_TRUE(pgt.is_ok());
          const VirtAddr va = core::Env::kHeapVa + d * kPageSize;
          ASSERT_TRUE(lz.lz_prot(va, kPageSize, *pgt,
                                 core::kLzRead | core::kLzWrite)
                          .is_ok());
          ASSERT_TRUE(
              lz.module().touch_page(lz.ctx(), va, true, false).is_ok());
        }
      }
      env.kern().destroy(proc);
    };
    cycle();  // first-use growth (guest stage-2 tables, free-list shape)
    const u64 frames = env.machine->mem().frames_in_use();
    for (int i = 0; i < 100; ++i) cycle();
    EXPECT_EQ(env.machine->mem().frames_in_use(), frames)
        << (placement == core::Env::Placement::kHost ? "host" : "guest");
    EXPECT_TRUE(cap.items().empty());
  }
  EXPECT_EQ(violations(), 0u);
}

}  // namespace
}  // namespace lz::check
