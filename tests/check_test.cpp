// Tests for the lz::check conformance harness: counter diffing, the
// Table-2 shadow model, the seeded fuzz driver's replay guarantees, and —
// in LZ_CHECK builds — the TLB-vs-walk oracle catching an injected stale
// translation.
#include <gtest/gtest.h>

#include "check/bbm.h"
#include "check/check.h"
#include "check/fuzz.h"
#include "check/shadow.h"
#include "lightzone/api.h"
#include "sim/machine.h"

namespace lz::check {
namespace {

TEST(CheckDiffTest, DiffCountersReportsOnlyMismatches) {
  const obs::Snapshot a{{"same", 7}, {"moved", 2}, {"only_a", 1}};
  const obs::Snapshot b{{"same", 7}, {"moved", 3}, {"only_b", 5}};
  const auto diff = diff_counters(a, b);
  ASSERT_EQ(diff.size(), 3u);  // moved, only_a (vs 0), only_b (vs 0)
  EXPECT_EQ(diff[0], "moved: a=2 b=3");
  EXPECT_TRUE(diff_counters(a, a).empty());
}

TEST(CheckDiffTest, IgnoreFnSkipsSmpVariantCounters) {
  const obs::Snapshot a{{"mem.tlb.l1_hit", 10}, {"sim.core2.tlb.miss", 4},
                        {"sim.dvm.broadcast", 1}, {"check.divergence", 1},
                        {"sim.core.insn_retired", 100}};
  const obs::Snapshot b{{"mem.tlb.l1_hit", 20}, {"sim.core2.tlb.miss", 9},
                        {"sim.dvm.broadcast", 0}, {"check.divergence", 0},
                        {"sim.core.insn_retired", 101}};
  const auto diff = diff_counters(a, b, is_smp_variant_counter);
  // Only the topology-independent aggregate survives the filter.
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], "sim.core.insn_retired: a=100 b=101");
}

TEST(CheckDiffTest, CaptureDivergencesDoesNotAbort) {
  CaptureDivergences cap;
  report({"test.kind", "detail"});
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "test.kind");
}

// The shadow model must track the live module call for call: run a short
// scripted sequence through both and compare every Status.
TEST(ShadowTest, ScriptedSequenceMatchesLiveModule) {
  core::Env env;
  auto& proc = env.new_process();
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
  ShadowTable2 shadow(lz.ctx().opts().max_gates, /*allow_scalable=*/true,
                      core::max_domains(core::BackendKind::kTtbrPan));
  shadow.add_vma(core::Env::kCodeVa, core::Env::kCodeVa + core::Env::kCodeLen,
                 false, true);
  shadow.add_vma(core::Env::kHeapVa, core::Env::kHeapVa + core::Env::kHeapLen,
                 true, false);

  // Same discipline as the fuzz driver: Table-2 calls (and in particular
  // gate switches) run inside the process's LightZone world.
  lz.module().enter_el1(lz.ctx());

  const VirtAddr va = core::Env::kHeapVa;
  const auto alloc = shadow.alloc();
  const auto live_alloc = lz.lz_alloc();
  ASSERT_TRUE(live_alloc.is_ok());
  EXPECT_EQ(alloc.errc, Errc::kOk);
  EXPECT_EQ(alloc.pgt, live_alloc.value());
  const int pgt = alloc.pgt;

  EXPECT_EQ(shadow.prot(va + 8, kPageSize, pgt, core::kLzRead),
            lz.lz_prot(va + 8, kPageSize, pgt, core::kLzRead).errc());
  EXPECT_EQ(shadow.prot(va, kPageSize, pgt, core::kLzRead),
            lz.lz_prot(va, kPageSize, pgt, core::kLzRead).errc());
  EXPECT_EQ(shadow.map_gate_pgt(pgt, 999999),
            lz.lz_map_gate_pgt(pgt, 999999).errc());
  EXPECT_EQ(shadow.map_gate_pgt(pgt, 1), lz.lz_map_gate_pgt(pgt, 1).errc());
  EXPECT_EQ(shadow.gate_switch(1), lz.lz_switch_to_ttbr_gate(1).status().errc());
  EXPECT_EQ(shadow.touch(va, true, false),
            lz.module().touch_page(lz.ctx(), va, true, false).errc());
  EXPECT_EQ(shadow.touch(0x900000000ULL, false, false),
            lz.module().touch_page(lz.ctx(), 0x900000000ULL, false, false)
                .errc());
  EXPECT_EQ(shadow.free_pgt(pgt), lz.lz_free(pgt).errc());
  EXPECT_EQ(shadow.free_pgt(pgt), lz.lz_free(pgt).errc());  // double free
  lz.exit_world();
}

// ... and a *wrong* shadow must be flagged: desynchronize the model on
// purpose and check the predictions now disagree (the property the fuzz
// driver's shadow.status divergences are built on).
TEST(ShadowTest, DesynchronizedShadowIsFlagged) {
  core::Env env;
  auto& proc = env.new_process();
  core::LzProc lz = core::LzProc::enter(*env.module, proc, true, 1);
  ShadowTable2 shadow(lz.ctx().opts().max_gates, /*allow_scalable=*/true,
                      core::max_domains(core::BackendKind::kTtbrPan));
  const int pgt = lz.lz_alloc().value();
  (void)shadow.alloc();
  (void)shadow.free_pgt(pgt);  // shadow-only free: the model is now wrong
  const Errc predicted = shadow.map_gate_pgt(pgt, 1);
  const Errc actual = lz.lz_map_gate_pgt(pgt, 1).errc();
  EXPECT_EQ(predicted, Errc::kNoPgt);
  EXPECT_EQ(actual, Errc::kOk);
  EXPECT_NE(predicted, actual);
}

// The shadow's domain cap is the module's: lz_alloc hands out pgt ids up
// to kMaxDomainTables - 1 (ASID id + 1 <= 0xffff) and then returns
// kResourceExhausted, so the 65,535th table (pgt 0 counted) is the last.
TEST(ShadowTest, ShadowExhaustsAtTheModuleDomainCap) {
  const int cap = core::max_domains(core::BackendKind::kTtbrPan);
  EXPECT_EQ(cap, core::kMaxDomainTables);
  EXPECT_EQ(cap, 0xffff);
  ShadowTable2 shadow(8, /*allow_scalable=*/true, cap);
  for (int id = 1; id < cap; ++id) {
    const auto a = shadow.alloc();
    ASSERT_EQ(a.errc, Errc::kOk) << id;
    ASSERT_EQ(a.pgt, id);
  }
  EXPECT_EQ(shadow.alloc().errc, Errc::kResourceExhausted);
  EXPECT_EQ(shadow.free_pgt(cap - 1), Errc::kOk);
  EXPECT_EQ(shadow.alloc().pgt, cap - 1);  // a freed id is reusable
  EXPECT_EQ(shadow.alloc().errc, Errc::kResourceExhausted);
}

TEST(ShadowTest, PanOnlyProcessCannotAlloc) {
  ShadowTable2 shadow(8, /*allow_scalable=*/false,
                      core::max_domains(core::BackendKind::kTtbrPan));
  EXPECT_EQ(shadow.alloc().errc, Errc::kFailedPrecondition);
  core::Env env;
  auto& proc = env.new_process();
  core::LzProc lz = core::LzProc::enter(*env.module, proc, false, 1);
  EXPECT_EQ(lz.lz_alloc().status().errc(), Errc::kFailedPrecondition);
}

// Replay determinism: the same seeded config reproduces byte-identically,
// and the same streams on 1 vs 2 cores produce identical status streams
// with counters equal modulo the documented SMP-variant set.
TEST(FuzzTest, SeededRunReproducesByteIdentically) {
  FuzzConfig cfg;
  cfg.seed = 7;
  cfg.cores = 2;
  cfg.ops_per_stream = 300;
  const auto a = run_table2_fuzz(cfg);
  const auto b = run_table2_fuzz(cfg);
  EXPECT_TRUE(a.divergences.empty());
  EXPECT_TRUE(b.divergences.empty());
  EXPECT_EQ(a.status_hash, b.status_hash);
  EXPECT_EQ(a.status_streams, b.status_streams);
  EXPECT_TRUE(diff_counters(a.counters, b.counters).empty());

  FuzzConfig uni = cfg;
  uni.cores = 1;
  uni.streams = 2;
  const auto c = run_table2_fuzz(uni);
  EXPECT_TRUE(c.divergences.empty());
  EXPECT_EQ(a.status_streams, c.status_streams);
  EXPECT_TRUE(
      diff_counters(a.counters, c.counters, is_smp_variant_counter).empty());
}

#ifdef LZ_CONF_CHECK
// The TLB-vs-walk oracle: remap a page in the live tables *without* the
// TLBI that break-before-make requires, then translate again. The stale
// TLB hit must be reported as a tlb.out_addr divergence.
TEST(TlbOracleTest, StaleEntryAfterSkippedTlbiIsCaught) {
  sim::Machine machine(arch::Platform::cortex_a55());
  auto& core = machine.core();
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const VirtAddr va = 0x400000;
  const PhysAddr frame_a = machine.mem().alloc_frame();
  const PhysAddr frame_b = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl.map(va, frame_a, mem::S1Attrs{}));
  core.set_sysreg(sim::SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = arch::ExceptionLevel::kEl1;

  ASSERT_TRUE(core.translate(va, sim::AccessType::kRead, false).ok);

  // The remap deliberately skips the TLBI, so it is *also* a
  // break-before-make violation. Arm the BBM monitor explicitly (rather
  // than relying on whether an earlier test's Env installed it) so the
  // divergence stream is the same under ctest-per-case and whole-binary
  // (TSan/ASan) runs, and assert both oracles fire in order.
  BbmMonitor::install();
  BbmMonitor::instance().reset();
  LZ_CHECK_OK(tbl.unmap(va));
  CaptureDivergences cap;
  LZ_CHECK_OK(tbl.map(va, frame_b, mem::S1Attrs{}));
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_unclean");
  // No TLBI: the next access hits the stale entry for frame_a.
  const auto tr = core.translate(va, sim::AccessType::kRead, false);
  ASSERT_EQ(cap.items().size(), 2u);
  EXPECT_EQ(cap.items()[1].kind, "tlb.out_addr");
  // The simulator still *uses* the stale entry (that is the hardware
  // behaviour being checked): the translation resolves to frame_a.
  EXPECT_TRUE(tr.ok);
  EXPECT_EQ(page_floor(tr.pa), frame_a);

  // After the proper invalidate the oracle is quiet again.
  machine.tlb().invalidate_va(page_index(va), /*asid=*/1, /*vmid=*/0);
  ASSERT_TRUE(core.translate(va, sim::AccessType::kRead, false).ok);
  EXPECT_EQ(cap.items().size(), 2u);
}

// Attribute-only staleness (same output frame, different permissions) is
// reported as tlb.attrs.
TEST(TlbOracleTest, StaleAttributesAreCaught) {
  sim::Machine machine(arch::Platform::cortex_a55());
  auto& core = machine.core();
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const VirtAddr va = 0x400000;
  const PhysAddr frame = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl.map(va, frame, mem::S1Attrs{}));
  core.set_sysreg(sim::SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = arch::ExceptionLevel::kEl1;
  ASSERT_TRUE(core.translate(va, sim::AccessType::kRead, false).ok);

  // Same deliberate protocol violation as above: the TLBI-less remap
  // trips the BBM oracle first, the stale permissions trip the TLB oracle.
  BbmMonitor::install();
  BbmMonitor::instance().reset();
  mem::S1Attrs ro;
  ro.read_only = true;
  LZ_CHECK_OK(tbl.unmap(va));
  CaptureDivergences cap;
  LZ_CHECK_OK(tbl.map(va, frame, ro));
  ASSERT_EQ(cap.items().size(), 1u);
  EXPECT_EQ(cap.items()[0].kind, "bbm.remap_unclean");
  (void)core.translate(va, sim::AccessType::kRead, false);
  ASSERT_EQ(cap.items().size(), 2u);
  EXPECT_EQ(cap.items()[1].kind, "tlb.attrs");
}

// Context changes are not divergences: pointing TTBR0 at a different table
// without TLBI may legally reuse a matching global entry, so the oracle
// must stay quiet (the isolation pentests rely on this).
TEST(TlbOracleTest, RootChangeIsNotADivergence) {
  sim::Machine machine(arch::Platform::cortex_a55());
  auto& core = machine.core();
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const VirtAddr va = 0x400000;
  mem::S1Attrs global;
  global.global = true;
  LZ_CHECK_OK(tbl.map(va, machine.mem().alloc_frame(), global));
  core.set_sysreg(sim::SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = arch::ExceptionLevel::kEl1;
  ASSERT_TRUE(core.translate(va, sim::AccessType::kRead, false).ok);

  mem::Stage1Table other(machine.mem(), /*asid=*/1);
  core.set_sysreg(sim::SysReg::kTtbr0El1, other.ttbr());
  CaptureDivergences cap;
  (void)core.translate(va, sim::AccessType::kRead, false);
  EXPECT_TRUE(cap.items().empty());
}
#endif  // LZ_CONF_CHECK

}  // namespace
}  // namespace lz::check
