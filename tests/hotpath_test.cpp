// Hot-path coherence tests: the per-core L0 translation cache must be
// architecturally invisible — every TLBI flavour (local and remote DVM
// broadcast), every translation-context change and every PSTATE.PAN toggle
// must reach through it, while a bare TTBR0 rewrite (LightZone's §4.1.2
// domain switch) may still legally hit the *main* TLB. Plus the decoded-page
// cache (no re-decode of a hot loop no matter how many distinct words run),
// the batched-accounting flush contract, and the lock-free PhysMem radix.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "arch/encode.h"
#include "check/bbm.h"
#include "check/check.h"
#include "lightzone/api.h"
#include "lightzone/gate.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/assembler.h"
#include "sim/machine.h"

namespace lz::sim {
namespace {

using arch::ExceptionClass;
using arch::ExceptionLevel;
using mem::S1Attrs;
using mem::TlbEntry;

constexpr VirtAddr kCodeVa = 0x400000;
constexpr VirtAddr kDataVa = 0x500000;
constexpr VirtAddr kFillVa = 0x800000;

S1Attrs CodeAttrs() {
  S1Attrs a;
  a.user = false;
  a.read_only = true;
  a.pxn = false;
  return a;
}

S1Attrs DataAttrs(bool user = false) {
  S1Attrs a;
  a.user = user;
  return a;
}

class HotPathTest : public ::testing::Test {
 protected:
  explicit HotPathTest(unsigned cores = 1)
      : machine(arch::Platform::cortex_a55(), /*seed=*/42, cores) {}

  // EL1 execution context under one stage-1 table, stage-2 off.
  void UseTable(mem::Stage1Table& t, unsigned core_id = 0) {
    auto& core = machine.core(core_id);
    core.set_sysreg(SysReg::kTtbr0El1, t.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
  }

  // Warm one VA into the TLB and the L0: first translate misses and
  // refills, second is served by the L0 (counted as a micro-TLB hit).
  PhysAddr Warm(VirtAddr va, unsigned core_id = 0) {
    auto& core = machine.core(core_id);
    auto t1 = core.translate(va, AccessType::kRead, false);
    EXPECT_TRUE(t1.ok);
    auto t2 = core.translate(va, AccessType::kRead, false);
    EXPECT_TRUE(t2.ok);
    EXPECT_EQ(t1.pa, t2.pa);
    return t2.pa;
  }

  Machine machine;
};

// --- L0 invalidation coherence ----------------------------------------------
// Shape shared by the TLBI flavours: warm a translation (TLB refill + L0
// install), remap the page in the live table, issue the TLBI, and check the
// next translate walks the *new* tables. A stale L0 hit would return the
// old frame and would be counted as a micro-TLB hit instead of a miss.

class L0InvalidationTest : public HotPathTest {
 protected:
  void SetUp() override {
    tbl = std::make_unique<mem::Stage1Table>(machine.mem(), /*asid=*/1);
    frame_a = machine.mem().alloc_frame();
    frame_b = machine.mem().alloc_frame();
    LZ_CHECK_OK(tbl->map(kDataVa, frame_a, DataAttrs()));
    UseTable(*tbl);
  }

  // Remap kDataVa from frame_a to frame_b without telling the TLB.
  void Remap() {
    LZ_CHECK_OK(tbl->unmap(kDataVa));
    LZ_CHECK_OK(tbl->map(kDataVa, frame_b, DataAttrs()));
  }

  void ExpectFreshWalkAfterInvalidate() {
    const auto before = machine.tlb(0).stats();
    auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
    const auto after = machine.tlb(0).stats();
    EXPECT_TRUE(t.ok);
    EXPECT_EQ(t.pa, frame_b);  // stale L0/TLB data would still say frame_a
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.l1_hits, before.l1_hits);
  }

  std::unique_ptr<mem::Stage1Table> tbl;
  PhysAddr frame_a = 0, frame_b = 0;
};

TEST_F(L0InvalidationTest, TlbiVae1ReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_va(kDataVa >> kPageShift, /*asid=*/1, /*vmid=*/0);
  ExpectFreshWalkAfterInvalidate();
}

TEST_F(L0InvalidationTest, TlbiAside1ReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_asid(/*asid=*/1, /*vmid=*/0);
  ExpectFreshWalkAfterInvalidate();
}

TEST_F(L0InvalidationTest, TlbiVmalle1ReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_vmid(/*vmid=*/0);
  ExpectFreshWalkAfterInvalidate();
}

TEST_F(L0InvalidationTest, TlbiAllReachesL0) {
  EXPECT_EQ(Warm(kDataVa), frame_a);
  Remap();
  machine.tlb(0).invalidate_all();
  ExpectFreshWalkAfterInvalidate();
}

// The generation substrate itself: every invalidation flavour advances it,
// and refilling over a live aliasing entry advances it too (some core may
// have memoized the overwritten entry).
TEST(TlbGenerationTest, InvalidationsAndLiveEvictionsAdvanceGeneration) {
  mem::Tlb tlb(16, 64, /*seed=*/1);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x400;
  e.asid = 1;
  e.ppage = 0x4000'0000;
  e.s1_root = 0x4000'2000;

  const u64 g0 = tlb.generation();
  tlb.insert(e);  // fresh fill into empty slots: no live entry disturbed
  EXPECT_EQ(tlb.generation(), g0);

  TlbEntry e2 = e;
  e2.ppage = 0x4000'1000;
  const u64 g1 = tlb.insert(e2);  // overwrites the live aliasing entry
  EXPECT_GT(g1, g0);

  u64 g = tlb.generation();
  tlb.invalidate_va(0x400, 1, 0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_asid(1, 0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_vmid(0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_va_all_asid(0x400, 0);
  EXPECT_GT(tlb.generation(), g);
  g = tlb.generation();
  tlb.invalidate_all();
  EXPECT_GT(tlb.generation(), g);
}

// A gate switch reads GateTab and TTBRTab and runs the gate code, all on
// 2 MiB-aligned pages of the upper layout. Indexed by the low page bits
// alone, the three shared one slot and evicted each other on every switch;
// the L0 index keeps them apart in both the read L0 and the fetch L0.
TEST(L0IndexTest, GatePagesTakeDistinctSlots) {
  using core::UpperLayout;
  const u64 code = UpperLayout::kGateCodeVa >> kPageShift;
  const u64 gatetab = UpperLayout::kGateTabVa >> kPageShift;
  const u64 ttbrtab = UpperLayout::kTtbrTabVa >> kPageShift;
  const unsigned c = Core::l0_index(code, Core::kL0DataSlots);
  const unsigned g = Core::l0_index(gatetab, Core::kL0DataSlots);
  const unsigned t = Core::l0_index(ttbrtab, Core::kL0DataSlots);
  EXPECT_NE(c, g);
  EXPECT_NE(c, t);
  EXPECT_NE(g, t);
  for (const unsigned slot : {c, g, t}) EXPECT_LT(slot, Core::kL0DataSlots);
  // The gate's fetches and the calling code's fetches.
  EXPECT_NE(Core::l0_index(code, Core::kL0FetchSlots),
            Core::l0_index(kCodeVa >> kPageShift, Core::kL0FetchSlots));
}

// Remote DVM broadcast (TLBI VAE1IS from another core) must invalidate this
// core's L0 as well — the generation counter is the cross-core channel.
class RemoteDvmTest : public HotPathTest {
 protected:
  RemoteDvmTest() : HotPathTest(/*cores=*/2) {}
};

TEST_F(RemoteDvmTest, BroadcastShootdownReachesRemoteL0) {
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const PhysAddr frame_a = machine.mem().alloc_frame();
  const PhysAddr frame_b = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl.map(kDataVa, frame_a, DataAttrs()));
  UseTable(tbl, /*core_id=*/0);

  EXPECT_EQ(Warm(kDataVa, /*core_id=*/0), frame_a);

  LZ_CHECK_OK(tbl.unmap(kDataVa));
  LZ_CHECK_OK(tbl.map(kDataVa, frame_b, DataAttrs()));
  {
    // Core 1 issues the broadcast invalidate over the modelled DVM
    // interconnect; core 0 never touches its own TLB.
    Machine::CoreBinding bind(machine, 1);
    machine.tlbi_va_is(kDataVa >> kPageShift, /*asid=*/1, /*vmid=*/0);
  }

  const auto before = machine.tlb(0).stats();
  auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame_b);
  EXPECT_EQ(machine.tlb(0).stats().misses, before.misses + 1);
}

// A bare TTBR0 rewrite (same ASID, no TLBI — the §4.1.2 domain-switch fast
// path) must miss the L0 (context epoch changed) but may architecturally
// still hit the main TLB's stale-but-matching entry. After a TLBI ASIDE1
// the new table takes effect.
TEST_F(HotPathTest, BareTtbr0RewriteMissesL0ButMayHitMainTlb) {
  mem::Stage1Table tbl_a(machine.mem(), /*asid=*/1);
  mem::Stage1Table tbl_b(machine.mem(), /*asid=*/1);
  const PhysAddr frame_a = machine.mem().alloc_frame();
  const PhysAddr frame_b = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl_a.map(kDataVa, frame_a, DataAttrs()));
  LZ_CHECK_OK(tbl_b.map(kDataVa, frame_b, DataAttrs()));
  UseTable(tbl_a);

  EXPECT_EQ(Warm(kDataVa), frame_a);
  const auto warm = machine.tlb(0).stats();
  EXPECT_EQ(warm.misses, 1u);
  EXPECT_EQ(warm.l1_hits, 1u);  // the L0 hit, committed as a micro-TLB hit

  // Switch tables without invalidating. The TLB still holds (vpage, asid 1)
  // derived from table A, and serving it is architecturally legal.
  machine.core(0).set_sysreg(SysReg::kTtbr0El1, tbl_b.ttbr());
  auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  const auto stale = machine.tlb(0).stats();
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame_a);                    // legal stale main-TLB hit
  EXPECT_EQ(stale.l1_hits, warm.l1_hits + 1);  // served by the real TLB
  EXPECT_EQ(stale.misses, warm.misses);

  // The conventional switch (TLBI after rewrite) exposes table B.
  machine.tlb(0).invalidate_asid(/*asid=*/1, /*vmid=*/0);
  t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame_b);
  EXPECT_EQ(machine.tlb(0).stats().misses, stale.misses + 1);
}

// PSTATE.PAN is compared directly by the L0: toggling it re-runs the full
// permission check (privileged access to a user page flips between OK and
// permission fault), and toggling it back may legally re-hit the L0.
TEST_F(HotPathTest, PanToggleRechecksPermissions) {
  mem::Stage1Table tbl(machine.mem(), /*asid=*/1);
  const PhysAddr frame = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl.map(kDataVa, frame, DataAttrs(/*user=*/true)));
  UseTable(tbl);
  auto& core = machine.core(0);

  core.pstate().pan = false;
  EXPECT_EQ(Warm(kDataVa), frame);  // privileged read of user page, PAN clear

  core.pstate().pan = true;
  auto t = core.translate(kDataVa, AccessType::kRead, false);
  EXPECT_FALSE(t.ok);
  EXPECT_TRUE(t.permission);

  core.pstate().pan = false;
  t = core.translate(kDataVa, AccessType::kRead, false);
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame);
}

// --- Cached translation context ---------------------------------------------

TEST_F(HotPathTest, CachedAsidVmidFollowSysregWrites) {
  auto& core = machine.core(0);
  core.set_sysreg(SysReg::kTtbr0El1, mem::make_ttbr(0x4000'2000, /*asid=*/7));
  EXPECT_EQ(core.current_asid(), 7u);
  EXPECT_FALSE(core.stage2_enabled());
  EXPECT_EQ(core.current_vmid(), 0u);  // stage-2 off: VMID pinned to 0

  // VTTBR alone does nothing until HCR_EL2.VM turns stage-2 on.
  core.set_sysreg(SysReg::kVttbrEl2, mem::make_vttbr(0x4000'3000, /*vmid=*/9));
  EXPECT_EQ(core.current_vmid(), 0u);
  core.set_sysreg(SysReg::kHcrEl2, arch::hcr::kVm);
  EXPECT_TRUE(core.stage2_enabled());
  EXPECT_EQ(core.current_vmid(), 9u);

  core.set_sysreg(SysReg::kTtbr0El1, mem::make_ttbr(0x4000'2000, /*asid=*/3));
  EXPECT_EQ(core.current_asid(), 3u);
  core.set_sysreg(SysReg::kHcrEl2, 0);
  EXPECT_FALSE(core.stage2_enabled());
  EXPECT_EQ(core.current_vmid(), 0u);
}

// --- Decoded-page cache ------------------------------------------------------

class DecodeCacheTest : public HotPathTest {
 protected:
  explicit DecodeCacheTest(unsigned cores = 1) : HotPathTest(cores) {}

  void InstallCode(Asm& a, S1Attrs attrs = CodeAttrs()) {
    tbl = std::make_unique<mem::Stage1Table>(machine.mem(), /*asid=*/1);
    code_pa = machine.mem().alloc_frame();
    a.install(machine.mem(), code_pa);
    LZ_CHECK_OK(tbl->map(kCodeVa, code_pa, attrs));
    UseTable(*tbl);
    machine.core(0).set_pc(kCodeVa);
    machine.core(0).set_handler(ExceptionLevel::kEl1, [](const TrapInfo&) {
      return TrapAction::kStop;
    });
  }

  std::unique_ptr<mem::Stage1Table> tbl;
  PhysAddr code_pa = 0;
};

TEST_F(DecodeCacheTest, HotLoopDecodesEachWordOnce) {
  Asm a;
  auto loop = a.new_label();
  a.movz(1, 500);
  a.bind(loop);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  const auto r = core.run(10'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.decode_count(), a.insn_count());  // one decode per word

  core.set_pc(kCodeVa);
  core.run(10'000);
  EXPECT_EQ(core.decode_count(), a.insn_count());  // second run: all cached
}

TEST_F(DecodeCacheTest, SelfModifyingCodeRedecodes) {
  Asm a;
  a.movz(0, 111);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  core.run(10);
  EXPECT_EQ(core.x(0), 111u);
  const u64 d = core.decode_count();

  // Patch the movz in place (host-side write, as a JIT or loader would).
  machine.mem().write(code_pa, 4, arch::enc::movz(0, 222));
  core.set_pc(kCodeVa);
  core.run(10);
  EXPECT_EQ(core.x(0), 222u);
  EXPECT_EQ(core.decode_count(), d + 1);  // only the patched word re-decoded
}

// Regression for the old value-keyed decode cache, which wiped itself
// wholesale after 65536 distinct words: executing >65536 distinct words on
// other pages must never force a hot page to re-decode.
TEST_F(DecodeCacheTest, HotPageSurvives64KDistinctWords) {
  Asm hot;
  auto loop = hot.new_label();
  hot.movz(1, 10);
  hot.bind(loop);
  hot.sub_imm(1, 1, 1);
  hot.cbnz(1, loop);
  hot.svc(0);
  InstallCode(hot);

  auto& core = machine.core(0);
  core.run(1'000);
  const u64 after_hot = core.decode_count();
  EXPECT_EQ(after_hot, hot.insn_count());

  // 68 pages of distinct words = 69632 > 65536 decodes. The filler frames
  // must not collide with the hot page's direct-mapped decode slot (512
  // slots), so skip any frame that aliases it — collisions evicting the
  // slot would be *correct* but are not what this test pins down.
  constexpr unsigned kFillerPages = 68;
  constexpr unsigned kWordsPerPage = kPageSize / 4;
  const u64 hot_slot = page_index(code_pa) % 512;
  std::vector<PhysAddr> filler;
  while (filler.size() < kFillerPages) {
    const PhysAddr f = machine.mem().alloc_frame();
    if (page_index(f) % 512 != hot_slot) filler.push_back(f);
  }
  u32 n = 0;
  for (unsigned p = 0; p < kFillerPages; ++p) {
    std::array<u32, kWordsPerPage> words;
    for (unsigned w = 0; w < kWordsPerPage; ++w, ++n) {
      // Distinct words throughout: MOVZ x9..x12 with a running imm16.
      words[w] = arch::enc::movz(static_cast<u8>(9 + (n >> 16)),
                                 static_cast<u16>(n & 0xffff));
    }
    if (p == kFillerPages - 1) words[kWordsPerPage - 1] = arch::enc::svc(0);
    machine.mem().write_bytes(filler[p], words.data(), sizeof(words));
    LZ_CHECK_OK(tbl->map(kFillVa + u64{p} * kPageSize, filler[p], CodeAttrs()));
  }

  core.set_pc(kFillVa);  // falls straight through all 68 pages to the SVC
  const auto r = core.run(100'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  const u64 after_filler = core.decode_count();
  EXPECT_GE(after_filler - after_hot, 65537u);

  // The hot page must still be fully decoded: re-running it decodes nothing.
  core.set_pc(kCodeVa);
  core.run(1'000);
  EXPECT_EQ(core.decode_count(), after_filler);
}

// --- Batched accounting ------------------------------------------------------
// After run() returns (a flush boundary), counters, cycle totals and
// TlbStats must be exact — identical to charging every instruction
// individually.

TEST_F(DecodeCacheTest, BatchedAccountingExactAfterRun) {
  constexpr u64 kIters = 200;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.mov_imm64(3, kDataVa);
  a.bind(loop);
  a.ldr(2, 3);  // one data access per iteration
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);
  const PhysAddr data_pa = machine.mem().alloc_frame();
  LZ_CHECK_OK(tbl->map(kDataVa, data_pa, DataAttrs()));

  auto& core = machine.core(0);
  const auto r = core.run(10'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);

  // mov_imm64 may be several words; derive the step count from the run.
  const u64 steps = r.steps;
  const auto& plat = core.platform();
  EXPECT_EQ(core.account().of(CostKind::kInsn), steps * plat.insn_base);
  EXPECT_EQ(core.account().of(CostKind::kMem), kIters * plat.mem_access);

  const auto stats = machine.tlb(0).stats();
  EXPECT_EQ(stats.lookups(), steps + kIters);  // one fetch each + the loads
  EXPECT_EQ(stats.misses, 2u);                 // code page + data page
  EXPECT_EQ(stats.l2_hits, 0u);
  EXPECT_EQ(stats.l1_hits, steps + kIters - 2);
}

// Two identical machines run the same program to identical counters and
// cycle totals — the batched flush cannot depend on host timing.
TEST(HotPathDeterminismTest, BatchedRunsAreReproducible) {
  auto run_once = [](u64* cycles, mem::TlbStats* stats) {
    Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
    mem::Stage1Table tbl(m.mem(), /*asid=*/1);
    const PhysAddr code = m.mem().alloc_frame();
    Asm a;
    auto loop = a.new_label();
    a.movz(1, 300);
    a.bind(loop);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    a.install(m.mem(), code);
    LZ_CHECK_OK(tbl.map(kCodeVa, code, CodeAttrs()));
    auto& core = m.core(0);
    core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
    core.set_pc(kCodeVa);
    core.set_handler(ExceptionLevel::kEl1,
                     [](const TrapInfo&) { return TrapAction::kStop; });
    core.run(10'000);
    *cycles = core.account().total();
    *stats = m.tlb(0).stats();
  };
  u64 c1 = 0, c2 = 0;
  mem::TlbStats s1, s2;
  run_once(&c1, &s1);
  run_once(&c2, &s2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(s1.l1_hits, s2.l1_hits);
  EXPECT_EQ(s1.misses, s2.misses);
}

// The entire observability stack is observe-only: arming the event trace,
// the sampling profiler, and the PMU must not move a single simulated
// cycle. Guards the lock-free hot path against instrumentation costs
// leaking into the cost model.
TEST(HotPathDeterminismTest, ObservabilityOffCycleIdentity) {
  auto run_once = [](bool observed) {
    obs::reset_all();
    if (observed) {
      obs::trace().arm(256);
      obs::profiler().arm(64);
    } else {
      obs::trace().disarm();
      obs::profiler().disarm();
    }
    Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
    mem::Stage1Table tbl(m.mem(), /*asid=*/1);
    const PhysAddr code = m.mem().alloc_frame();
    Asm a;
    auto loop = a.new_label();
    a.movz(1, 500);
    a.mov_imm64(3, kDataVa);
    a.bind(loop);
    a.ldr(2, 3);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    a.install(m.mem(), code);
    LZ_CHECK_OK(tbl.map(kCodeVa, code, CodeAttrs()));
    LZ_CHECK_OK(tbl.map(kDataVa, m.mem().alloc_frame(), DataAttrs()));
    auto& core = m.core(0);
    core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
    core.pstate().el = ExceptionLevel::kEl1;
    core.set_pc(kCodeVa);
    core.set_handler(ExceptionLevel::kEl1,
                     [](const TrapInfo&) { return TrapAction::kStop; });
    if (observed) {
      namespace pmu = arch::pmu;
      core.set_sysreg(SysReg::kPmccfiltrEl0, pmu::kFiltNsh);
      core.set_sysreg(SysReg::kPmcntensetEl0,
                      pmu::kCntenCycle | pmu::kCntenMask);
      core.set_sysreg(SysReg::kPmevtyper0El0, pmu::kEvtInstRetired);
      core.set_sysreg(SysReg::kPmevtyper1El0, pmu::kEvtL1dTlbRefill);
      core.set_sysreg(SysReg::kPmcrEl0, pmu::kPmcrE);
    }
    core.run(10'000);
    const u64 total = core.account().total();
    obs::trace().disarm();
    obs::profiler().disarm();
    obs::reset_all();
    return total;
  };
  const u64 quiet = run_once(false);
  const u64 observed = run_once(true);
  EXPECT_EQ(quiet, observed);
}

// --- PhysMem radix -----------------------------------------------------------

TEST(PhysMemRadixTest, InRamAndOverflowRoundTrip) {
  mem::PhysMem pm(0x4000'0000, u64{1} << 20);  // 256 in-radix pages
  pm.write(0x4000'0000, 8, 0x1122334455667788ull);
  EXPECT_EQ(pm.read(0x4000'0000, 8), 0x1122334455667788ull);
  // Past the end of RAM: served by the overflow map, still zero-initialised.
  const PhysAddr beyond = 0x4000'0000 + (u64{1} << 20) + 0x2340;
  EXPECT_EQ(pm.read(beyond, 4), 0u);
  pm.write(beyond, 4, 0xdeadbeef);
  EXPECT_EQ(pm.read(beyond, 4), 0xdeadbeefu);
}

TEST(PhysMemRadixTest, ConcurrentFirstTouchReads) {
  mem::PhysMem pm(0x4000'0000, u64{64} << 20);
  // Hammer first-touch page materialisation from several threads at once:
  // each thread owns a disjoint stripe of pages, writes a pattern and reads
  // it back while the others are concurrently faulting in their own pages.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPagesPer = 64;
  std::vector<std::thread> workers;
  std::array<bool, kThreads> ok{};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pm, &ok, t] {
      bool good = true;
      for (unsigned p = 0; p < kPagesPer; ++p) {
        const PhysAddr pa =
            0x4000'0000 + (u64{t} * kPagesPer + p) * kPageSize + 8 * t;
        pm.write(pa, 8, (u64{t} << 32) | p);
        good &= pm.read(pa, 8) == ((u64{t} << 32) | p);
      }
      ok[t] = good;
    });
  }
  for (auto& w : workers) w.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[t]);
}

// --- Superblock trace tier ---------------------------------------------------
// The trace tier (DESIGN.md §16) memoizes straight-line runs of decoded
// instructions and replays them with threaded-code dispatch. It must be as
// architecturally invisible as the L0/decode caches it sits on: these tests
// drive every invalidation source (own-page store mid-trace, bare
// translation-context switch, remote DVM broadcast, break-before-make remap)
// and check both the architectural results and the sim.trace.* accounting.
// Note the anti-churn backoff: after an invalidation the slot skips a couple
// of dispatch opportunities before rebuilding, so loops here run enough
// iterations to see the rebuild.

class TraceTierTest : public DecodeCacheTest {
 protected:
  explicit TraceTierTest(unsigned cores = 1) : DecodeCacheTest(cores) {
    for (unsigned c = 0; c < cores; ++c) machine.core(c).set_trace_tier(true);
  }

  TraceStats Stats() { return machine.core(0).trace_stats(); }

  // Writable + executable mapping for self-modifying-code tests.
  static S1Attrs RwxAttrs() {
    S1Attrs a;
    a.user = false;
    a.read_only = false;
    a.pxn = false;
    return a;
  }
};

// A store inside a trace that lands on the trace's own code page must kill
// the trace on the spot: the store itself completes, the words after it are
// re-read by the interpreter, and the invalidation is counted as SMC.
TEST_F(TraceTierTest, OwnPageStoreKillsTraceMidFlight) {
  constexpr u64 kIters = 60;
  constexpr u64 kScratchOff = 0x800;  // word on the code page, past the code
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.mov_imm64(3, kCodeVa + kScratchOff);
  a.movz(4, 0xbeef);
  a.bind(loop);
  a.str(4, 3);          // store into the trace's own page, mid-trace
  a.add_imm(2, 2, 1);   // iteration counter: proves every op still retires
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a, RwxAttrs());

  auto& core = machine.core(0);
  const auto r = core.run(10'000);
  EXPECT_EQ(r.reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), kIters);
  EXPECT_EQ(machine.mem().read(code_pa + kScratchOff, 8), 0xbeefu);
  EXPECT_GE(Stats().built, 1u);
  EXPECT_GE(Stats().invalidated_smc, 1u);
}

// A bare TTBR0 rewrite (LightZone's §4.1.2 domain switch) bumps the
// translation-context epoch: the trace built under the old epoch must miss
// its tags on the next dispatch and be rebuilt, with results unchanged.
TEST_F(TraceTierTest, BareTtbr0RewriteInvalidatesByEpoch) {
  constexpr u64 kIters = 200;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), kIters);
  EXPECT_GE(Stats().built, 1u);
  EXPECT_GE(Stats().executed, 1u);
  const u64 gen0 = Stats().invalidated_gen;
  const u64 built0 = Stats().built;

  // Same root, same ASID — but any TTBR0 write opens a new context epoch.
  core.set_sysreg(SysReg::kTtbr0El1, tbl->ttbr());
  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_GE(Stats().invalidated_gen, gen0 + 1);  // old trace died by tag
  EXPECT_GE(Stats().built, built0 + 1);          // and was rebuilt
}

// --- Epoch rule for global entries -------------------------------------------
// A global TLB entry matches every ASID and its lookup never consults the
// lower-half root, so L0 slots and traces built from one are keyed to the
// epoch a bare TTBR0 write leaves alone (DESIGN.md §11): the call gate's
// own MSR TTBR0_EL1 no longer kills its blocks. Non-global ones still die.

struct Ttbr0LoopOutcome {
  TraceStats trace;
  mem::TlbStats tlb;
  Cycles cycles = 0;
  u64 iterations = 0;
  std::size_t divergences = 0;
};

// `iters` iterations of: bare TTBR0 rewrite (same root and ASID), an MRS,
// then a three-op straight-line block — on a fresh machine with the
// TLB-vs-walk oracle capturing instead of aborting.
Ttbr0LoopOutcome RunTtbr0RewriteLoop(bool global_code, bool tier, u16 iters) {
  check::CaptureDivergences caught;
  Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
  mem::Stage1Table tbl(m.mem(), /*asid=*/1);
  Asm a;
  auto loop = a.new_label();
  a.movz(1, iters);
  a.bind(loop);
  a.msr(SysReg::kTtbr0El1, 5);
  a.mrs(6, SysReg::kTtbr0El1);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  const PhysAddr code = m.mem().alloc_frame();
  a.install(m.mem(), code);
  S1Attrs attrs = CodeAttrs();
  attrs.global = global_code;
  LZ_CHECK_OK(tbl.map(kCodeVa, code, attrs));
  auto& core = m.core(0);
  core.set_trace_tier(tier);
  core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = ExceptionLevel::kEl1;
  core.set_x(5, tbl.ttbr());
  core.set_pc(kCodeVa);
  core.set_handler(ExceptionLevel::kEl1,
                   [](const TrapInfo&) { return TrapAction::kStop; });
  EXPECT_EQ(core.run(100'000).reason, StopReason::kHandlerStop);
  return {core.trace_stats(), m.tlb(0).stats(), core.account().total(),
          core.x(2), caught.items().size()};
}

void ExpectSameSimulatedOutcome(const Ttbr0LoopOutcome& on,
                                const Ttbr0LoopOutcome& off) {
  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.tlb.l1_hits, off.tlb.l1_hits);
  EXPECT_EQ(on.tlb.l2_hits, off.tlb.l2_hits);
  EXPECT_EQ(on.tlb.misses, off.tlb.misses);
  EXPECT_EQ(on.tlb.invalidations, off.tlb.invalidations);
  EXPECT_EQ(on.divergences, 0u);
  EXPECT_EQ(off.divergences, 0u);
}

TEST(GlobalEpochTest, GlobalCodeTraceSurvivesBareTtbr0Writes) {
  constexpr u16 kIters = 1000;
  const auto on = RunTtbr0RewriteLoop(/*global_code=*/true, true, kIters);
  const auto off = RunTtbr0RewriteLoop(/*global_code=*/true, false, kIters);
  EXPECT_EQ(on.iterations, kIters);
  // Built once on the second visit, then dispatched every iteration after:
  // 1000 TTBR0 writes and not one tag miss. The trace is the whole loop,
  // MSR and MRS included: the TTBR0 write leaves the global epoch alone, so
  // the block goes on past it and chains.
  EXPECT_EQ(on.trace.built, 1u);
  EXPECT_EQ(on.trace.invalidated_gen, 0u);
  EXPECT_EQ(on.trace.executed, kIters - 1u);
  ExpectSameSimulatedOutcome(on, off);
}

TEST(GlobalEpochTest, NonGlobalCodeTraceDiesAndBacksOffGeometrically) {
  constexpr u16 kIters = 1000;
  const auto on = RunTtbr0RewriteLoop(/*global_code=*/false, true, kIters);
  const auto off = RunTtbr0RewriteLoop(/*global_code=*/false, false, kIters);
  EXPECT_EQ(on.iterations, kIters);
  // Every rebuilt trace dies at its next dispatch. The backoff window
  // doubles 2, 4, ..., 256 and then stays there: about log2(256) + N/257
  // builds per block (10 or 11 here), for four blocks — the whole loop at
  // the MSR (which ends itself: its TTBR0 write moves the non-global epoch)
  // and, while the blocks before them are deferred, the ADD/SUB/CBNZ, the
  // SUB/CBNZ and the lone CBNZ tails. (An MRS block never builds: the MSR
  // just staled the L0 fetch slot a build reads.) A window stuck at 2
  // rebuilt every third iteration (~N/3 per block).
  EXPECT_GE(on.trace.invalidated_gen, 1u);
  EXPECT_GE(on.trace.built, 4u);
  EXPECT_LE(on.trace.built, 48u);
  ExpectSameSimulatedOutcome(on, off);
}

// The bare TTBR0 write's data-side twin: a global L0/TLB entry still serves
// the page after a switch to another ASID's table, exactly as the real TLB
// lookup would (one micro-TLB hit, no walk), and the oracle stays quiet.
TEST_F(HotPathTest, GlobalDataEntryServesAcrossBareTtbr0Write) {
  check::CaptureDivergences caught;
  mem::Stage1Table tbl_a(machine.mem(), /*asid=*/1);
  mem::Stage1Table tbl_b(machine.mem(), /*asid=*/2);
  const PhysAddr frame = machine.mem().alloc_frame();
  S1Attrs global = DataAttrs();
  global.global = true;
  LZ_CHECK_OK(tbl_a.map(kDataVa, frame, global));
  LZ_CHECK_OK(tbl_b.map(kDataVa, frame, global));
  UseTable(tbl_a);
  EXPECT_EQ(Warm(kDataVa), frame);
  const auto warm = machine.tlb(0).stats();

  machine.core(0).set_sysreg(SysReg::kTtbr0El1, tbl_b.ttbr());
  const auto t = machine.core(0).translate(kDataVa, AccessType::kRead, false);
  const auto after = machine.tlb(0).stats();
  EXPECT_TRUE(t.ok);
  EXPECT_EQ(t.pa, frame);
  EXPECT_EQ(after.l1_hits, warm.l1_hits + 1);
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_TRUE(caught.items().empty());
}

// --- Bounded stop-PC runs ----------------------------------------------------
// run(max, stop_pc) stops with the PC exactly at the stop PC, never having
// executed it, even when the stop PC lies inside a hot trace or behind a
// chained loop — and retires exactly what the interpreter would.

TEST_F(TraceTierTest, StopPcInsideHotBlockStopsExactly) {
  constexpr u64 kIters = 50;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.add_imm(3, 3, 1);
  a.add_imm(4, 4, 1);  // stop PC for the mid-block run
  a.add_imm(5, 5, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);            // stop PC for the chained-loop run
  InstallCode(a);
  auto& core = machine.core(0);
  const u64 loop_va = kCodeVa + 4;
  const u64 mid_va = loop_va + 2 * 4;
  const u64 svc_va = loop_va + 6 * 4;

  // Warm: the loop body becomes a trace and chains.
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);
  const u64 executed0 = Stats().executed;

  // Mid-block stop: the trace covering mid_va must not dispatch.
  for (unsigned r : {2u, 3u, 4u, 5u}) core.set_x(r, 0);
  core.set_x(1, kIters);
  core.set_pc(loop_va);
  auto res = core.run(10'000, mid_va);
  EXPECT_EQ(res.reason, StopReason::kStopPc);
  EXPECT_EQ(res.steps, 2u);
  EXPECT_EQ(core.pc(), mid_va);
  EXPECT_EQ(core.x(2), 1u);
  EXPECT_EQ(core.x(3), 1u);
  EXPECT_EQ(core.x(4), 0u);  // the instruction at the stop PC did not run
  EXPECT_EQ(Stats().executed, executed0);

  // Stop behind a chained loop: the whole loop runs through the tier, the
  // SVC at the stop PC does not (no trap, no handler stop).
  core.set_x(1, kIters);
  core.set_pc(loop_va);
  res = core.run(10'000, svc_va);
  EXPECT_EQ(res.reason, StopReason::kStopPc);
  EXPECT_EQ(core.pc(), svc_va);
  EXPECT_EQ(res.steps, kIters * 6);
  EXPECT_EQ(core.x(5), kIters);
  EXPECT_GT(Stats().executed, executed0);

  // A stop PC at the run's own start PC stops before anything retires.
  res = core.run(10'000, svc_va);
  EXPECT_EQ(res.reason, StopReason::kStopPc);
  EXPECT_EQ(res.steps, 0u);
}

// The same bounded runs with the tier off retire the same instructions and
// charge the same cycles.
TEST_F(DecodeCacheTest, StopPcRunMatchesAcrossTiers) {
  Asm a;
  auto loop = a.new_label();
  a.movz(1, 40);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.add_imm(3, 3, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.add_imm(6, 6, 1);
  a.add_imm(7, 7, 1);  // stop PC
  a.svc(0);
  InstallCode(a);
  const u64 stop = kCodeVa + 6 * 4;
  auto& core = machine.core(0);
  core.set_trace_tier(false);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);  // warm TLB
  std::array<RunResult, 2> res;
  std::array<Cycles, 2> cycles;
  for (int tier = 0; tier < 2; ++tier) {
    core.set_trace_tier(tier == 1);
    core.set_pc(kCodeVa);
    const Cycles before = core.account().total();
    res[tier] = core.run(10'000, stop);
    cycles[tier] = core.account().total() - before;
    EXPECT_EQ(core.pc(), stop);
    EXPECT_EQ(core.x(6), u64(tier + 2));
    EXPECT_EQ(core.x(7), 1u);  // only the warm-up run got past the stop PC
  }
  EXPECT_EQ(res[0].reason, StopReason::kStopPc);
  EXPECT_EQ(res[1].reason, StopReason::kStopPc);
  EXPECT_EQ(res[0].steps, res[1].steps);
  EXPECT_EQ(cycles[0], cycles[1]);
}

// A bounded run reached from inside another (a trap handler driving a gate
// the way exec_gate_switch does) stops at its own stop PC, and the outer
// run's stop PC is back in force when it returns.
TEST_F(DecodeCacheTest, NestedRunRestoresOuterStopPc) {
  constexpr VirtAddr kSubVa = kCodeVa + 0x100;
  Asm a;
  a.svc(0);            // 0x00: handler runs the nested bounded run
  a.add_imm(2, 2, 1);  // 0x04
  a.add_imm(3, 3, 1);  // 0x08: outer stop PC
  a.svc(0);            // 0x0c: reached only if the outer stop PC was lost
  while (a.size_bytes() < kSubVa - kCodeVa) a.nop();
  a.add_imm(5, 5, 1);  // kSubVa
  a.add_imm(6, 6, 1);  // kSubVa + 4: inner stop PC
  a.svc(0);
  InstallCode(a);
  auto& core = machine.core(0);
  RunResult inner;
  int traps = 0;
  core.set_handler(ExceptionLevel::kEl1, [&](const TrapInfo& info) {
    if (++traps > 1) return TrapAction::kStop;
    core.set_pc(kSubVa);
    inner = core.run(100, kSubVa + 4);
    core.set_pc(info.pc);  // ELR: the instruction after the SVC
    return TrapAction::kResume;
  });
  const auto outer = core.run(100, kCodeVa + 8);
  EXPECT_EQ(inner.reason, StopReason::kStopPc);
  EXPECT_EQ(core.x(5), 1u);
  EXPECT_EQ(core.x(6), 0u);
  EXPECT_EQ(outer.reason, StopReason::kStopPc);
  EXPECT_EQ(core.pc(), kCodeVa + 8);
  EXPECT_EQ(core.x(2), 1u);
  EXPECT_EQ(core.x(3), 0u);
  EXPECT_EQ(traps, 1);
}

// A TLBI issued by the core that owns the traces drops them eagerly via the
// Machine teardown hook (counted separately from dispatch-time tag misses).
TEST_F(TraceTierTest, LocalTlbiTearsDownTraces) {
  constexpr u64 kIters = 100;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);

  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  EXPECT_GE(Stats().invalidated_teardown, 1u);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
}

// The teardown hook counts exactly the traces that were live: N loops in N
// slots give N, a rebuild followed by another TLBI gives N again, a TLBI
// with nothing live gives 0, and a slot whose trace died by its generation
// tag and was rebuilt before the TLBI is counted once, not once per build.
TEST_F(TraceTierTest, TeardownDropsExactlyTheLiveTraces) {
  constexpr u8 kLoops = 8;
  constexpr u64 kIters = 5;  // enough to rebuild after the 2-visit backoff
  Asm a;
  // An interpreted MRS first: its fetch re-installs the L0 fetch slot a
  // build needs after each TLBI, so every loop head can build on its first
  // visit of a rerun.
  a.mrs(20, SysReg::kTtbr0El1);
  for (u8 k = 0; k < kLoops; ++k) {  // loop k counts down x(3 + k)
    auto loop = a.new_label();
    a.bind(loop);
    a.add_imm(2, 2, 1);
    a.sub_imm(3 + k, 3 + k, 1);
    a.cbnz(3 + k, loop);
  }
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  const auto run_loops = [&] {
    for (u8 k = 0; k < kLoops; ++k) core.set_x(3 + k, kIters);
    core.set_x(2, 0);
    core.set_pc(kCodeVa);
    EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
    EXPECT_EQ(core.x(2), kLoops * kIters);
  };
  // Traces built minus traces that died at dispatch since the last TLBI.
  TraceStats mark = Stats();
  const auto live = [&] {
    return (Stats().built - mark.built) -
           (Stats().invalidated_gen - mark.invalidated_gen) -
           (Stats().invalidated_smc - mark.invalidated_smc);
  };
  const auto tlbi = [&] {
    machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
    const u64 dropped =
        Stats().invalidated_teardown - mark.invalidated_teardown;
    mark = Stats();
    return dropped;
  };

  run_loops();
  EXPECT_EQ(Stats().built, kLoops);
  EXPECT_EQ(tlbi(), kLoops);

  run_loops();  // every head is hot: each rebuilds on its first visit
  EXPECT_EQ(Stats().built - mark.built, kLoops);
  EXPECT_EQ(tlbi(), kLoops);
  EXPECT_EQ(tlbi(), 0u);  // nothing live

  run_loops();
  // Kill every trace by generation only (no teardown hook), then rerun:
  // each head's trace dies at dispatch, backs off and is rebuilt, so every
  // head slot built twice since the last TLBI but holds one live trace.
  machine.tlb(0).invalidate_all();
  run_loops();
  EXPECT_EQ(Stats().invalidated_gen - mark.invalidated_gen, kLoops);
  EXPECT_GE(Stats().built - mark.built, 2u * kLoops);
  const u64 expected = live();
  EXPECT_GE(expected, kLoops);
  EXPECT_EQ(tlbi(), expected);
}

class TraceTierRemoteTest : public TraceTierTest {
 protected:
  TraceTierRemoteTest() : TraceTierTest(2) {}
};

// A DVM shootdown broadcast from another core must invalidate this core's
// traces without touching them cross-thread: the initiating core only drops
// its own, and the victim's trace dies at dispatch by its generation tag.
TEST_F(TraceTierRemoteTest, RemoteDvmShootdownInvalidatesByGeneration) {
  constexpr u64 kIters = 150;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);
  const u64 gen0 = Stats().invalidated_gen;
  const u64 teardown0 = Stats().invalidated_teardown;

  std::thread([&] {
    Machine::CoreBinding bind(machine, 1);
    machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  }).join();

  // The broadcast must not have reached into core 0's trace store directly —
  // only core 0 retires its own traces, at its next dispatch.
  EXPECT_EQ(Stats().invalidated_teardown, teardown0);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_GE(Stats().invalidated_gen, gen0 + 1);
}

// A clean break-before-make remap of the code page (unmap, scoped TLBI,
// remap) keeps the BBM monitor quiet and merely rebuilds the trace.
TEST_F(TraceTierTest, CleanBbmRemapRebuildsQuietly) {
  check::BbmMonitor::install();
  check::BbmMonitor::instance().reset();
  constexpr u64 kIters = 120;
  Asm a;
  auto loop = a.new_label();
  a.movz(1, kIters);
  a.bind(loop);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_GE(Stats().built, 1u);
  const u64 built0 = Stats().built;

  // Break-before-make: unmap, TLBI scoped to the right ASID (tlbi_va_is
  // completes with a DSB), then map the same frame back.
  LZ_CHECK_OK(tbl->unmap(kCodeVa));
  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  LZ_CHECK_OK(tbl->map(kCodeVa, code_pa, CodeAttrs()));
  EXPECT_EQ(check::BbmMonitor::instance().stats().violations, 0u);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_GE(Stats().built, built0 + 1);  // rebuilt over the remapped page
  check::BbmMonitor::instance().reset();
}

// --- System instructions inside traces ---------------------------------------
// MSR/MRS/MSR-imm/SYS lower to a kSys op that runs the interpreter's own
// exec_system mid-block (DESIGN.md §16.2); the block goes on only while
// everything its dispatch required still holds. Each case runs the same code
// with the tier on and off and must leave the same registers, cycles by
// kind, TLB stats and trap sequence.

struct TrapRecord {
  ExceptionClass ec = ExceptionClass::kUnknown;
  ExceptionLevel from = ExceptionLevel::kEl0;
  u64 pc = 0;
  u64 esr = 0;
  bool operator==(const TrapRecord&) const = default;
};

struct SysBlockOutcome {
  std::array<u64, 31> regs{};
  std::array<Cycles, kNumCostKinds> cycles{};
  mem::TlbStats tlb;
  std::vector<TrapRecord> traps;
  TraceStats trace;
  u64 retired = 0;
};

void ExpectSameSysBlockOutcome(const SysBlockOutcome& on,
                               const SysBlockOutcome& off) {
  EXPECT_EQ(on.regs, off.regs);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.tlb.l1_hits, off.tlb.l1_hits);
  EXPECT_EQ(on.tlb.l2_hits, off.tlb.l2_hits);
  EXPECT_EQ(on.tlb.misses, off.tlb.misses);
  EXPECT_EQ(on.tlb.invalidations, off.tlb.invalidations);
  EXPECT_EQ(on.traps, off.traps);
  EXPECT_EQ(on.retired, off.retired);
  EXPECT_EQ(off.trace.built, 0u);
}

constexpr VirtAddr kUserCodeVa = 0x600000;

// One scenario's machine, its stage-1 table, and a second table the
// scenario may switch to (both die before the machine).
struct SysBlockRig {
  Machine m{arch::Platform::cortex_a55(), /*seed=*/42};
  mem::Stage1Table tbl{m.mem(), /*asid=*/1};
  std::unique_ptr<mem::Stage1Table> next;
  Core& core() { return m.core(0); }
};

// What a scenario installs: kernel code at kCodeVa (EL1), optional user
// code at kUserCodeVa (EL0), a user data page at kDataVa, the starting EL
// and registers, and what the EL1 trap handler does after recording a trap
// (return kStop to end the run).
struct SysBlockScenario {
  Asm kernel;
  Asm user;
  S1Attrs kernel_attrs = CodeAttrs();
  ExceptionLevel start_el = ExceptionLevel::kEl1;
  VirtAddr start_pc = kCodeVa;
  std::function<void(SysBlockRig&)> setup;
  std::function<TrapAction(SysBlockRig&, const TrapInfo&)> on_trap;
};

SysBlockOutcome RunSysBlock(SysBlockScenario& sc, bool tier) {
  SysBlockRig rig;
  const auto install = [&](Asm& a, VirtAddr va, S1Attrs attrs) {
    const PhysAddr pa = rig.m.mem().alloc_frame();
    a.install(rig.m.mem(), pa);
    LZ_CHECK_OK(rig.tbl.map(va, pa, attrs));
  };
  install(sc.kernel, kCodeVa, sc.kernel_attrs);
  if (sc.user.insn_count() != 0) {
    S1Attrs user = CodeAttrs();
    user.user = true;
    user.uxn = false;
    install(sc.user, kUserCodeVa, user);
  }
  LZ_CHECK_OK(
      rig.tbl.map(kDataVa, rig.m.mem().alloc_frame(), DataAttrs(true)));
  auto& core = rig.core();
  core.set_trace_tier(tier);
  core.set_sysreg(SysReg::kTtbr0El1, rig.tbl.ttbr());
  core.pstate().el = sc.start_el;
  core.set_pc(sc.start_pc);
  if (sc.setup) sc.setup(rig);
  SysBlockOutcome out;
  core.set_handler(ExceptionLevel::kEl1, [&](const TrapInfo& info) {
    out.traps.push_back({info.ec, info.from, info.pc, info.esr});
    return sc.on_trap(rig, info);
  });
  out.retired = core.run(100'000).steps;
  for (unsigned i = 0; i < 31; ++i) out.regs[i] = core.x(i);
  for (std::size_t k = 0; k < kNumCostKinds; ++k) {
    out.cycles[k] = core.account().of(static_cast<CostKind>(k));
  }
  out.tlb = rig.m.tlb(0).stats();
  out.trace = core.trace_stats();
  return out;
}

// Resumes at the instruction after the trapping one, back at its EL.
TrapAction ResumeAfter(SysBlockRig& rig, const TrapInfo& info) {
  rig.core().set_sysreg(SysReg::kElrEl1, info.pc + 4);
  rig.core().eret_from(ExceptionLevel::kEl1);
  return TrapAction::kResume;
}

// An EL0 MSR to an EL1 register in mid-block raises the UNDEF the
// interpreter raises, at the same PC, with the same cycles: the ops before
// it retire, the ones after it do not run in that block.
TEST(SysInTraceTest, El0MsrMidBlockRaisesSameUndef) {
  constexpr u16 kIters = 20;
  const auto make = [] {
    SysBlockScenario sc;
    auto loop = sc.user.new_label();
    sc.user.movz(1, kIters);
    sc.user.bind(loop);
    sc.user.add_imm(2, 2, 1);
    sc.user.msr(SysReg::kTtbr0El1, 5);  // UNDEF at EL0
    sc.user.add_imm(3, 3, 1);
    sc.user.sub_imm(1, 1, 1);
    sc.user.cbnz(1, loop);
    sc.user.svc(0);
    sc.kernel.nop();
    sc.start_el = ExceptionLevel::kEl0;
    sc.start_pc = kUserCodeVa;
    sc.on_trap = [](SysBlockRig& rig, const TrapInfo& info) {
      if (info.ec == ExceptionClass::kSvc64) return TrapAction::kStop;
      return ResumeAfter(rig, info);
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  ASSERT_EQ(on.traps.size(), kIters + 1u);
  for (u16 i = 0; i < kIters; ++i) {
    EXPECT_EQ(on.traps[i].ec, ExceptionClass::kUnknown);
    EXPECT_EQ(on.traps[i].pc, kUserCodeVa + 8);
  }
  EXPECT_EQ(on.regs[2], kIters);
  EXPECT_EQ(on.regs[3], kIters);
  EXPECT_GE(on.trace.built, 1u);
  EXPECT_GT(on.trace.insns, 0u);
  ExpectSameSysBlockOutcome(on, off);
}

// MSR DAIFClr with an IRQ pending ends the block: the IRQ is taken before
// the next instruction, exactly where the interpreter takes it.
TEST(SysInTraceTest, DaifClrWithIrqPendingTakesIrqBeforeNextInsn) {
  constexpr u16 kIters = 20;
  const auto make = [] {
    SysBlockScenario sc;
    Asm& a = sc.kernel;
    auto loop = a.new_label();
    a.movz(1, kIters);
    a.bind(loop);
    a.add_imm(2, 2, 1);
    a.emit(arch::enc::msr_imm(arch::kPStateDaifClr, 2));
    a.add_imm(3, 3, 1);  // the IRQ is taken here, every iteration
    a.emit(arch::enc::msr_imm(arch::kPStateDaifSet, 2));
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    sc.setup = [](SysBlockRig& rig) {
      rig.core().pstate().irq_masked = true;
      rig.core().inject_irq();
    };
    sc.on_trap = [](SysBlockRig& rig, const TrapInfo& info) {
      if (info.ec == ExceptionClass::kSvc64) return TrapAction::kStop;
      Core& core = rig.core();
      // Pend the next IRQ and return masked, so the next DAIFClr unmasks it.
      core.inject_irq();
      core.set_sysreg(SysReg::kSpsrEl1,
                      core.sysreg(SysReg::kSpsrEl1) | (u64{1} << 7));
      core.eret_from(ExceptionLevel::kEl1);
      return TrapAction::kResume;
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  ASSERT_EQ(on.traps.size(), kIters + 1u);
  for (u16 i = 0; i < kIters; ++i) {
    EXPECT_EQ(on.traps[i].ec, ExceptionClass::kIrq);
    EXPECT_EQ(on.traps[i].pc, kCodeVa + 12);
  }
  EXPECT_EQ(on.regs[3], kIters);
  EXPECT_GE(on.trace.built, 1u);
  ExpectSameSysBlockOutcome(on, off);
}

// An MSR DBGWCR0_EL1 that arms a watchpoint in mid-block ends the block
// (the rest of it steps with the watchpoint check), and the EL0 load after
// the kernel's ERET hits the watchpoint. Watchpoints only watch EL0, so the
// EL1 load in the same block is the one the arming must not skip checking.
TEST(SysInTraceTest, WatchpointArmedMidBlockIsHitByTheNextLoad) {
  constexpr int kHits = 20;
  const auto make = [] {
    SysBlockScenario sc;
    Asm& k = sc.kernel;
    k.msr(SysReg::kDbgwcr0El1, 31);  // disarm (xzr)
    k.add_imm(2, 2, 1);
    k.msr(SysReg::kDbgwcr0El1, 6);   // arm, mid-block
    k.add_imm(3, 3, 1);
    k.ldr(7, 8);                     // EL1: not watched
    k.eret();                        // to the user load
    sc.user.ldr(9, 8);               // EL0: hits the watchpoint
    sc.user.svc(0);
    sc.setup = [](SysBlockRig& rig) {
      Core& core = rig.core();
      core.set_x(5, kDataVa);
      core.set_x(6, 1);  // enable, exact address
      core.set_x(8, kDataVa);
      core.set_sysreg(SysReg::kDbgwvr0El1, kDataVa);
      core.set_sysreg(SysReg::kElrEl1, kUserCodeVa);
      arch::PState user;
      user.el = ExceptionLevel::kEl0;
      core.set_sysreg(SysReg::kSpsrEl1, user.to_spsr());
    };
    sc.on_trap = [hits = 0](SysBlockRig& rig, const TrapInfo& info) mutable {
      if (info.ec != ExceptionClass::kBrk64 || ++hits == kHits) {
        return TrapAction::kStop;
      }
      rig.core().set_pc(kCodeVa);  // ELR/SPSR still return to the user load
      return TrapAction::kResume;
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  ASSERT_EQ(on.traps.size(), static_cast<std::size_t>(kHits));
  for (const auto& t : on.traps) {
    EXPECT_EQ(t.ec, ExceptionClass::kBrk64);
    EXPECT_EQ(t.from, ExceptionLevel::kEl0);
    EXPECT_EQ(t.pc, kUserCodeVa);
  }
  // From the second iteration on, the block at the ADD runs the ADD and the
  // arming MSR and stops there; the ops after it step with the watchpoint
  // check (as does the disarming MSR, which starts with it armed).
  EXPECT_GE(on.trace.built, 1u);
  EXPECT_LE(on.trace.insns, 2u * kHits);
  ExpectSameSysBlockOutcome(on, off);
}

// A TLBI in mid-block moves the Tlb generation, so the block ends there and
// the next fetch walks the live tables. After the first, interpreted, pass
// the handler switches TTBR0 to a table (same ASID, no TLB maintenance)
// that maps the global code page to a copy whose third word differs. The
// second pass builds its trace from the old frame, still in the TLB, and
// must fetch the word after the TLBI from the new one.
TEST(SysInTraceTest, TlbiMidBlockEndsTheBlock) {
  const auto code = [](u16 third) {
    Asm a;
    a.add_imm(2, 2, 1);
    a.emit(arch::enc::tlbi_vmalle1());
    a.add_imm(3, 3, third);
    a.svc(0);
    return a;
  };
  S1Attrs global = CodeAttrs();
  global.global = true;
  const auto make = [&] {
    SysBlockScenario sc;
    sc.kernel = code(1);
    sc.kernel_attrs = global;
    sc.on_trap = [global, code](SysBlockRig& rig, const TrapInfo&) {
      if (rig.next) return TrapAction::kStop;
      rig.next = std::make_unique<mem::Stage1Table>(rig.m.mem(), /*asid=*/1);
      const PhysAddr frame = rig.m.mem().alloc_frame();
      code(100).install(rig.m.mem(), frame);
      LZ_CHECK_OK(rig.next->map(kCodeVa, frame, global));
      rig.core().set_sysreg(SysReg::kTtbr0El1, rig.next->ttbr());
      rig.core().set_pc(kCodeVa);
      return TrapAction::kResume;
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  EXPECT_EQ(on.regs[2], 2u);
  EXPECT_EQ(on.regs[3], 101u);
  EXPECT_EQ(on.trace.built, 1u);
  EXPECT_EQ(on.trace.insns, 2u);  // the ADD and the TLBI
  ExpectSameSysBlockOutcome(on, off);
}

// A warm call-gate switch runs entirely in traces: the gate's global blocks
// survive its own MSR TTBR0_EL1, so every instruction of the measured
// switches retires through a trace (step() never runs one), with the same
// simulated outcome as the tier off. `retired`, `cycles` and `trace` cover
// the measured switches only.
SysBlockOutcome RunWarmGateSwitches(bool tier) {
  constexpr int kGates = 3;
  constexpr int kWarm = 30;
  constexpr int kMeasured = 60;
  constexpr VirtAddr kEntry = core::Env::kCodeVa + 0x40;
  core::Env env(core::Env::Options().platform(arch::Platform::cortex_a55()));
  auto& proc = env.new_process();
  auto lz = core::LzProc::enter(*env.module, proc, true, 1);
  for (int g = 0; g < kGates; ++g) {
    const int pgt = g == 0 ? 0 : lz.lz_alloc().value();
    EXPECT_TRUE(lz.lz_map_gate_pgt(pgt, g).is_ok());
    EXPECT_TRUE(lz.lz_set_gate_entry(g, kEntry).is_ok());
  }
  auto& core = env.machine->core();
  core.set_trace_tier(tier);
  lz.module().enter_el1(lz.ctx());
  for (int i = 0; i < kWarm; ++i) {
    EXPECT_TRUE(lz.lz_switch_to_ttbr_gate(i % kGates).is_ok());
  }
  const auto retired = [] {
    for (const auto& [name, v] : obs::registry().snapshot()) {
      if (name == "sim.core.insn_retired") return v;
    }
    return u64{0};
  };
  SysBlockOutcome out;
  out.retired = retired();
  out.trace.insns = core.trace_stats().insns;
  for (std::size_t k = 0; k < kNumCostKinds; ++k) {
    out.cycles[k] = core.account().of(static_cast<CostKind>(k));
  }
  for (int i = 0; i < kMeasured; ++i) {
    EXPECT_TRUE(lz.lz_switch_to_ttbr_gate(i % kGates).is_ok());
    EXPECT_EQ(core.pc(), kEntry);
  }
  out.retired = retired() - out.retired;
  out.trace.insns = core.trace_stats().insns - out.trace.insns;
  for (std::size_t k = 0; k < kNumCostKinds; ++k) {
    out.cycles[k] = core.account().of(static_cast<CostKind>(k)) - out.cycles[k];
  }
  for (unsigned i = 0; i < 31; ++i) out.regs[i] = core.x(i);
  out.tlb = env.machine->tlb(0).stats();
  EXPECT_TRUE(proc.alive());
  lz.exit_world();
  return out;
}

TEST(SysInTraceTest, WarmGateSwitchRetiresEveryInstructionInTraces) {
  const auto on = RunWarmGateSwitches(true);
  const auto off = RunWarmGateSwitches(false);
  EXPECT_GT(on.retired, 0u);
  EXPECT_EQ(on.trace.insns, on.retired);
  EXPECT_EQ(off.trace.insns, 0u);
  ExpectSameSysBlockOutcome(on, off);
}

}  // namespace
}  // namespace lz::sim
