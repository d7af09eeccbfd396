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

// The stamp substrate itself: every invalidation flavour that removes an
// entry kills the tag it was handed out with, and so does refilling over a
// live aliasing entry (some core may have memoized the overwritten entry).
TEST(TlbStampTest, InvalidationsAndLiveEvictionsKillTheTag) {
  mem::Tlb tlb(16, 64, /*seed=*/1);
  TlbEntry e;
  e.valid = true;
  e.vpage = 0x400;
  e.asid = 1;
  e.ppage = 0x4000'0000;
  e.s1_root = 0x4000'2000;

  const mem::Tlb::Tag t0 = tlb.insert(e);
  EXPECT_TRUE(tlb.tag_live(t0));
  TlbEntry e2 = e;
  e2.ppage = 0x4000'1000;
  const mem::Tlb::Tag t1 = tlb.insert(e2);  // overwrites the live alias
  EXPECT_FALSE(tlb.tag_live(t0));
  EXPECT_TRUE(tlb.tag_live(t1));

  const std::function<void()> flavours[] = {
      [&] { tlb.invalidate_va(0x400, 1, 0); },
      [&] { tlb.invalidate_asid(1, 0); },
      [&] { tlb.invalidate_vmid(0); },
      [&] { tlb.invalidate_va_all_asid(0x400, 0); },
      [&] { tlb.invalidate_all(); }};
  for (const auto& invalidate : flavours) {
    const mem::Tlb::Tag t = tlb.insert(e);
    ASSERT_TRUE(tlb.tag_live(t));
    invalidate();
    EXPECT_FALSE(tlb.tag_live(t));
  }
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
// core's L0 as well — the micro-TLB slot stamps are the cross-core channel.
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
// path) leaves the lookup key as it was, so the TLB's stale-but-matching
// entry keeps serving the page, as it architecturally may: the L0 slot
// stays live and its hit is the micro-TLB hit the lookup would count.
// After a TLBI ASIDE1 the new table takes effect.
TEST_F(HotPathTest, BareTtbr0RewriteServesTheMatchingEntryUntilTlbi) {
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
  EXPECT_EQ(stale.l1_hits, warm.l1_hits + 1);  // one micro-TLB hit
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

// A decoded page is allocated uninitialized; only `filled`, cleared when a
// slot is first used or retargeted, says which words hold a decode. Two code
// pages whose frames share one direct-mapped slot (page index equal modulo
// the 512 slots) run A -> B -> A: each switch retargets the slot, so the
// words run after it decode afresh even where the other page left the same
// word at the same offset.

struct CollidingPagesOutcome {
  std::array<u64, 31> x{};
  Cycles cycles = 0;
  u64 decodes = 0;
  u64 built = 0;
  u64 words = 0;  // on both pages, each of which runs
};

// Page A: ADD x2; CBNZ x5 -> done; x9 = B; BR x9; done: SVC.
// Page B: ADD x2 (A's first word, at the same offset); MOVZ x5, 1;
// x9 = A; BR x9. So A runs all but its SVC, B runs all of its words, and
// A runs ADD and CBNZ again, then the SVC.
CollidingPagesOutcome RunAThenBThenA(bool collide, bool tier) {
  Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
  mem::Stage1Table tbl(m.mem(), /*asid=*/1);
  Asm a, b;
  auto done = a.new_label();
  a.add_imm(2, 2, 1);
  a.cbnz(5, done);
  a.mov_imm64(9, kFillVa);
  a.br(9);
  a.bind(done);
  a.svc(0);
  b.add_imm(2, 2, 1);
  b.movz(5, 1);
  b.mov_imm64(9, kCodeVa);
  b.br(9);

  const PhysAddr pa_a = m.mem().alloc_frame();
  PhysAddr pa_b = m.mem().alloc_frame();
  while (collide && page_index(pa_b) % 512 != page_index(pa_a) % 512) {
    pa_b = m.mem().alloc_frame();
  }
  a.install(m.mem(), pa_a);
  b.install(m.mem(), pa_b);
  LZ_CHECK_OK(tbl.map(kCodeVa, pa_a, CodeAttrs()));
  LZ_CHECK_OK(tbl.map(kFillVa, pa_b, CodeAttrs()));
  auto& core = m.core(0);
  core.set_trace_tier(tier);
  core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = ExceptionLevel::kEl1;
  core.set_pc(kCodeVa);
  core.set_handler(ExceptionLevel::kEl1,
                   [](const TrapInfo&) { return TrapAction::kStop; });
  EXPECT_EQ(core.run(1'000).reason, StopReason::kHandlerStop);
  CollidingPagesOutcome out;
  for (unsigned i = 0; i < 31; ++i) out.x[i] = core.x(i);
  out.cycles = core.account().total();
  out.decodes = core.decode_count();
  out.built = core.trace_stats().built;
  out.words = a.insn_count() + b.insn_count();
  return out;
}

TEST_F(DecodeCacheTest, CollidingPagesRedecodeAfterEachRetarget) {
  for (const bool tier : {false, true}) {
    SCOPED_TRACE(tier ? "tier on" : "tier off");
    const auto fresh = RunAThenBThenA(/*collide=*/false, tier);
    const auto hit = RunAThenBThenA(/*collide=*/true, tier);
    EXPECT_EQ(hit.x, fresh.x);
    EXPECT_EQ(hit.x[2], 3u);
    EXPECT_EQ(hit.cycles, fresh.cycles);
    EXPECT_EQ(hit.built, tier ? 1u : 0u);  // A's head, on its second visit
    EXPECT_EQ(fresh.built, hit.built);
    // Apart, the slots decode each word of both pages once.
    EXPECT_EQ(fresh.decodes, fresh.words);
    // Sharing a slot, every word run after a retarget decodes afresh. B's
    // ADD counts although A's identical decode sat at its offset (a slot
    // that kept it would read one fewer), and A's ADD and CBNZ decode again
    // on the way back, unless that head runs as the trace its second visit
    // builds, which decodes its words privately.
    const u64 back = tier ? 0 : 2;
    EXPECT_EQ(hit.decodes, fresh.decodes + back);
  }
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

// A bare TTBR0 rewrite (LightZone's §4.1.2 domain switch) to the same ASID
// leaves a trace's lookup key matching: the trace runs on, neither
// re-tagged nor rebuilt. When another ASID's table maps the page elsewhere,
// the key no longer matches, the live L0 fetch slot maps another frame, and
// the trace dies; the rebuilt trace runs the new code.
TEST_F(TraceTierTest, BareTtbr0RewriteKeepsTheTraceWhileItsKeyMatches) {
  constexpr u64 kIters = 200;
  const auto loop_code = [](u16 step) {
    Asm a;
    auto loop = a.new_label();
    a.movz(1, kIters);
    a.bind(loop);
    a.add_imm(2, 2, step);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    return a;
  };
  constexpr VirtAddr kLoopVa = kCodeVa + 4;  // past the MOVZ
  Asm a = loop_code(1);
  InstallCode(a);

  auto& core = machine.core(0);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), kIters);
  EXPECT_GE(Stats().built, 1u);
  EXPECT_GE(Stats().executed, 1u);
  const u64 gen0 = Stats().invalidated_gen;
  const u64 built0 = Stats().built;
  const u64 executed0 = Stats().executed;

  // Same root, same ASID. The run re-enters the loop itself, so the one
  // block it dispatches is the trace built before the rewrite (a start at
  // the MOVZ would build a block there on that word's second visit).
  core.set_sysreg(SysReg::kTtbr0El1, tbl->ttbr());
  core.set_x(1, kIters);
  core.set_pc(kLoopVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_EQ(Stats().invalidated_gen, gen0);  // still live, not discarded
  EXPECT_EQ(Stats().built, built0);
  EXPECT_GE(Stats().executed, executed0 + kIters - 1);

  // Another ASID's table maps the page to code that adds 2 per iteration.
  mem::Stage1Table other(machine.mem(), /*asid=*/2);
  const PhysAddr other_pa = machine.mem().alloc_frame();
  Asm b = loop_code(2);
  b.install(machine.mem(), other_pa);
  LZ_CHECK_OK(other.map(kCodeVa, other_pa, CodeAttrs()));
  core.set_sysreg(SysReg::kTtbr0El1, other.ttbr());
  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 4 * kIters);
  // The old trace died by its key and was rebuilt; while its slot backed
  // off, the interpreted ADD let the SUB/CBNZ tail (hot since the first
  // run) build too. The MOVZ block found its L0 fetch slot stale (the
  // ASID 1 entry) and was not built.
  EXPECT_EQ(Stats().invalidated_gen, gen0 + 1);
  EXPECT_EQ(Stats().built, built0 + 2);
}

// --- Fetch key across bare TTBR0 writes -------------------------------------
// A trace's fetch memo lives while its TLB entry matches the lookup key
// (DESIGN.md §11.1): a bare TTBR0 write that keeps the ASID, or any TTBR0
// write under global code, leaves it live, so the call gate's own
// MSR TTBR0_EL1 does not end its block. A write to another ASID over
// non-global code does.

struct Ttbr0LoopOutcome {
  TraceStats trace;
  mem::TlbStats tlb;
  Cycles cycles = 0;
  u64 iterations = 0;
  std::size_t divergences = 0;
};

// How the loop's code page is mapped and what its TTBR0 write does.
enum class CodeKey {
  kGlobal,           // global code, TTBR0 rewritten with the same value
  kSameAsid,         // non-global code, TTBR0 rewritten with the same value
  kAlternatingAsid,  // non-global code, TTBR0 toggled between ASIDs 1 and 2
                     // whose tables map the page to the same frame
};

// `iters` iterations of: EOR (the TTBR0 value to write next), bare TTBR0
// write, an MRS, then a three-op straight-line block — on a fresh machine
// with the TLB-vs-walk oracle capturing instead of aborting.
Ttbr0LoopOutcome RunTtbr0RewriteLoop(CodeKey key, bool tier, u16 iters) {
  check::CaptureDivergences caught;
  Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
  mem::Stage1Table tbl(m.mem(), /*asid=*/1);
  mem::Stage1Table other(m.mem(), /*asid=*/2);
  Asm a;
  auto loop = a.new_label();
  a.movz(1, iters);
  a.bind(loop);
  a.eor_reg(5, 5, 7);
  a.msr(SysReg::kTtbr0El1, 5);
  a.mrs(6, SysReg::kTtbr0El1);
  a.add_imm(2, 2, 1);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, loop);
  a.svc(0);
  const PhysAddr code = m.mem().alloc_frame();
  a.install(m.mem(), code);
  S1Attrs attrs = CodeAttrs();
  attrs.global = key == CodeKey::kGlobal;
  LZ_CHECK_OK(tbl.map(kCodeVa, code, attrs));
  LZ_CHECK_OK(other.map(kCodeVa, code, attrs));
  auto& core = m.core(0);
  core.set_trace_tier(tier);
  core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
  core.pstate().el = ExceptionLevel::kEl1;
  core.set_x(5, tbl.ttbr());
  core.set_x(7, key == CodeKey::kAlternatingAsid ? tbl.ttbr() ^ other.ttbr()
                                                 : 0);
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

TEST(FetchKeyTest, SameKeyCodeTraceSurvivesBareTtbr0Writes) {
  constexpr u16 kIters = 1000;
  for (const CodeKey key : {CodeKey::kGlobal, CodeKey::kSameAsid}) {
    SCOPED_TRACE(key == CodeKey::kGlobal ? "global code" : "same ASID");
    const auto on = RunTtbr0RewriteLoop(key, true, kIters);
    const auto off = RunTtbr0RewriteLoop(key, false, kIters);
    EXPECT_EQ(on.iterations, kIters);
    // Built once on the second visit, then dispatched every iteration
    // after: 1000 TTBR0 writes and not one memo miss. The trace is the
    // whole loop, MSR and MRS included: the write leaves the fetch entry
    // matching the lookup key, so the block goes on past it and chains.
    EXPECT_EQ(on.trace.built, 1u);
    EXPECT_EQ(on.trace.invalidated_gen, 0u);
    EXPECT_EQ(on.trace.executed, kIters - 1u);
    ExpectSameSimulatedOutcome(on, off);
  }
}

TEST(FetchKeyTest, AlternatingAsidCodeTraceIsRetaggedAndBacksOff) {
  constexpr u16 kIters = 1000;
  const auto on = RunTtbr0RewriteLoop(CodeKey::kAlternatingAsid, true, kIters);
  const auto off =
      RunTtbr0RewriteLoop(CodeKey::kAlternatingAsid, false, kIters);
  EXPECT_EQ(on.iterations, kIters);
  // The TTBR0 write toggles the ASID every iteration, and each ASID's
  // fetch entry (same frame, distinct keys) stays in the micro-TLB, so no
  // memo dies by its stamp and none is discarded: each stale one is
  // re-tagged or deferred. Iteration 1 is interpreted and marks every word
  // hot; iteration k starts under ASID 2 when k is even, ASID 1 when odd.
  //   even k: the loop-head block H (built in iteration 2 under ASID 2)
  //     runs EOR, MSR; its own MSR stales it, so its slot backs off
  //     (window 2) and the block stops there.
  //   odd k: H is stale and deferred, EOR is interpreted, and the block M
  //     at the MSR (built in iteration 3 under ASID 1) runs just its MSR
  //     and backs off the same way.
  //   every k >= 2: the interpreted MRS refills the L0 fetch slot under
  //     the new ASID, and the ADD/SUB/CBNZ block A (built in iteration 2,
  //     its CBNZ a side exit) is re-tagged from it and runs.
  // H and M are live on alternate iterations and a live dispatch resets
  // the window, so it never grows past 2. Three blocks built, two blocks
  // per iteration from iteration 2 on, retiring 2 + 3 (even k) or 1 + 3
  // (odd k) instructions.
  EXPECT_EQ(on.trace.invalidated_gen, 0u);
  EXPECT_EQ(on.trace.built, 3u);
  EXPECT_EQ(on.trace.executed, 2u * (kIters - 1u));
  EXPECT_EQ(on.trace.insns, 5u * (kIters / 2) + 4u * (kIters / 2 - 1u));
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

// The data-side lookup key: an L0 slot serves only a context whose lookup
// would return its entry. Each case warms kDataVa to frame a, switches
// (no TLBI) to a context whose key differs and whose tables map frame b,
// and switches back: the way out walks, and the way back is one
// micro-TLB hit on the entry the first context left, with no walk. Cases:
// bare TTBR0 writes between non-global ASID 1 and 2 tables, VTTBR writes
// between VMID 1 and 2 with stage 2 on, and HCR.VM off and on again (VMID
// 1 to 0, where the stage-1 output is the frame).
TEST(DataKeyTest, EntryServesOnlyItsOwnContext) {
  enum class Switch { kAsid, kVmid, kHcrVm };
  for (const Switch sw : {Switch::kAsid, Switch::kVmid, Switch::kHcrVm}) {
    SCOPED_TRACE(sw == Switch::kAsid   ? "ASID"
                 : sw == Switch::kVmid ? "VMID"
                                       : "HCR.VM");
    check::CaptureDivergences caught;
    Machine m(arch::Platform::cortex_a55(), /*seed=*/42);
    auto& core = m.core(0);
    core.pstate().el = ExceptionLevel::kEl1;
    const PhysAddr frame_a = m.mem().alloc_frame();
    const PhysAddr frame_b = m.mem().alloc_frame();
    mem::Stage1Table tbl_a(m.mem(), /*asid=*/1);
    mem::Stage1Table tbl_b(m.mem(), /*asid=*/2);
    mem::Stage2Table s2_a(m.mem(), /*vmid=*/1);
    mem::Stage2Table s2_b(m.mem(), /*vmid=*/2);
    // Stage 2 maps every stage-1 table frame flat, and the IPA of kDataVa
    // (frame b's address) to frame a under VMID 1, to itself under VMID 2.
    const auto map_flat = [&](mem::Stage2Table& s2) {
      for (const PhysAddr f : tbl_a.table_frames()) {
        LZ_CHECK_OK(s2.map(f, f, mem::S2Attrs{}));
      }
    };
    std::function<void()> away, back;
    if (sw == Switch::kAsid) {
      LZ_CHECK_OK(tbl_a.map(kDataVa, frame_a, DataAttrs()));
      LZ_CHECK_OK(tbl_b.map(kDataVa, frame_b, DataAttrs()));
      core.set_sysreg(SysReg::kTtbr0El1, tbl_a.ttbr());
      away = [&] { core.set_sysreg(SysReg::kTtbr0El1, tbl_b.ttbr()); };
      back = [&] { core.set_sysreg(SysReg::kTtbr0El1, tbl_a.ttbr()); };
    } else {
      LZ_CHECK_OK(tbl_a.map(kDataVa, frame_b, DataAttrs()));
      map_flat(s2_a);
      map_flat(s2_b);
      LZ_CHECK_OK(s2_a.map(frame_b, frame_a, mem::S2Attrs{}));
      LZ_CHECK_OK(s2_b.map(frame_b, frame_b, mem::S2Attrs{}));
      core.set_sysreg(SysReg::kTtbr0El1, tbl_a.ttbr());
      core.set_sysreg(SysReg::kVttbrEl2, s2_a.vttbr());
      const u64 hcr_on = arch::hcr::kRw | arch::hcr::kVm;
      core.set_sysreg(SysReg::kHcrEl2, hcr_on);
      if (sw == Switch::kVmid) {
        away = [&] { core.set_sysreg(SysReg::kVttbrEl2, s2_b.vttbr()); };
        back = [&] { core.set_sysreg(SysReg::kVttbrEl2, s2_a.vttbr()); };
      } else {
        away = [&] { core.set_sysreg(SysReg::kHcrEl2, arch::hcr::kRw); };
        back = [&, hcr_on] { core.set_sysreg(SysReg::kHcrEl2, hcr_on); };
      }
    }
    const auto read_pa = [&] {
      const auto t = core.translate(kDataVa, AccessType::kRead, false);
      EXPECT_TRUE(t.ok);
      return t.pa;
    };
    EXPECT_EQ(read_pa(), frame_a);
    EXPECT_EQ(read_pa(), frame_a);  // the L0 hit

    away();
    const auto warm = m.tlb(0).stats();
    EXPECT_EQ(read_pa(), frame_b);
    const auto out = m.tlb(0).stats();
    EXPECT_EQ(out.misses, warm.misses + 1);

    back();
    EXPECT_EQ(read_pa(), frame_a);
    const auto after = m.tlb(0).stats();
    EXPECT_EQ(after.l1_hits, out.l1_hits + 1);
    EXPECT_EQ(after.misses, out.misses);
    EXPECT_TRUE(caught.items().empty());
  }
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

// A TLBI issued by the core that owns the traces reaches them through the
// code page's micro-TLB slot stamp; there is no eager teardown hook. With
// the same frame mapped, the refetched L0 slot re-tags the trace; after a
// remap to another frame, the trace dies at dispatch and is rebuilt.
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
  TraceStats mark = Stats();

  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  EXPECT_EQ(Stats().invalidated_gen, mark.invalidated_gen);  // nothing eager
  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_EQ(Stats().invalidated_gen, mark.invalidated_gen);
  EXPECT_EQ(Stats().built, mark.built);  // re-tagged over the same frame
  mark = Stats();

  const PhysAddr copy = machine.mem().alloc_frame();
  a.install(machine.mem(), copy);
  LZ_CHECK_OK(tbl->unmap(kCodeVa));
  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  LZ_CHECK_OK(tbl->map(kCodeVa, copy, CodeAttrs()));
  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 3 * kIters);
  EXPECT_EQ(Stats().invalidated_gen, mark.invalidated_gen + 1);
  EXPECT_GE(Stats().built, mark.built + 1);
}

// A TLBI of the code page reaches exactly the traces built over it: with
// the page remapped to a copy, each of the N loop heads' traces dies once
// at its next dispatch and is rebuilt; with the same frame kept, each is
// re-tagged (none dies, none is rebuilt); a TLBI of another page kills
// none.
TEST_F(TraceTierTest, TeardownDropsExactlyTheLiveTraces) {
  constexpr u8 kLoops = 8;
  constexpr u64 kIters = 5;  // enough to rebuild after the 2-visit backoff
  Asm a;
  // An interpreted MRS first: its fetch re-installs the L0 fetch slot that
  // re-tagging (and a build) needs after each TLBI.
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
  LZ_CHECK_OK(tbl->map(kDataVa, machine.mem().alloc_frame(), DataAttrs()));

  auto& core = machine.core(0);
  const auto run_loops = [&] {
    for (u8 k = 0; k < kLoops; ++k) core.set_x(3 + k, kIters);
    core.set_x(2, 0);
    core.set_pc(kCodeVa);
    EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
    EXPECT_EQ(core.x(2), kLoops * kIters);
  };
  TraceStats mark = Stats();
  const auto died = [&] { return Stats().invalidated_gen - mark.invalidated_gen; };
  const auto built = [&] { return Stats().built - mark.built; };

  run_loops();
  EXPECT_EQ(built(), kLoops);

  // Remapped to a copy: every head's trace dies once and is rebuilt.
  mark = Stats();
  const PhysAddr copy = machine.mem().alloc_frame();
  a.install(machine.mem(), copy);
  LZ_CHECK_OK(tbl->unmap(kCodeVa));
  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  LZ_CHECK_OK(tbl->map(kCodeVa, copy, CodeAttrs()));
  run_loops();
  EXPECT_EQ(died(), kLoops);
  // Each head rebuilds after its backoff, and while it backs off its
  // interpreted ADD lets the SUB/CBNZ tail (hot since the first run) build.
  EXPECT_EQ(built(), 2u * kLoops);

  // Same frame: every tag died, every trace is re-tagged.
  mark = Stats();
  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  run_loops();
  EXPECT_EQ(died(), 0u);
  EXPECT_EQ(built(), 0u);

  // Another page: no code tag dies. The MRS head, whose L0 fetch slot now
  // survives into the run, is the one new trace.
  mark = Stats();
  machine.tlbi_va_is(page_index(kDataVa), /*asid=*/1, /*vmid=*/0);
  run_loops();
  EXPECT_EQ(died(), 0u);
  EXPECT_EQ(built(), 1u);
}

class TraceTierRemoteTest : public TraceTierTest {
 protected:
  TraceTierRemoteTest() : TraceTierTest(2) {}
};

// A DVM shootdown broadcast from another core must invalidate this core's
// traces without touching them cross-thread: the broadcast only moves the
// stamp of the victim's code-page slot, and the victim's trace dies at its
// next dispatch (here the page maps a copy by then, so it is rebuilt).
TEST_F(TraceTierRemoteTest, RemoteDvmShootdownInvalidatesByStamp) {
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
  const TraceStats mark = Stats();

  const PhysAddr copy = machine.mem().alloc_frame();
  a.install(machine.mem(), copy);
  LZ_CHECK_OK(tbl->unmap(kCodeVa));
  std::thread([&] {
    Machine::CoreBinding bind(machine, 1);
    machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  }).join();
  LZ_CHECK_OK(tbl->map(kCodeVa, copy, CodeAttrs()));

  // The broadcast must not have reached into core 0's trace store: only
  // core 0 retires its own traces, at its next dispatch.
  EXPECT_EQ(Stats().invalidated_gen, mark.invalidated_gen);
  EXPECT_EQ(Stats().built, mark.built);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_EQ(Stats().invalidated_gen, mark.invalidated_gen + 1);
  EXPECT_GE(Stats().built, mark.built + 1);
}

// A clean break-before-make remap of the code page (unmap, scoped TLBI,
// remap of the same frame) keeps the BBM monitor quiet and merely re-tags
// the trace: the refetched L0 fetch slot maps the frame it was built from.
TEST_F(TraceTierTest, CleanBbmRemapRetagsQuietly) {
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
  const u64 gen0 = Stats().invalidated_gen;

  // Break-before-make: unmap, TLBI scoped to the right ASID (tlbi_va_is
  // completes with a DSB), then map the same frame back.
  LZ_CHECK_OK(tbl->unmap(kCodeVa));
  machine.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
  LZ_CHECK_OK(tbl->map(kCodeVa, code_pa, CodeAttrs()));
  EXPECT_EQ(check::BbmMonitor::instance().stats().violations, 0u);

  core.set_pc(kCodeVa);
  EXPECT_EQ(core.run(10'000).reason, StopReason::kHandlerStop);
  EXPECT_EQ(core.x(2), 2 * kIters);
  EXPECT_EQ(Stats().built, built0);  // re-tagged over the remapped page
  EXPECT_EQ(Stats().invalidated_gen, gen0);
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

// A TLBI in mid-block moves the code slot's stamp, so the block ends there and
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


// --- Slot tags, side exits and the slot index ----------------------------------
// A trace is tagged with its code page's micro-TLB slot, not the whole TLB,
// runs past conditional branches that do not close its loop, and sits in a
// slot indexed by page as well as offset. Each case runs with the tier on
// and off and must leave the same registers, cycles by kind, TLB stats and
// trap sequence.

enum class MidRunTlbi { kCodeVa, kOtherVa, kOtherAsid };

// A loop whose SVC #1 handler, halfway through, issues `tlbi`. For the
// code page's VA it first remaps the page (break-before-make) to a copy
// that adds 3 instead of 2, which only shows if the trace over the old
// frame dies; the other scopes miss the code page's entry, so its trace
// must stay live.
SysBlockOutcome RunMidRunTlbi(MidRunTlbi tlbi, bool tier) {
  constexpr u16 kIters = 40;
  const auto code = [](u16 step) {
    Asm a;
    auto loop = a.new_label();
    a.movz(1, kIters);
    a.bind(loop);
    a.add_imm(2, 2, 1);
    a.add_imm(3, 3, step);
    a.sub_imm(1, 1, 1);
    a.svc(1);
    a.cbnz(1, loop);
    a.svc(0);
    return a;
  };
  SysBlockScenario sc;
  sc.kernel = code(2);
  sc.on_trap = [&code, tlbi, n = 0](SysBlockRig& rig,
                                    const TrapInfo& info) mutable {
    if (arch::esr_iss(info.esr) == 0) return TrapAction::kStop;
    if (++n == kIters / 2) {
      switch (tlbi) {
        case MidRunTlbi::kCodeVa: {
          const PhysAddr copy = rig.m.mem().alloc_frame();
          code(3).install(rig.m.mem(), copy);
          LZ_CHECK_OK(rig.tbl.unmap(kCodeVa));
          rig.m.tlbi_va_is(page_index(kCodeVa), /*asid=*/1, /*vmid=*/0);
          LZ_CHECK_OK(rig.tbl.map(kCodeVa, copy, CodeAttrs()));
          break;
        }
        case MidRunTlbi::kOtherVa:
          rig.m.tlbi_va_is(page_index(kDataVa), /*asid=*/1, /*vmid=*/0);
          break;
        case MidRunTlbi::kOtherAsid:
          rig.m.tlbi_va_is(page_index(kCodeVa), /*asid=*/2, /*vmid=*/0);
          break;
      }
    }
    rig.core().eret_from(ExceptionLevel::kEl1);  // ELR: after the SVC
    return TrapAction::kResume;
  };
  return RunSysBlock(sc, tier);
}

TEST(TraceTagTest, CodePageTlbiKillsTheTraceOtherScopesDoNot) {
  constexpr u64 kIters = 40;
  for (const auto tlbi : {MidRunTlbi::kCodeVa, MidRunTlbi::kOtherVa,
                          MidRunTlbi::kOtherAsid}) {
    SCOPED_TRACE(static_cast<int>(tlbi));
    const auto on = RunMidRunTlbi(tlbi, true);
    const auto off = RunMidRunTlbi(tlbi, false);
    EXPECT_EQ(on.regs[2], kIters);
    if (tlbi == MidRunTlbi::kCodeVa) {
      // The copy runs from the iteration after the TLBI: the trace over the
      // old frame died at its next dispatch and was rebuilt over the copy
      // (while it backed off, the ADD/SUB tail built too).
      EXPECT_EQ(on.regs[3], 2 * (kIters / 2) + 3 * (kIters / 2));
      EXPECT_EQ(on.trace.invalidated_gen, 1u);
      EXPECT_EQ(on.trace.built, 3u);
    } else {
      EXPECT_EQ(on.regs[3], 2 * kIters);
      EXPECT_EQ(on.trace.invalidated_gen, 0u);
      EXPECT_EQ(on.trace.built, 1u);  // not one rebuild
    }
    EXPECT_GE(on.trace.executed, kIters - 2);
    ExpectSameSysBlockOutcome(on, off);
  }
}

// Loads over more data pages than the micro-TLB holds: every pass refills
// it, and each refill replaces one random slot. Only a refill that takes
// the code page's own slot stops the block after its load (the CBNZ after
// it then steps), and the next fetch's slot re-tags the trace, so no trace
// is discarded and all but a few instructions retire in traces.
TEST(TraceTagTest, DataSideEvictionLeavesCodeTracesAndOtherL0SlotsLive) {
  constexpr u16 kPasses = 60;
  constexpr u16 kPages = 17;  // + the code page > 16 micro-TLB slots
  const auto make = [] {
    SysBlockScenario sc;
    Asm& a = sc.kernel;
    auto pass = a.new_label();
    auto page = a.new_label();
    a.movz(1, kPasses);
    a.movz(9, kPageSize);
    a.bind(pass);
    a.mov_imm64(8, kFillVa - kPageSize);
    a.movz(10, kPages);
    a.movz(7, 0);
    a.bind(page);
    a.add_reg(2, 2, 7);  // the previous page's value
    a.add_reg(8, 8, 9);
    a.sub_imm(10, 10, 1);
    a.ldr(7, 8);  // last but one: a stop here leaves only the CBNZ
    a.cbnz(10, page);
    a.add_reg(2, 2, 7);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, pass);
    a.svc(0);
    sc.setup = [](SysBlockRig& rig) {
      for (u64 p = 0; p < kPages; ++p) {
        const PhysAddr pa = rig.m.mem().alloc_frame();
        rig.m.mem().write(pa, 8, p + 1);
        LZ_CHECK_OK(rig.tbl.map(kFillVa + p * kPageSize, pa, DataAttrs()));
      }
    };
    sc.on_trap = [](SysBlockRig&, const TrapInfo&) {
      return TrapAction::kStop;
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  EXPECT_EQ(on.regs[2], u64{kPasses} * kPages * (kPages + 1) / 2);
  // The micro-TLB churns: some 240 replacements, about 1 in 16 of them
  // the code page's slot. A tag shared by all slots would stop the block
  // at every one and leave some 250 instructions to the interpreter.
  EXPECT_GT(on.tlb.l2_hits, 3u * kPasses);
  EXPECT_LT(on.retired - on.trace.insns, 80u);
  EXPECT_EQ(on.trace.invalidated_gen, 0u);
  EXPECT_LE(on.trace.built, 4u);
  ExpectSameSysBlockOutcome(on, off);
}

// The profiler does not steer the engine: armed at a period shorter than
// one block, it takes its samples inside the blocks, which run, build and
// re-tag exactly as with it disarmed. The loop invalidates the TLB each
// pass and loads from more pages than the micro-TLB holds, so the blocks
// walk, refill and lose their code page's slot along the way.
SysBlockOutcome RunWalkingLoads(u64 sample_period) {
  constexpr u16 kPasses = 20;
  constexpr u16 kPages = 17;
  SysBlockScenario sc;
  Asm& a = sc.kernel;
  auto pass = a.new_label();
  auto page = a.new_label();
  a.movz(1, kPasses);
  a.movz(9, kPageSize);
  a.bind(pass);
  a.emit(arch::enc::tlbi_vmalle1());
  a.mov_imm64(8, kFillVa);
  a.movz(10, kPages);
  a.bind(page);
  a.ldr(7, 8);
  a.add_reg(2, 2, 7);
  a.add_reg(8, 8, 9);
  a.sub_imm(10, 10, 1);
  a.cbnz(10, page);
  a.sub_imm(1, 1, 1);
  a.cbnz(1, pass);
  a.svc(0);
  sc.setup = [](SysBlockRig& rig) {
    for (u64 p = 0; p < kPages; ++p) {
      const PhysAddr pa = rig.m.mem().alloc_frame();
      rig.m.mem().write(pa, 8, p + 1);
      LZ_CHECK_OK(rig.tbl.map(kFillVa + p * kPageSize, pa, DataAttrs()));
    }
  };
  sc.on_trap = [](SysBlockRig&, const TrapInfo&) {
    return TrapAction::kStop;
  };
  obs::profiler().reset();
  if (sample_period != 0) obs::profiler().arm(sample_period);
  const auto out = RunSysBlock(sc, true);
  EXPECT_EQ(obs::profiler().samples() != 0, sample_period != 0);
  obs::profiler().disarm();
  obs::profiler().reset();
  return out;
}

TEST(ProfiledTraceTest, ArmingTheProfilerLeavesTheTraceTierAlone) {
  const auto armed = RunWalkingLoads(3);
  const auto disarmed = RunWalkingLoads(0);
  EXPECT_EQ(armed.regs, disarmed.regs);
  EXPECT_EQ(armed.cycles, disarmed.cycles);
  EXPECT_EQ(armed.tlb.l1_hits, disarmed.tlb.l1_hits);
  EXPECT_EQ(armed.tlb.l2_hits, disarmed.tlb.l2_hits);
  EXPECT_EQ(armed.tlb.misses, disarmed.tlb.misses);
  EXPECT_EQ(armed.tlb.invalidations, disarmed.tlb.invalidations);
  EXPECT_GT(disarmed.tlb.misses, 20u * 17);
  EXPECT_GT(disarmed.trace.insns, disarmed.retired / 2);
  EXPECT_EQ(armed.trace.built, disarmed.trace.built);
  EXPECT_EQ(armed.trace.executed, disarmed.trace.executed);
  EXPECT_EQ(armed.trace.insns, disarmed.trace.insns);
  EXPECT_EQ(armed.trace.invalidated_smc, disarmed.trace.invalidated_smc);
  EXPECT_EQ(armed.trace.invalidated_gen, disarmed.trace.invalidated_gen);
}

// Conditional branches that leave the block mid-way: a CBZ right after the
// load whose value it tests (taken every other pass) and a B.EQ right
// after an MSR (taken every other pass, out of phase with the CBZ). The
// loop's own CBNZ back to the block start stays terminal.
TEST(SideExitTest, TakenSideExitsMatchTheInterpreter) {
  constexpr u16 kIters = 50;
  const auto make = [] {
    SysBlockScenario sc;
    Asm& a = sc.kernel;
    auto loop = a.new_label();
    auto after_load = a.new_label();
    auto after_msr = a.new_label();
    a.movz(1, kIters);
    a.mov_imm64(8, kDataVa);
    a.movz(9, 1);
    a.bind(loop);
    a.ldr(7, 8);
    a.cbz(7, after_load);  // side exit right after the load
    a.add_imm(3, 3, 1);
    a.bind(after_load);
    a.eor_reg(7, 7, 9);
    a.str(7, 8);
    a.and_reg(11, 1, 9);
    a.cmp_imm(11, 0);
    a.msr(SysReg::kTpidrEl1, 2);
    a.b_cond(arch::Cond::kEq, after_msr);  // side exit right after the MSR
    a.add_imm(4, 4, 1);
    a.bind(after_msr);
    a.add_imm(2, 2, 1);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);  // back-edge: terminal, chains
    a.svc(0);
    sc.on_trap = [](SysBlockRig&, const TrapInfo&) {
      return TrapAction::kStop;
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  EXPECT_EQ(on.regs[2], kIters);
  EXPECT_EQ(on.regs[3], kIters / 2);  // the CBZ falls through every other pass
  EXPECT_EQ(on.regs[4], kIters / 2);  // so does the B.EQ, out of phase
  EXPECT_GE(on.trace.built, 1u);
  EXPECT_EQ(on.trace.invalidated_gen, 0u);
  // Every instruction after warm-up runs in a trace, side exits and all.
  EXPECT_GE(on.trace.insns, on.retired - 40);
  ExpectSameSysBlockOutcome(on, off);
}

// A conditional branch back to the block start closes a loop the block
// re-enters directly: one build, one execution per iteration.
TEST(SideExitTest, LoopBackEdgeStillChains) {
  constexpr u16 kIters = 1000;
  const auto make = [] {
    SysBlockScenario sc;
    Asm& a = sc.kernel;
    auto loop = a.new_label();
    auto skip = a.new_label();
    a.movz(1, kIters);
    a.movz(9, 1);
    a.bind(loop);
    a.and_reg(11, 1, 9);
    a.cbz(11, skip);  // a side exit inside the chained block
    a.add_imm(3, 3, 1);
    a.bind(skip);
    a.add_imm(2, 2, 1);
    a.sub_imm(1, 1, 1);
    a.cbnz(1, loop);
    a.svc(0);
    sc.on_trap = [](SysBlockRig&, const TrapInfo&) {
      return TrapAction::kStop;
    };
    return sc;
  };
  auto sc_on = make(), sc_off = make();
  const auto on = RunSysBlock(sc_on, true);
  const auto off = RunSysBlock(sc_off, false);
  EXPECT_EQ(on.regs[2], kIters);
  EXPECT_EQ(on.regs[3], kIters / 2);
  EXPECT_LE(on.trace.built, 3u);
  EXPECT_GE(on.trace.executed, 100 * on.trace.built);
  ExpectSameSysBlockOutcome(on, off);
}

// Gates g and g+32 sit at the same offset of consecutive gate-code pages
// (kGateStride is 128 bytes). Indexed by offset alone they shared every
// trace slot and rebuilt each other on every switch; with the page folded
// into the index, alternating between them builds each gate's trace once.
SysBlockOutcome RunAlternatingGates(bool tier) {
  constexpr int kSwitches = 200;
  constexpr VirtAddr kEntry = core::Env::kCodeVa + 0x40;
  constexpr int kGates[] = {1, 33};
  core::Env env(core::Env::Options().platform(arch::Platform::cortex_a55()));
  auto& proc = env.new_process();
  auto lz = core::LzProc::enter(*env.module, proc, true, 1);
  EXPECT_TRUE(lz.lz_map_gate_pgt(0, 0).is_ok());
  for (const int g : kGates) {
    EXPECT_TRUE(lz.lz_map_gate_pgt(lz.lz_alloc().value(), g).is_ok());
    EXPECT_TRUE(lz.lz_set_gate_entry(g, kEntry).is_ok());
  }
  auto& core = env.machine->core();
  core.set_trace_tier(tier);
  lz.module().enter_el1(lz.ctx());
  const auto retired = [] {
    for (const auto& [name, v] : obs::registry().snapshot()) {
      if (name == "sim.core.insn_retired") return v;
    }
    return u64{0};
  };
  SysBlockOutcome out;
  const u64 retired0 = retired();
  for (int i = 0; i < kSwitches; ++i) {
    EXPECT_TRUE(lz.lz_switch_to_ttbr_gate(kGates[i % 2]).is_ok());
    EXPECT_EQ(core.pc(), kEntry);
  }
  out.retired = retired() - retired0;
  out.trace = core.trace_stats();
  for (std::size_t k = 0; k < kNumCostKinds; ++k) {
    out.cycles[k] = core.account().of(static_cast<CostKind>(k));
  }
  for (unsigned i = 0; i < 31; ++i) out.regs[i] = core.x(i);
  out.tlb = env.machine->tlb(0).stats();
  lz.exit_world();
  return out;
}

TEST(TraceSlotTest, AlternatingGates1And33BuildEachTraceOnce) {
  using core::UpperLayout;
  EXPECT_NE(TraceCache::index(UpperLayout::gate_va(1)),
            TraceCache::index(UpperLayout::gate_va(33)));
  for (u32 g = 0; g < 32; ++g) {
    const unsigned a = TraceCache::index(UpperLayout::gate_va(g));
    const unsigned b = TraceCache::index(UpperLayout::gate_va(g + 32));
    const unsigned c = TraceCache::index(UpperLayout::gate_va(g + 64));
    EXPECT_NE(a, b) << g;
    EXPECT_NE(a, c) << g;
    EXPECT_NE(b, c) << g;
  }
  const auto on = RunAlternatingGates(true);
  const auto off = RunAlternatingGates(false);
  EXPECT_GT(on.retired, 0u);
  // One trace per gate: the whole switch, its compare-and-branch checks
  // being side exits that are never taken.
  EXPECT_EQ(on.trace.built, 2u);
  EXPECT_EQ(on.trace.invalidated_gen, 0u);
  EXPECT_GE(on.trace.insns + 200, on.retired);
  ExpectSameSysBlockOutcome(on, off);
}

}  // namespace
}  // namespace lz::sim
