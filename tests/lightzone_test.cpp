// LightZone core tests: processes executing in kernel mode of their own
// VM, syscall forwarding through the API stub, the TTBR1-mapped secure
// call gate, PAN-based isolation, domain isolation, W^X +
// break-before-make, fake-physical randomization, and table 2 API
// semantics. These run real instruction streams end to end.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "arch/encode.h"
#include "lightzone/api.h"
#include "lightzone/gate.h"
#include "mem/pte_observer.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "sim/assembler.h"

namespace lz::core {
namespace {

namespace e = arch::enc;
using kernel::nr::kEmpty;
using kernel::nr::kExit;
using kernel::nr::kGetpid;
using sim::Asm;
using sim::SysReg;

// Install assembled code into the process's code VMA (backed frame).
void InstallCode(Env& env, kernel::Process& proc, Asm& a,
                 VirtAddr va = Env::kCodeVa) {
  LZ_CHECK_OK(env.kern().populate_page(proc, va,
                                       kernel::kProtRead | kernel::kProtExec));
  const auto walk = proc.pgt().lookup(page_floor(va));
  a.install(env.machine->mem(), page_floor(walk.out_addr) + page_offset(va));
}

Asm ExitProgram() {
  Asm a;
  a.movz(8, kExit);
  a.svc(0);
  return a;
}

class LightZoneTest : public ::testing::Test {
 protected:
  LightZoneTest()
      : env(Env::Options().platform(arch::Platform::cortex_a55())) {}
  Env env;
};

TEST_F(LightZoneTest, ProcessRunsAtEl1AndExits) {
  auto& proc = env.new_process();
  Asm a = ExitProgram();
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const auto result = lz.run();
  EXPECT_EQ(result.reason, sim::StopReason::kHandlerStop);
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.exit_code(), 0);
}

TEST_F(LightZoneTest, SyscallsForwardThroughStub) {
  auto& proc = env.new_process();
  Asm a;
  a.movz(8, kGetpid);
  a.svc(0);
  a.mov_reg(9, 0);
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  lz.run();
  EXPECT_EQ(env.machine->core().x(9), proc.pid());
  EXPECT_GE(lz.ctx().traps, 2u);
}

TEST_F(LightZoneTest, DemandPagingThroughModule) {
  auto& proc = env.new_process();
  Asm a;
  a.mov_imm64(1, Env::kHeapVa + 0x7000);
  a.movz(2, 77);
  a.str(2, 1, 0);
  a.ldr(3, 1, 0);
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_TRUE(proc.kill_reason().empty()) << proc.kill_reason();
  EXPECT_EQ(env.machine->core().x(3), 77u);
  EXPECT_GE(lz.ctx().s1_faults, 1u);
}

TEST_F(LightZoneTest, FakePhysicalAddressesHideRealFrames) {
  auto& proc = env.new_process();
  Asm a;
  a.mov_imm64(1, Env::kHeapVa);
  a.str(1, 1, 0);
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  lz.run();
  // Every stage-1 leaf the process could read holds a fake page number,
  // sequentially allocated, not the real frame.
  auto& ctx = lz.ctx();
  EXPECT_GT(ctx.fake.size(), 0u);
  for (const auto& [vpage, page] : ctx.pages) {
    EXPECT_NE(page.ipa, page.real);
    EXPECT_LT(page.ipa, u64{1} << 30);  // fake space is small & sequential
  }
}

TEST_F(LightZoneTest, PanProtectsUserMarkedPages) {
  auto& proc = env.new_process();
  // Key page on the heap, marked USER (PAN-protected, all tables).
  const VirtAddr key_va = Env::kHeapVa + 0x10000;

  Asm a;
  a.mov_imm64(1, key_va);
  a.msr_pan(0);
  a.ldr(2, 1, 0);   // allowed: PAN clear
  a.msr_pan(1);
  a.ldr(3, 1, 0);   // illegal: PAN set -> killed
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);

  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  ASSERT_TRUE(lz.lz_prot(key_va, kPageSize, kPgtAll,
                       kLzRead | kLzWrite | kLzUser).is_ok());
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("protected domain"), std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, GateSwitchGrantsDomainAccess) {
  auto& proc = env.new_process();
  const VirtAddr dom_va = Env::kHeapVa + 0x20000;

  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_EQ(pgt1, 1);
  ASSERT_TRUE(lz.lz_prot(dom_va, kPageSize, pgt1, kLzRead | kLzWrite).is_ok());
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, /*gate=*/0).is_ok());

  // Program: switch to pgt1 through gate 0 (blr sets the link register to
  // the legal entry), then access the domain and exit.
  Asm a;
  a.mov_imm64(17, UpperLayout::gate_va(0));
  a.blr(17);
  const VirtAddr entry = Env::kCodeVa + a.size_bytes();
  a.mov_imm64(1, dom_va);
  a.movz(2, 99);
  a.str(2, 1, 0);
  a.ldr(3, 1, 0);
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  ASSERT_TRUE(lz.lz_set_gate_entry(0, entry).is_ok());

  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_TRUE(proc.kill_reason().empty()) << proc.kill_reason();
  EXPECT_EQ(env.machine->core().x(3), 99u);
}

TEST_F(LightZoneTest, DomainInaccessibleWithoutSwitch) {
  auto& proc = env.new_process();
  const VirtAddr dom_va = Env::kHeapVa + 0x20000;

  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_prot(dom_va, kPageSize, pgt1, kLzRead | kLzWrite).is_ok());

  Asm a;
  a.mov_imm64(1, dom_va);
  a.ldr(2, 1, 0);  // still in pgt0: protected page is unmapped here
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("protected domain"), std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, GateRejectsWrongReturnAddress) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, 0).is_ok());
  ASSERT_TRUE(lz.lz_set_gate_entry(0, Env::kCodeVa + 0x500).is_ok());  // elsewhere

  // Attacker jumps to the gate with a forged link register.
  Asm a;
  a.mov_imm64(17, UpperLayout::gate_va(0));
  a.mov_imm64(30, Env::kCodeVa + 0x40);  // not the registered entry
  a.br(17);
  InstallCode(env, proc, a);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("call-gate check failed"),
            std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, GateMidEntryWithForgedTtbrIsCaught) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, 0).is_ok());
  ASSERT_TRUE(lz.lz_set_gate_entry(0, Env::kCodeVa + 0x100).is_ok());

  // Jump straight at the MSR TTBR0 instruction inside the gate with an
  // attacker-chosen x20 (a forged TTBR value targeting the default table's
  // fake root with a different ASID). Phase 2 must catch the mismatch.
  // The MSR is preceded by: mov_imm64(16, id)=1 insn (id 0), mov_imm64(17,
  // gatetab entry va)=4, ldr=1, mov_imm64(19, ttbrtab)=4, ldr_reg=1 -> the
  // MSR is the 12th word. Locate it by scanning the gate code instead of
  // hardcoding.
  const u32 msr_word = e::msr(SysReg::kTtbr0El1, 20);
  auto gate_code = build_gate_code(0, 256);
  u64 msr_off = ~u64{0};
  // The fixups are unresolved in `gate_code`; rebuild via module memory:
  // simpler — find via the installed bytes.
  auto& pm = env.machine->mem();
  for (u64 off = 0; off < UpperLayout::kGateStride; off += 4) {
    const auto walk = lz.ctx().upper->lookup(UpperLayout::gate_va(0));
    const PhysAddr pa = lz.ctx().pa_of(page_floor(walk.out_addr)) +
                        page_offset(UpperLayout::gate_va(0)) + off;
    if (pm.read_word(pa) == msr_word) {
      msr_off = off;
      break;
    }
  }
  ASSERT_NE(msr_off, ~u64{0});

  Asm a;
  a.mov_imm64(20, lz.module().domain_ttbr(lz.ctx(), 0) ^
                      (u64{0x55} << 48));  // forged ASID bits
  a.mov_imm64(30, Env::kCodeVa + 0x100);   // even the right entry
  a.mov_imm64(17, UpperLayout::gate_va(0) + msr_off);
  a.br(17);
  InstallCode(env, proc, a);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("call-gate check failed"),
            std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, SanitizerKillsProcessWithSensitiveCode) {
  auto& proc = env.new_process();
  Asm a;
  a.movz(1, 0);
  a.emit(e::msr(SysReg::kVbarEl1, 1));  // sensitive: redirect vectors
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("sensitive instruction"),
            std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, LdtrBannedUnderPanMode) {
  auto& proc = env.new_process();
  Asm a;
  a.mov_imm64(1, Env::kHeapVa);
  a.ldtr(2, 1, 0);  // would bypass PAN
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, /*allow_scalable=*/false,
                            /*insn_san=*/2);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("sensitive instruction"),
            std::string::npos);
}

TEST_F(LightZoneTest, LdtrAllowedUnderTtbrMode) {
  auto& proc = env.new_process();
  Asm a;
  a.mov_imm64(1, Env::kHeapVa);
  a.str(1, 1, 0);   // fault the page in as a kernel page first
  a.ldtr(2, 1, 0);  // user-mode access to a kernel page -> fault -> killed
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  lz.run();
  // The page passes the sanitizer; the LDTR itself faults at run time
  // because unprotected LightZone memory is mapped as kernel pages.
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.kill_reason().find("sensitive instruction"),
            std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, PanOnlyProcessCannotWriteTtbr) {
  auto& proc = env.new_process();
  // The static sanitizer is disabled (insn_san = 0) to show the runtime
  // defence in depth: HCR_EL2.TVM still traps the write (§5.1.2).
  Asm a;
  a.movz(1, 0);
  a.emit(e::msr(SysReg::kTtbr0El1, 1));
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, /*allow_scalable=*/false,
                            /*insn_san=*/0);
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("privileged"), std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, FastPathGateSwitchCycles) {
  auto& proc = env.new_process();
  const VirtAddr dom_va = Env::kHeapVa + 0x30000;
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_prot(dom_va, kPageSize, pgt1, kLzRead | kLzWrite).is_ok());
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, 0).is_ok());
  ASSERT_TRUE(lz.lz_set_gate_entry(0, Env::kCodeVa + 0x40).is_ok());

  lz.module().enter_el1(lz.ctx());
  const Cycles c1 = lz.lz_switch_to_ttbr_gate(0).value();
  const Cycles c2 = lz.lz_switch_to_ttbr_gate(0).value();
  lz.exit_world();
  EXPECT_GT(c1, 20u);
  EXPECT_LT(c2, 150u);  // warm switch on Cortex-A55: ~59 cycles (Table 5)
  EXPECT_TRUE(proc.alive());
  // TTBR0 now selects pgt1.
  EXPECT_EQ(env.machine->core().sysreg(SysReg::kTtbr0El1),
            lz.module().domain_ttbr(lz.ctx(), 1));
}

// --- Gate switches through the batched engine --------------------------------
// exec_gate_switch runs the gate with Core::run(64, entry) instead of a
// top-level step() loop, and the trace tier now keeps the gate's (global)
// blocks across the gate's own TTBR0 write. Neither may be visible in the
// simulated world: N switches must leave the same cycles, counters, PMU
// count, trace-event timestamps and registers as the step() reference.

enum class GateDrive { kStepLoop, kModuleTierOff, kModuleTierOn };

struct GateRunRecord {
  Cycles cycles = 0;
  u64 insn_retired = 0;
  u64 l1_hits = 0;
  u64 ttbr0_switches = 0;
  u64 pmu_domain_switches = 0;
  std::vector<obs::Event> events;  // the module's own kGateSwitch excluded
  std::array<u64, 31> regs{};
  u64 ttbr0 = 0;
  bool alive = false;
};

GateRunRecord RunGateSwitches(GateDrive drive) {
  constexpr int kSwitches = 60;
  constexpr int kGates = 3;
  constexpr VirtAddr kEntry = Env::kCodeVa + 0x40;
  obs::reset_all();
  obs::trace().arm(1 << 14);
  Env env(Env::Options().platform(arch::Platform::cortex_a55()));
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  for (int g = 0; g < kGates; ++g) {
    const int pgt = g == 0 ? 0 : lz.lz_alloc().value();
    EXPECT_TRUE(lz.lz_map_gate_pgt(pgt, g).is_ok());
    EXPECT_TRUE(lz.lz_set_gate_entry(g, kEntry).is_ok());
  }
  auto& core = env.machine->core();
  core.set_trace_tier(drive == GateDrive::kModuleTierOn);
  lz.module().enter_el1(lz.ctx());
  namespace pmu = arch::pmu;
  core.set_sysreg(SysReg::kPmevtyper0El0, pmu::kEvtLzDomainSwitch);
  core.set_sysreg(SysReg::kPmcntensetEl0, 1);
  core.set_sysreg(SysReg::kPmcrEl0, pmu::kPmcrE);

  const obs::Snapshot before = obs::registry().snapshot();
  const Cycles c0 = core.account().total();
  obs::trace().clear();
  for (int i = 0; i < kSwitches; ++i) {
    const int g = i % kGates;
    if (drive == GateDrive::kStepLoop) {
      // The pre-batching way of running a gate, kept as the reference.
      core.set_x(30, kEntry);
      core.set_pc(UpperLayout::gate_va(static_cast<u32>(g)));
      for (int s = 0; s < 64 && core.pc() != kEntry && proc.alive(); ++s) {
        core.step();
      }
    } else {
      EXPECT_TRUE(lz.lz_switch_to_ttbr_gate(g).is_ok());
    }
    EXPECT_EQ(core.pc(), kEntry);
  }
  GateRunRecord r;
  r.cycles = core.account().total() - c0;
  const obs::Snapshot moved =
      obs::Registry::delta(before, obs::registry().snapshot());
  const auto count = [&moved](std::string_view name) {
    for (const auto& [n, v] : moved) {
      if (n == name) return v;
    }
    return u64{0};
  };
  r.insn_retired = count("sim.core.insn_retired");
  r.l1_hits = count("mem.tlb.l1_hit");
  r.ttbr0_switches = count("sim.core.ttbr0_switch");
  r.pmu_domain_switches = core.pmu_read(SysReg::kPmevcntr0El0);
  for (const auto& e : obs::trace().events()) {
    if (e.kind != obs::EventKind::kGateSwitch) r.events.push_back(e);
  }
  for (unsigned i = 0; i < 31; ++i) r.regs[i] = core.x(i);
  r.ttbr0 = core.sysreg(SysReg::kTtbr0El1);
  r.alive = proc.alive();
  lz.exit_world();
  obs::trace().disarm();
  obs::reset_all();
  return r;
}

void ExpectSameGateRun(const GateRunRecord& a, const GateRunRecord& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.insn_retired, b.insn_retired);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.ttbr0_switches, b.ttbr0_switches);
  EXPECT_EQ(a.pmu_domain_switches, b.pmu_domain_switches);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const obs::Event& x = a.events[i];
    const obs::Event& y = b.events[i];
    EXPECT_EQ(x.ts, y.ts) << "event " << i;
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.a0, y.a0) << "event " << i;
    EXPECT_EQ(x.a1, y.a1) << "event " << i;
  }
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.ttbr0, b.ttbr0);
  EXPECT_EQ(a.alive, b.alive);
}

TEST(GateEngineTest, BatchedGateSwitchesMatchStepReference) {
  const auto ref = RunGateSwitches(GateDrive::kStepLoop);
  const auto off = RunGateSwitches(GateDrive::kModuleTierOff);
  const auto on = RunGateSwitches(GateDrive::kModuleTierOn);
  EXPECT_TRUE(ref.alive);
  EXPECT_EQ(ref.ttbr0_switches, 60u);
  EXPECT_EQ(ref.pmu_domain_switches, 60u);
  EXPECT_FALSE(ref.events.empty());
  ExpectSameGateRun(ref, off);
  ExpectSameGateRun(off, on);
}

// A forged return address still fails the gate's phase-2 check: the BRK
// kills the process and its handler stops the bounded run before the
// forged target (the run's stop PC) is ever reached.
TEST_F(LightZoneTest, ForgedLrKillsAndStopsBatchedGateRun) {
  auto& proc = env.new_process();
  constexpr VirtAddr kEntry = Env::kCodeVa + 0x40;
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, 0).is_ok());
  ASSERT_TRUE(lz.lz_set_gate_entry(0, kEntry).is_ok());
  auto& core = env.machine->core();
  core.set_trace_tier(true);
  lz.module().enter_el1(lz.ctx());
  // Warm the gate's traces with legal switches first.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(lz.lz_switch_to_ttbr_gate(0).is_ok());

  const VirtAddr forged = kEntry + 4;
  core.set_x(30, forged);
  core.set_pc(UpperLayout::gate_va(0));
  const auto r = core.run(64, forged);
  lz.exit_world();
  EXPECT_EQ(r.reason, sim::StopReason::kHandlerStop);
  EXPECT_LT(r.steps, 64u);
  EXPECT_NE(core.pc(), forged);
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("call-gate"), std::string::npos)
      << proc.kill_reason();
}

TEST_F(LightZoneTest, PanTogglesAreTensOfCycles) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  lz.enter_world();
  const Cycles c = lz.set_pan(false);
  lz.exit_world();
  EXPECT_LT(c, 30u);
}

TEST_F(LightZoneTest, KernelUnmapSynchronizesLzTables) {
  auto& proc = env.new_process();
  Asm a;
  a.mov_imm64(1, Env::kHeapVa);
  a.str(1, 1, 0);  // fault in
  a.movz(8, kEmpty);
  a.svc(0);
  a.mov_imm64(1, Env::kHeapVa);
  a.ldr(2, 1, 0);  // after munmap: must die
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(env, proc, a);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  // Replace kEmpty with an munmap of the heap VMA while the process runs.
  env.kern().register_syscall(kEmpty, [&](kernel::Process& p,
                                          const kernel::SyscallArgs&) -> u64 {
    LZ_CHECK_OK(env.kern().munmap(p, Env::kHeapVa, Env::kHeapLen));
    return 0;
  });
  lz.run();
  EXPECT_FALSE(proc.alive());
  EXPECT_FALSE(proc.kill_reason().empty());
}

// lz_free regression: freeing a domain must dissolve its protection
// regions. Pre-fix the region survived, and the next fault on its range
// attached the page through the freed (null) Stage1Table — a hard crash.
// The range reverts to unprotected, so the touch succeeds, and the range
// becomes claimable by a new domain again.
TEST_F(LightZoneTest, FreeDissolvesDomainRegions) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const VirtAddr va = Env::kHeapVa;
  const int pgt = lz.lz_alloc().value();
  LZ_CHECK_OK(lz.lz_prot(va, kPageSize, pgt, kLzRead | kLzWrite));
  LZ_CHECK_OK(lz.module().touch_page(lz.ctx(), va, true, false));
  LZ_CHECK_OK(lz.lz_free(pgt));
  // Pre-fix: null-table dereference. Post-fix: plain unprotected fault-in.
  LZ_CHECK_OK(lz.module().touch_page(lz.ctx(), va, true, false));
  // The dead domain no longer claims the range: another domain may.
  const int pgt2 = lz.lz_alloc().value();
  EXPECT_TRUE(lz.lz_prot(va, kPageSize, pgt2, kLzRead).is_ok());
}

// Freeing one domain must not disturb a *different* domain's grant on a
// disjoint range: its region, mappings, and gate switches stay intact.
TEST_F(LightZoneTest, FreeLeavesSiblingDomainsIntact) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const VirtAddr va_a = Env::kHeapVa;
  const VirtAddr va_b = Env::kHeapVa + kPageSize;
  const int pgt_a = lz.lz_alloc().value();
  const int pgt_b = lz.lz_alloc().value();
  LZ_CHECK_OK(lz.lz_prot(va_a, kPageSize, pgt_a, kLzRead | kLzWrite));
  LZ_CHECK_OK(lz.lz_prot(va_b, kPageSize, pgt_b, kLzRead | kLzWrite));
  LZ_CHECK_OK(lz.module().touch_page(lz.ctx(), va_b, true, false));
  LZ_CHECK_OK(lz.lz_free(pgt_a));
  LZ_CHECK_OK(lz.module().touch_page(lz.ctx(), va_b, true, false));
  // pgt_b still owns its range: a third party is still rejected.
  const int pgt_c = lz.lz_alloc().value();
  EXPECT_EQ(lz.lz_prot(va_b, kPageSize, pgt_c, kLzRead).errc(),
            Errc::kBadRange);
}

TEST_F(LightZoneTest, MaxDomainsIsLarge) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  // Allocate a few hundred tables to show scalability (full 2^16 would be
  // slow in a unit test; the bench sweeps further).
  for (int i = 1; i < 300; ++i) {
    ASSERT_EQ(lz.lz_alloc().value(), i);
  }
  EXPECT_TRUE(lz.lz_free(150).is_ok());
  EXPECT_EQ(lz.lz_alloc().value(), 150);  // slot reuse
}

// A domain table's ASID is bound to its slot, so 2^16 alloc/free cycles
// cannot wrap a per-process counter onto a live domain's ASID: the new
// table must not reach domain 1's page through domain 1's cached
// translation.
TEST_F(LightZoneTest, AllocFreeChurnNeverReusesALiveDomainsAsid) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  auto& module = lz.module();
  auto& ctx = lz.ctx();
  const VirtAddr dom_va = Env::kHeapVa;
  const int pgt1 = lz.lz_alloc().value();
  ASSERT_TRUE(lz.lz_prot(dom_va, kPageSize, pgt1, kLzRead | kLzWrite).is_ok());
  for (int i = 0; i < 0xffff; ++i) {
    const int pgt = lz.lz_alloc().value();
    ASSERT_TRUE(lz.lz_free(pgt).is_ok());
  }
  const int fresh = lz.lz_alloc().value();
  const u16 asid1 = ctx.pgts[pgt1].tbl->asid();
  EXPECT_NE(ctx.pgts[fresh].tbl->asid(), asid1) << "both " << asid1;

  // Domain 1 caches its page, then the fresh domain reads it.
  ASSERT_TRUE(lz.lz_map_gate_pgt(pgt1, 1).is_ok());
  ASSERT_TRUE(lz.lz_map_gate_pgt(fresh, 2).is_ok());
  for (int g : {1, 2}) {
    ASSERT_TRUE(lz.lz_set_gate_entry(g, Env::kCodeVa + 0x40).is_ok());
  }
  LZ_CHECK_OK(module.touch_page(ctx, dom_va, true, false));
  module.enter_el1(ctx);
  auto& core = env.machine->core();
  ASSERT_TRUE(lz.lz_switch_to_ttbr_gate(1).is_ok());
  EXPECT_TRUE(core.mem_read(dom_va, 8).ok);
  ASSERT_TRUE(lz.lz_switch_to_ttbr_gate(2).is_ok());
  EXPECT_FALSE(core.mem_read(dom_va, 8).ok);
  lz.exit_world();
}

TEST_F(LightZoneTest, GuestPlacementRunsNestedProcesses) {
  Env genv(Env::Options().platform(arch::Platform::cortex_a55()).placement(Env::Placement::kGuest));
  auto& proc = genv.new_process();
  Asm a;
  a.movz(8, kGetpid);
  a.svc(0);
  a.mov_reg(9, 0);
  a.movz(8, kExit);
  a.svc(0);
  InstallCode(genv, proc, a);
  LzProc lz = LzProc::enter(*genv.module, proc, true, 1);
  lz.run();
  EXPECT_EQ(genv.machine->core().x(9), proc.pid());
  EXPECT_FALSE(proc.alive());
  EXPECT_TRUE(proc.kill_reason().empty()) << proc.kill_reason();
}

TEST_F(LightZoneTest, MemoryOverheadAccounting) {
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  const u64 base = lz.ctx().isolation_table_pages();
  for (int i = 1; i <= 16; ++i) lz.lz_alloc().value();
  EXPECT_GT(lz.ctx().isolation_table_pages(), base);
}

// Folds every page-table event into one FNV-1a hash, forwarding to the
// observer it displaced (the BBM monitor Env arms) so the protocol oracle
// keeps watching the same stream.
class PteStreamHasher : public mem::PteWriteObserver {
 public:
  PteStreamHasher() : prev_(mem::set_pte_write_observer(this)) {}
  ~PteStreamHasher() override { mem::set_pte_write_observer(prev_); }

  void on_pte_write(const mem::PteWrite& w) override {
    fold(1);
    fold(w.stage2);
    fold(w.desc_pa);
    fold(w.in_addr);
    fold(w.level);
    fold(w.old_desc);
    fold(w.new_desc);
    fold(w.asid);
    fold(w.vmid);
    ++writes;
    if (prev_ != nullptr) prev_->on_pte_write(w);
  }
  void on_tlbi(const mem::TlbiEvent& e) override {
    fold(2);
    fold(static_cast<u64>(e.scope));
    fold(e.vpage);
    fold(e.asid);
    fold(e.vmid);
    ++tlbis;
    if (prev_ != nullptr) prev_->on_tlbi(e);
  }
  void on_dsb() override {
    fold(3);
    if (prev_ != nullptr) prev_->on_dsb();
  }
  void on_table_free(const mem::PhysMem* pm, PhysAddr table_pa) override {
    fold(4);
    fold(table_pa);
    ++table_frees;
    if (prev_ != nullptr) prev_->on_table_free(pm, table_pa);
  }
  void on_phys_mem_destroyed(const mem::PhysMem* pm) override {
    if (prev_ != nullptr) prev_->on_phys_mem_destroyed(pm);
  }

  u64 hash = 0xcbf29ce484222325ull;
  u64 writes = 0, tlbis = 0, table_frees = 0;

 private:
  void fold(u64 v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  mem::PteWriteObserver* prev_;
};

// The page-table write side (lz_alloc's table build, lz_prot, lz_free,
// W^X, process exit) may be made faster but never different: every PTE
// store, TLBI, DSB and table free of a fixed domain-lifecycle script is
// folded into one pinned hash.
TEST_F(LightZoneTest, DomainLifecycleObserverStreamIsPinned) {
  constexpr VirtAddr kJitVa = 0x2000'0000;
  auto& proc = env.new_process();
  LZ_CHECK_OK(env.kern().mmap(
      proc, kJitVa, kPageSize,
      kernel::kProtRead | kernel::kProtWrite | kernel::kProtExec));
  PteStreamHasher hasher;
  {
    LzProc lz = LzProc::enter(*env.module, proc, true, 1);
    auto& module = lz.module();
    auto& ctx = lz.ctx();
    // Resident shared pages every new domain table copies.
    LZ_CHECK_OK(module.touch_page(ctx, Env::kCodeVa, false, true));
    LZ_CHECK_OK(module.touch_page(ctx, Env::kStackTop - kPageSize, true,
                                  false));
    for (u64 i = 0; i < 4; ++i) {
      LZ_CHECK_OK(module.touch_page(ctx, Env::kHeapVa + (32 + i) * kPageSize,
                                    i % 2 == 0, false));
    }
    std::vector<int> live;
    for (int i = 0; i < 24; ++i) {
      const int pgt = lz.lz_alloc().value();
      const VirtAddr va = Env::kHeapVa + (i % 16) * kPageSize;
      LZ_CHECK_OK(lz.lz_prot(va, kPageSize, pgt, kLzRead | kLzWrite));
      LZ_CHECK_OK(lz.lz_map_gate_pgt(pgt, 1 + i % 9));
      LZ_CHECK_OK(module.touch_page(ctx, va, true, false));
      live.push_back(pgt);
      if (live.size() > 8) {
        LZ_CHECK_OK(lz.lz_free(live.front()));
        live.erase(live.begin());
      }
    }
    // One W^X exec flip on a writable, executable page.
    LZ_CHECK_OK(module.touch_page(ctx, kJitVa, true, false));
    LZ_CHECK_OK(module.touch_page(ctx, kJitVa, false, true));
  }
  env.kern().destroy(proc);
  EXPECT_GT(hasher.writes, 0u);
  EXPECT_GT(hasher.tlbis, 0u);
  EXPECT_GT(hasher.table_frees, 0u);
  EXPECT_EQ(hasher.hash, 0xca288c244682e0a3ull) << std::hex << hasher.hash << std::dec
                                 << " writes=" << hasher.writes
                                 << " tlbis=" << hasher.tlbis
                                 << " frees=" << hasher.table_frees;
}

// lz_alloc copies into the new table exactly pgt 0's unprotected pages
// (sanitized code, read-only VMA pages, writable and clean heap pages)
// with identical descriptors. A kPgtAll overlay page is protected, so a
// new table gets it only on the page's next fault, through fault_in_page.
TEST_F(LightZoneTest, AllocCopiesExactlyTheUnprotectedPages) {
  constexpr VirtAddr kRoVa = 0x3000'0000;
  auto& proc = env.new_process();
  LZ_CHECK_OK(env.kern().mmap(proc, kRoVa, 2 * kPageSize, kernel::kProtRead));
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  auto& module = lz.module();
  auto& ctx = lz.ctx();
  const VirtAddr heap_rw = Env::kHeapVa;
  const VirtAddr overlay = Env::kHeapVa + 2 * kPageSize;
  LZ_CHECK_OK(module.touch_page(ctx, Env::kCodeVa, false, true));
  LZ_CHECK_OK(module.touch_page(ctx, kRoVa, false, false));
  LZ_CHECK_OK(module.touch_page(ctx, kRoVa + kPageSize, false, false));
  LZ_CHECK_OK(module.touch_page(ctx, heap_rw, true, false));
  LZ_CHECK_OK(module.touch_page(ctx, Env::kHeapVa + kPageSize, false, false));
  LZ_CHECK_OK(lz.lz_prot(overlay, kPageSize, kPgtAll,
                         kLzRead | kLzWrite | kLzUser));
  LZ_CHECK_OK(module.touch_page(ctx, overlay, true, false));

  using Entries = std::map<VirtAddr, u64>;
  const auto entries = [&](int pgt) {
    Entries out;
    ctx.pgts[pgt].tbl->for_each([&](VirtAddr va, u64 desc) { out[va] = desc; });
    return out;
  };
  Entries unprotected = entries(0);
  ASSERT_TRUE(unprotected.contains(overlay));
  const u64 overlay_desc = unprotected[overlay];
  unprotected.erase(overlay);
  ASSERT_EQ(unprotected.size(), 5u);
  EXPECT_FALSE(mem::pte::s1_attrs(unprotected.at(Env::kCodeVa)).pxn);
  EXPECT_TRUE(mem::pte::s1_attrs(unprotected.at(kRoVa)).read_only);
  EXPECT_FALSE(mem::pte::s1_attrs(unprotected.at(heap_rw)).read_only);

  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(lz.lz_alloc().value(), i);
    EXPECT_EQ(entries(i), unprotected) << "pgt " << i;
  }
  LZ_CHECK_OK(module.touch_page(ctx, overlay, false, false));
  for (int i = 0; i <= 3; ++i) {
    EXPECT_EQ(entries(i).at(overlay), overlay_desc) << "pgt " << i;
  }
}

// A kernel mprotect narrows a VMA without telling LightZone, so the
// tables keep the page's old read-write descriptor. The next lz_alloc must
// not copy that stale grant: it finds pgt 0's copy out of date and
// refaults the page, which tightens every table, including the new one.
TEST_F(LightZoneTest, AllocAfterKernelMprotectTightensEveryTable) {
  constexpr VirtAddr kVa = 0x3000'0000;
  auto& proc = env.new_process();
  LZ_CHECK_OK(env.kern().mmap(proc, kVa, kPageSize,
                              kernel::kProtRead | kernel::kProtWrite));
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  auto& ctx = lz.ctx();
  LZ_CHECK_OK(lz.module().touch_page(ctx, kVa, true, false));
  ASSERT_EQ(lz.lz_alloc().value(), 1);
  const auto desc = [&](int pgt) {
    const auto w = ctx.pgts[pgt].tbl->lookup(kVa);
    EXPECT_TRUE(w.ok) << "pgt " << pgt;
    return w;
  };
  ASSERT_FALSE(desc(1).attrs.read_only);

  LZ_CHECK_OK(env.kern().mprotect(proc, kVa, kPageSize, kernel::kProtRead));
  ASSERT_EQ(lz.lz_alloc().value(), 2);
  for (int i = 0; i <= 2; ++i) {
    EXPECT_TRUE(desc(i).attrs.read_only) << "pgt " << i;
    EXPECT_EQ(desc(i).attrs, desc(0).attrs) << "pgt " << i;
    EXPECT_EQ(desc(i).out_addr, desc(0).out_addr) << "pgt " << i;
  }
}

// lz_prot and the lz_free that dissolves its region cost what is resident
// in the range, not what it spans: a 2^44-byte grant over three resident
// pages returns at once, with the results and the page-table event stream
// of a grant of exactly those three pages.
TEST_F(LightZoneTest, HugeProtRangeCostsWhatIsResident) {
  struct Outcome {
    bool prot_ok, free_ok;
    u64 hash, writes, tlbis;
  };
  const auto run = [](u64 len) {
    Env e(Env::Options().platform(arch::Platform::cortex_a55()));
    auto& proc = e.new_process();
    LzProc lz = LzProc::enter(*e.module, proc, true, 1);
    for (u64 i = 0; i < 3; ++i) {
      LZ_CHECK_OK(lz.module().touch_page(lz.ctx(), Env::kHeapVa + i * kPageSize,
                                         true, false));
    }
    const int pgt = lz.lz_alloc().value();
    PteStreamHasher hasher;
    Outcome o{};
    o.prot_ok = lz.lz_prot(Env::kHeapVa, len, pgt, kLzRead | kLzWrite).is_ok();
    o.free_ok = lz.lz_free(pgt).is_ok();
    o.hash = hasher.hash;
    o.writes = hasher.writes;
    o.tlbis = hasher.tlbis;
    return o;
  };
  const Outcome small = run(3 * kPageSize);
  const Outcome huge = run(u64{1} << 44);
  EXPECT_TRUE(small.prot_ok && small.free_ok);
  EXPECT_TRUE(huge.prot_ok && huge.free_ok);
  EXPECT_GT(small.writes, 0u);
  EXPECT_EQ(huge.writes, small.writes);
  EXPECT_EQ(huge.tlbis, small.tlbis);
  EXPECT_EQ(huge.hash, small.hash);
}

}  // namespace
}  // namespace lz::core
