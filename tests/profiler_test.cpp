// lz::obs sampling profiler: deterministic cycle-driven sampling with
// per-domain/per-EL attribution, hotspot tables, and collapsed-stack
// export, driven through real simulated programs.
#include <gtest/gtest.h>

#include <string>

#include "arch/encode.h"
#include "obs/counters.h"
#include "obs/profiler.h"
#include "sim/assembler.h"
#include "sim/machine.h"

namespace lz::sim {
namespace {

using mem::S1Attrs;

constexpr VirtAddr kCodeVa = 0x400000;

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_all(); }
  void TearDown() override {
    obs::profiler().disarm();
    obs::reset_all();
  }
};

// ALU loop, x0 = iterations, ends in SVC.
void EmitLoop(Asm& a, int body_ops) {
  const auto loop = a.new_label();
  a.movz(1, 1);
  a.bind(loop);
  for (int i = 0; i < body_ops; ++i) a.add_imm(2, 2, 1);
  a.sub_imm(0, 0, 1);
  a.cbnz(0, loop);
  a.svc(0);
}

// Stages `a` on a fresh single-core machine at EL1 and runs it to the SVC.
void RunProgram(const Asm& a, u64 iters, u64 max_steps = 2'000'000) {
  Machine machine(arch::Platform::cortex_a55());
  auto& pm = machine.mem();
  mem::Stage1Table tbl(pm, /*asid=*/1);
  const PhysAddr code_pa = pm.alloc_frame();
  Asm copy = a;
  copy.install(pm, code_pa);
  S1Attrs code;
  code.user = false;
  code.read_only = true;
  code.pxn = false;
  LZ_CHECK_OK(tbl.map(kCodeVa, code_pa, code));
  auto& core = machine.core();
  core.pstate().el = arch::ExceptionLevel::kEl1;
  core.set_sysreg(SysReg::kTtbr0El1, tbl.ttbr());
  core.set_pc(kCodeVa);
  core.set_x(0, iters);
  core.set_handler(arch::ExceptionLevel::kEl1,
                   [](const TrapInfo&) { return TrapAction::kStop; });
  const auto r = core.run(max_steps);
  LZ_CHECK(r.reason == StopReason::kHandlerStop);
}

TEST_F(ProfilerTest, DisarmedProfilerRecordsNothing) {
  Asm a;
  EmitLoop(a, 8);
  RunProgram(a, 2000);
  EXPECT_EQ(obs::profiler().samples(), 0u);
  EXPECT_TRUE(obs::profiler().collapsed().empty());
}

TEST_F(ProfilerTest, ArmedProfilerAttributesSimulatedTime) {
  obs::profiler().arm(256);
  Asm a;
  EmitLoop(a, 8);
  RunProgram(a, 2000);
  const auto& p = obs::profiler();
  EXPECT_GT(p.samples(), 10u);
  EXPECT_EQ(p.dropped_keys(), 0u);
  // Single-core EL1 loop: every sample lands at EL1 in (vmid 0, asid 1).
  const auto by_el = p.by_el();
  EXPECT_EQ(by_el[0], 0u);
  EXPECT_EQ(by_el[1], p.samples());
  EXPECT_EQ(by_el[2], 0u);
  const auto domains = p.by_domain();
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0].asid, 1u);
  EXPECT_EQ(domains[0].samples, p.samples());
}

TEST_F(ProfilerTest, HotspotsPointIntoTheLoopBody) {
  obs::profiler().arm(128);
  Asm a;
  EmitLoop(a, 8);
  RunProgram(a, 4000);
  const auto hot = obs::profiler().hotspots(8);
  ASSERT_FALSE(hot.empty());
  u64 total = 0;
  for (const auto& [pc, n] : hot) {
    EXPECT_GE(pc, kCodeVa);
    EXPECT_LT(pc, kCodeVa + kPageSize);
    total += n;
  }
  // With one tiny loop, the top hotspots cover every sample.
  EXPECT_EQ(total, obs::profiler().samples());
  // Sorted by count descending.
  for (std::size_t i = 1; i < hot.size(); ++i) {
    EXPECT_GE(hot[i - 1].second, hot[i].second);
  }
}

TEST_F(ProfilerTest, SamplingIsDeterministicAcrossRuns) {
  Asm a;
  EmitLoop(a, 16);
  obs::profiler().arm(512);
  RunProgram(a, 3000);
  const std::string first = obs::profiler().collapsed();
  const u64 first_samples = obs::profiler().samples();
  obs::profiler().reset();  // keeps the armed period
  RunProgram(a, 3000);
  EXPECT_EQ(obs::profiler().samples(), first_samples);
  EXPECT_EQ(obs::profiler().collapsed(), first);
  EXPECT_FALSE(first.empty());
}

TEST_F(ProfilerTest, DomainSwitchesSplitAttribution) {
  obs::profiler().arm(128);
  // Two stage-1 tables (ASIDs 1 and 2) sharing one code page; the loop
  // burns cycles in each domain per iteration.
  auto machine = std::make_unique<Machine>(arch::Platform::cortex_a55());
  auto& pm = machine->mem();
  const PhysAddr code_pa = pm.alloc_frame();
  mem::Stage1Table t1(pm, /*asid=*/1), t2(pm, /*asid=*/2);
  S1Attrs code;
  code.user = false;
  code.read_only = true;
  code.pxn = false;
  LZ_CHECK_OK(t1.map(kCodeVa, code_pa, code));
  LZ_CHECK_OK(t2.map(kCodeVa, code_pa, code));

  Asm a;
  const auto loop = a.new_label();
  a.bind(loop);
  a.msr(arch::SysReg::kTtbr0El1, 5);
  for (int i = 0; i < 16; ++i) a.add_imm(2, 2, 1);
  a.msr(arch::SysReg::kTtbr0El1, 6);
  for (int i = 0; i < 16; ++i) a.add_imm(2, 2, 1);
  a.sub_imm(0, 0, 1);
  a.cbnz(0, loop);
  a.svc(0);
  a.install(pm, code_pa);

  auto& core = machine->core();
  core.pstate().el = arch::ExceptionLevel::kEl1;
  core.set_sysreg(SysReg::kTtbr0El1, t1.ttbr());
  core.set_pc(kCodeVa);
  core.set_x(0, 2000);
  core.set_x(5, t1.ttbr());
  core.set_x(6, t2.ttbr());
  core.set_handler(arch::ExceptionLevel::kEl1,
                   [](const TrapInfo&) { return TrapAction::kStop; });
  const auto r = core.run(1'000'000);
  ASSERT_EQ(r.reason, StopReason::kHandlerStop);

  const auto domains = obs::profiler().by_domain();
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].asid, 1u);
  EXPECT_EQ(domains[1].asid, 2u);
  // Both domains burn comparable cycles, so both must accumulate samples.
  EXPECT_GT(domains[0].samples, 0u);
  EXPECT_GT(domains[1].samples, 0u);
}

// A loop program for ProfileOfLoop: its code, at kCodeVa (global, mapped
// in both tables) and run at EL1 with x0 = iterations, x5/x6 = the TTBR0
// values of ASIDs 1 and 2, ending in SVC #0; and what it maps in the
// ASID 1 table first. A data abort resumes after the faulting load.
struct LoopProgram {
  void (*emit)(Asm&);
  void (*map)(mem::PhysMem&, mem::Stage1Table&) = nullptr;
  u64 iters = 300;
};

// A block runs whether or not a sample falls inside it, and takes the
// samples that do at the ops the interpreter takes them at (DESIGN.md
// §12.2): the profile must be the interpreter's with the tier on.
std::string ProfileOfLoop(const LoopProgram& prog, bool tier) {
  obs::profiler().reset();
  Machine machine(arch::Platform::cortex_a55());
  auto& pm = machine.mem();
  const PhysAddr code_pa = pm.alloc_frame();
  mem::Stage1Table t1(pm, /*asid=*/1), t2(pm, /*asid=*/2);
  S1Attrs code;
  code.user = false;
  code.read_only = true;
  code.pxn = false;
  code.global = true;
  LZ_CHECK_OK(t1.map(kCodeVa, code_pa, code));
  LZ_CHECK_OK(t2.map(kCodeVa, code_pa, code));
  if (prog.map != nullptr) prog.map(pm, t1);
  Asm a;
  prog.emit(a);
  a.install(pm, code_pa);
  auto& core = machine.core();
  core.set_trace_tier(tier);
  core.pstate().el = arch::ExceptionLevel::kEl1;
  core.set_sysreg(SysReg::kTtbr0El1, t1.ttbr());
  core.set_pc(kCodeVa);
  core.set_x(0, prog.iters);
  core.set_x(5, t1.ttbr());
  core.set_x(6, t2.ttbr());
  core.set_handler(arch::ExceptionLevel::kEl1, [&core](const TrapInfo& info) {
    if (info.ec == arch::ExceptionClass::kSvc64) return TrapAction::kStop;
    core.set_sysreg(SysReg::kElrEl1, info.pc + 4);
    core.eret_from(arch::ExceptionLevel::kEl1);
    return TrapAction::kResume;
  });
  EXPECT_EQ(core.run(1'000'000).reason, StopReason::kHandlerStop);
  if (tier) {
    EXPECT_GT(core.trace_stats().insns, 0u);
  }
  return obs::profiler().collapsed();
}

// Period 1 puts several sample points inside one op, 7 a few inside each
// block, 97 one every few blocks.
void ExpectSameProfileWithTheTierOnAndOff(const LoopProgram& prog) {
  for (const u64 period : {1, 7, 97}) {
    SCOPED_TRACE(period);
    obs::profiler().arm(period);
    const std::string off = ProfileOfLoop(prog, false);
    const std::string on = ProfileOfLoop(prog, true);
    EXPECT_FALSE(off.empty());
    EXPECT_EQ(on, off);
  }
}

// TTBR0 writes mid-block: the block survives them (global code), and each
// write's cost lands in the ops after it, in the other ASID's context.
TEST_F(ProfilerTest, SamplesMatchWithSystemInstructionsInTraces) {
  ExpectSameProfileWithTheTierOnAndOff({[](Asm& a) {
    const auto loop = a.new_label();
    a.bind(loop);
    a.msr(arch::SysReg::kTtbr0El1, 5);
    for (int i = 0; i < 6; ++i) a.add_imm(2, 2, 1);
    a.msr(arch::SysReg::kTtbr0El1, 6);
    for (int i = 0; i < 6; ++i) a.add_imm(2, 2, 1);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
  }});
}

// Barriers charge their extra cycles after step()'s sample check, so a
// sample that falls inside an ISB or DSB belongs to the barrier itself.
TEST_F(ProfilerTest, SamplesMatchWithBarriersInTraces) {
  ExpectSameProfileWithTheTierOnAndOff({[](Asm& a) {
    const auto loop = a.new_label();
    a.bind(loop);
    a.add_imm(2, 2, 1);
    a.isb();
    a.isb();
    a.add_imm(3, 3, 1);
    a.dsb();
    a.add_imm(2, 2, 1);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
  }});
}

// Loads that walk: each pass invalidates the TLB and then loads from 24
// pages, more than the micro-TLB holds, so the walks' cycles and the code
// page's own refills fall between the blocks' sample points.
constexpr VirtAddr kDataVa = 0x800000;
constexpr u64 kDataPages = 24;

TEST_F(ProfilerTest, SamplesMatchWithWalkingLoadsInTraces) {
  LoopProgram prog;
  prog.iters = 12;
  prog.map = [](mem::PhysMem& pm, mem::Stage1Table& tbl) {
    for (u64 p = 0; p < kDataPages; ++p) {
      LZ_CHECK_OK(tbl.map(kDataVa + p * kPageSize, pm.alloc_frame(), {}));
    }
  };
  prog.emit = [](Asm& a) {
    const auto pass = a.new_label();
    const auto page = a.new_label();
    a.movz(9, kPageSize);
    a.bind(pass);
    a.emit(arch::enc::tlbi_vmalle1());
    a.mov_imm64(8, kDataVa);
    a.movz(10, kDataPages);
    a.bind(page);
    a.ldr(7, 8);
    a.add_reg(2, 2, 7);
    a.add_reg(8, 8, 9);
    a.sub_imm(10, 10, 1);
    a.cbnz(10, page);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, pass);
    a.svc(0);
  };
  ExpectSameProfileWithTheTierOnAndOff(prog);
}

// A CBZ that leaves the block every other iteration: the ops after it are
// rolled back and never located.
TEST_F(ProfilerTest, SamplesMatchAcrossTakenSideExits) {
  ExpectSameProfileWithTheTierOnAndOff({[](Asm& a) {
    const auto loop = a.new_label();
    const auto skip = a.new_label();
    a.movz(9, 1);
    a.bind(loop);
    a.and_reg(11, 0, 9);
    a.add_imm(2, 2, 1);
    a.cbz(11, skip);
    a.add_imm(3, 3, 1);
    a.add_imm(3, 3, 1);
    a.bind(skip);
    a.add_imm(2, 2, 1);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
  }});
}

// A load from an unmapped page in mid-block: the walk faults, the handler
// skips the load, and the block's ops after it run in the next one.
TEST_F(ProfilerTest, SamplesMatchAroundSkippedFaultingLoads) {
  ExpectSameProfileWithTheTierOnAndOff({[](Asm& a) {
    const auto loop = a.new_label();
    a.mov_imm64(8, kDataVa);  // nothing mapped there
    a.bind(loop);
    a.add_imm(2, 2, 1);
    a.add_imm(2, 2, 1);
    a.ldr(7, 8);
    a.add_imm(3, 3, 1);
    a.sub_imm(0, 0, 1);
    a.cbnz(0, loop);
    a.svc(0);
  }});
}

TEST_F(ProfilerTest, CollapsedLinesCarryTheFullContext) {
  obs::profiler().arm(256);
  Asm a;
  EmitLoop(a, 8);
  RunProgram(a, 2000);
  const std::string text = obs::profiler().collapsed();
  ASSERT_FALSE(text.empty());
  // Every line: core<c>;EL<e>;pan<p>;vmid<v>;asid<a>;0x<pc> <count>\n
  EXPECT_EQ(text.rfind("core0;EL1;pan0;vmid0;asid1;0x", 0), 0u);
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(ProfilerTest, ResetClearsSamplesButKeepsPeriod) {
  obs::profiler().arm(512);
  Asm a;
  EmitLoop(a, 8);
  RunProgram(a, 2000);
  EXPECT_GT(obs::profiler().samples(), 0u);
  obs::profiler().reset();
  EXPECT_EQ(obs::profiler().samples(), 0u);
  EXPECT_TRUE(obs::profiler().armed());
  EXPECT_EQ(obs::profiler().period(), 512u);
}

TEST_F(ProfilerTest, RearmingChangesThePeriodMidSession) {
  obs::profiler().arm(4096);
  Asm a;
  EmitLoop(a, 8);
  RunProgram(a, 2000);
  const u64 coarse = obs::profiler().samples();
  obs::profiler().reset();
  obs::profiler().arm(128);
  RunProgram(a, 2000);
  // A 32x finer period must produce strictly more samples.
  EXPECT_GT(obs::profiler().samples(), coarse);
}

}  // namespace
}  // namespace lz::sim
