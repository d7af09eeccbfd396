// Kernel-model tests: processes executing real instruction streams at EL0
// under the VHE host — syscalls, demand paging, memory management, fault
// killing, and signal delivery with PAN/TTBR0 in the signal frame (§6).
#include <gtest/gtest.h>

#include "hv/host.h"
#include "sim/assembler.h"

namespace lz::kernel {
namespace {

using sim::Asm;

constexpr VirtAddr kCodeVa = 0x400000;
constexpr VirtAddr kHeapVa = 0x10000000;
constexpr VirtAddr kStackTop = 0x7ff0000000;

class KernelTest : public ::testing::Test {
 protected:
  KernelTest()
      : machine(arch::Platform::cortex_a55()), host(machine) {}

  Process& MakeProcess(Asm& a) {
    auto& k = host.kern();
    Process& proc = k.create_process();
    LZ_CHECK_OK(k.mmap(proc, kCodeVa, 1 << 20, kProtRead | kProtExec));
    LZ_CHECK_OK(k.mmap(proc, kHeapVa, 1 << 20, kProtRead | kProtWrite));
    LZ_CHECK_OK(
        k.mmap(proc, kStackTop - (1 << 20), 1 << 20, kProtRead | kProtWrite));
    // Install the code directly into the backing frame.
    LZ_CHECK_OK(k.populate_page(proc, kCodeVa, kProtRead | kProtExec));
    const auto walk = proc.pgt().lookup(kCodeVa);
    a.install(machine.mem(), page_floor(walk.out_addr));
    proc.ctx().pc = kCodeVa;
    proc.ctx().sp = kStackTop - 64;
    return proc;
  }

  sim::Machine machine;
  hv::Host host;
};

Asm ExitProgram(u64 code) {
  Asm a;
  a.movz(0, static_cast<u16>(code));
  a.movz(8, nr::kExit);
  a.svc(0);
  return a;
}

TEST_F(KernelTest, ProcessExitsWithCode) {
  Asm a = ExitProgram(7);
  Process& proc = MakeProcess(a);
  const auto result = host.run_user_process(proc);
  EXPECT_EQ(result.reason, sim::StopReason::kHandlerStop);
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.exit_code(), 7);
}

TEST_F(KernelTest, GetpidReturnsPid) {
  Asm a;
  a.movz(8, nr::kGetpid);
  a.svc(0);
  a.mov_reg(9, 0);       // stash result
  a.movz(8, nr::kExit);
  a.svc(0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_EQ(machine.core().x(9), proc.pid());
}

TEST_F(KernelTest, DemandPagingFaultsInHeapPages) {
  Asm a;
  a.mov_imm64(1, kHeapVa + 0x5000);  // untouched page
  a.movz(2, 123);
  a.str(2, 1, 0);
  a.ldr(3, 1, 0);
  a.movz(8, nr::kExit);
  a.svc(0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_EQ(machine.core().x(3), 123u);
  EXPECT_GE(proc.minor_faults, 1u);
}

TEST_F(KernelTest, AccessOutsideVmasKillsProcess) {
  Asm a;
  a.mov_imm64(1, 0x6660000);
  a.str(2, 1, 0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.kill_reason(), "SIGSEGV");
}

TEST_F(KernelTest, WriteToReadOnlyVmaKills) {
  Asm a;
  a.mov_imm64(1, kCodeVa);
  a.str(2, 1, 0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.kill_reason(), "SIGSEGV");
}

TEST_F(KernelTest, WriteSyscallCapturesOutput) {
  Asm a;
  // Store "hi!" on the heap, then write(1, buf, 3).
  a.mov_imm64(1, kHeapVa);
  a.movz(2, 'h' | ('i' << 8));
  a.movk(2, '!', 1);
  a.str(2, 1, 0);
  a.movz(0, 1);
  a.mov_imm64(1, kHeapVa);
  a.movz(2, 3);
  a.movz(8, nr::kWrite);
  a.svc(0);
  a.movz(8, nr::kExit);
  a.svc(0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_EQ(proc.stdout_buf(), "hi!");
}

TEST_F(KernelTest, MmapSyscallCreatesUsableMapping) {
  Asm a;
  a.mov_imm64(0, 0x20000000);
  a.mov_imm64(1, kPageSize);
  a.movz(2, kProtRead | kProtWrite);
  a.movz(8, nr::kMmap);
  a.svc(0);
  a.mov_imm64(1, 0x20000000);
  a.movz(2, 55);
  a.str(2, 1, 8);
  a.ldr(3, 1, 8);
  a.movz(8, nr::kExit);
  a.svc(0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_EQ(machine.core().x(3), 55u);
}

TEST_F(KernelTest, MunmapRevokesAccess) {
  Asm a;
  // Touch a heap page, munmap the whole heap VMA, touch again -> SIGSEGV.
  a.mov_imm64(1, kHeapVa);
  a.str(1, 1, 0);
  a.mov_imm64(0, kHeapVa);
  a.mov_imm64(1, 1 << 20);
  a.movz(8, nr::kMunmap);
  a.svc(0);
  a.mov_imm64(1, kHeapVa);
  a.ldr(2, 1, 0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.kill_reason(), "SIGSEGV");
}

TEST_F(KernelTest, MprotectMakesPageReadOnly) {
  Asm a;
  a.mov_imm64(1, kHeapVa);
  a.str(1, 1, 0);          // populate writable
  a.mov_imm64(0, kHeapVa);
  a.mov_imm64(1, kPageSize);
  a.movz(2, kProtRead);
  a.movz(8, nr::kMprotect);
  a.svc(0);
  a.mov_imm64(1, kHeapVa);
  a.str(1, 1, 0);          // now faults
  Process& proc = MakeProcess(a);
  // mprotect covers only the first page of the heap VMA; our simple model
  // requires exact VMA coverage for the prot change, so remap heap as a
  // single page first.
  auto& k = host.kern();
  LZ_CHECK_OK(k.munmap(proc, kHeapVa, 1 << 20));
  LZ_CHECK_OK(k.mmap(proc, kHeapVa, kPageSize, kProtRead | kProtWrite));
  host.run_user_process(proc);
  EXPECT_FALSE(proc.alive());
}

TEST_F(KernelTest, CopyToFromUser) {
  Asm a = ExitProgram(0);
  Process& proc = MakeProcess(a);
  auto& k = host.kern();
  const char msg[] = "through the page tables";
  ASSERT_TRUE(k.copy_to_user(proc, kHeapVa + 100, msg, sizeof(msg)));
  char out[sizeof(msg)] = {};
  ASSERT_TRUE(k.copy_from_user(proc, kHeapVa + 100, out, sizeof(out)));
  EXPECT_STREQ(out, msg);
}

// ASIDs recycle without aliasing a live process. Process A's heap page is
// cached in the TLB under A's ASID; 65,535 short-lived processes later, B
// maps the same VA to its own page. Handed A's ASID (a bare 16-bit counter
// wraps there), B's read would hit A's entry and return A's 0x5ec7e7.
TEST_F(KernelTest, AsidRecyclingNeverAliasesALiveProcess) {
  auto& k = host.kern();
  auto& core = machine.core();
  const auto read_heap = [&](Process& proc) {
    k.load_ctx(proc, core);
    const auto r = core.mem_read(kHeapVa, 8);
    EXPECT_TRUE(r.ok);
    return r.value;
  };
  const auto make = [&](u64 value) -> Process& {
    Process& proc = k.create_process();
    LZ_CHECK_OK(k.mmap(proc, kHeapVa, kPageSize, kProtRead | kProtWrite));
    EXPECT_TRUE(k.copy_to_user(proc, kHeapVa, &value, sizeof(value)));
    return proc;
  };
  Process& a = make(0x5ec7e7);
  EXPECT_EQ(read_heap(a), 0x5ec7e7u);  // A's translation is now cached
  for (int i = 0; i < 0xffff; ++i) {
    Process& p = k.create_process();
    ASSERT_NE(p.asid(), a.asid()) << i;
    ASSERT_NE(p.asid(), 0) << i;
    k.destroy(p);
  }
  Process& b = make(0x111);
  EXPECT_NE(b.asid(), a.asid());
  EXPECT_EQ(read_heap(b), 0x111u);
  EXPECT_EQ(read_heap(a), 0x5ec7e7u);
}

TEST_F(KernelTest, SignalDeliveryAndFrameContents) {
  Asm a = ExitProgram(0);
  Process& proc = MakeProcess(a);
  auto& k = host.kern();
  auto& core = machine.core();
  k.load_ctx(proc, core);
  core.set_x(5, 0xabcdef);

  proc.sigactions()[11].handler = kCodeVa + 0x100;
  ASSERT_TRUE(k.deliver_signal(proc, core, 11));
  EXPECT_EQ(core.pc(), kCodeVa + 0x100);
  EXPECT_EQ(core.x(0), 11u);

  // The frame holds the saved x5, SPSR (with PAN) and TTBR0 (§6).
  const u64 frame_sp = core.x(1);
  u64 saved_x5 = 0, saved_ttbr0 = 0;
  ASSERT_TRUE(k.copy_from_user(proc, frame_sp + 5 * 8, &saved_x5, 8));
  ASSERT_TRUE(k.copy_from_user(proc, frame_sp + 33 * 8, &saved_ttbr0, 8));
  EXPECT_EQ(saved_x5, 0xabcdefu);
  EXPECT_EQ(saved_ttbr0, proc.pgt().ttbr());
}

TEST_F(KernelTest, SignalWithoutHandlerFails) {
  Asm a = ExitProgram(0);
  Process& proc = MakeProcess(a);
  EXPECT_FALSE(host.kern().deliver_signal(proc, machine.core(), 11));
}

TEST_F(KernelTest, SchedYieldBumpsGeneration) {
  Asm a;
  a.movz(8, nr::kSchedYield);
  a.svc(0);
  a.movz(8, nr::kExit);
  a.svc(0);
  Process& proc = MakeProcess(a);
  const u64 before = host.kern().sched_generation();
  host.run_user_process(proc);
  EXPECT_EQ(host.kern().sched_generation(), before + 1);
}

TEST_F(KernelTest, EmptySyscallRoundTripIsCheap) {
  // The Table 4 "host user mode to host hypervisor mode" row: an empty
  // syscall round-trip costs ~299 cycles on Cortex-A55.
  Asm a;
  auto loop = a.new_label();
  a.movz(9, 100);
  a.bind(loop);
  a.movz(8, nr::kEmpty);
  a.svc(0);
  a.sub_imm(9, 9, 1);
  a.cbnz(9, loop);
  a.movz(8, nr::kExit);
  a.svc(0);
  Process& proc = MakeProcess(a);
  host.run_user_process(proc);
  // Account covers process instructions too; just sanity-check magnitude.
  EXPECT_GT(machine.cycles(), 100 * 250u);
  EXPECT_LT(machine.cycles(), 100 * 450u);
}

}  // namespace
}  // namespace lz::kernel
