// Hypervisor-layer tests: guest VMs with their own kernels, guest-internal
// syscalls (EL0 -> EL1, never leaving the VM), stage-2 isolation between
// VMs, the full KVM-style world switch, and the conditional
// HCR_EL2/VTTBR_EL2 write optimisation (§5.2.1).
#include <gtest/gtest.h>

#include "hv/guest.h"
#include "sim/assembler.h"

namespace lz::hv {
namespace {

using kernel::Process;
using kernel::nr::kEmpty;
using kernel::nr::kExit;
using kernel::nr::kGetpid;
using sim::Asm;

constexpr VirtAddr kCodeVa = 0x400000;
constexpr VirtAddr kHeapVa = 0x10000000;
constexpr VirtAddr kStackTop = 0x7ff0000000;

Process& MakeGuestProcess(sim::Machine& machine, kernel::Kernel& k, Asm& a) {
  Process& proc = k.create_process();
  LZ_CHECK_OK(k.mmap(proc, kCodeVa, 1 << 20,
                     kernel::kProtRead | kernel::kProtExec));
  LZ_CHECK_OK(k.mmap(proc, kHeapVa, 1 << 20,
                     kernel::kProtRead | kernel::kProtWrite));
  LZ_CHECK_OK(k.mmap(proc, kStackTop - (1 << 20), 1 << 20,
                     kernel::kProtRead | kernel::kProtWrite));
  LZ_CHECK_OK(k.populate_page(proc, kCodeVa,
                              kernel::kProtRead | kernel::kProtExec));
  const auto walk = proc.pgt().lookup(kCodeVa);
  a.install(machine.mem(), page_floor(walk.out_addr));
  proc.ctx().pc = kCodeVa;
  proc.ctx().sp = kStackTop - 64;
  return proc;
}

class HvTest : public ::testing::Test {
 protected:
  HvTest() : machine(arch::Platform::cortex_a55()), host(machine) {}
  sim::Machine machine;
  Host host;
};

TEST_F(HvTest, GuestProcessRunsAndExits) {
  GuestVm vm(host, "vm0");
  Asm a;
  a.movz(0, 9);
  a.movz(8, kExit);
  a.svc(0);
  Process& proc = MakeGuestProcess(machine, vm.kern(), a);
  const auto result = vm.run_user_process(proc);
  EXPECT_EQ(result.reason, sim::StopReason::kHandlerStop);
  EXPECT_EQ(proc.exit_code(), 9);
}

TEST_F(HvTest, GuestSyscallStaysInsideTheVm) {
  GuestVm vm(host, "vm0");
  Asm a;
  a.movz(8, kGetpid);
  a.svc(0);
  a.mov_reg(9, 0);
  a.movz(8, kExit);
  a.svc(0);
  Process& proc = MakeGuestProcess(machine, vm.kern(), a);
  vm.run_user_process(proc);
  EXPECT_EQ(machine.core().x(9), proc.pid());
}

TEST_F(HvTest, GuestDemandPagingWorksUnderStage2) {
  GuestVm vm(host, "vm0");
  Asm a;
  a.mov_imm64(1, kHeapVa + 0x3000);
  a.movz(2, 42);
  a.str(2, 1, 0);
  a.ldr(3, 1, 0);
  a.movz(8, kExit);
  a.svc(0);
  Process& proc = MakeGuestProcess(machine, vm.kern(), a);
  vm.run_user_process(proc);
  EXPECT_EQ(machine.core().x(3), 42u);
}

// A guest process whose page table maps a frame belonging to another VM
// must die on a stage-2 fault: inter-VM isolation.
TEST_F(HvTest, Stage2BlocksAccessToOtherVmsMemory) {
  GuestVm vm_a(host, "a");
  GuestVm vm_b(host, "b");

  // A frame that belongs to VM b.
  const PhysAddr foreign = vm_b.kern().alloc_frame();
  machine.mem().write(foreign, 8, 0x5ec3e7);

  Asm a;
  a.mov_imm64(1, 0x30000000);
  a.ldr(2, 1, 0);
  a.movz(8, kExit);
  a.svc(0);
  Process& proc = MakeGuestProcess(machine, vm_a.kern(), a);
  // A (misbehaving) guest kernel mapping of the foreign frame: stage-1
  // allows it, stage-2 must not.
  LZ_CHECK_OK(proc.pgt().map(0x30000000, foreign,
                             mem::S1Attrs{true, true, false, true, true,
                                          false, true}));
  vm_a.run_user_process(proc);
  EXPECT_FALSE(proc.alive());
  EXPECT_NE(proc.kill_reason().find("stage-2"), std::string::npos);
}

TEST_F(HvTest, GuestSyscallCostMatchesTable4Row2) {
  // Table 4 row "guest user mode to guest kernel mode": 288 cycles on
  // Cortex-A55, 1423 on Carmel. Measure an empty syscall inside the VM.
  for (const auto* plat :
       {&arch::Platform::cortex_a55(), &arch::Platform::carmel()}) {
    sim::Machine m(*plat);
    Host h(m);
    GuestVm vm(h, "vm0");
    Asm a;
    auto loop = a.new_label();
    a.movz(9, 200);
    a.bind(loop);
    a.movz(8, kEmpty);
    a.svc(0);
    a.sub_imm(9, 9, 1);
    a.cbnz(9, loop);
    a.movz(8, kExit);
    a.svc(0);
    Process& proc = MakeGuestProcess(m, vm.kern(), a);
    vm.enter_vm();
    // Warm up (fault in pages, fill TLB) by running the first iterations.
    const Cycles t0 = m.cycles();
    vm.run_user_process(proc);
    const Cycles per_iter = (m.cycles() - t0) / 200;
    vm.exit_vm();
    const Cycles target = plat == &arch::Platform::cortex_a55() ? 288 : 1423;
    // Loop overhead (4 instructions) rides on top of the syscall cost.
    EXPECT_GT(per_iter, target) << plat->name;
    EXPECT_LT(per_iter, target + target / 5 + 40) << plat->name;
  }
}

TEST_F(HvTest, KvmHypercallRoundTripMatchesTable4Row5) {
  struct Row {
    const arch::Platform* plat;
    Cycles target;
  };
  for (const Row& row : {Row{&arch::Platform::cortex_a55(), 1287},
                         Row{&arch::Platform::carmel(), 28580}}) {
    sim::Machine m(*row.plat);
    Host h(m);
    GuestVm vm(h, "vm0");
    vm.enter_vm();
    const Cycles cost = vm.kvm_hypercall_roundtrip();
    vm.exit_vm();
    EXPECT_GT(cost, row.target * 0.88) << row.plat->name;
    EXPECT_LT(cost, row.target * 1.12) << row.plat->name;
  }
}

TEST_F(HvTest, ConditionalSysregWritesAreFree) {
  // §5.2.1: rewriting HCR_EL2/VTTBR_EL2 with the value they already hold
  // is skipped. The ablation (optimisation off) pays every time.
  const Cycles t0 = machine.cycles();
  host.write_hcr(Host::kHostHcr);  // unchanged value
  host.write_vttbr(0);
  EXPECT_EQ(machine.cycles(), t0);

  host.set_conditional_sysreg_opt(false);
  host.write_hcr(Host::kHostHcr);
  host.write_vttbr(0);
  EXPECT_EQ(machine.cycles() - t0,
            machine.platform().sysreg_write_hcr +
                machine.platform().sysreg_write_vttbr);
}

TEST_F(HvTest, VmidAllocationIsUnique) {
  GuestVm a(host, "a"), b(host, "b");
  EXPECT_NE(a.vmid(), b.vmid());
  EXPECT_NE(a.vmid(), 0);
}

// The VMID twin of the kernel's ASID recycling: 65,535 VMIDs later, no
// allocation has handed out VMID 0 (the host's) or a live VM's VMID, and
// the allocator's rollover retired what a dead VM left in the TLB before
// its VMID could come back.
TEST_F(HvTest, VmidRecyclingNeverHandsOutALiveOrHostVmid) {
  GuestVm a(host, "a");
  mem::TlbEntry e;
  e.valid = true;
  e.vpage = kHeapVa >> kPageShift;
  e.asid = 1;
  e.ppage = machine.mem().alloc_frame();
  u16 dead = 0;
  {
    GuestVm d(host, "d");
    dead = d.vmid();
    e.vmid = dead;
    machine.tlb(0).insert(e);  // cached while d ran
  }
  for (int i = 0; i < 0xffff; ++i) {
    const u16 v = host.alloc_vmid();
    ASSERT_NE(v, 0) << i;
    ASSERT_NE(v, a.vmid()) << i;
    host.free_vmid(v);
  }
  EXPECT_FALSE(machine.tlb(0).lookup(e.vpage, 1, dead, 0).has_value());
  GuestVm b(host, "b");
  EXPECT_NE(b.vmid(), a.vmid());
  EXPECT_NE(b.vmid(), 0);
}

TEST_F(HvTest, FullWorldSwitchIsMuchDearerOnCarmel) {
  sim::Machine carmel(arch::Platform::carmel());
  Host h(carmel);
  GuestVm vm(h, "vm0");
  vm.enter_vm();
  const Cycles carmel_cost = vm.kvm_hypercall_roundtrip();
  vm.exit_vm();

  GuestVm vm2(host, "vm1");
  vm2.enter_vm();
  const Cycles cortex_cost = vm2.kvm_hypercall_roundtrip();
  vm2.exit_vm();
  EXPECT_GT(carmel_cost, 15 * cortex_cost);
}

}  // namespace
}  // namespace lz::hv
