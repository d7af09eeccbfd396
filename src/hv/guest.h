// A guest virtual machine: its own guest kernel (privileged C++ at EL1),
// a stage-2 table that identity-maps exactly the frames the guest owns,
// and the KVM-style full world switch used to enter and leave it.
//
// While a guest *user* process runs, the guest kernel is the EL1 trap
// handler (EL0 -> EL1 syscalls never leave the VM — Table 4 row 2) and the
// VM is the EL2 delegate for stage-2 faults. Guest LightZone processes are
// run by the Lowvisor (src/lightzone/lowvisor.h) which borrows this VM's
// kernel.
#pragma once

#include <string>

#include "hv/host.h"
#include "hv/world.h"
#include "mem/page_table.h"

namespace lz::hv {

class GuestVm : public TrapDelegate {
 public:
  GuestVm(Host& host, std::string name);
  ~GuestVm() override;

  Host& host() { return host_; }
  kernel::Kernel& kern() { return *kern_; }
  mem::Stage2Table& stage2() { return *stage2_; }
  u16 vmid() const { return stage2_->vmid(); }

  // HCR while this VM's EL1/EL0 world executes.
  u64 vm_hcr() const {
    return arch::hcr::kVm | arch::hcr::kRw | arch::hcr::kTsc |
           arch::hcr::kImo | arch::hcr::kFmo;
  }

  // Full KVM-style world switch in/out (charges the Table 4 row 5 path).
  void enter_vm();
  void exit_vm();

  // Run a guest user process from its saved context (the VM is entered and
  // exited around the run; syscalls stay inside at EL1).
  sim::RunResult run_user_process(kernel::Process& proc,
                                  u64 max_steps = 10'000'000);

  // An empty hypercall round-trip from the entered guest kernel to the host
  // hypervisor: exit_vm() and enter_vm() around the host's dispatch — the
  // "KVM Virtualization Host Extensions hypercall" row of Table 4.
  Cycles kvm_hypercall_roundtrip();

  // TrapDelegate: EL2 traps (stage-2 faults) while this VM is active.
  sim::TrapAction on_el2_trap(const sim::TrapInfo& info) override;

  kernel::Process* current_user_process() { return current_proc_; }

 private:
  sim::TrapAction guest_el1_trap(const sim::TrapInfo& info);

  Host& host_;
  std::string name_;
  std::unique_ptr<mem::Stage2Table> stage2_;
  std::unique_ptr<kernel::Kernel> kern_;
  kernel::Process* current_proc_ = nullptr;
  bool entered_ = false;
};

}  // namespace lz::hv
