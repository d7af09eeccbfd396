// The Host: a VHE host kernel running (logically) in hypervisor mode. It
// owns the machine-wide EL2 trap vector, the host process kernel, VMID
// allocation, and the conditional HCR_EL2/VTTBR_EL2 write optimisation of
// §5.2.1. Guest VMs and LightZone processes register as trap delegates
// while they are the active world.
// SMP: the trap-delegate stack and the current host user process are
// per-core (each core runs its own world), while VMID allocation and the
// conditional-write toggle are machine-wide setup state.
// VMIDs come from one IdAllocator (support/id_allocator.h): VMID 0 stays
// the host's, a dead VM's VMID returns only after a rollover, and the
// rollover's covering TLBI (ALLE1IS) retires its cached translations.
#pragma once

#include <memory>
#include <vector>

#include "hv/trap_delegate.h"
#include "kernel/kernel.h"
#include "sim/machine.h"
#include "support/id_allocator.h"

namespace lz::hv {

class Host {
 public:
  explicit Host(sim::Machine& machine);

  sim::Machine& machine() { return machine_; }
  kernel::Kernel& kern() { return *kern_; }
  sim::Core& core() { return machine_.core(); }

  // HCR value while ordinary host user processes run under VHE.
  static constexpr u64 kHostHcr =
      arch::hcr::kE2h | arch::hcr::kTge | arch::hcr::kRw;

  // A VMID no live VM holds (never 0). Aborts when all 65,535 are live.
  u16 alloc_vmid();
  // Called when the VM (guest or LightZone context) holding `vmid` dies.
  void free_vmid(u16 vmid) { vmids_.free(vmid); }

  // --- Conditional system-register switching (§5.2.1) ------------------------
  // Writes are skipped (and cost nothing) when the register already holds
  // the value — LightZone retains HCR_EL2/VTTBR_EL2 across most traps.
  // Disabling the optimisation forces a charged write every call (ablation).
  void write_hcr(u64 value);
  void write_vttbr(u64 value);
  bool conditional_sysreg_opt() const { return conditional_sysreg_opt_; }
  void set_conditional_sysreg_opt(bool on) { conditional_sysreg_opt_ = on; }

  // --- EL2 trap routing -------------------------------------------------------
  // Delegates stack per core: pushing from a bound scheduler worker (or
  // under a main-thread CoreBinding) routes that core's traps only.
  void push_delegate(TrapDelegate* delegate);
  void pop_delegate(TrapDelegate* delegate);

  // --- Host user processes ----------------------------------------------------
  // Configure the core for host-user execution (HCR = E2H|TGE, stage-2 off)
  // and run `proc` from its saved context until exit or `max_steps`.
  sim::RunResult run_user_process(kernel::Process& proc,
                                  u64 max_steps = 10'000'000);

  kernel::Process* current_user_process() {
    return percore().current_proc;
  }

 private:
  // World state one core owns: its delegate stack and the host user
  // process it is currently executing. Indexed by the calling thread's
  // core binding; no lock needed — only the owning core's thread touches
  // its slot.
  struct PerCore {
    std::vector<TrapDelegate*> delegates;
    kernel::Process* current_proc = nullptr;
  };
  PerCore& percore() { return percore_[machine_.current_core_id()]; }

  sim::TrapAction handle_el2(const sim::TrapInfo& info);
  sim::TrapAction host_process_trap(const sim::TrapInfo& info);

  sim::Machine& machine_;
  // Declared before kern_: the LightZone contexts of the kernel's processes
  // free their VMIDs when the kernel destroys them.
  IdAllocator vmids_;
  std::unique_ptr<kernel::Kernel> kern_;
  std::vector<PerCore> percore_;
  bool conditional_sysreg_opt_ = true;
};

}  // namespace lz::hv
