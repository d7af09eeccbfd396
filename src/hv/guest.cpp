#include "hv/guest.h"

#include "obs/counters.h"
#include "obs/switch_probe.h"
#include "obs/trace.h"

namespace lz::hv {

using arch::ExceptionClass;
using arch::ExceptionLevel;
using sim::CostKind;
using sim::TrapAction;
using sim::TrapInfo;

GuestVm::GuestVm(Host& host, std::string name)
    : host_(host), name_(std::move(name)) {
  auto& machine = host_.machine();
  stage2_ =
      std::make_unique<mem::Stage2Table>(machine.mem(), host_.alloc_vmid());
  // Every frame the guest kernel hands out (process pages and page-table
  // frames alike) is identity-mapped into this VM's stage-2, which is
  // exactly the memory the VM owns — nothing else is reachable.
  kern_ = std::make_unique<kernel::Kernel>(
      machine, "guest:" + name_, [this](PhysAddr pa) {
        // The hook fires on *every* allocation, including frames recycled
        // through the free list whose identity mapping is still in place —
        // a blind map() would abort on kAlreadyExists the first time a
        // guest process is torn down and its frames are reused.
        if (!stage2_->lookup(pa).ok) {
          LZ_CHECK_OK(stage2_->map(pa, pa, mem::S2Attrs{}));
        }
      });
  // The guest's EL1&0 translations are tagged with this VM's VMID; the
  // kernel's break-before-make shootdowns must carry the same tag.
  kern_->set_tlb_vmid(stage2_->vmid());
}

GuestVm::~GuestVm() { host_.free_vmid(vmid()); }

void GuestVm::enter_vm() {
  LZ_CHECK(!entered_);
  auto& machine = host_.machine();
  charge_full_vm_entry(machine);
  host_.write_hcr(vm_hcr());
  host_.write_vttbr(stage2_->vttbr());
  obs::trace().world_switch(obs::WorldKind::kVmEntry,
                            mem::vttbr_vmid(stage2_->vttbr()));
  machine.core().set_handler(
      ExceptionLevel::kEl1,
      [this](const TrapInfo& info) { return guest_el1_trap(info); });
  host_.push_delegate(this);
  entered_ = true;
}

void GuestVm::exit_vm() {
  LZ_CHECK(entered_);
  auto& machine = host_.machine();
  charge_full_vm_exit(machine);
  host_.write_hcr(Host::kHostHcr);
  host_.write_vttbr(0);
  obs::trace().world_switch(obs::WorldKind::kVmExit,
                            mem::vttbr_vmid(stage2_->vttbr()));
  machine.core().set_handler(ExceptionLevel::kEl1, nullptr);
  host_.pop_delegate(this);
  entered_ = false;
}

sim::RunResult GuestVm::run_user_process(kernel::Process& proc,
                                         u64 max_steps) {
  auto& core = host_.machine().core();
  const bool was_entered = entered_;
  if (!was_entered) enter_vm();
  kern_->load_ctx(proc, core);
  current_proc_ = &proc;
  const auto result = core.run(max_steps);
  current_proc_ = nullptr;
  if (!was_entered) exit_vm();
  return result;
}

Cycles GuestVm::kvm_hypercall_roundtrip() {
  auto& machine = host_.machine();
  const auto& plat = machine.platform();
  auto probe = obs::switch_scope<obs::SwitchKind::kKvmHypercall>(
      machine.account(), {.arg = 2, .vmid = mem::vttbr_vmid(stage2_->vttbr())});

  // Guest kernel executes HVC: trap to EL2, full switch to the host,
  // dispatch the (empty) hypercall, full switch back, ERET into the guest.
  machine.charge(CostKind::kExcp,
                 plat.excp(ExceptionLevel::kEl1, ExceptionLevel::kEl2));
  machine.charge(CostKind::kGpr, plat.gpr_save_all());
  exit_vm();
  machine.charge(CostKind::kDispatch, plat.dispatch_kernel);
  enter_vm();
  machine.charge(CostKind::kGpr, plat.gpr_save_all());
  machine.charge(CostKind::kExcp,
                 plat.eret(ExceptionLevel::kEl2, ExceptionLevel::kEl1));

  return probe.close();
}

sim::TrapAction GuestVm::guest_el1_trap(const TrapInfo& info) {
  auto& machine = host_.machine();
  auto& core = machine.core();
  kernel::Process* proc = current_proc_;
  if (proc == nullptr) return TrapAction::kStop;

  switch (info.ec) {
    case ExceptionClass::kSvc64: {
      kern_->dispatch_syscall(*proc, core);
      if (!proc->alive()) return TrapAction::kStop;
      kern_->maybe_deliver_pending(*proc, core, ExceptionLevel::kEl1);
      core.eret_from(ExceptionLevel::kEl1);
      return TrapAction::kResume;
    }
    case ExceptionClass::kDataAbortLowerEl:
    case ExceptionClass::kInsnAbortLowerEl: {
      machine.charge(CostKind::kGpr, machine.platform().gpr_save_all());
      machine.charge(CostKind::kDispatch, machine.platform().dispatch_kernel);
      const u32 iss = arch::esr_iss(info.esr);
      const bool is_exec = info.ec == ExceptionClass::kInsnAbortLowerEl;
      const bool is_write = !is_exec && arch::iss_is_write(iss);
      const bool perm = arch::is_permission_fault(arch::iss_fault_status(iss));
      const auto outcome =
          kern_->handle_user_fault(*proc, info.far, is_write, is_exec, perm);
      machine.charge(CostKind::kGpr, machine.platform().gpr_save_all());
      if (outcome == kernel::Kernel::FaultOutcome::kSigsegv) {
        proc->mark_killed("SIGSEGV");
        return TrapAction::kStop;
      }
      core.eret_from(ExceptionLevel::kEl1);
      return TrapAction::kResume;
    }
    case ExceptionClass::kBrk64:
      proc->mark_killed("SIGTRAP");
      return TrapAction::kStop;
    default:
      proc->mark_killed("illegal exception in guest process");
      return TrapAction::kStop;
  }
}

sim::TrapAction GuestVm::on_el2_trap(const TrapInfo& info) {
  // With all owned frames eagerly identity-mapped, a stage-2 fault means
  // the guest touched memory outside its allocation: fatal.
  if (info.stage2) {
    static obs::Counter& fatal = obs::bank_counter("hv.guest.stage2_fatal");
    fatal.add();
    obs::trace().stage2_fault(info.ipa, mem::vttbr_vmid(stage2_->vttbr()));
    if (current_proc_ != nullptr) {
      current_proc_->mark_killed("stage-2 fault: access outside VM memory");
    }
    return TrapAction::kStop;
  }
  if (info.ec == ExceptionClass::kHvc64) {
    // Guest kernel hypercall while running simulated guest code.
    const auto probe = obs::switch_scope<obs::SwitchKind::kGuestHvcForward>(
        host_.machine().account(),
        {.arg = static_cast<u64>(info.ec),
         .vmid = mem::vttbr_vmid(stage2_->vttbr()),
         .esr = static_cast<u32>(info.esr)});
    host_.machine().charge(CostKind::kDispatch,
                           host_.machine().platform().dispatch_kernel);
    host_.machine().core().eret_from(ExceptionLevel::kEl2);
    return TrapAction::kResume;
  }
  if (info.ec == ExceptionClass::kIrq) {
    // Physical interrupt during guest execution: VM exit (HCR_EL2.IMO),
    // host handles the device, guest resumes.
    host_.machine().charge(CostKind::kDispatch,
                           host_.machine().platform().dispatch_kernel);
    host_.machine().core().eret_from(ExceptionLevel::kEl2);
    return TrapAction::kResume;
  }
  if (current_proc_ != nullptr) {
    current_proc_->mark_killed("unexpected EL2 trap from guest");
  }
  return TrapAction::kStop;
}

}  // namespace lz::hv
