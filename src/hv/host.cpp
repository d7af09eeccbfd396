#include "hv/host.h"

#include "obs/counters.h"

namespace lz::hv {

using arch::ExceptionClass;
using arch::ExceptionLevel;
using sim::CostKind;
using sim::TrapAction;
using sim::TrapInfo;

namespace {

// Conditional-rewrite effectiveness of §5.2.1 (`hv.host.*`): `*_retained`
// counts writes the optimisation elided, `*_write` the ones that hit silicon.
struct HostCounters {
  obs::Counter& hcr_write = obs::registry().counter("hv.host.hcr_write");
  obs::Counter& hcr_retained = obs::registry().counter("hv.host.hcr_retained");
  obs::Counter& vttbr_write = obs::registry().counter("hv.host.vttbr_write");
  obs::Counter& vttbr_retained =
      obs::registry().counter("hv.host.vttbr_retained");
};

HostCounters& host_counters() {
  static HostCounters c;
  return c;
}

}  // namespace

Host::Host(sim::Machine& machine)
    : machine_(machine),
      vmids_(0xffff, [this] { machine_.tlbi_all_is(); }),
      kern_(std::make_unique<kernel::Kernel>(machine, "host")),
      percore_(machine.num_cores()) {
  // The host owns EL2 on every core of the SoC.
  for (unsigned id = 0; id < machine_.num_cores(); ++id) {
    machine_.core(id).set_handler(
        ExceptionLevel::kEl2,
        [this](const TrapInfo& info) { return handle_el2(info); });
    machine_.core(id).set_sysreg(sim::SysReg::kHcrEl2, kHostHcr);
  }
}

u16 Host::alloc_vmid() {
  const auto vmid = vmids_.alloc();
  LZ_CHECK(vmid.has_value());
  return static_cast<u16>(*vmid);
}

void Host::write_hcr(u64 value) {
  auto& core = machine_.core();
  if (conditional_sysreg_opt_ &&
      core.sysreg(sim::SysReg::kHcrEl2) == value) {
    host_counters().hcr_retained.add();
    return;  // retained (§5.2.1)
  }
  host_counters().hcr_write.add();
  core.set_sysreg(sim::SysReg::kHcrEl2, value);
  machine_.charge(CostKind::kSysreg, machine_.platform().sysreg_write_hcr);
}

void Host::write_vttbr(u64 value) {
  auto& core = machine_.core();
  if (conditional_sysreg_opt_ &&
      core.sysreg(sim::SysReg::kVttbrEl2) == value) {
    host_counters().vttbr_retained.add();
    return;
  }
  host_counters().vttbr_write.add();
  core.set_sysreg(sim::SysReg::kVttbrEl2, value);
  machine_.charge(CostKind::kSysreg, machine_.platform().sysreg_write_vttbr);
}

void Host::push_delegate(TrapDelegate* delegate) {
  percore().delegates.push_back(delegate);
}

void Host::pop_delegate(TrapDelegate* delegate) {
  auto& delegates = percore().delegates;
  LZ_CHECK(!delegates.empty() && delegates.back() == delegate);
  delegates.pop_back();
}

sim::TrapAction Host::handle_el2(const TrapInfo& info) {
  auto& delegates = percore().delegates;
  if (!delegates.empty()) return delegates.back()->on_el2_trap(info);
  return host_process_trap(info);
}

sim::RunResult Host::run_user_process(kernel::Process& proc, u64 max_steps) {
  auto& core = machine_.core();
  write_hcr(kHostHcr);
  kern_->load_ctx(proc, core);
  percore().current_proc = &proc;
  const auto result = core.run(max_steps);
  percore().current_proc = nullptr;
  return result;
}

sim::TrapAction Host::host_process_trap(const TrapInfo& info) {
  auto& core = machine_.core();
  kernel::Process* proc = percore().current_proc;
  if (proc == nullptr) return TrapAction::kStop;

  switch (info.ec) {
    case ExceptionClass::kSvc64: {
      kern_->dispatch_syscall(*proc, core);
      if (!proc->alive()) return TrapAction::kStop;
      kern_->maybe_deliver_pending(*proc, core, ExceptionLevel::kEl2);
      core.eret_from(ExceptionLevel::kEl2);
      return TrapAction::kResume;
    }
    case ExceptionClass::kDataAbortLowerEl:
    case ExceptionClass::kInsnAbortLowerEl: {
      machine_.charge(CostKind::kGpr, machine_.platform().gpr_save_all());
      machine_.charge(CostKind::kDispatch, machine_.platform().dispatch_kernel);
      const u32 iss = arch::esr_iss(info.esr);
      const bool is_exec = info.ec == ExceptionClass::kInsnAbortLowerEl;
      const bool is_write = !is_exec && arch::iss_is_write(iss);
      const bool perm =
          arch::is_permission_fault(arch::iss_fault_status(iss));
      const auto outcome =
          kern_->handle_user_fault(*proc, info.far, is_write, is_exec, perm);
      machine_.charge(CostKind::kGpr, machine_.platform().gpr_save_all());
      if (outcome == kernel::Kernel::FaultOutcome::kSigsegv) {
        proc->mark_killed("SIGSEGV");
        return TrapAction::kStop;
      }
      core.eret_from(ExceptionLevel::kEl2);  // retry the access
      return TrapAction::kResume;
    }
    case ExceptionClass::kBrk64:
      proc->mark_killed("SIGTRAP");
      return TrapAction::kStop;
    case ExceptionClass::kIrq:
      // Handle the device interrupt in the host kernel, then resume.
      machine_.charge(CostKind::kDispatch, machine_.platform().dispatch_kernel);
      core.eret_from(ExceptionLevel::kEl2);
      return TrapAction::kResume;
    default:
      proc->mark_killed("illegal exception in host process");
      return TrapAction::kStop;
  }
}

}  // namespace lz::hv
