#include "hv/world.h"

#include "obs/counters.h"
#include "obs/switch_probe.h"

namespace lz::hv {

using sim::CostKind;

void charge_sysreg_save(sim::Machine& m, std::size_t count) {
  const auto& p = m.platform();
  static obs::Counter& saved = obs::bank_counter("hv.world.sysreg_saved");
  saved.add(count);
  m.charge(CostKind::kSysreg, count * (p.sysreg_read + p.mem_access));
}

void charge_sysreg_restore(sim::Machine& m, std::size_t count) {
  const auto& p = m.platform();
  static obs::Counter& restored =
      obs::bank_counter("hv.world.sysreg_restored");
  restored.add(count);
  m.charge(CostKind::kSysreg, count * (p.mem_access + p.sysreg_write));
}

std::size_t full_el1_ctx_count() {
  std::size_t count = 0;
  arch::el1_context_regs(&count);
  return count;
}

// HCR_EL2/VTTBR_EL2 rewrites are charged by the actual Host::write_hcr /
// write_vttbr calls at the switch sites, so they are not double-counted
// here.
void charge_full_vm_exit(sim::Machine& m) {
  const auto& p = m.platform();
  const auto probe = obs::switch_scope<obs::SwitchKind::kVmExit>(m.account());
  charge_sysreg_save(m, full_el1_ctx_count());
  m.charge(CostKind::kCtx, p.fp_simd_ctx + p.gic_ctx + p.timer_ctx);
}

void charge_full_vm_entry(sim::Machine& m) {
  const auto& p = m.platform();
  const auto probe = obs::switch_scope<obs::SwitchKind::kVmEntry>(m.account());
  charge_sysreg_restore(m, full_el1_ctx_count());
  m.charge(CostKind::kCtx, p.fp_simd_ctx + p.gic_ctx + p.timer_ctx);
}

}  // namespace lz::hv
