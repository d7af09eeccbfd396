#include "baselines/cca.h"

namespace lz::baseline {

using arch::ExceptionLevel;
using mem::GranuleProtectionTable;
using sim::CostKind;
using sim::SysReg;

void CcaBackend::charge_monitor_roundtrip() {
  auto& m = machine();
  const auto& p = plat();
  m.charge(CostKind::kExcp, p.excp(ExceptionLevel::kEl1, ExceptionLevel::kEl2) +
                                p.eret(ExceptionLevel::kEl2,
                                       ExceptionLevel::kEl1));
  m.charge(CostKind::kDispatch, p.dispatch_kernel);
}

void CcaBackend::on_prot(VirtAddr start, VirtAddr end, int pgt) {
  // Shared (kPgtAll) ranges stay in the normal PAS — the GPT tracks a
  // single owning domain per granule.
  if (pgt == check::ShadowTable2::kPgtAll) return;
  auto& m = machine();
  const auto& p = plat();
  charge_monitor_roundtrip();
  for (u64 g = GranuleProtectionTable::granule_of(start);
       g < GranuleProtectionTable::granule_of(end); ++g) {
    if (gpt_.delegate(g, pgt)) {
      ++stats_.delegations;
      m.charge(CostKind::kDispatch, p.gpt_delegate);
    }
  }
}

void CcaBackend::on_free(int pgt) {
  const auto granules = gpt_.owned_by(pgt);
  if (granules.empty()) return;
  auto& m = machine();
  const auto& p = plat();
  charge_monitor_roundtrip();
  for (const u64 g : granules) {
    gpt_.undelegate(g);
    ++stats_.undelegations;
    m.charge(CostKind::kDispatch, p.gpt_undelegate);
  }
}

void CcaBackend::do_switch(int pgt) {
  auto& m = machine();
  const auto& p = plat();
  // The monitor selects the target domain's protected view; cached GPC
  // results stay valid, so no TLB or GPC maintenance on the switch path.
  charge_monitor_roundtrip();
  m.core().set_sysreg(SysReg::kGptbrEl3, static_cast<u64>(pgt));
  m.charge(CostKind::kSysreg, p.sysreg_write + p.isb);
}

void CcaBackend::do_access(VirtAddr va) {
  const u64 g = GranuleProtectionTable::granule_of(va);
  if (gpt_.needs_walk(g)) {
    gpt_.mark_walked(g);
    ++stats_.gpt_walks;
    machine().charge(CostKind::kMem, plat().gpt_walk);
  }
}

}  // namespace lz::baseline
