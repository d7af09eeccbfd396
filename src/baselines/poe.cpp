#include "baselines/poe.h"

#include <algorithm>

namespace lz::baseline {

using sim::CostKind;
using sim::SysReg;

PoeBackend::PoeBackend(core::Env& env, u32 max_gates)
    : ModelBackend(core::BackendKind::kPoe, env, max_gates) {
  for (int& o : owner_) o = -1;
  // Key 0 is pinned to the default domain (pgt 0) and never recycled.
  owner_[0] = 0;
  key_of_[0] = 0;
}

void PoeBackend::on_free(int pgt) {
  const int key = key_of(pgt);
  if (key > 0) {
    owner_[key] = -1;
    key_of_.erase(pgt);
  }
}

void PoeBackend::do_switch(int pgt) {
  int key = key_of(pgt);
  if (key < 0) key = assign_key(pgt);
  auto& m = machine();
  const auto& p = plat();
  // The fast path FEAT_S1POE sells: one unprivileged POR_EL0 write + ISB.
  // Overlay permissions are evaluated at access time against the key index
  // cached in the TLB entry, so there is no TLB maintenance here.
  m.core().set_sysreg(SysReg::kPorEl0, por_value(key));
  m.charge(CostKind::kSysreg, p.sysreg_write_por + p.isb);
}

int PoeBackend::assign_key(int pgt) {
  for (int k = 1; k < kNumKeys; ++k) {
    if (owner_[k] < 0) {
      owner_[k] = pgt;
      key_of_[pgt] = k;
      return k;
    }
  }
  // All fifteen assignable keys taken: steal the round-robin victim. The
  // evicted domain's next switch will pay the same price.
  const int k = next_victim_;
  next_victim_ = next_victim_ == kNumKeys - 1 ? 1 : next_victim_ + 1;
  key_of_.erase(owner_[k]);
  owner_[k] = pgt;
  key_of_[pgt] = k;
  ++stats_.key_recycles;

  auto& m = machine();
  const auto& p = plat();
  // Re-tag the incoming domain's PTEs with the stolen key (one store per
  // page), then broadcast-invalidate every TLB entry on every core still
  // carrying the key under its previous owner — the MPK-style shootdown
  // that makes "more domains than keys" expensive.
  const u64 pages = std::max<u64>(table().domain_pages(pgt), 1);
  stats_.shootdown_pages += pages;
  m.charge(CostKind::kMem, pages * p.mem_access);
  m.charge(CostKind::kTlbi,
           p.dvm_bcast_base + p.dvm_bcast_per_core * (m.num_cores() - 1) +
               p.dsb);
  return k;
}

}  // namespace lz::baseline
