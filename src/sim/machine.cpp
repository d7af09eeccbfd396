#include "sim/machine.h"

#include <string>

#include "mem/pte_observer.h"
#include "obs/flight.h"
#include "obs/switch_probe.h"

namespace lz::sim {

thread_local Machine::Binding Machine::tls_binding_;

Machine::Machine(const arch::Platform& platform, u64 seed, unsigned num_cores,
                 u64 mem_bytes)
    : plat_(platform),
      pm_(std::make_unique<mem::PhysMem>(0x4000'0000, mem_bytes)) {
  LZ_CHECK(num_cores >= 1);
  // Listed in every snapshot, even on one core where broadcasts are free.
  obs::register_switch_bank(obs::SwitchKind::kDvmShootdown);
  cores_.reserve(num_cores);
  for (unsigned id = 0; id < num_cores; ++id) {
    auto unit = std::make_unique<CoreUnit>();
    // Micro-TLB + main TLB sized like a little ARM core; the main TLB is
    // what keeps per-domain (per-ASID) entries resident in Table 5. Each
    // core derives its replacement seed from the machine seed so core 0
    // reproduces the single-core machine exactly.
    unit->tlb = std::make_unique<mem::Tlb>(
        16, 1024, seed + id, "sim.core" + std::to_string(id) + ".tlb");
    unit->core =
        std::make_unique<Core>(platform, *pm_, *unit->tlb, unit->account);
    unit->core->set_obs_core_id(id);  // profiler sample identity
    cores_.push_back(std::move(unit));
  }
}

unsigned Machine::current_core_id() const {
  const Binding& b = tls_binding_;
  return b.machine == this ? b.core : 0;
}

Machine::CoreBinding::CoreBinding(Machine& machine, unsigned core_id)
    : prev_machine_(tls_binding_.machine), prev_core_(tls_binding_.core) {
  LZ_CHECK(core_id < machine.num_cores());
  tls_binding_ = {&machine, core_id};
  // Tell obs which simulated core this thread drives, so the flight
  // recorder and span tracer attribute events to the right per-core ring.
  prev_obs_core_ = obs::set_current_core(core_id);
}

Machine::CoreBinding::~CoreBinding() {
  obs::set_current_core(prev_obs_core_);
  tls_binding_ = {prev_machine_, prev_core_};
}

void Machine::charge_dvm_broadcast() {
  if (num_cores() <= 1) return;  // no remote cores to snoop
  const auto probe =
      obs::switch_scope<obs::SwitchKind::kDvmShootdown>(account());
  charge(CostKind::kTlbi,
         plat_.dvm_bcast_base +
             static_cast<Cycles>(num_cores() - 1) * plat_.dvm_bcast_per_core);
}

void Machine::tlbi_va_is_nosync(u64 vpage, u16 asid, u16 vmid) {
  charge_dvm_broadcast();
  for (auto& unit : cores_) unit->tlb->invalidate_va(vpage, asid, vmid);
  mem::notify_tlbi({obs::TlbScope::kVa, vpage, asid, vmid});
}

void Machine::tlbi_va_all_asid_is_nosync(u64 vpage, u16 vmid) {
  charge_dvm_broadcast();
  for (auto& unit : cores_) unit->tlb->invalidate_va_all_asid(vpage, vmid);
  mem::notify_tlbi({obs::TlbScope::kVaAllAsid, vpage, /*asid=*/0, vmid});
}

void Machine::dsb_ish() { mem::notify_dsb(); }

void Machine::tlbi_va_is(u64 vpage, u16 asid, u16 vmid) {
  tlbi_va_is_nosync(vpage, asid, vmid);
  dsb_ish();
}

void Machine::tlbi_va_all_asid_is(u64 vpage, u16 vmid) {
  tlbi_va_all_asid_is_nosync(vpage, vmid);
  dsb_ish();
}

void Machine::tlbi_asid_is(u16 asid, u16 vmid) {
  charge_dvm_broadcast();
  for (auto& unit : cores_) unit->tlb->invalidate_asid(asid, vmid);
  mem::notify_tlbi({obs::TlbScope::kAsid, /*vpage=*/0, asid, vmid});
  dsb_ish();
}

void Machine::tlbi_vmid_is(u16 vmid) {
  charge_dvm_broadcast();
  for (auto& unit : cores_) unit->tlb->invalidate_vmid(vmid);
  mem::notify_tlbi({obs::TlbScope::kVmid, /*vpage=*/0, /*asid=*/0, vmid});
  dsb_ish();
}

void Machine::tlbi_all_is() {
  charge_dvm_broadcast();
  for (auto& unit : cores_) unit->tlb->invalidate_all();
  mem::notify_tlbi({obs::TlbScope::kAll, /*vpage=*/0, /*asid=*/0, /*vmid=*/0});
  dsb_ish();
}

Cycles Machine::cycles() const {
  Cycles total = 0;
  for (const auto& unit : cores_) total += unit->account.total();
  return total;
}

}  // namespace lz::sim
