// Machine: one simulated SoC — shared physical memory plus N cores, each
// with its own micro/main TLB, sysreg file and cycle account, parameterised
// by a Platform cost model. Privileged C++ layers (kernel, hypervisor,
// LightZone module) hang off the machine and charge their software costs
// into the same accounts the cores charge into.
//
// SMP model: the kernel scheduler runs one std::thread per simulated core.
// A thread binds itself to a core with Machine::CoreBinding; the plain
// `core()` / `tlb()` / `account()` accessors then resolve to the calling
// thread's core (core 0 when unbound), so the whole single-core code base
// runs unchanged on any core. TLB maintenance that hardware broadcasts over
// the DVM interconnect (`TLBI ...IS`) goes through the `tlbi_*_is` methods,
// which walk every core's TLB and charge the initiating core a
// platform-calibrated shootdown cost.
#pragma once

#include <memory>
#include <vector>

#include "arch/platform.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "sim/core.h"
#include "sim/cost.h"

namespace lz::sim {

class Machine {
 public:
  explicit Machine(const arch::Platform& platform, u64 seed = 42,
                   unsigned num_cores = 1, u64 mem_bytes = u64{4} << 30);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const arch::Platform& platform() const { return plat_; }
  mem::PhysMem& mem() { return *pm_; }
  unsigned num_cores() const { return static_cast<unsigned>(cores_.size()); }

  // --- Per-core access --------------------------------------------------------
  Core& core(unsigned id) { return *cores_[id]->core; }
  mem::Tlb& tlb(unsigned id) { return *cores_[id]->tlb; }
  CycleAccount& account(unsigned id) { return cores_[id]->account; }

  // Current-core view: resolves through the calling thread's binding, so
  // existing single-core call sites keep addressing core 0 and a scheduler
  // worker bound via CoreBinding transparently drives its own core.
  unsigned current_core_id() const;
  Core& core() { return core(current_core_id()); }
  mem::Tlb& tlb() { return tlb(current_core_id()); }
  CycleAccount& account() { return account(current_core_id()); }

  // RAII thread->core binding. Nests (restores the previous binding), and
  // also serves the main thread when it sets up per-core state sequentially.
  class CoreBinding {
   public:
    CoreBinding(Machine& machine, unsigned core_id);
    ~CoreBinding();
    CoreBinding(const CoreBinding&) = delete;
    CoreBinding& operator=(const CoreBinding&) = delete;

   private:
    const Machine* prev_machine_;
    unsigned prev_core_;
    unsigned prev_obs_core_ = 0;
  };

  // --- DVM broadcast TLB maintenance (TLBI ...IS semantics) -------------------
  // Walks every core's TLB (remote cores observe the shootdown immediately,
  // as after the architectural DSB) and charges the *initiating* core
  // `dvm_bcast_base + (num_cores-1) * dvm_bcast_per_core` under kTlbi.
  // On a single-core machine the broadcast degenerates to the local
  // invalidate at zero extra cost, keeping calibrated numbers bit-identical.
  // Per-VA forms mirror the two architectural flavours: `tlbi_va_is` is
  // TLBI VAE1IS (ASID-scoped, break-before-make on one regime's page) and
  // `tlbi_va_all_asid_is` is TLBI VAAE1IS (every ASID's entry for the
  // page — what the LightZone module needs when a page is mapped under
  // several domain tables at once).
  // Every `tlbi_*_is` is the complete broadcast-and-sync pair (TLBI ...IS;
  // DSB ISH): the shootdown is visible machine-wide on return. The `_nosync`
  // per-VA forms expose the unsynchronised half on its own — the invalidate
  // has been issued but not completed — for callers (and protocol tests)
  // that place the `dsb_ish()` themselves.
  void tlbi_va_is(u64 vpage, u16 asid, u16 vmid);
  void tlbi_va_all_asid_is(u64 vpage, u16 vmid);
  void tlbi_asid_is(u16 asid, u16 vmid);
  void tlbi_vmid_is(u16 vmid);
  void tlbi_all_is();
  void tlbi_va_is_nosync(u64 vpage, u16 asid, u16 vmid);
  void tlbi_va_all_asid_is_nosync(u64 vpage, u16 vmid);
  // Completes outstanding broadcast maintenance (zero simulated cycles —
  // the sync cost is already folded into the calibrated DVM charge).
  void dsb_ish();

  // Total simulated work across all cores. Safe to read concurrently
  // (relaxed atomics), but only exact once the cores are quiesced.
  Cycles cycles() const;
  void charge(CostKind kind, Cycles c) { account().charge(kind, c); }

  double seconds(Cycles c) const { return c / (plat_.freq_ghz * 1e9); }

 private:
  struct CoreUnit {
    std::unique_ptr<mem::Tlb> tlb;
    CycleAccount account;
    std::unique_ptr<Core> core;
  };

  struct Binding {
    const Machine* machine = nullptr;
    unsigned core = 0;
  };
  static thread_local Binding tls_binding_;

  void charge_dvm_broadcast();

  const arch::Platform& plat_;
  std::unique_ptr<mem::PhysMem> pm_;
  std::vector<std::unique_ptr<CoreUnit>> cores_;
};

}  // namespace lz::sim
