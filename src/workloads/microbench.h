// Microbenchmark harnesses reproducing the paper's Table 4 (trap costs)
// and Table 5 (domain-switch costs). Shared by the calibration tests and
// the bench binaries. Every gate-switching Table-5 row (LightZone scalable,
// SMP, any backend) runs one domain setup and one switch-and-access loop
// over the IsolationBackend verbs; the PAN row and the standalone
// Watchpoint/lwC rows keep their own loops.
#pragma once

#include <vector>

#include "arch/platform.h"
#include "lightzone/backend.h"
#include "support/types.h"

namespace lz::workload {

enum class Placement { kHost, kGuest };

// --- Table 4: empty trap-and-return round-trips ------------------------------
struct TrapCosts {
  Cycles host_syscall = 0;       // host user mode -> host hypervisor mode
  Cycles guest_syscall = 0;      // guest user mode -> guest kernel mode
  Cycles lz_host_trap = 0;       // LightZone kernel mode -> host hyp mode
  Cycles lz_guest_trap_min = 0;  // LightZone kernel mode -> guest kernel
  Cycles lz_guest_trap_max = 0;  //   (fluctuates with rescheduling, §8.1)
  Cycles kvm_hypercall = 0;      // KVM VHE hypercall (full world switch)
  Cycles hcr_update = 0;
  Cycles vttbr_update = 0;
};

TrapCosts measure_trap_costs(const arch::Platform& platform);

// Ablations of the §5.2 optimisations (reported by bench/table4_traps):
// LightZone host trap with conventional HCR/VTTBR switching, and the
// nested trap without the shared-pt_regs / deferred-sysreg optimisations.
struct TrapAblations {
  Cycles lz_host_trap_no_cond_sysreg = 0;
  Cycles lz_guest_trap_no_shared_ptregs = 0;
  Cycles lz_guest_trap_no_deferred_sysregs = 0;
};
TrapAblations measure_trap_ablations(const arch::Platform& platform);

// --- Table 5: domain switching ------------------------------------------------
// The paper's program: create `domains` 4 KiB memory domains, attach each
// to its own stage-1 page table (or, for domains == 1, protect them all
// with PAN), then randomly switch + access 8 bytes, `iters` times.
// Returns average cycles per switch-and-access.
double lz_switch_avg_cycles(const arch::Platform& platform,
                            Placement placement, int domains,
                            int iters = 10'000, u64 seed = 42,
                            bool asid_tags = true);

// SMP variant of the Table-5 program: the same switch-and-access loop runs
// concurrently on every core of an N-core machine, one LightZone process
// (with its own domains, gates and VMID) pinned per core. Setup is
// sequential and per-core work streams are disjoint, so totals are
// deterministic. Hit rates come from the per-core TLB statistics.
struct SmpSwitchStats {
  double avg_cycles = 0;  // per switch-and-access, this core's ledger only
  double hit_rate = 0;    // combined L1+L2 TLB hit rate during the loop
  u64 lookups = 0;
};
std::vector<SmpSwitchStats> lz_switch_avg_cycles_smp(
    const arch::Platform& platform, Placement placement, unsigned cores,
    int domains, int iters = 10'000, u64 seed = 42);

double watchpoint_switch_avg_cycles(const arch::Platform& platform,
                                    Placement placement, int domains,
                                    int iters = 10'000, u64 seed = 42);

double lwc_switch_avg_cycles(const arch::Platform& platform,
                             Placement placement, int domains,
                             int iters = 10'000, u64 seed = 42);

// The Table-5 program over any IsolationBackend: the same setup
// (alloc/prot/map_gate_pgt/set_gate_entry/touch per domain) and loop as
// the LightZone rows, calling the verbs directly (no switch-probe record).
// kTtbrPan delegates to lz_switch_avg_cycles — the live module run — so
// the default backend's numbers stay bit-for-bit the published goldens;
// the model backends charge their mechanism's costs (POR_EL0 writes, GPT
// walks, watchpoint reprogramming) into the same ledger. `stats` carries
// the mechanism-specific totals accumulated over the whole run (empty for
// kTtbrPan).
struct BackendSwitchResult {
  double avg_cycles = 0;
  core::BackendStats stats;
};
BackendSwitchResult backend_switch_avg_cycles(core::BackendKind kind,
                                              const arch::Platform& platform,
                                              Placement placement, int domains,
                                              int iters = 10'000,
                                              u64 seed = 42);

}  // namespace lz::workload
