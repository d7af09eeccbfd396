#include "workloads/microbench.h"

#include <optional>

#include "baselines/backends.h"
#include "baselines/lwc.h"
#include "baselines/watchpoint.h"
#include "lightzone/api.h"
#include "sim/assembler.h"
#include "support/rng.h"

namespace lz::workload {

using core::Env;
using core::LzProc;
using kernel::nr::kEmpty;
using kernel::nr::kExit;
using sim::Asm;

namespace {

// A new process whose program performs `count` empty syscalls, then
// exits. Unrolled so the marginal cost of one more syscall is movz+svc plus
// the round-trip.
kernel::Process& syscall_process(Env& env, unsigned count) {
  auto& proc = env.new_process();
  Asm a;
  for (unsigned i = 0; i < count; ++i) {
    a.movz(8, kEmpty);
    a.svc(0);
  }
  a.movz(8, kExit);
  a.svc(0);
  // Code may span several pages.
  for (u64 off = 0; off < a.size_bytes(); off += kPageSize) {
    LZ_CHECK_OK(env.kern().populate_page(
        proc, Env::kCodeVa + off, kernel::kProtRead | kernel::kProtExec));
  }
  const auto walk = proc.pgt().lookup(Env::kCodeVa);
  a.install(env.machine->mem(), page_floor(walk.out_addr));
  return proc;
}

// Marginal cost per syscall measured by differencing two run lengths, each
// in a fresh Env (the process setup, demand faults and exit path cancel
// out).
template <typename RunFn>
Cycles marginal_cost(const arch::Platform& platform, Env::Placement placement,
                     RunFn&& run) {
  constexpr unsigned kN1 = 64, kN2 = 192;
  Env e1(Env::Options().platform(platform).placement(placement)),
      e2(Env::Options().platform(platform).placement(placement));
  const Cycles c1 = run(e1, kN1);
  const Cycles c2 = run(e2, kN2);
  return (c2 - c1) / (kN2 - kN1);
}

Cycles run_host_user(Env& env, unsigned syscalls) {
  auto& proc = syscall_process(env, syscalls);
  const Cycles start = env.machine->cycles();
  env.host->run_user_process(proc);
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return env.machine->cycles() - start;
}

Cycles run_guest_user(Env& env, unsigned syscalls) {
  auto& proc = syscall_process(env, syscalls);
  env.vm->enter_vm();
  const Cycles start = env.machine->cycles();
  env.vm->run_user_process(proc);
  const Cycles total = env.machine->cycles() - start;
  env.vm->exit_vm();
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return total;
}

Cycles run_lz(Env& env, unsigned syscalls, bool resched_every_trap = false,
              const core::LzOptions* opts = nullptr) {
  auto& proc = syscall_process(env, syscalls);
  LzProc lz = LzProc::enter(*env.module, proc, true, 1, opts);
  if (resched_every_trap) {
    env.kern().register_syscall(
        kEmpty, [&env](kernel::Process&, const kernel::SyscallArgs&) -> u64 {
          env.kern().bump_sched_generation();
          return 0;
        });
  }
  const Cycles start = env.machine->cycles();
  lz.run(100'000'000);
  LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
  return env.machine->cycles() - start;
}

}  // namespace

TrapCosts measure_trap_costs(const arch::Platform& platform) {
  using P = Env::Placement;
  const auto lz_run = [](Env& e, unsigned n) { return run_lz(e, n); };
  TrapCosts costs;
  costs.host_syscall = marginal_cost(platform, P::kHost, run_host_user);
  costs.guest_syscall = marginal_cost(platform, P::kGuest, run_guest_user);
  costs.lz_host_trap = marginal_cost(platform, P::kHost, lz_run);
  costs.lz_guest_trap_min = marginal_cost(platform, P::kGuest, lz_run);
  costs.lz_guest_trap_max =
      marginal_cost(platform, P::kGuest, [](Env& e, unsigned n) {
        return run_lz(e, n, /*resched_every_trap=*/true);
      });
  {
    Env env(Env::Options().platform(platform).placement(P::kGuest));
    env.vm->enter_vm();
    // Average over a few round-trips.
    Cycles total = 0;
    constexpr int kReps = 16;
    for (int i = 0; i < kReps; ++i) total += env.vm->kvm_hypercall_roundtrip();
    costs.kvm_hypercall = total / kReps;
    env.vm->exit_vm();
  }
  {
    Env env(Env::Options().platform(platform));
    auto& m = *env.machine;
    Cycles start = m.cycles();
    constexpr int kReps = 16;
    for (int i = 0; i < kReps; ++i) {
      env.host->write_hcr(arch::hcr::kRw | (static_cast<u64>(i & 1) << 13));
    }
    costs.hcr_update = (m.cycles() - start) / kReps;
    start = m.cycles();
    for (int i = 0; i < kReps; ++i) {
      env.host->write_vttbr(u64{static_cast<u64>(i + 1)} << 48);
    }
    costs.vttbr_update = (m.cycles() - start) / kReps;
  }
  return costs;
}

TrapAblations measure_trap_ablations(const arch::Platform& platform) {
  TrapAblations ab;
  ab.lz_host_trap_no_cond_sysreg =
      marginal_cost(platform, Env::Placement::kHost, [](Env& e, unsigned n) {
        e.host->set_conditional_sysreg_opt(false);
        return run_lz(e, n);
      });
  const auto nested_with = [&](bool shared_ptregs, bool deferred) {
    core::LzOptions opts;
    opts.shared_ptregs = shared_ptregs;
    opts.deferred_sysregs = deferred;
    return marginal_cost(platform, Env::Placement::kGuest,
                         [&](Env& e, unsigned n) {
                           return run_lz(e, n, false, &opts);
                         });
  };
  ab.lz_guest_trap_no_shared_ptregs = nested_with(false, true);
  ab.lz_guest_trap_no_deferred_sysregs = nested_with(true, false);
  return ab;
}

// --- Table 5 ------------------------------------------------------------------

namespace {

Env::Placement env_placement(Placement placement) {
  return placement == Placement::kHost ? Env::Placement::kHost
                                       : Env::Placement::kGuest;
}

// Domain d's 4 KiB buffer.
VirtAddr domain_va(int d) {
  return Env::kHeapVa + static_cast<u64>(d) * kPageSize;
}

// The Table-5 domain layout over any backend: domain d owns the d-th heap
// page through its own table (d == 0: the default one) and is reached
// through gate d. `on_alloc(pgt)` runs after each table exists and before
// it is used.
template <typename OnAlloc>
void setup_domains(core::IsolationBackend& be, int domains,
                   OnAlloc&& on_alloc) {
  for (int d = 0; d < domains; ++d) {
    const int pgt = d == 0 ? 0 : be.alloc().value();
    LZ_CHECK(pgt >= 0);
    on_alloc(pgt);
    LZ_CHECK_OK(be.prot(domain_va(d), kPageSize, pgt,
                        core::kLzRead | core::kLzWrite));
    LZ_CHECK_OK(be.map_gate_pgt(pgt, d));
    LZ_CHECK_OK(be.set_gate_entry(d, Env::kCodeVa + 0x40));
    LZ_CHECK_OK(be.touch(domain_va(d), /*want_write=*/true,
                         /*want_exec=*/false));
  }
}

struct LoopResult {
  double avg_cycles = 0;  // per switch-and-access, the calling core's
  mem::TlbStats tlb;      // the calling core's TLB activity in the loop
};

// The Table-5 program's measured body on the calling core: switch into
// every domain once (warm gates and pages), then `iters` rounds of
// switch-to-a-random-domain and one 8-byte access to its buffer.
// `after_switch` runs between each measured switch and its access.
template <typename AfterSwitch>
LoopResult switch_and_access(core::IsolationBackend& be, sim::Machine& m,
                             int domains, int iters, u64 seed,
                             AfterSwitch&& after_switch) {
  for (int d = 0; d < domains; ++d) {
    LZ_CHECK(be.switch_to(d).is_ok());
    (void)be.access(domain_va(d));
  }
  Rng rng(seed);
  const mem::TlbStats before = m.tlb().stats();
  const Cycles start = m.account().total();
  for (int i = 0; i < iters; ++i) {
    const int d = static_cast<int>(rng.below(domains));
    LZ_CHECK(be.switch_to(d).is_ok());
    after_switch();
    (void)be.access(domain_va(d));
  }
  LoopResult out;
  out.avg_cycles = static_cast<double>(m.account().total() - start) / iters;
  const mem::TlbStats after = m.tlb().stats();
  out.tlb.l1_hits = after.l1_hits - before.l1_hits;
  out.tlb.l2_hits = after.l2_hits - before.l2_hits;
  out.tlb.misses = after.misses - before.misses;
  return out;
}

}  // namespace

double lz_switch_avg_cycles(const arch::Platform& platform,
                            Placement placement, int domains, int iters,
                            u64 seed, bool asid_tags) {
  Env env(Env::Options().platform(platform).placement(
      env_placement(placement)));
  auto& proc = env.new_process();
  LzProc lz = LzProc::enter(*env.module, proc, true, 1);
  auto& core = env.machine->core();
  auto& module = lz.module();
  auto& ctx = lz.ctx();

  if (domains <= 1) {
    // PAN mechanism: one protected domain holding every buffer.
    const VirtAddr arena = Env::kHeapVa;
    LZ_CHECK_OK(module.prot(ctx, arena, kPageSize, core::kPgtAll,
                            core::kLzRead | core::kLzWrite | core::kLzUser));
    LZ_CHECK_OK(module.touch_page(ctx, arena, true, false));
    module.enter_el1(ctx);
    core.pstate().pan = true;
    // Warm-up access.
    lz.set_pan(false);
    (void)core.mem_read(arena, 8);
    lz.set_pan(true);
    const Cycles start = env.machine->cycles();
    for (int i = 0; i < iters; ++i) {
      lz.set_pan(false);
      (void)core.mem_read(arena, 8);
      lz.set_pan(true);
    }
    const double avg =
        static_cast<double>(env.machine->cycles() - start) / iters;
    lz.exit_world();
    return avg;
  }

  // Scalable mechanism: one 4 KiB domain per stage-1 table, one gate each.
  // The ablation gives every table one ASID, forcing TLB invalidation
  // semantics on every switch (modelled as a flush per switch).
  setup_domains(lz.backend(), domains, [&](int pgt) {
    if (!asid_tags) ctx.pgts[pgt].tbl->set_asid(1);
  });
  module.enter_el1(ctx);
  const double avg =
      switch_and_access(lz.backend(), *env.machine, domains, iters, seed, [&] {
        if (!asid_tags) {
          env.machine->tlb().invalidate_vmid(ctx.vmid);
          env.machine->charge(sim::CostKind::kSysreg,
                              platform.dsb + platform.isb);
        }
        LZ_CHECK(proc.alive());
      }).avg_cycles;
  lz.exit_world();
  return avg;
}

std::vector<SmpSwitchStats> lz_switch_avg_cycles_smp(
    const arch::Platform& platform, Placement placement, unsigned cores,
    int domains, int iters, u64 seed) {
  LZ_CHECK(cores >= 1 && domains >= 2);
  Env env(Env::Options()
              .platform(platform)
              .placement(env_placement(placement))
              .cores(cores)
              .seed(seed));
  auto& machine = *env.machine;

  // Deterministic setup: one LightZone process per core, prepared
  // sequentially on the main thread so frame-allocation order (and thus
  // every table layout) is independent of thread scheduling. The core
  // binding only routes per-core state (sysregs, accounts) while staging.
  std::vector<std::optional<LzProc>> lzs(cores);
  for (unsigned w = 0; w < cores; ++w) {
    sim::Machine::CoreBinding bind(machine, w);
    lzs[w].emplace(LzProc::enter(*env.module, env.new_process(), true, 1));
    setup_domains(lzs[w]->backend(), domains, [](int) {});
  }

  // Concurrent phase: every core runs its own switch-and-access loop.
  // Work streams are disjoint (own process, own VMID, own TLB), so each
  // core's cycle count and TLB statistics are exact and reproducible.
  std::vector<SmpSwitchStats> stats(cores);
  for (unsigned w = 0; w < cores; ++w) {
    env.kern().run_on(w, [&, w](unsigned core_id) {
      auto& lz = *lzs[w];
      lz.module().enter_el1(lz.ctx());
      const LoopResult r = switch_and_access(
          lz.backend(), machine, domains, iters, seed + core_id,
          [&lz] { LZ_CHECK(lz.proc().alive()); });
      stats[core_id] = {r.avg_cycles, r.tlb.hit_rate(), r.tlb.lookups()};
      lz.exit_world();
    });
  }
  env.kern().schedule();
  return stats;
}

double watchpoint_switch_avg_cycles(const arch::Platform& platform,
                                    Placement placement, int domains,
                                    int iters, u64 seed) {
  LZ_CHECK(domains >= 1 &&
           domains <= baseline::WatchpointIsolation::kMaxDomains);
  Env env(Env::Options().platform(platform).placement(
      env_placement(placement)));
  baseline::WatchpointIsolation wp(*env.host, env.vm.get());
  auto& proc = wp.kern().create_process();
  const VirtAddr arena = 0x40000000;  // 1 GiB-aligned arena
  LZ_CHECK_OK(wp.kern().mmap(proc, arena, 16 * kPageSize,
                             kernel::kProtRead | kernel::kProtWrite,
                             /*populate=*/true));
  LZ_CHECK_OK(wp.setup_arena(arena, kPageSize, domains));

  auto& core = env.machine->core();
  wp.kern().load_ctx(proc, core);
  core.pstate().el = arch::ExceptionLevel::kEl0;
  Rng rng(seed);

  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    const int d = static_cast<int>(rng.below(domains));
    wp.switch_to(d);
    (void)core.mem_read(wp.domain_base(d), 8);
  }
  return static_cast<double>(env.machine->cycles() - start) / iters;
}

double lwc_switch_avg_cycles(const arch::Platform& platform,
                             Placement placement, int domains, int iters,
                             u64 seed) {
  Env env(Env::Options().platform(platform).placement(
      env_placement(placement)));
  baseline::LwcIsolation lwc(*env.host, env.vm.get());
  for (int d = 0; d < domains; ++d) {
    const int id = lwc.create_context();
    LZ_CHECK_OK(lwc.attach(id, 0x40000000 + static_cast<u64>(d) * kPageSize,
                           kPageSize));
  }
  Rng rng(seed);
  const Cycles start = env.machine->cycles();
  for (int i = 0; i < iters; ++i) {
    lwc.switch_to(static_cast<int>(rng.below(domains)));
    env.machine->charge(sim::CostKind::kMem, platform.mem_access);
  }
  return static_cast<double>(env.machine->cycles() - start) / iters;
}

BackendSwitchResult backend_switch_avg_cycles(core::BackendKind kind,
                                              const arch::Platform& platform,
                                              Placement placement, int domains,
                                              int iters, u64 seed) {
  BackendSwitchResult out;
  if (kind == core::BackendKind::kTtbrPan) {
    out.avg_cycles =
        lz_switch_avg_cycles(platform, placement, domains, iters, seed);
    return out;
  }
  Env env(Env::Options().platform(platform).placement(
      env_placement(placement)));
  auto be = baseline::make_backend(kind, env);
  LZ_CHECK(domains >= 1 && domains <= be->max_domains());
  setup_domains(*be, domains, [](int) {});
  out.avg_cycles =
      switch_and_access(*be, *env.machine, domains, iters, seed, [] {})
          .avg_cycles;
  out.stats = be->stats();
  return out;
}

}  // namespace lz::workload
