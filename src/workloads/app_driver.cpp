#include "workloads/app_driver.h"

#include <algorithm>

#include "baselines/backends.h"
#include "sim/assembler.h"

namespace lz::workload {

using arch::ExceptionLevel;
using core::Env;
using core::LzProc;

std::vector<Row> figure_rows(core::BackendKind backend) {
  if (backend == core::BackendKind::kTtbrPan) {
    return {kVanilla, kLzPan, kLzTtbr, kWatchpoint, kLwc};
  }
  const Row* row =
      std::find_if(std::begin(kRows), std::end(kRows),
                   [&](const Row& r) { return r.backend == backend; });
  LZ_CHECK(row != std::end(kRows));
  return {kVanilla, *row};
}

int domain_cap(const Row& row) {
  return row.backend ? core::max_domains(*row.backend) - 1 : 0;
}

namespace {

// Marginal empty-syscall cost for this configuration, measured by
// differencing two unrolled runs (the same method the Table 4 calibration
// validates against the paper).
Cycles measure_marginal_syscall(const AppConfig& config, bool lightzone) {
  const auto placement = config.placement == Placement::kHost
                             ? Env::Placement::kHost
                             : Env::Placement::kGuest;
  const auto run = [&](unsigned n) -> Cycles {
    Env env(Env::Options()
                .platform(*config.platform)
                .placement(placement)
                .seed(config.seed));
    auto& proc = env.new_process();
    sim::Asm a;
    for (unsigned i = 0; i < n; ++i) {
      a.movz(8, kernel::nr::kEmpty);
      a.svc(0);
    }
    a.movz(8, kernel::nr::kExit);
    a.svc(0);
    for (u64 off = 0; off < a.size_bytes(); off += kPageSize) {
      LZ_CHECK_OK(env.kern().populate_page(
          proc, Env::kCodeVa + off, kernel::kProtRead | kernel::kProtExec));
    }
    const auto walk = proc.pgt().lookup(Env::kCodeVa);
    a.install(env.machine->mem(), page_floor(walk.out_addr));

    const Cycles start = env.machine->cycles();
    if (lightzone) {
      LzProc lz = LzProc::enter(*env.module, proc, true, 1);
      lz.run(100'000'000);
    } else if (config.placement == Placement::kHost) {
      env.host->run_user_process(proc, 100'000'000);
    } else {
      env.vm->run_user_process(proc, 100'000'000);
    }
    LZ_CHECK(!proc.alive() && proc.kill_reason().empty());
    return env.machine->cycles() - start;
  };
  const Cycles c1 = run(32);
  const Cycles c2 = run(96);
  return (c2 - c1) / 64;
}

}  // namespace

AppDriver::AppDriver(const AppConfig& config)
    : config_(config), workers_(config.workers) {
  LZ_CHECK(config.workers >= 1);
  env_ = std::make_unique<Env>(Env::Options()
                                   .platform(*config.platform)
                                   .placement(config.placement ==
                                                      Placement::kHost
                                                  ? Env::Placement::kHost
                                                  : Env::Placement::kGuest)
                                   .cores(config.workers)
                                   .seed(config.seed));
  for (auto& w : workers_) w.proc = &env_->new_process();
  syscall_cost_ = measure_marginal_syscall(config, config.row.lightzone());
  // LightZone rows enter the worker's own process (lz_enter); model
  // backends are built in setup_domains, which knows the gate count they
  // need.
  if (!config.row.lightzone()) return;
  for (unsigned w = 0; w < config.workers; ++w) {
    sim::Machine::CoreBinding bind(machine(), w);
    workers_[w].lz.emplace(LzProc::enter(*env_->module, *workers_[w].proc,
                                         /*allow_scalable=*/!config.row.pan,
                                         /*insn_san=*/config.row.pan ? 2 : 1));
  }
}

AppDriver::~AppDriver() {
  for (unsigned w = 0; w < workers_.size(); ++w) {
    sim::Machine::CoreBinding bind(machine(), w);
    core::LzContext* ctx = lz_ctx();
    if (ctx != nullptr && workers_[w].lz->module().active() == ctx) {
      workers_[w].lz->exit_world();
    }
  }
}

core::LzContext* AppDriver::lz_ctx() {
  return config_.row.lightzone() ? &worker().lz->ctx() : nullptr;
}

void AppDriver::setup_domains(VirtAddr base, u64 slot, int count) {
  base_ = base;
  slot_ = slot;
  domains_ = count;
  for (unsigned w = 0; w < workers_.size(); ++w) {
    sim::Machine::CoreBinding bind(machine(), w);
    setup_worker(workers_[w]);
  }
}

void AppDriver::setup_worker(Worker& w) {
  const Row& row = config_.row;
  if (!row.backend) {
    populate_and_enter_el0(w);
    return;
  }
  if (!w.lz) {
    w.lz.emplace(baseline::make_backend(
        *row.backend, *env_, static_cast<u32>(std::max(domains_ + 1, 256))));
  }
  auto& lz = *w.lz;
  const auto slot_va = [&](int d) {
    return base_ + static_cast<u64>(d) * slot_;
  };
  if (row.pan) {
    // All slots live in the single PAN-protected domain (user pages).
    for (int d = 0; d < domains_; ++d) {
      LZ_CHECK_OK(lz.lz_prot(slot_va(d), slot_, core::kPgtAll,
                             core::kLzRead | core::kLzWrite | core::kLzUser));
      LZ_CHECK_OK(lz.backend().touch(slot_va(d), true, false));
    }
  } else {
    // Gate 0 returns to the default domain (pgt 0); domain d lives in its
    // own domain behind gate d+1, up to the backend's cap.
    const VirtAddr entry = Env::kCodeVa + 0x40;
    const int cap = domain_cap(row);
    LZ_CHECK(domains_ + 1 <= static_cast<int>(lz.backend().max_gates()));
    LZ_CHECK_OK(lz.lz_map_gate_pgt(0, 0));
    LZ_CHECK_OK(lz.lz_set_gate_entry(0, entry));
    std::vector<int> pgts;
    for (int d = 0; d < domains_; ++d) {
      if (d < cap) {
        pgts.push_back(lz.lz_alloc().value());
        LZ_CHECK_OK(lz.lz_prot(slot_va(d), slot_, pgts.back(),
                               core::kLzRead | core::kLzWrite));
      }
      LZ_CHECK_OK(lz.lz_map_gate_pgt(pgts[d % cap], d + 1));
      LZ_CHECK_OK(lz.lz_set_gate_entry(d + 1, entry));
      LZ_CHECK_OK(lz.backend().touch(slot_va(d), true, false));
    }
  }
  if (!row.lightzone()) {
    populate_and_enter_el0(w);
    return;
  }
  // The LightZone process runs at EL1 in its own VM, starting in the
  // default domain (PAN set: no user-page access).
  auto& core = machine().core();
  lz.module().enter_el1(lz.ctx());
  if (row.pan) {
    core.pstate().pan = true;
    return;
  }
  // Warm the call gates and domain pages.
  for (int d = 0; d < domains_; ++d) {
    enter_domain(d);
    (void)core.mem_read(slot_va(d), 8);
  }
}

void AppDriver::populate_and_enter_el0(Worker& w) {
  // The domain slots live inside the process's heap VMA: back them with
  // frames and put the core into this process's EL0 context so the
  // workload's data accesses translate through its page table.
  auto& k = env_->kern();
  for (int d = 0; d < domains_; ++d) {
    for (u64 off = 0; off < slot_; off += kPageSize) {
      LZ_CHECK_OK(k.populate_page(*w.proc,
                                  base_ + static_cast<u64>(d) * slot_ + off,
                                  kernel::kProtRead | kernel::kProtWrite));
    }
  }
  k.load_ctx(*w.proc, machine().core());
  machine().core().pstate().el = ExceptionLevel::kEl0;
}

Cycles AppDriver::enter_domain(int domain) {
  auto& lz = worker().lz;
  if (!lz) return 0;
  if (config_.row.pan) return lz->set_pan(false);
  return lz->lz_switch_to_ttbr_gate(domain + 1).value();
}

Cycles AppDriver::exit_domain() {
  auto& lz = worker().lz;
  if (!lz) return 0;
  if (config_.row.pan) return lz->set_pan(true);
  // Returning to the default domain revokes access.
  return lz->lz_switch_to_ttbr_gate(0).value();
}

Cycles AppDriver::domain_setup_cost() const {
  const Row& row = config_.row;
  const auto& plat = *config_.platform;
  return row.setup_syscalls * syscall_cost_ +
         row.setup_mem_accesses * plat.mem_access +
         row.setup_insns * plat.insn_base + (row.gpt ? plat.gpt_delegate : 0);
}

Cycles AppDriver::tlb_miss_cost(bool huge_pages) const {
  const auto& plat = *config_.platform;
  const bool lightzone = config_.row.lightzone();
  // Native: 4-level stage-1 walk (2 levels with huge pages).
  unsigned levels = huge_pages ? 2 : 4;
  if (lightzone) {
    // Fake-physical randomisation defeats walk-cache contiguity: pay the
    // stage-2 hop for each stage-1 level. Otherwise identity stage-2 lets
    // the walk caches absorb the table hops. Either way the final stage-2
    // translation adds its levels.
    const auto& opts = workers_[0].lz->ctx().opts();
    if (opts.allow_scalable && opts.fake_phys) levels *= 2;
    levels += 3;
  }
  Cycles cost = levels * plat.tlb_walk_per_level;
  if (config_.placement == Placement::kGuest && lightzone) {
    // Nested TLB pressure: the guest kernel's VM and the LightZone VM
    // compete for TLB and walk-cache capacity.
    cost *= 2;
  }
  // Every TLB fill under RME also checks the granule's protection state;
  // a GPC-TLB miss walks the GPT.
  if (config_.row.gpt) cost += plat.gpt_walk;
  return cost;
}

}  // namespace lz::workload
