// Host-throughput benchmark ("how many simulated instructions per host
// second"): the engine-speed counterpart to the paper tables. Three guest
// loops stress the interpreter's distinct hot paths —
//
//   straight_line  tight ALU loop on one code page: fetch + decode + execute
//   pointer_chase  dependent loads walking a cyclic chain across pages:
//                  fetch plus one data translation per instruction triple
//   domain_switch  bare TTBR0 rewrites between two ASIDs with a load in
//                  each domain (the §4.1.2 switch signature at engine level)
//
// plus a per-core scaling sweep (straight_line on 1/2/4 cores, all cores
// sharing one read-only code page of one PhysMem). Simulated instruction
// and cycle totals are deterministic — ci.sh gates on them — while host
// wall-time and MIPS describe this machine and are reported, not gated.
//
// Flags: the shared bench_util set. --cores N caps the scaling sweep,
// --iters K scales every workload (TSan runs use small K so the sanitizer
// finishes quickly). The single-core workloads run ObsSession::repeats()
// times: MIPS and wall time are reported as mean plus `.min`/`.median`,
// while sim_insns/sim_cycles are identical across repeats by construction.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mem/page_table.h"
#include "sim/assembler.h"
#include "sim/machine.h"
#include "workloads/microbench.h"

namespace {

using namespace lz;
using sim::Asm;
using sim::Machine;

constexpr VirtAddr kCodeVa = 0x400000;
constexpr VirtAddr kDataVa = 0x500000;
constexpr unsigned kChasePages = 8;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct GuestRun {
  u64 steps = 0;
  Cycles cycles = 0;
  double wall_s = 0;
};

// Runs the already-staged core until its program SVCs, timing the host.
GuestRun time_core(Machine& machine, unsigned core_id, u64 max_steps) {
  auto& core = machine.core(core_id);
  core.set_handler(arch::ExceptionLevel::kEl1, [](const sim::TrapInfo&) {
    return sim::TrapAction::kStop;
  });
  const Cycles before = machine.account(core_id).total();
  const double t0 = now_s();
  const auto r = core.run(max_steps);
  GuestRun out;
  out.wall_s = now_s() - t0;
  LZ_CHECK(r.reason == sim::StopReason::kHandlerStop);
  out.steps = r.steps;
  out.cycles = machine.account(core_id).total() - before;
  return out;
}

// One straight-line kernel: 16 ALU ops + loop control, x0 = iterations.
void emit_straight_line(Asm& a) {
  const auto loop = a.new_label();
  a.movz(1, 1);
  a.movz(2, 3);
  a.bind(loop);
  for (int i = 0; i < 4; ++i) {
    a.add_reg(3, 1, 2);
    a.eor_reg(4, 3, 1);
    a.add_imm(3, 3, 7);
    a.orr_reg(4, 4, 2);
  }
  a.sub_imm(0, 0, 1);
  a.cbnz(0, loop);
  a.svc(0);
}

struct Workload {
  std::unique_ptr<Machine> machine;
  std::vector<std::unique_ptr<mem::Stage1Table>> tables;
};

// Builds an N-core machine where every core runs at EL1 under its own
// stage-1 table (ASID = core + 1): one shared read-only code page, one
// private data window per core.
Workload stage(const Asm& a, unsigned cores, u64 data_pages_per_core) {
  Workload w;
  w.machine = std::make_unique<Machine>(arch::Platform::cortex_a55(),
                                        /*seed=*/42, cores);
  auto& pm = w.machine->mem();
  const PhysAddr code_pa = pm.alloc_frame();
  Asm copy = a;  // install() resolves fixups in place
  copy.install(pm, code_pa);
  for (unsigned c = 0; c < cores; ++c) {
    auto tbl =
        std::make_unique<mem::Stage1Table>(pm, static_cast<u16>(c + 1));
    mem::S1Attrs code;
    code.user = false;
    code.read_only = true;
    code.pxn = false;
    LZ_CHECK_OK(tbl->map(kCodeVa, code_pa, code));
    for (u64 p = 0; p < data_pages_per_core; ++p) {
      mem::S1Attrs data;  // privileged RW
      LZ_CHECK_OK(tbl->map(kDataVa + p * kPageSize, pm.alloc_frame(), data));
    }
    auto& core = w.machine->core(c);
    core.pstate().el = arch::ExceptionLevel::kEl1;
    core.set_sysreg(sim::SysReg::kTtbr0El1, tbl->ttbr());
    core.set_pc(kCodeVa);
    w.tables.push_back(std::move(tbl));
  }
  return w;
}

GuestRun run_straight_line(u64 iters) {
  Asm a;
  emit_straight_line(a);
  Workload w = stage(a, 1, 0);
  w.machine->core(0).set_x(0, iters);
  return time_core(*w.machine, 0, iters * 32);
}

// The minimal re-entrant block: 2 ALU ops + loop control. straight_line
// amortizes block-entry overhead over 18 instructions; this kernel is the
// worst case for per-block dispatch cost and the best case for the trace
// tier's block chaining, so the A/B spread between the two bounds the
// tier's win.
GuestRun run_tight_loop(u64 iters) {
  Asm a;
  const auto loop = a.new_label();
  a.movz(1, 7);
  a.bind(loop);
  a.add_reg(2, 2, 1);
  a.eor_reg(3, 2, 1);
  a.sub_imm(0, 0, 1);
  a.cbnz(0, loop);
  a.svc(0);
  Workload w = stage(a, 1, 0);
  w.machine->core(0).set_x(0, iters);
  return time_core(*w.machine, 0, iters * 8);
}

GuestRun run_pointer_chase(u64 iters) {
  Asm a;
  const auto loop = a.new_label();
  a.bind(loop);
  a.ldr(1, 1);  // x1 = [x1]: dependent chain
  a.sub_imm(0, 0, 1);
  a.cbnz(0, loop);
  a.svc(0);
  Workload w = stage(a, 1, kChasePages);
  // Cyclic chain hopping pages: slot i on page p points into page p+1.
  auto& pm = w.machine->mem();
  std::vector<VirtAddr> nodes;
  for (unsigned p = 0; p < kChasePages; ++p) {
    for (unsigned s = 0; s < 4; ++s) {
      nodes.push_back(kDataVa + p * kPageSize + s * 512);
    }
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const VirtAddr next = nodes[(i + kChasePages) % nodes.size()];
    // Resolve VA -> PA through the (identity-per-page) table layout.
    const u64 page = (nodes[i] - kDataVa) / kPageSize;
    const auto tr = w.machine->core(0).translate(
        kDataVa + page * kPageSize, sim::AccessType::kRead, false);
    LZ_CHECK(tr.ok);
    pm.write(tr.pa + page_offset(nodes[i]), 8, next);
  }
  w.machine->core(0).set_x(0, iters);
  w.machine->core(0).set_x(1, nodes[0]);
  return time_core(*w.machine, 0, iters * 8);
}

GuestRun run_domain_switch(u64 iters) {
  Asm a;
  const auto loop = a.new_label();
  a.bind(loop);
  a.msr(arch::SysReg::kTtbr0El1, 5);  // domain A (bare TTBR0 rewrite)
  a.ldr(2, 3);
  a.msr(arch::SysReg::kTtbr0El1, 6);  // domain B
  a.ldr(2, 4);
  a.sub_imm(0, 0, 1);
  a.cbnz(0, loop);
  a.svc(0);
  Workload w = stage(a, 1, 1);
  auto& pm = w.machine->mem();
  // Second table (own ASID) sharing the code page but its own data page.
  auto tbl_b = std::make_unique<mem::Stage1Table>(pm, /*asid=*/2);
  mem::S1Attrs code;
  code.user = false;
  code.read_only = true;
  code.pxn = false;
  const auto tr_code =
      w.machine->core(0).translate(kCodeVa, sim::AccessType::kFetch, false);
  LZ_CHECK(tr_code.ok);
  LZ_CHECK_OK(tbl_b->map(kCodeVa, page_floor(tr_code.pa), code));
  mem::S1Attrs data;
  LZ_CHECK_OK(tbl_b->map(kDataVa, pm.alloc_frame(), data));
  auto& core = w.machine->core(0);
  core.set_x(0, iters);
  core.set_x(3, kDataVa);
  core.set_x(4, kDataVa);
  core.set_x(5, w.tables[0]->ttbr());
  core.set_x(6, tbl_b->ttbr());
  w.tables.push_back(std::move(tbl_b));
  return time_core(*w.machine, 0, iters * 16);
}

// Straight-line loop on every core of one machine concurrently; returns
// aggregate steps over the slowest core's wall time.
GuestRun run_scaling(unsigned cores, u64 iters) {
  Asm a;
  emit_straight_line(a);
  Workload w = stage(a, cores, 0);
  for (unsigned c = 0; c < cores; ++c) w.machine->core(c).set_x(0, iters);
  std::vector<GuestRun> runs(cores);
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < cores; ++c) {
    threads.emplace_back([&w, &runs, c, iters] {
      Machine::CoreBinding bind(*w.machine, c);
      runs[c] = time_core(*w.machine, c, iters * 32);
    });
  }
  for (auto& t : threads) t.join();
  GuestRun out;
  out.wall_s = now_s() - t0;
  for (const auto& r : runs) {
    out.steps += r.steps;
    out.cycles += r.cycles;
  }
  return out;
}

double mips(const GuestRun& r) {
  return r.wall_s > 0 ? static_cast<double>(r.steps) / r.wall_s / 1e6 : 0;
}

// Runs one single-core workload ObsSession::repeats() times and reports
// the spread. The simulated totals must agree across repeats (they are
// functions of the executed work alone); host timing is what varies.
void report(const char* name, GuestRun (*run)(u64), u64 iters) {
  std::vector<double> mips_v, wall_v;
  GuestRun last;
  for (unsigned rep = 0; rep < bench::ObsSession::repeats(); ++rep) {
    const GuestRun r = run(iters);
    if (rep > 0) {
      LZ_CHECK(r.steps == last.steps);
      LZ_CHECK(r.cycles == last.cycles);
    }
    last = r;
    mips_v.push_back(mips(r));
    wall_v.push_back(r.wall_s);
  }
  double mips_mean = 0;
  for (const double m : mips_v) mips_mean += m;
  mips_mean /= static_cast<double>(mips_v.size());
  std::printf("  %-16s %10.2f host-MIPS  (%llu insns, %llu cycles, %.3fs"
              ", mean of 3)\n",
              name, mips_mean, static_cast<unsigned long long>(last.steps),
              static_cast<unsigned long long>(last.cycles), last.wall_s);
  const std::string base = name;
  bench::record_stats(base + ".mips", std::move(mips_v));
  bench::record_stats(base + ".host_s", std::move(wall_v));
  bench::record(base + ".sim_insns", last.steps);
  bench::record(base + ".sim_cycles", last.cycles);
}

// --backend B (B != ttbr_pan): engine throughput of the cost-model
// backends' switch loop — how many modelled switch-and-access ops the host
// executes per second, plus the deterministic simulated cycle average the
// per-backend reports gate on.
void report_backend_switch(lz::core::BackendKind kind, u64 scale) {
  const std::string name = lz::core::to_string(kind);
  const int domains = kind == lz::core::BackendKind::kWatchpoint ? 16 : 32;
  const int iters = static_cast<int>(30'000 * scale);
  std::printf("Backend switch model (--backend %s): %d domains, Cortex-A55 "
              "host\n\n",
              name.c_str(), domains);
  std::vector<double> mops_v, wall_v;
  workload::BackendSwitchResult last;
  for (unsigned rep = 0; rep < bench::ObsSession::repeats(); ++rep) {
    const double t0 = now_s();
    const auto r = workload::backend_switch_avg_cycles(
        kind, arch::Platform::cortex_a55(), workload::Placement::kHost,
        domains, iters);
    const double wall = now_s() - t0;
    if (rep > 0) LZ_CHECK(r.avg_cycles == last.avg_cycles);
    last = r;
    mops_v.push_back(wall > 0 ? iters / wall / 1e6 : 0);
    wall_v.push_back(wall);
  }
  double mops_mean = 0;
  for (const double m : mops_v) mops_mean += m;
  mops_mean /= static_cast<double>(mops_v.size());
  std::printf("  %-16s %10.2f host-Mops   (%.1f sim cycles/switch, %.3fs)\n",
              name.c_str(), mops_mean, last.avg_cycles, wall_v.back());
  const std::string base = "backend." + name;
  bench::record_stats(base + ".host_mops", std::move(mops_v));
  bench::record_stats(base + ".host_s", std::move(wall_v));
  bench::record(base + ".avg_cycles", last.avg_cycles);
  bench::record(base + ".key_recycles", last.stats.key_recycles);
  bench::record(base + ".shootdown_pages", last.stats.shootdown_pages);
  bench::record(base + ".gpt_walks", last.stats.gpt_walks);
  bench::record(base + ".delegations", last.stats.delegations);
}

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("throughput", &argc, argv);
  const u64 scale = obs.iters();
  const unsigned max_cores = obs.cores() > 0 ? obs.cores() : 4;

  if (obs.backend() != lz::core::BackendKind::kTtbrPan) {
    // Per-backend mode: the interpreter sections below are unaffected by
    // the backend choice, so the default path stays byte-identical.
    report_backend_switch(obs.backend(), scale);
    obs.finish();
    return 0;
  }

  std::printf("Host throughput (simulated MIPS), %s build\n\n",
#ifdef NDEBUG
              "Release"
#else
              "checked"
#endif
  );

  report("straight_line", run_straight_line, 100'000 * scale);
  report("tight_loop", run_tight_loop, 400'000 * scale);
  report("pointer_chase", run_pointer_chase, 400'000 * scale);
  report("domain_switch", run_domain_switch, 150'000 * scale);

  // Trace-tier telemetry: host-only counters (obs host_snapshot — kept out
  // of the simulated counter section by design), accumulated across every
  // workload/repeat above. insns_per_trace is the headline density number.
  {
    const auto host = lz::obs::registry().host_snapshot();
    u64 executed = 0, insns = 0;
    for (const auto& [name, value] : host) {
      if (name == "sim.trace.executed") executed = value;
      if (name == "sim.trace.insns") insns = value;
      if (name.rfind("sim.trace.", 0) == 0) {
        bench::record("trace." + name.substr(10), value);
      }
    }
    if (executed > 0) {
      const double density =
          static_cast<double>(insns) / static_cast<double>(executed);
      std::printf("\nTrace tier: %.1f insns/trace (%llu trace executions)\n",
                  density, static_cast<unsigned long long>(executed));
      bench::record("trace.insns_per_trace", density);
    }
  }

  std::printf("\nPer-core scaling (straight_line on every core):\n");
  double mips1 = 0;
  for (unsigned cores = 1; cores <= max_cores; cores *= 2) {
    const auto r = run_scaling(cores, 100'000 * scale);
    const double m = mips(r);
    if (cores == 1) mips1 = m;
    std::printf("  --cores %-2u %10.2f aggregate host-MIPS  (%.2fx vs 1)\n",
                cores, m, mips1 > 0 ? m / mips1 : 0);
    const std::string base = "scale.cores" + std::to_string(cores);
    bench::record(base + ".mips", m);
    bench::record(base + ".host_s", r.wall_s);
    bench::record(base + ".sim_insns", r.steps);
    bench::record(base + ".sim_cycles", r.cycles);
    if (mips1 > 0) bench::record(base + ".speedup_vs_1", m / mips1);
  }

  obs.finish();
  return 0;
}
