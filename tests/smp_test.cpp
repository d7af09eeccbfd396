// SMP machine tests: DVM broadcast shootdown across cores, per-core ASID
// residency of the LightZone domain tables, deterministic totals under the
// multi-threaded scheduler, and the Status-based Table-2 API error paths.
#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lightzone/api.h"
#include "lightzone/gate.h"
#include "sim/machine.h"
#include "workloads/microbench.h"

namespace lz::core {
namespace {

using sim::CostKind;
using sim::Machine;

mem::TlbEntry make_entry(u64 vpage, u16 asid, u16 vmid) {
  mem::TlbEntry e;
  e.valid = true;
  e.vpage = vpage;
  e.asid = asid;
  e.vmid = vmid;
  e.ppage = 0x1000;
  e.ipa_page = 0x1000 >> 12;
  return e;
}

// A stale translation cached on a remote core must die when another core
// issues the broadcast invalidate (TLBI VAE1IS semantics): this is the
// break-before-make obligation the kernel's munmap/mprotect path relies on.
TEST(SmpMachineTest, RemoteCoreShootdownRemovesStaleEntry) {
  Machine machine(arch::Platform::cortex_a55(), /*seed=*/42, /*cores=*/4);
  const u64 vpage = 0x400;
  machine.tlb(3).insert(make_entry(vpage, /*asid=*/7, /*vmid=*/2));
  ASSERT_TRUE(machine.tlb(3).lookup(vpage, 7, 2, 0).has_value());

  {
    Machine::CoreBinding bind(machine, 0);  // initiator is core 0
    machine.tlbi_va_is(vpage, /*asid=*/7, /*vmid=*/2);
  }

  EXPECT_FALSE(machine.tlb(3).lookup(vpage, 7, 2, 0).has_value());
  // The initiating core pays the interconnect cost; the victim pays nothing.
  EXPECT_GT(machine.account(0).of(CostKind::kTlbi), 0u);
  EXPECT_EQ(machine.account(3).of(CostKind::kTlbi), 0u);
}

TEST(SmpMachineTest, BroadcastCostScalesWithCoreCount) {
  const auto& plat = arch::Platform::cortex_a55();
  Machine m2(plat, 42, 2), m4(plat, 42, 4);
  m2.tlbi_all_is();
  m4.tlbi_all_is();
  const Cycles c2 = m2.account(0).of(CostKind::kTlbi);
  const Cycles c4 = m4.account(0).of(CostKind::kTlbi);
  EXPECT_EQ(c2, plat.dvm_bcast_base + plat.dvm_bcast_per_core);
  EXPECT_EQ(c4, plat.dvm_bcast_base + 3 * plat.dvm_bcast_per_core);
}

// Single-core machines must keep their calibrated Table 4/5 numbers: the
// "broadcast" degenerates to the local invalidate at zero extra cost.
TEST(SmpMachineTest, SingleCoreBroadcastIsFree) {
  Machine machine(arch::Platform::cortex_a55(), 42, 1);
  machine.tlb(0).insert(make_entry(0x400, 1, 1));
  machine.tlbi_va_is(0x400, /*asid=*/1, /*vmid=*/1);
  EXPECT_FALSE(machine.tlb(0).lookup(0x400, 1, 1, 0).has_value());
  EXPECT_EQ(machine.account(0).of(CostKind::kTlbi), 0u);
}

TEST(SmpSchedulerTest, SubmitRoundRobinsAcrossCores) {
  Env env(Env::Options().platform(arch::Platform::cortex_a55()).cores(3));
  auto& kern = env.kern();
  std::vector<unsigned> placed;
  for (int i = 0; i < 6; ++i) {
    placed.push_back(kern.submit([](unsigned) {}));
  }
  EXPECT_EQ(placed, (std::vector<unsigned>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(kern.queued_tasks(), 6u);
  kern.schedule();
  EXPECT_EQ(kern.queued_tasks(), 0u);
}

// Two worker threads charging disjoint per-core work must produce the same
// machine total on every run: the per-core accounts are only ever touched
// by their owning thread and addition over the counters commutes.
TEST(SmpSchedulerTest, DeterministicTotalsUnderTwoThreads) {
  const auto run = []() -> Cycles {
    Env env(Env::Options().platform(arch::Platform::cortex_a55()).cores(2));
    auto& machine = *env.machine;
    for (unsigned w = 0; w < 2; ++w) {
      env.kern().run_on(w, [&machine, w](unsigned core_id) {
        EXPECT_EQ(core_id, w);
        for (int i = 0; i < 5000; ++i) {
          machine.charge(CostKind::kWorkload, 10 + core_id);
        }
      });
    }
    env.kern().schedule();
    return machine.cycles();
  };
  const Cycles a = run();
  const Cycles b = run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, Cycles{5000} * 10 + Cycles{5000} * 11);
}

// The SMP Table-5 program: each core runs its own LightZone process with
// per-page-table ASIDs, so gate switches stay TLB-resident per core — high
// hit rates on every core, none of them polluted by the neighbours.
TEST(SmpSchedulerTest, PerCoreAsidResidencyUnderConcurrentSwitching) {
  const auto stats = workload::lz_switch_avg_cycles_smp(
      arch::Platform::cortex_a55(), workload::Placement::kHost, /*cores=*/2,
      /*domains=*/8, /*iters=*/600);
  ASSERT_EQ(stats.size(), 2u);
  for (const auto& s : stats) {
    EXPECT_GT(s.avg_cycles, 0.0);
    EXPECT_GT(s.lookups, 0u);
    // Warmed gates + ASID tagging: the switch loop should hit far more
    // often than it misses on its own core's TLB.
    EXPECT_GT(s.hit_rate, 0.5);
  }
  // And deterministically so.
  const auto again = workload::lz_switch_avg_cycles_smp(
      arch::Platform::cortex_a55(), workload::Placement::kHost, 2, 8, 600);
  for (unsigned c = 0; c < 2; ++c) {
    EXPECT_DOUBLE_EQ(stats[c].avg_cycles, again[c].avg_cycles);
    EXPECT_EQ(stats[c].lookups, again[c].lookups);
  }
}

class StatusApiTest : public ::testing::Test {
 protected:
  StatusApiTest()
      : env(Env::Options().platform(arch::Platform::cortex_a55())),
        proc(env.new_process()),
        lz(LzProc::enter(*env.module, proc, /*allow_scalable=*/true,
                         /*insn_san=*/1)) {}

  Env env;
  kernel::Process& proc;
  LzProc lz;
};

TEST_F(StatusApiTest, ProtWithDeadPgtReportsNoPgt) {
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa, kPageSize, /*pgt=*/7, kLzRead).errc(),
            Errc::kNoPgt);
  EXPECT_EQ(lz.lz_free(7).errc(), Errc::kNoPgt);
  EXPECT_EQ(lz.lz_map_gate_pgt(/*pgt=*/7, /*gate=*/0).errc(), Errc::kNoPgt);
}

TEST_F(StatusApiTest, ProtValidatesTheRange) {
  const int pgt = lz.lz_alloc().value();
  // Unaligned and empty ranges.
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa + 1, kPageSize, pgt, kLzRead).errc(),
            Errc::kBadRange);
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa, 0, pgt, kLzRead).errc(),
            Errc::kBadRange);
  // A range already owned by another domain cannot be re-attached.
  ASSERT_TRUE(lz.lz_prot(Env::kHeapVa, kPageSize, pgt, kLzRead).is_ok());
  const int other = lz.lz_alloc().value();
  EXPECT_EQ(lz.lz_prot(Env::kHeapVa, kPageSize, other, kLzRead).errc(),
            Errc::kBadRange);
}

TEST_F(StatusApiTest, GateIdsAreValidated) {
  const int pgt = lz.lz_alloc().value();
  const int bad = static_cast<int>(lz.ctx().opts().max_gates);
  EXPECT_EQ(lz.lz_map_gate_pgt(pgt, bad).errc(), Errc::kBadGate);
  EXPECT_EQ(lz.lz_map_gate_pgt(pgt, -1).errc(), Errc::kBadGate);
  EXPECT_EQ(lz.lz_set_gate_entry(bad, Env::kCodeVa).errc(), Errc::kBadGate);
}

TEST_F(StatusApiTest, SwitchThroughUnregisteredGateReportsNoGate) {
  lz.enter_world();
  // Gate 5 exists but has neither entry nor table: kNoGate.
  const auto r = lz.lz_switch_to_ttbr_gate(5);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().errc(), Errc::kNoGate);
  // Out-of-range id: kBadGate.
  const auto r2 = lz.lz_switch_to_ttbr_gate(
      static_cast<int>(lz.ctx().opts().max_gates));
  ASSERT_FALSE(r2.is_ok());
  EXPECT_EQ(r2.status().errc(), Errc::kBadGate);
  lz.exit_world();
}

TEST_F(StatusApiTest, Table2ShimsSpeakErrno) {
  EXPECT_EQ(table2::lz_alloc(lz), 1);  // pgt ids start at 1 (0 = default)
  EXPECT_EQ(table2::lz_prot(lz, Env::kHeapVa, kPageSize, 1, kLzRead), 0);
  EXPECT_EQ(table2::lz_free(lz, 1), 0);
  // Errors arrive as the classic negative errnos.
  EXPECT_EQ(table2::lz_free(lz, 99), -22);
  EXPECT_EQ(table2::lz_prot(lz, Env::kHeapVa + 1, kPageSize, 0, kLzRead),
            -22);
  EXPECT_EQ(table2::lz_map_gate_pgt(lz, 0, 100000), -22);
  EXPECT_EQ(table2::lz_set_gate_entry(lz, 100000, Env::kCodeVa), -22);
}

// Each TLB event is counted once, in its core's Tlb, while lookups, lockless
// hit commits and remote DVM invalidations race across four core threads:
// every sim.coreK.tlb.* name reads core K's counters exactly, and every
// mem.tlb.* name is their sum.
TEST(SmpObsTest, PerCoreTlbCountsStayExactUnderConcurrency) {
  constexpr unsigned kCores = 4;
  constexpr int kRounds = 400;
  constexpr int kTlbiEvery = 10;
  const obs::Snapshot before = obs::registry().snapshot();
  Machine machine(arch::Platform::cortex_a55(), /*seed=*/42, kCores);
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kCores; ++k) {
    threads.emplace_back([&machine, k] {
      Machine::CoreBinding bind(machine, k);
      mem::Tlb& tlb = machine.tlb(k);
      const u16 asid = static_cast<u16>(k + 1);
      for (int i = 0; i < kRounds; ++i) {
        const u64 vpage = 0x400 + static_cast<u64>(i % 8);
        if (!tlb.lookup(vpage, asid, /*vmid=*/0, 0)) {
          tlb.insert(make_entry(vpage, asid, /*vmid=*/0));
        }
        tlb.commit_l1_hits(1);  // the L0 path's batched credit
        if (i % kTlbiEvery == 0) machine.tlbi_va_is(vpage, asid, /*vmid=*/0);
      }
    });
  }
  for (auto& t : threads) t.join();

  const obs::Snapshot moved =
      obs::Registry::delta(before, obs::registry().snapshot());
  const auto count = [&moved](const std::string& name) {
    for (const auto& [n, v] : moved) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing snapshot entry " << name;
    return u64{0};
  };
  mem::TlbStats sum;
  for (unsigned k = 0; k < kCores; ++k) {
    const mem::TlbStats s = machine.tlb(k).stats();
    const std::string core = "sim.core" + std::to_string(k) + ".tlb.";
    EXPECT_EQ(count(core + "l1_hit"), s.l1_hits) << core;
    EXPECT_EQ(count(core + "l2_hit"), s.l2_hits) << core;
    EXPECT_EQ(count(core + "miss"), s.misses) << core;
    EXPECT_EQ(count(core + "invalidation"), s.invalidations) << core;
    EXPECT_EQ(s.lookups(), 2u * kRounds) << core;  // lookups + commits
    // Every broadcast, from any core, reaches every TLB once.
    EXPECT_EQ(s.invalidations, u64{kCores} * (kRounds / kTlbiEvery)) << core;
    sum.l1_hits += s.l1_hits;
    sum.l2_hits += s.l2_hits;
    sum.misses += s.misses;
    sum.invalidations += s.invalidations;
  }
  EXPECT_EQ(count("mem.tlb.l1_hit"), sum.l1_hits);
  EXPECT_EQ(count("mem.tlb.l2_hit"), sum.l2_hits);
  EXPECT_EQ(count("mem.tlb.miss"), sum.misses);
  EXPECT_EQ(count("mem.tlb.invalidation"), sum.invalidations);
  EXPECT_EQ(sum.invalidations,
            u64{kCores} * kCores * (kRounds / kTlbiEvery));
}

// Each core's account has one writer, its bound thread, so a charge is a
// load and a store. Four core threads charge at once, each DVM broadcast
// charging its initiator, and read the derived ledger as they go: every
// account must come out exact, each thread's ledger reads must never go
// backwards, and the ledger must equal the accounts' sum.
TEST(SmpObsTest, CycleAccountsStayExactUnderConcurrency) {
  constexpr unsigned kCores = 4;
  constexpr u64 kRounds = 2000;
  constexpr u64 kTlbiEvery = 50;
  const auto kind = [](CostKind k) { return static_cast<std::size_t>(k); };
  const obs::CycleLedger& ledger = obs::cycle_ledger();
  Machine machine(arch::Platform::cortex_a55(), /*seed=*/42, kCores);
  const u64 total_before = ledger.total();
  std::array<u64, sim::kNumCostKinds> before{};
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) before[k] = ledger.of(k);

  std::array<bool, kCores> monotone{};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kCores; ++c) {
    threads.emplace_back([&machine, &ledger, &monotone, c] {
      Machine::CoreBinding bind(machine, c);
      bool ok = true;
      u64 last = ledger.total();
      for (u64 i = 0; i < kRounds; ++i) {
        machine.charge(CostKind::kInsn, c + 1);
        machine.account().charge(CostKind::kMem, 2);
        if (i % kTlbiEvery == 0) {
          machine.tlbi_va_is(0x400 + i, static_cast<u16>(c + 1), /*vmid=*/0);
        }
        const u64 now = ledger.total();
        ok &= now >= last;
        last = now;
      }
      monotone[c] = ok;
    });
  }
  for (auto& t : threads) t.join();

  const arch::Platform& plat = machine.platform();
  const u64 dvm = (kRounds / kTlbiEvery) *
                  (plat.dvm_bcast_base + (kCores - 1) * plat.dvm_bcast_per_core);
  u64 sum = 0;
  std::array<u64, sim::kNumCostKinds> by_kind{};
  for (unsigned c = 0; c < kCores; ++c) {
    const sim::CycleAccount& a = machine.account(c);
    EXPECT_TRUE(monotone[c]) << "core " << c;
    EXPECT_EQ(a.of(CostKind::kInsn), kRounds * (c + 1)) << "core " << c;
    EXPECT_EQ(a.of(CostKind::kMem), 2 * kRounds) << "core " << c;
    EXPECT_EQ(a.of(CostKind::kTlbi), dvm) << "core " << c;
    EXPECT_EQ(a.total(), kRounds * (c + 1) + 2 * kRounds + dvm) << "core " << c;
    sum += a.total();
    for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
      by_kind[k] += a.of(static_cast<CostKind>(k));
    }
  }
  EXPECT_EQ(machine.cycles(), sum);
  EXPECT_EQ(ledger.total() - total_before, sum);
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    EXPECT_EQ(ledger.of(k) - before[k], by_kind[k]) << sim::to_string(
        static_cast<CostKind>(k));
  }
  EXPECT_EQ(by_kind[kind(CostKind::kTlbi)], kCores * dvm);
}

// Back-to-back scenarios in one binary must not bleed counters into each
// other's reports: Env snapshots the process-global registry on
// construction and counters_delta() reports only what moved since.
TEST(SmpObsTest, CountersDeltaIsScopedPerEnv) {
  const auto tlb_lookups = [](const obs::Snapshot& snap) {
    u64 n = 0;
    for (const auto& [name, value] : snap) {
      if (name == "mem.tlb.l1_hit" || name == "mem.tlb.l2_hit" ||
          name == "mem.tlb.miss") {
        n += value;
      }
    }
    return n;
  };
  const auto work = [](Env& env) {
    auto& proc = env.new_process();
    LZ_CHECK_OK(env.kern().populate_page(
        proc, Env::kHeapVa, kernel::kProtRead | kernel::kProtWrite));
    env.kern().load_ctx(proc, env.machine->core());
    env.machine->core().pstate().el = arch::ExceptionLevel::kEl0;
    for (int i = 0; i < 64; ++i) {
      (void)env.machine->core().mem_read(Env::kHeapVa, 8);
    }
  };
  Env e1(Env::Options().platform(arch::Platform::cortex_a55()));
  work(e1);
  const u64 n1 = tlb_lookups(e1.counters_delta());
  EXPECT_GT(n1, 0u);

  Env e2(Env::Options().platform(arch::Platform::cortex_a55()));
  work(e2);
  // e2's delta covers e2's work only — not the accumulated process totals.
  EXPECT_EQ(tlb_lookups(e2.counters_delta()), n1);
  // And e1's delta now includes e2's work (shared global registry), which
  // is exactly why scenarios must read their own Env's delta.
  EXPECT_GE(tlb_lookups(e1.counters_delta()), 2 * n1);
}

// The stub and gate-code images are assembled once per host process (the
// gate code once per max_gates) and shared by every VM: four threads, each
// driving its own Env, enter processes at once over three gate counts, so
// the first use of an image races other threads asking for it. Every VM's
// stub and gate pages must hold exactly what build_stub_page and
// build_gate_code assemble, zero-padded to the page or gate stride.
TEST(SmpLightZoneTest, ConcurrentEntersShareTheGateCodeImage) {
  constexpr unsigned kThreads = 4;
  constexpr std::array<u32, 3> kMaxGates = {24, 256, 8};
  constexpr unsigned kProcsPerThread = 6;
  std::vector<std::unique_ptr<Env>> envs;
  for (unsigned k = 0; k < kThreads; ++k) {
    envs.push_back(std::make_unique<Env>(
        Env::Options().platform(arch::Platform::cortex_a55())));
  }
  std::vector<std::vector<LzProc>> procs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      start.arrive_and_wait();
      for (unsigned i = 0; i < kProcsPerThread; ++i) {
        LzOptions opts;
        opts.max_gates = kMaxGates[(k + i) % kMaxGates.size()];
        procs[k].push_back(LzProc::enter(*envs[k]->module,
                                         envs[k]->new_process(), true, 1,
                                         &opts));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto assembled = [](sim::Asm code, u64 bytes) {
    std::vector<u32> words = code.resolve();
    words.resize(bytes / 4);
    return words;
  };
  const std::vector<u32> stub = assembled(build_stub_page(), kPageSize);
  for (unsigned k = 0; k < kThreads; ++k) {
    auto& pm = envs[k]->machine->mem();
    for (LzProc& lz : procs[k]) {
      const auto installed = [&](VirtAddr va, u64 bytes) {
        const auto walk = lz.ctx().upper->lookup(page_floor(va));
        EXPECT_TRUE(walk.ok);
        std::vector<u32> words(bytes / 4);
        pm.read_bytes(
            lz.ctx().pa_of(page_floor(walk.out_addr)) + page_offset(va),
            words.data(), bytes);
        return words;
      };
      const u32 max_gates = lz.ctx().opts().max_gates;
      ASSERT_EQ(installed(UpperLayout::kStubVa, kPageSize), stub)
          << "thread " << k << " max_gates " << max_gates;
      for (u32 g = 0; g < max_gates; ++g) {
        ASSERT_EQ(installed(UpperLayout::gate_va(g), UpperLayout::kGateStride),
                  assembled(build_gate_code(g, max_gates),
                            UpperLayout::kGateStride))
            << "thread " << k << " max_gates " << max_gates << " gate " << g;
      }
    }
  }
}

}  // namespace
}  // namespace lz::core
