// Table 5: average cycles per switch (with the secure call gate) between
// distinct numbers of protected domains — LightZone vs the Watchpoint
// baseline on Carmel host, Carmel guest, and Cortex-A55 — plus the lwC
// baseline and the ASID-tagging ablation (§4.1.2).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads/microbench.h"

namespace {

using namespace lz;
using namespace lz::workload;

constexpr int kIters = 6000;

void print_row_lz(const char* label, const char* slug,
                  const arch::Platform& plat, Placement placement) {
  std::printf("  %-13s %-11s", label, "LightZone");
  for (const int domains : {1, 2, 3, 32, 64, 128}) {
    const double avg = lz_switch_avg_cycles(plat, placement, domains, kIters);
    std::printf(" %8.0f", avg);
    bench::record(std::string(slug) + ".lz." + std::to_string(domains), avg);
  }
  std::printf("\n");
}

void print_row_wp(const char* label, const char* slug,
                  const arch::Platform& plat, Placement placement) {
  std::printf("  %-13s %-11s", label, "Watchpoint");
  for (const int domains : {1, 2, 3}) {
    const double avg =
        watchpoint_switch_avg_cycles(plat, placement, domains, kIters / 3);
    std::printf(" %8.0f", avg);
    bench::record(std::string(slug) + ".wp." + std::to_string(domains), avg);
  }
  std::printf(" %8s %8s %8s\n", "-", "-", "-");
}

void print_row_lwc(const char* label, const char* slug,
                   const arch::Platform& plat, Placement placement) {
  std::printf("  %-13s %-11s", label, "lwC (sim)");
  for (const int domains : {1, 2, 3, 32, 64, 128}) {
    const double avg =
        lwc_switch_avg_cycles(plat, placement, domains, kIters / 3);
    std::printf(" %8.0f", avg);
    bench::record(std::string(slug) + ".lwc." + std::to_string(domains), avg);
  }
  std::printf("\n");
}

// Table-wide TLB effectiveness: the per-page-table ASID design means gate
// switches should keep a high hit rate; computed from the obs counters
// accumulated while the rows above executed.
void print_tlb_hit_rate() {
  const obs::Snapshot snap = obs::registry().snapshot();
  const auto val = [&snap](std::string_view name) {
    for (const auto& [n, v] : snap) {
      if (n == name) return v;
    }
    return u64{0};
  };
  const u64 hits = val("mem.tlb.l1_hit") + val("mem.tlb.l2_hit");
  const u64 lookups = hits + val("mem.tlb.miss");
  const double rate = lookups == 0 ? 0.0
                                   : 100.0 * static_cast<double>(hits) /
                                         static_cast<double>(lookups);
  std::printf("TLB across the table: %llu lookups, %.2f%% hit rate, %llu "
              "invalidations\n\n",
              static_cast<unsigned long long>(lookups), rate,
              static_cast<unsigned long long>(val("mem.tlb.invalidation")));
  bench::record("tlb.lookups", lookups);
  bench::record("tlb.hit_rate_pct", rate);
  bench::record("tlb.invalidations", val("mem.tlb.invalidation"));
}

void print_table5() {
  std::printf(
      "Table 5: average cycles of switches (with secure call gate) between\n"
      "distinct numbers of protected domains\n\n");
  std::printf("  %-13s %-11s %8s %8s %8s %8s %8s %8s\n", "", "", "1 (PAN)",
              "2", "3", "32", "64", "128");

  print_row_wp("Carmel Host", "carmel_host", arch::Platform::carmel(),
               Placement::kHost);
  print_row_lz("Carmel Host", "carmel_host", arch::Platform::carmel(),
               Placement::kHost);
  std::printf("  %-13s paper:     Watchpoint 6759/6787/6944; LightZone "
              "22/477/483/469/485/490\n", "");
  print_row_wp("Carmel Guest", "carmel_guest", arch::Platform::carmel(),
               Placement::kGuest);
  print_row_lz("Carmel Guest", "carmel_guest", arch::Platform::carmel(),
               Placement::kGuest);
  std::printf("  %-13s paper:     Watchpoint 2710/2733/2721; LightZone "
              "22/495/494/484/498/507\n", "");
  print_row_wp("Cortex", "cortex_host", arch::Platform::cortex_a55(),
               Placement::kHost);
  print_row_lz("Cortex", "cortex_host", arch::Platform::cortex_a55(),
               Placement::kHost);
  std::printf("  %-13s paper:     Watchpoint 915/930/927; LightZone "
              "11/59/57/64/74/82\n\n", "");

  std::printf("Extra series (not in the paper's table):\n");
  print_row_lwc("Carmel Host", "carmel_host", arch::Platform::carmel(),
                Placement::kHost);
  print_row_lwc("Cortex", "cortex_host", arch::Platform::cortex_a55(),
                Placement::kHost);

  std::printf(
      "\nAblation: per-page-table ASIDs off (TLB invalidated on every TTBR "
      "switch, Section 4.1.2):\n");
  for (const int domains : {2, 32, 128}) {
    const double tagged = lz_switch_avg_cycles(
        arch::Platform::cortex_a55(), Placement::kHost, domains, kIters);
    const double flushed = lz_switch_avg_cycles(
        arch::Platform::cortex_a55(), Placement::kHost, domains, kIters, 42,
        /*asid_tags=*/false);
    std::printf("  Cortex, %3d domains: %7.0f cycles tagged, %7.0f flushed\n",
                domains, tagged, flushed);
    bench::record("ablation.asid_tagged." + std::to_string(domains), tagged);
    bench::record("ablation.asid_flushed." + std::to_string(domains), flushed);
  }
  std::printf("\n");
  print_tlb_hit_rate();
}

// --cores N: the SMP variant of the Table-5 program — the same random
// switch-and-access loop pinned on every core concurrently, one LightZone
// process (own domains, gates, VMID) per core. Per-core TLB hit rates show
// the per-page-table ASID design staying effective under SMP; totals are
// deterministic because setup is sequential and the streams are disjoint.
void print_table5_smp(unsigned cores) {
  std::printf("Table 5 (SMP): per-core switch cost, %u cores, Cortex-A55 "
              "host\n\n", cores);
  for (const int domains : {2, 32, 128}) {
    const auto stats = lz_switch_avg_cycles_smp(
        arch::Platform::cortex_a55(), Placement::kHost, cores, domains,
        kIters);
    std::printf("  %3d domains:\n", domains);
    for (unsigned c = 0; c < stats.size(); ++c) {
      std::printf("    core %u: %8.0f cycles/switch, %6.2f%% TLB hit rate "
                  "(%llu lookups)\n",
                  c, stats[c].avg_cycles, 100.0 * stats[c].hit_rate,
                  static_cast<unsigned long long>(stats[c].lookups));
      const std::string base = "smp.cortex_host." + std::to_string(domains) +
                               ".core" + std::to_string(c);
      bench::record(base + ".cycles", stats[c].avg_cycles);
      bench::record(base + ".tlb_hit_rate_pct", 100.0 * stats[c].hit_rate);
      bench::record(base + ".tlb_lookups", stats[c].lookups);
    }
  }
  std::printf("\n");
  print_tlb_hit_rate();
}

// --backend B (B != ttbr_pan): the same Table-5 program driven through the
// chosen IsolationBackend's verbs instead of the live module. Watchpoint's
// four DBGW pairs cap it at 16 domains, so its sweep stops there; POE and
// CCA rows also record their mechanism-specific totals (key recycles and
// shootdown pages; GPT walks and delegations) so lz_report can diff the
// cost *structure*, not just the headline average.
void print_backend_row(lz::core::BackendKind kind, const char* label,
                       const char* slug, const arch::Platform& plat,
                       Placement placement,
                       const std::vector<int>& domain_sets) {
  const std::string name = lz::core::to_string(kind);
  std::printf("  %-13s %-11s", label, name.c_str());
  for (const int domains : domain_sets) {
    const auto r =
        backend_switch_avg_cycles(kind, plat, placement, domains, kIters);
    std::printf(" %8.0f", r.avg_cycles);
    const std::string base =
        "backend." + name + "." + slug + "." + std::to_string(domains);
    bench::record(base, r.avg_cycles);
    if (kind == lz::core::BackendKind::kPoe) {
      bench::record(base + ".key_recycles", r.stats.key_recycles);
      bench::record(base + ".shootdown_pages", r.stats.shootdown_pages);
    } else if (kind == lz::core::BackendKind::kCca) {
      bench::record(base + ".gpt_walks", r.stats.gpt_walks);
      bench::record(base + ".delegations", r.stats.delegations);
    }
  }
  std::printf("\n");
}

void print_table5_backend(lz::core::BackendKind kind) {
  const std::vector<int> domain_sets =
      kind == lz::core::BackendKind::kWatchpoint
          ? std::vector<int>{1, 2, 3, 16}
          : std::vector<int>{1, 2, 3, 32, 64, 128};
  std::printf(
      "Table 5 (--backend %s): average cycles per switch-and-access\n\n",
      lz::core::to_string(kind));
  std::printf("  %-13s %-11s", "", "");
  for (const int d : domain_sets) std::printf(" %8d", d);
  std::printf("\n");
  print_backend_row(kind, "Carmel Host", "carmel_host",
                    arch::Platform::carmel(), Placement::kHost, domain_sets);
  print_backend_row(kind, "Carmel Guest", "carmel_guest",
                    arch::Platform::carmel(), Placement::kGuest, domain_sets);
  print_backend_row(kind, "Cortex", "cortex_host",
                    arch::Platform::cortex_a55(), Placement::kHost,
                    domain_sets);
  std::printf("\n");
  print_tlb_hit_rate();
}

// Seed-stability block (v2 reports only): the same 2-domain sweep under
// three TLB replacement seeds. The spread is simulated, so mean/min/median
// are deterministic — a cheap cross-check that the headline Table-5 numbers
// are not an artifact of one lucky replacement sequence.
void print_seed_stability() {
  std::vector<double> per_seed;
  std::printf("Seed stability (Cortex host, 2 domains):");
  for (const u64 seed : {42, 43, 44}) {
    const double avg =
        lz_switch_avg_cycles(arch::Platform::cortex_a55(), Placement::kHost,
                             /*domains=*/2, kIters, seed);
    std::printf(" seed%llu=%.0f", static_cast<unsigned long long>(seed), avg);
    per_seed.push_back(avg);
  }
  std::printf("\n\n");
  bench::record_stats("seed_stability.cortex_host.lz.2", std::move(per_seed));
}

void BM_SwitchSweep(benchmark::State& state) {
  const int domains = static_cast<int>(state.range(0));
  double avg = 0;
  for (auto _ : state) {
    avg = lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                               Placement::kHost, domains, 500);
  }
  state.counters["sim_cycles_per_switch"] = avg;
}
BENCHMARK(BM_SwitchSweep)->Arg(2)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("table5_switch", &argc, argv);
  if (obs.backend() != lz::core::BackendKind::kTtbrPan) {
    // Per-backend mode: the default (ttbr_pan) path below stays untouched
    // so its goldens remain byte-identical.
    print_table5_backend(obs.backend());
  } else if (obs.cores() > 0) {
    print_table5_smp(obs.cores());
  } else {
    print_table5();
    print_seed_stability();
  }
  obs.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
