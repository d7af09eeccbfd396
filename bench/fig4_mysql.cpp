// Figure 4: average throughput of original, LightZone-PAN, LightZone-TTBR,
// Watchpoint, and simulated-lwC MySQL (sysbench OLTP read-write, 10 tables
// x 10,000 records) across client thread counts on Carmel Host/Guest and
// Cortex Host/Guest — plus the §9.2 memory-overhead numbers. `--backend B`
// swaps the rows for vanilla + B.
#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads/dbms.h"

namespace {

using namespace lz;
using namespace lz::workload;

struct Combo {
  const arch::Platform* plat;
  Placement placement;
  const char* label;
  // Paper losses of the default rows after vanilla: PAN, TTBR, Watchpoint,
  // lwC (approximate; §9.2 text).
  double paper[4];
};

const Combo kCombos[] = {
    {&arch::Platform::carmel(), Placement::kHost, "Carmel Host",
     {0.1, 3.79, 8.35, 11.80}},
    {&arch::Platform::carmel(), Placement::kGuest, "Carmel Guest",
     {10.0, 10.0, 10.0, 10.0}},
    {&arch::Platform::cortex_a55(), Placement::kHost, "Cortex Host",
     {0.9, 2.84, 2.34, 12.76}},
    {&arch::Platform::cortex_a55(), Placement::kGuest, "Cortex Guest",
     {0.9, 2.35, 1.18, 5.47}},
};

std::string slug_of(const char* label) {
  std::string s(label);
  for (char& c : s) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  return s;
}

// `--backend B` swaps the rows for vanilla + B, namespaced
// `backend.<B>.<combo>.*` with the backend's own row unlabelled.
void print_fig4(core::BackendKind backend) {
  const bool by_backend = backend != core::BackendKind::kTtbrPan;
  const std::vector<Row> rows = figure_rows(backend);
  std::printf(
      "Figure 4: MySQL throughput (transactions/s), sysbench OLTP "
      "read-write,\n10 tables x 10,000 records\n\n");
  for (const auto& combo : kCombos) {
    DbmsParams params = DbmsParams::defaults(*combo.plat);
    params.transactions = 600;
    const int cores = combo.plat == &arch::Platform::carmel() ? 8 : 4;

    std::printf("%s\n  %-15s", combo.label, "threads:");
    for (const int t : {1, 2, 4, 8, 16, 32}) std::printf(" %8d", t);
    std::printf(" %10s\n", "loss");

    double base_tps = 0;
    for (std::size_t m = 0; m < rows.size(); ++m) {
      const AppConfig config{combo.plat, combo.placement, rows[m], 42};
      const auto result = run_dbms(config, params);
      std::printf("  %-15s", rows[m].label);
      for (const int t : {1, 2, 4, 8, 16, 32}) {
        std::printf(" %8.0f", dbms_tps(result, params, config, t, cores));
      }
      const double sat = dbms_tps(result, params, config, 32, cores);
      std::string key = slug_of(combo.label) + "." + rows[m].label;
      if (by_backend) {
        key = "backend." + std::string(core::to_string(backend)) + "." +
              slug_of(combo.label) + (m == 0 ? ".vanilla" : "");
      }
      bench::record(key + ".tps_at_32", sat);
      if (m == 0) {
        base_tps = sat;
        std::printf(" %10s\n", "(base)");
        continue;
      }
      const double loss = 100.0 * (base_tps - sat) / base_tps;
      if (by_backend) {
        std::printf("  %5.2f%%\n", loss);
      } else {
        std::printf("  %5.2f%% (paper ~%.2f%%)\n", loss, combo.paper[m - 1]);
      }
      bench::record(key + ".loss_pct", loss);
    }
    std::printf("\n");
  }
  if (by_backend) return;

  // §9.2 memory overheads (paper: app 13.3%, page tables 0.2% PAN / 9.8%
  // scalable; baseline MySQL 512.9 MB).
  DbmsParams params = DbmsParams::defaults(arch::Platform::carmel());
  params.transactions = 30;
  const auto pan =
      run_dbms({&arch::Platform::carmel(), Placement::kHost, kLzPan, 42},
               params);
  const auto ttbr =
      run_dbms({&arch::Platform::carmel(), Placement::kHost, kLzTtbr, 42},
               params);
  std::printf(
      "Memory overheads (Section 9.2): isolation page tables PAN %llu "
      "pages, TTBR %llu pages\n(paper: 0.2%% vs 9.8%% of a 512.9 MB "
      "baseline; the model hosts %d stack domains + 1 data domain)\n\n",
      static_cast<unsigned long long>(pan.isolation_table_pages),
      static_cast<unsigned long long>(ttbr.isolation_table_pages),
      params.connections);
  bench::record("memory.pan_table_pages", pan.isolation_table_pages);
  bench::record("memory.ttbr_table_pages", ttbr.isolation_table_pages);
}

void BM_DbmsTxn(benchmark::State& state) {
  DbmsParams params = DbmsParams::defaults(arch::Platform::cortex_a55());
  params.transactions = 60;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         kRows[state.range(0)], 42};
  double cycles = 0;
  for (auto _ : state) {
    cycles = run_dbms(config, params).cpu_cycles_per_txn;
  }
  state.counters["sim_cycles_per_txn"] = cycles;
}
BENCHMARK(BM_DbmsTxn)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("fig4_mysql", &argc, argv);
  if (obs.cores() > 0) return lz::bench::reject_cores("fig4_mysql");
  print_fig4(obs.backend());
  obs.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
