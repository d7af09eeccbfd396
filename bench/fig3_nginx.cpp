// Figure 3: average throughput of original, LightZone-PAN, LightZone-TTBR,
// Watchpoint, and simulated-lwC Nginx (1 worker, 1 KB HTTPS file) on
// Carmel Host/Guest and Cortex Host/Guest, across client concurrency —
// plus the §9.1 memory-overhead numbers. `--backend B` swaps the rows for
// vanilla + B; `--cores N` runs N workers on an N-core Cortex-A55 host.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "workloads/httpd.h"

namespace {

using namespace lz;
using namespace lz::workload;

struct Combo {
  const arch::Platform* plat;
  Placement placement;
  const char* label;
  // Paper throughput losses of the default rows after vanilla: PAN, TTBR,
  // Watchpoint, lwC.
  double paper[4];
};

const Combo kCombos[] = {
    {&arch::Platform::carmel(), Placement::kHost, "Carmel Host",
     {1.35, 5.65, 45.46, 59.03}},
    {&arch::Platform::carmel(), Placement::kGuest, "Carmel Guest",
     {25.24, 26.91, 23.58, 26.65}},
    {&arch::Platform::cortex_a55(), Placement::kHost, "Cortex Host",
     {0.91, 3.01, 6.14, 13.71}},
    {&arch::Platform::cortex_a55(), Placement::kGuest, "Cortex Guest",
     {1.98, 2.03, 6.04, 21.24}},
};
const Combo kSmpCombo = {&arch::Platform::cortex_a55(), Placement::kHost,
                         "Cortex Host", {}};
constexpr int kConcurrency[] = {1, 2, 4, 8, 16, 32, 64};

std::string slug_of(const char* label) {
  std::string s(label);
  for (char& c : s) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
  return s;
}

// One sweep: every combo x every row, each row a `workers`-worker server.
// Results keys: `<combo>.<row>.*` by default, `backend.<B>.<combo>.*`
// under --backend (the backend's own row unlabelled), and
// `smp.<combo>.<row>.*` with per-core cycles under --cores.
void print_fig3(core::BackendKind backend, unsigned cores) {
  const bool by_backend = backend != core::BackendKind::kTtbrPan;
  const unsigned workers = cores > 0 ? cores : 1;
  const std::vector<Row> rows = figure_rows(backend);
  std::vector<Combo> combos(std::begin(kCombos), std::end(kCombos));
  if (cores > 0) combos = {kSmpCombo};

  std::printf(
      "Figure 3: Nginx throughput (requests/s), %u worker(s), 1 KB HTTPS "
      "file,\n10 runs averaged by construction (deterministic model)\n\n",
      workers);
  for (const auto& combo : combos) {
    HttpdParams params = HttpdParams::defaults(*combo.plat);
    params.requests = cores > 0 ? 800 : 1500;

    std::printf("%s\n  %-15s", combo.label, "concurrency:");
    for (const int c : kConcurrency) std::printf(" %8d", c);
    std::printf(" %10s\n", "loss");

    const std::string slug = slug_of(combo.label);
    double base_rps = 0;
    for (std::size_t m = 0; m < rows.size(); ++m) {
      const AppConfig config{combo.plat, combo.placement, rows[m], 42,
                             workers};
      const auto result = run_httpd(config, params);
      std::printf("  %-15s", rows[m].label);
      for (const int c : kConcurrency) {
        std::printf(" %8.0f", httpd_total_rps(result, params, config, c));
      }
      const double sat = httpd_total_rps(result, params, config, 64);
      // Per-tenant rps sample for the metrics plane: one saturation-rps
      // sample per worker per combo/row.
      if (obs::metrics().enabled()) {
        const int share = std::max(1, 64 / static_cast<int>(workers));
        for (unsigned w = 0; w < workers; ++w) {
          obs::LabelSet labels;
          labels.set(obs::LabelKey::kTenant, httpd_tenant(w, workers));
          obs::metrics()
              .histogram_family("httpd.rps")
              .with(labels)
              .record(static_cast<u64>(
                  httpd_throughput_rps(result[w], params, config, share)));
        }
      }
      std::string key = slug + "." + rows[m].label;
      if (cores > 0) {
        key = "smp." + key;
      } else if (by_backend) {
        key = "backend." + std::string(core::to_string(backend)) + "." +
              slug + (m == 0 ? ".vanilla" : "");
      }
      if (cores > 0) {
        bench::record(key + ".total_rps", sat);
        for (unsigned w = 0; w < workers; ++w) {
          bench::record(key + ".core" + std::to_string(w) + ".cycles_per_req",
                        result[w].cycles_per_request);
        }
      } else {
        bench::record(key + ".rps_at_64", sat);
      }
      if (m == 0) {
        base_rps = sat;
        std::printf(" %10s\n", "(base)");
        continue;
      }
      const double loss = 100.0 * (base_rps - sat) / base_rps;
      if (by_backend || cores > 0) {
        std::printf("  %5.2f%%\n", loss);
      } else {
        std::printf("  %5.2f%% (paper %.2f%%)\n", loss, combo.paper[m - 1]);
      }
      if (cores == 0) bench::record(key + ".loss_pct", loss);
    }
    std::printf("\n");
  }
  if (by_backend || cores > 0) return;

  // §9.1 memory overheads.
  HttpdParams params = HttpdParams::defaults(arch::Platform::carmel());
  params.requests = 50;
  const auto pan = run_httpd(
      {&arch::Platform::carmel(), Placement::kHost, kLzPan, 42}, params)[0];
  const auto ttbr = run_httpd(
      {&arch::Platform::carmel(), Placement::kHost, kLzTtbr, 42}, params)[0];
  // Baseline Nginx: 21.7 MB (paper). Fragmentation: one page per key.
  const double base_mb = 21.7;
  const double frag_pct =
      100.0 * (pan.key_pages * kPageSize) / (base_mb * 1024 * 1024) ;
  std::printf(
      "Memory overheads (Section 9.1, paper: fragmentation 1.6%%, page "
      "tables 1.2%% PAN / 22.2%% TTBR):\n"
      "  key-page fragmentation %.1f%%; page tables: PAN %.1f%% (%llu "
      "pages), TTBR %.1f%% (%llu pages)\n\n",
      frag_pct,
      100.0 * (pan.isolation_table_pages * kPageSize) /
          (base_mb * 1024 * 1024),
      static_cast<unsigned long long>(pan.isolation_table_pages),
      100.0 * (ttbr.isolation_table_pages * kPageSize) /
          (base_mb * 1024 * 1024),
      static_cast<unsigned long long>(ttbr.isolation_table_pages));
  bench::record("memory.key_page_fragmentation_pct", frag_pct);
  bench::record("memory.pan_table_pages", pan.isolation_table_pages);
  bench::record("memory.ttbr_table_pages", ttbr.isolation_table_pages);
}

void BM_HttpdRequest(benchmark::State& state) {
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 100;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         kRows[state.range(0)], 42};
  double cycles = 0;
  for (auto _ : state) {
    cycles = run_httpd(config, params)[0].cycles_per_request;
  }
  state.counters["sim_cycles_per_request"] = cycles;
}
BENCHMARK(BM_HttpdRequest)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  lz::bench::ObsSession obs("fig3_nginx", &argc, argv);
  print_fig3(obs.backend(), obs.cores());
  obs.finish();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
