#include "workloads/nvm.h"

#include <cstring>

#include "support/rng.h"

namespace lz::workload {

namespace {
// Each buffer is represented in simulated memory by one resident page of
// its string content (the buffer itself is huge-page mapped; the
// fixed-complexity search cost is charged per the paper's measurement).
constexpr const char kHaystack[] =
    "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod "
    "tempor incididunt ut labore et dolore magna aliqua";
constexpr const char kNeedle[] = "dolore";
}  // namespace

NvmResult run_nvm(const AppConfig& config, const NvmParams& params) {
  LZ_CHECK(config.workers == 1);  // one process
  AppDriver driver(config);
  auto& machine = driver.machine();
  auto& core = machine.core();
  Rng rng(config.seed);

  const VirtAddr arena = core::Env::kHeapVa;
  driver.setup_domains(arena, kPageSize, params.buffers);

  // Fill each buffer's resident page with string data.
  for (int b = 0; b < params.buffers; ++b) {
    driver.env().kern().copy_to_user(driver.proc(),
                                     arena + static_cast<u64>(b) * kPageSize,
                                     kHaystack, sizeof(kHaystack));
  }

  u64 matches = 0;
  const Cycles start = machine.cycles();
  for (int i = 0; i < params.searches; ++i) {
    const int b = static_cast<int>(rng.below(params.buffers));
    const VirtAddr va = arena + static_cast<u64>(b) * kPageSize;

    driver.enter_domain(b);
    // Touch the buffer through the translation machinery and run a real
    // substring search over the resident content.
    char window[sizeof(kHaystack)];
    for (u64 off = 0; off < sizeof(kHaystack); off += 8) {
      const auto r = core.mem_read(va + off, 8);
      LZ_CHECK(r.ok);
      std::memcpy(window + off, &r.value,
                  std::min<u64>(8, sizeof(kHaystack) - off));
    }
    window[sizeof(kHaystack) - 1] = '\0';
    if (std::strstr(window, kNeedle) != nullptr) ++matches;

    // Fixed-complexity search cost (paper: 7,000-8,500 cycles per search)
    // minus the accesses already charged above.
    driver.charge_app(rng.range(params.search_cycles_min,
                                params.search_cycles_max));
    driver.charge_tlb_misses(params.tlb_misses_per_search,
                             /*huge_pages=*/true);
    driver.exit_domain();
  }

  NvmResult result;
  result.cycles_per_search =
      static_cast<double>(machine.cycles() - start) / params.searches;
  result.matches = matches;
  result.isolation_table_pages = driver.isolation_table_pages();
  return result;
}

double nvm_overhead_pct(const NvmResult& protected_run,
                        const NvmResult& baseline_run) {
  return 100.0 *
         (protected_run.cycles_per_search - baseline_run.cycles_per_search) /
         baseline_run.cycles_per_search;
}

}  // namespace lz::workload
