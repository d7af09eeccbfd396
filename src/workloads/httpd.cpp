#include "workloads/httpd.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "lightzone/api.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "support/rng.h"
#include "workloads/crypto/aes.h"

namespace lz::workload {

namespace {

// Per-tenant request instruments (metrics plane, DESIGN.md §17). Handles
// are resolved once per worker before its request loop — the loop itself
// records through cached pointers (one relaxed add each), and when the
// plane is off the pointers stay null and the loop pays one branch.
struct TenantRequestMetrics {
  obs::Counter* requests = nullptr;
  obs::Histogram* request_cycles = nullptr;

  static TenantRequestMetrics resolve(const std::string& tenant) {
    TenantRequestMetrics m;
    if (!obs::metrics().enabled()) return m;
    obs::LabelSet labels;
    labels.set(obs::LabelKey::kTenant, tenant);
    m.requests = &obs::metrics().counter_family("httpd.requests").with(labels);
    m.request_cycles =
        &obs::metrics().histogram_family("httpd.request_cycles").with(labels);
    return m;
  }
};

// Worker w's request loop, on its own core: `rng` has drawn the worker's
// keys and goes on to draw its response.
HttpdResult serve(AppDriver& driver, const HttpdParams& params, Rng& rng,
                  const std::string& tenant) {
  auto& machine = driver.machine();
  auto& core = machine.core();
  const VirtAddr key_arena = core::Env::kHeapVa;
  u8 response[1024];
  for (auto& b : response) b = static_cast<u8>(rng.next());
  double checksum = 0;

  // Tenant identity for span/profile attribution: the worker's VMID (its
  // LightZone context, if any) and the process ASID.
  const u16 span_vmid = driver.lz_ctx() ? driver.lz_ctx()->vmid : 0;
  const u16 span_asid = driver.proc().asid();
  obs::set_domain_label(span_vmid, span_asid, tenant);
  const auto tenant_metrics = TenantRequestMetrics::resolve(tenant);

  auto& account = machine.account();
  const Cycles start = account.total();
  Cycles req_start = start;
  for (int r = 0; r < params.requests; ++r) {
    const obs::SpanScope request_span(obs::SpanKind::kRequest,
                                      static_cast<u64>(r), span_vmid,
                                      span_asid);
    // New connection: session key set-up in its domain.
    const int key_id = r % params.concurrent_keys;
    machine.charge(sim::CostKind::kDispatch, driver.domain_setup_cost());

    // Network + file syscalls.
    driver.charge_syscalls(params.syscalls_per_request);

    // Function-grained crypto: every call passes the isolation boundary,
    // fetches the key from protected memory, and encrypts its share of
    // the traffic.
    const VirtAddr key_va = key_arena + static_cast<u64>(key_id) * kPageSize;
    for (int c = 0; c < params.gated_crypto_calls; ++c) {
      driver.enter_domain(key_id);
      u8 key[crypto::kAesKeySize];
      const auto lo = core.mem_read(key_va, 8);
      const auto hi = core.mem_read(key_va + 8, 8);
      LZ_CHECK(lo.ok && hi.ok);
      std::memcpy(key, &lo.value, 8);
      std::memcpy(key + 8, &hi.value, 8);
      driver.exit_domain();

      if (c == 0) {
        // One real AES-CBC encryption of the 1 KB response per request;
        // the remaining calls cover handshake records and MACs whose
        // compute lives in app_cycles.
        const auto expanded = crypto::aes_expand_key(key);
        u8 iv[crypto::kAesBlockSize] = {};
        iv[0] = static_cast<u8>(r);
        u8 buf[1024];
        std::memcpy(buf, response, sizeof(buf));
        crypto::aes_cbc_encrypt(expanded, iv, buf, sizeof(buf));
        checksum += buf[0] + buf[512] + buf[1023];
      }
    }

    driver.charge_tlb_misses(params.tlb_misses_per_request);
    driver.charge_app(params.app_cycles_per_request);
    LZ_CHECK(driver.proc().alive());
    if (tenant_metrics.requests != nullptr) {
      const Cycles req_end = account.total();
      tenant_metrics.requests->add();
      tenant_metrics.request_cycles->record(req_end - req_start);
      req_start = req_end;
    }
  }

  HttpdResult result;
  result.cycles_per_request =
      static_cast<double>(account.total() - start) / params.requests;
  result.response_checksum = checksum;
  result.isolation_table_pages = driver.isolation_table_pages();
  result.key_pages = params.concurrent_keys;
  return result;
}

}  // namespace

HttpdParams HttpdParams::defaults(const arch::Platform& platform) {
  HttpdParams p;
  // Baseline per-request compute (TLS handshake share + record crypto +
  // HTTP parsing). The wide Carmel core retires the same work in fewer
  // cycles than the in-order A55.
  p.app_cycles_per_request =
      &platform == &arch::Platform::carmel() ? 667'000 : 905'000;
  return p;
}

std::string httpd_tenant(unsigned worker, unsigned workers) {
  return workers == 1 ? "httpd-worker"
                      : "httpd-worker" + std::to_string(worker);
}

std::vector<HttpdResult> run_httpd(const AppConfig& config,
                                   const HttpdParams& params) {
  AppDriver driver(config);
  auto& kern = driver.env().kern();

  // Key arena: one page-aligned slot per live AES_KEY (the paper notes the
  // resulting fragmentation: each key gets its own 4 KiB page, §9.1).
  const VirtAddr key_arena = core::Env::kHeapVa;
  driver.setup_domains(key_arena, kPageSize, params.concurrent_keys);

  // Install each worker's key material, sequentially on the main thread:
  // frame allocation order stays independent of thread interleaving.
  std::vector<Rng> rngs;
  for (unsigned w = 0; w < config.workers; ++w) {
    sim::Machine::CoreBinding bind(driver.machine(), w);
    Rng& rng = rngs.emplace_back(config.seed + w);
    for (int k = 0; k < params.concurrent_keys; ++k) {
      u8 key[crypto::kAesKeySize];
      for (auto& b : key) b = static_cast<u8>(rng.next());
      // Write through the kernel-side view of the process's memory.
      kern.copy_to_user(driver.proc(),
                        key_arena + static_cast<u64>(k) * kPageSize, key,
                        sizeof(key));
    }
  }

  // Every worker serves its request stream on its core. Streams are
  // disjoint (own process, own VMID/ASIDs, own per-core TLB and cycle
  // account), so each worker's numbers are independent of thread
  // interleaving.
  std::vector<HttpdResult> results(config.workers);
  for (unsigned w = 0; w < config.workers; ++w) {
    kern.run_on(w, [&, w](unsigned) {
      results[w] = serve(driver, params, rngs[w],
                         httpd_tenant(w, config.workers));
    });
  }
  kern.schedule();
  return results;
}

double httpd_throughput_rps(const HttpdResult& result,
                            const HttpdParams& params,
                            const AppConfig& config, int concurrency) {
  const double freq = config.platform->freq_ghz * 1e9;
  const double service_s = result.cycles_per_request / freq;
  const double latency_s = service_s + params.rtt_seconds;
  // One worker: client-limited until the worker saturates.
  return std::min(concurrency / latency_s, 1.0 / service_s);
}

double httpd_total_rps(const std::vector<HttpdResult>& workers,
                       const HttpdParams& params, const AppConfig& config,
                       int concurrency) {
  const int share =
      std::max(1, concurrency / static_cast<int>(workers.size()));
  double total = 0;
  for (const auto& w : workers) {
    total += httpd_throughput_rps(w, params, config, share);
  }
  return total;
}

}  // namespace lz::workload
