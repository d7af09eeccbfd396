// Nginx-like HTTPS server model (Fig. 3, §9.1): workers serving
// short-lived TLS connections that fetch a 1 KB file. Cryptographic keys
// (one AES_KEY per connection) are isolated — one PAN domain for all keys,
// or one TTBR domain per key with function-grained call gates around every
// crypto call [51].
//
// Key bytes live in simulated protected memory and are fetched through the
// core's translation machinery before each (real) AES-CBC encryption, so
// the protection mechanisms are genuinely on the request path.
#pragma once

#include <string>
#include <vector>

#include "workloads/app_driver.h"

namespace lz::workload {

struct HttpdParams {
  int requests = 2000;
  // Per-request event profile (one connection == one request, as with the
  // paper's `ab` workload without keep-alive).
  int syscalls_per_request = 6;        // accept/read x2/writev/close/epoll
  int gated_crypto_calls = 37;         // function-grained key uses [51]
  double tlb_misses_per_request = 40;  // parser + buffers working set
  int concurrent_keys = 64;            // live AES_KEY instances (domains)
  Cycles app_cycles_per_request = 0;   // baseline compute (TLS + HTTP)
  double rtt_seconds = 200e-6;         // client/network round trip

  static HttpdParams defaults(const arch::Platform& platform);
};

struct HttpdResult {
  double cycles_per_request = 0;
  double response_checksum = 0;  // proof the AES work really ran
  u64 isolation_table_pages = 0;
  // Fragmentation (§9.1): each key occupies a whole 4 KiB page.
  u64 key_pages = 0;
};

// One worker process per core (`config.workers`, nginx's worker-per-core
// deployment), all sharing one kernel and one physical memory. Each
// worker serves `params.requests` on its own core with keys and response
// drawn from Rng(seed + w), so worker 0 of any run is the 1-worker server.
// One result per worker.
std::vector<HttpdResult> run_httpd(const AppConfig& config,
                                   const HttpdParams& params);

// Closed-loop throughput for `concurrency` clients against one worker.
double httpd_throughput_rps(const HttpdResult& result,
                            const HttpdParams& params,
                            const AppConfig& config, int concurrency);

// The whole server: `concurrency` clients split evenly across the workers,
// each an independent closed-loop server.
double httpd_total_rps(const std::vector<HttpdResult>& workers,
                       const HttpdParams& params, const AppConfig& config,
                       int concurrency);

// Worker w's tenant label in spans, profiles and the metrics plane.
std::string httpd_tenant(unsigned worker, unsigned workers);

}  // namespace lz::workload
