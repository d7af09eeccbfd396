// Randomized Table-2 fuzz driver (ISSUE 3 tentpole, leg 3).
//
// Generates seeded streams of Table-2 calls (lz_alloc / lz_free / lz_prot /
// lz_map_gate_pgt / lz_set_gate_entry / touch / gate switch), runs every
// call against the live module AND the independent ShadowTable2 model, and
// records each call's Status into a per-stream byte stream.
//
// Determinism contract — the two replay oracles hang off it:
//   * A stream's op sequence depends only on (seed, stream index), never on
//     the machine topology: stream s always fuzzes its own process with its
//     own Rng, scheduled on core s % cores. Running the same (seed, streams,
//     ops) on 1 core vs N cores must therefore produce byte-identical
//     status streams, and identical counters modulo
//     check::is_smp_variant_counter.
//   * Running the same config twice must reproduce everything byte-for-byte
//     (hash, streams, and the full counter snapshot).
//
// Gate switches whose validation would pass but whose mapped table has been
// freed are recorded as kSkippedOp instead of executed: architecturally the
// switch lands in a zeroed TTBRTab slot and kills the process (see
// ShadowTable2::gate_runnable), which would end the stream early.
#pragma once

#include <string>
#include <vector>

#include "check/check.h"
#include "lightzone/backend.h"
#include "obs/counters.h"
#include "support/types.h"

namespace lz::arch {
struct Platform;
}  // namespace lz::arch

namespace lz::check {

// Status-stream byte recorded for a generated-but-not-executed op.
inline constexpr u8 kSkippedOp = 0xFE;

struct FuzzConfig {
  u64 seed = 1;
  unsigned cores = 1;    // simulated cores
  unsigned streams = 0;  // op streams (processes); 0 = one per core
  int ops_per_stream = 1000;
  const arch::Platform* platform = nullptr;  // null = Cortex-A55
  // Which IsolationBackend the streams exercise. kTtbrPan fuzzes the live
  // module (plus the in-build TLB oracle); the others fuzz their cost-model
  // backend through the identical op generator, with the shadow capped at
  // the backend's core::max_domains. A model backend keeps its own state
  // in a ShadowTable2, so for those the differential agrees by
  // construction; the replay oracles still apply.
  core::BackendKind backend = core::BackendKind::kTtbrPan;
};

struct FuzzResult {
  core::BackendKind backend = core::BackendKind::kTtbrPan;
  u64 total_ops = 0;  // generated ops, including skipped ones
  u64 skipped = 0;    // unrunnable-but-valid gate switches not executed
  u64 status_hash = 0;  // FNV-1a over all status streams, in stream order
  std::vector<std::vector<u8>> status_streams;  // [stream][op] = Errc byte
  std::vector<Divergence> divergences;          // kind "shadow.status"
  obs::Snapshot counters;  // Env-scoped counter delta of the whole run
};

FuzzResult run_table2_fuzz(const FuzzConfig& cfg);

// Counter diff between two fuzz runs. Counter streams are only comparable
// between runs of the SAME backend (mechanisms bump different counters in
// different amounts by design), so a cross-backend comparison returns a
// single clear "backend mismatch" line instead of pages of spurious
// counter divergence. Same-backend runs forward to check::diff_counters.
std::vector<std::string> diff_fuzz_counters(const FuzzResult& a,
                                            const FuzzResult& b,
                                            const IgnoreFn& ignore = nullptr);

}  // namespace lz::check
