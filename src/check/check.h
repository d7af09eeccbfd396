// lz::check — differential conformance harness.
//
// Two independent oracles cross-check the simulator while it runs:
//
//   1. TLB-on vs TLB-off: after every TLB hit, sim::Core re-walks the live
//      stage-1/stage-2 tables (side-effect-free, Core::walk_translation)
//      and compares out-address *and* permission attributes. A surviving
//      stale entry — an invalidation-scoping bug — faults immediately
//      instead of silently corrupting an isolation or Table-5 claim.
//   2. Replay determinism: the same seeded run, executed twice or on
//      different core counts, must produce identical counter streams
//      modulo the documented SMP-variant set (diff_counters below).
//
// The third leg, the Table-2 shadow model and its fuzz driver, lives in
// shadow.h / fuzz.h and bench/fuzz_table2.
//
// Gating: the translate-path hook is compiled in only under
// -DLZ_CHECK=ON (CMake option, default ON outside Release builds; it
// defines LZ_CONF_CHECK — the LZ_CHECK *macro* name is already taken by
// the assert in support/status.h). With the hook compiled in, `enabled()`
// is a relaxed atomic load and can be turned off at runtime; compiled
// out, Release benches pay nothing. This library itself (divergence
// plumbing, counter diffing) always builds.
//
// Divergences are fail-stop by default: print and abort. Tests install a
// capturing handler (CaptureDivergences) to assert on what was caught.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.h"
#include "support/types.h"

namespace lz::check {

struct Divergence {
  std::string kind;    // "tlb.stale" | "tlb.out_addr" | "tlb.attrs" |
                       // "shadow.status" | "replay.counters"
  std::string detail;  // human-readable description of the mismatch
};

// Runtime switch for the compiled-in hooks (process-wide, default on). The
// flight recorder (obs/flight.h) is armed exactly while the hooks are on.
bool enabled();
void set_enabled(bool on);

// Handler invoked on every divergence. The default (when none is set)
// prints the divergence and aborts. Returns the previous handler.
using Handler = std::function<void(const Divergence&)>;
Handler set_divergence_handler(Handler h);

// Report a divergence: bumps the `check.divergence` counter, then invokes
// the handler (or the fail-stop default).
void report(Divergence d);

// RAII: capture divergences into a vector instead of aborting, restoring
// the previous handler on destruction. Test-only by design.
class CaptureDivergences {
 public:
  CaptureDivergences();
  ~CaptureDivergences();
  CaptureDivergences(const CaptureDivergences&) = delete;
  CaptureDivergences& operator=(const CaptureDivergences&) = delete;

  const std::vector<Divergence>& items() const { return items_; }

 private:
  std::vector<Divergence> items_;
  Handler prev_;
};

// --- Replay determinism ------------------------------------------------------

// Counters a run's core count legitimately changes. Everything here is
// occupancy- or topology-dependent; all other counters must replay exactly:
//   mem.tlb.*      hit/miss mix depends on how many TLBs the work spreads
//                  over (1 shared TLB vs N private ones)
//   sim.coreN.*    per-core counter domains exist per topology
//   sim.dvm.*      broadcasts are free (uncounted) on single-core machines
//   check.*        the harness's own bookkeeping
bool is_smp_variant_counter(std::string_view name);

// Line-per-mismatch diff of two counter snapshots ("name: a=X b=Y";
// counters missing from one side diff against 0). Names accepted by
// `ignore` are skipped; pass is_smp_variant_counter for 1-vs-N replays,
// nullptr for byte-identical same-topology replays.
using IgnoreFn = std::function<bool(std::string_view)>;
std::vector<std::string> diff_counters(const obs::Snapshot& a,
                                       const obs::Snapshot& b,
                                       const IgnoreFn& ignore = nullptr);

}  // namespace lz::check
