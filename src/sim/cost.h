// Cycle accounting. Every architectural event charges cycles into a
// category so benchmarks can report both totals and breakdowns
// (e.g. how much of a trap round-trip is register switching).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>

#include "obs/counters.h"
#include "support/types.h"

namespace lz::sim {

enum class CostKind : u8 {
  kInsn,       // instruction execution base cost
  kMem,        // data memory accesses (L1 hits)
  kTlb,        // TLB L2 hits and walk costs
  kExcp,       // hardware exception entry / return
  kGpr,        // general-purpose register save/restore
  kSysreg,     // system-register reads/writes
  kCtx,        // bulk context (FP/SIMD, GIC, timers)
  kDispatch,   // software handler dispatch / bookkeeping
  kGate,       // secure call-gate execution
  kWorkload,   // modelled application work (event-level workloads)
  kTlbi,       // DVM broadcast TLB shootdown (TLBI ...IS)
  kCount,
};

inline constexpr std::size_t kNumCostKinds =
    static_cast<std::size_t>(CostKind::kCount);

const char* to_string(CostKind kind);

static_assert(kNumCostKinds <= obs::CycleCell::kMaxKinds,
              "CostKind no longer fits obs::CycleCell");

// Per-core cycle account: the one store of the cycles charged on its core,
// by the core itself and by the privileged C++ layers running on it. One
// writer at a time — the owning core's thread, or the thread bound to that
// core by Machine::CoreBinding — so charge() is a relaxed load and store
// per field, with no read-modify-write. Any thread may read the totals
// (e.g. the main thread summing Machine::cycles() across cores); addition
// commutes, so totals stay deterministic. The totals live in a cell of
// obs::cycle_ledger(), which reads them while the account lives and keeps
// them once it dies.
class CycleAccount : public obs::CycleCounts {
 public:
  void charge(CostKind kind, Cycles c) {
    assert(static_cast<std::size_t>(kind) <
               static_cast<std::size_t>(CostKind::kCount) &&
           "charge() with an out-of-range CostKind");
    add(static_cast<std::size_t>(kind), c);
    // Time-series hook: disarmed, one relaxed load of the parked threshold
    // and a branch never taken; armed, the slow path reads the ledger.
    if (obs::detail::g_ts_next_due.load(std::memory_order_relaxed) !=
        obs::detail::kTsParked) {
      obs::timeseries_poll_slow();
    }
  }

  Cycles of(CostKind kind) const {
    return CycleCounts::of(static_cast<std::size_t>(kind));
  }
};

}  // namespace lz::sim
