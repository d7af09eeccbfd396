// lz::obs — unified observability for the LightZone model.
//
// This header provides the *counter* half: named, hierarchical, cheap
// monotonic counters with snapshot/delta/reset semantics, plus the global
// CycleLedger that mirrors every CycleAccount charge so reports (and the
// event trace's clock) can see simulated time without a reference to any
// particular Machine.
//
// Naming convention: `subsystem.object.event`, e.g. `mem.tlb.l1_hit`,
// `sim.core.insn_retired`, `hv.host.hcr_retained`, `lz.module.gate_switch`.
// Each event is counted once: in a registry Counter (a stable handle, one
// relaxed atomic add, any thread), or in an OwnedCounter its owner (a
// core, a TLB) links under its names, which snapshots read in place.
//
// Addition commutes, so totals stay deterministic however the SMP
// machine's core threads interleave; registration, linking and snapshots
// take the registry mutex. Snapshots are name-sorted, and values depend
// only on the executed work.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/types.h"

namespace lz::obs {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(u64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

// A counter with one writer at a time: its owner's thread, or whoever holds
// the owner's lock. add() is therefore a relaxed load and store, with no
// read-modify-write; any thread may read value() without a data race.
// link() lists it in the registry until it dies.
class OwnedCounter {
 public:
  ~OwnedCounter();

  void add(u64 n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  // registry().link(name, *this, host); the destructor unlinks.
  void link(std::string name, bool host = false);

 private:
  std::atomic<u64> value_{0};
  std::vector<std::string> names_;
};

// One (name, value) pair per registered counter, sorted by name.
using Snapshot = std::vector<std::pair<std::string, u64>>;

class Registry {
 public:
  // Registers `name` on first use and returns a stable handle; subsequent
  // calls with the same name return the same Counter.
  Counter& counter(std::string_view name);

  // Lists `c` under `name` (registered on first use): a snapshot adds c's
  // count since the link or the last reset() to the name's own Counter.
  // unlink() folds that count into the own Counter, so totals outlive the
  // owner. Host names (`sim.trace.*`) depend on host-side caching, so they
  // may differ between two byte-identical simulations.
  void link(std::string_view name, const OwnedCounter& c, bool host = false);
  void unlink(std::string_view name, const OwnedCounter& c);

  // Name-sorted values of every counter (std::map iteration order).
  // Host names are deliberately absent.
  Snapshot snapshot() const;
  // Name-sorted values of the host names only.
  Snapshot host_snapshot() const;

  // Per-name `after - before`; names absent from `before` count from zero.
  // Entries that did not move are kept (delta 0) so schemas stay stable.
  static Snapshot delta(const Snapshot& before, const Snapshot& after);

  // Zero every name; registrations (and handles) stay valid. Links are
  // rebased rather than written, so owners keep their own counts.
  void reset();

 private:
  struct Link {
    const OwnedCounter* counter;
    u64 base;  // counter's value at link time or at the last reset()
  };
  struct Entry {
    Counter own;
    std::vector<Link> links;
    bool host = false;
  };

  Entry& entry(std::string_view name, bool host);  // registers on first use
  Snapshot values(bool host) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// The process-wide registry all subsystems wire into.
Registry& registry();

namespace detail {
// Next ledger total at which a time-series sample is due (timeseries.h).
// Parked at ~0 while the sampler is disarmed so the hook in
// CycleLedger::charge stays one relaxed load + one never-taken compare.
inline std::atomic<u64> g_ts_next_due{~u64{0}};
}  // namespace detail

// Out-of-line sampling slow path (timeseries.cpp); called only when a
// charge crosses the due threshold.
void timeseries_poll_slow(u64 total);

// Mirror of every CycleAccount charge in the process, indexed by the raw
// CostKind value (obs sits below sim, so the enum itself lives there).
// Doubles as the deterministic clock for the event trace: `total()` is the
// total simulated work performed so far across all machines.
class CycleLedger {
 public:
  static constexpr std::size_t kMaxKinds = 32;

  void charge(std::size_t kind, u64 cycles) {
    const u64 total =
        total_.fetch_add(cycles, std::memory_order_relaxed) + cycles;
    by_kind_[kind].fetch_add(cycles, std::memory_order_relaxed);
    if (total >= detail::g_ts_next_due.load(std::memory_order_relaxed))
      timeseries_poll_slow(total);
  }
  u64 total() const { return total_.load(std::memory_order_relaxed); }
  u64 of(std::size_t kind) const {
    return by_kind_[kind].load(std::memory_order_relaxed);
  }
  void reset() {
    total_.store(0, std::memory_order_relaxed);
    for (auto& k : by_kind_) k.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> total_{0};
  std::array<std::atomic<u64>, kMaxKinds> by_kind_{};
};

CycleLedger& cycle_ledger();

// Convenience for tests and bench runs: zero the registry, the ledger, the
// event trace, the histogram registry, the profiler, the span tracer, the
// time-series sampler, the flight recorder and the tenant labels in one
// call.
void reset_all();

}  // namespace lz::obs
