// lz::obs — unified observability for the LightZone model.
//
// This header provides the *counter* half: named, hierarchical, cheap
// monotonic counters with snapshot/delta/reset semantics, plus the global
// CycleLedger, which sums every cycle account in the process (live or
// dead) when read, so reports (and the event trace's clock) can see
// simulated time without a reference to any particular Machine.
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
#include <memory>
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
// Parked at kTsParked while the sampler is disarmed, so the hook in
// sim::CycleAccount::charge stays one relaxed load + one never-taken branch.
inline constexpr u64 kTsParked = ~u64{0};
inline std::atomic<u64> g_ts_next_due{kTsParked};
}  // namespace detail

// Out-of-line sampling slow path (timeseries.cpp): reads the ledger total
// and polls the sampler. Called after every charge while it is armed.
void timeseries_poll_slow();

// Cycle totals indexed by the raw CostKind value (obs sits below sim, so
// the enum itself lives there). The ledger owns the cells and never frees
// them, so it can read them without a lock; two never share a cache line.
// A cell only grows: when its account dies its totals stay in it, and the
// next account to take the cell counts on from there.
struct alignas(64) CycleCell {
  static constexpr std::size_t kMaxKinds = 15;  // the cell is two lines

  std::atomic<u64> total{0};
  std::array<std::atomic<u64>, kMaxKinds> by_kind{};
};

// The cycle totals of one account: the base of sim::CycleAccount. It takes
// a CycleCell from cycle_ledger() when constructed and hands it back when
// it dies; its totals are what it added to the cell. One writer at a time
// — the owning core's thread, or the thread bound to that core — so add()
// is a relaxed load and store per field, with no read-modify-write; any
// thread may read the totals.
class CycleCounts {
 public:
  CycleCounts(const CycleCounts&) = delete;
  CycleCounts& operator=(const CycleCounts&) = delete;

  u64 total() const {
    return cell_.total.load(std::memory_order_relaxed) - base_total_;
  }
  u64 of(std::size_t kind) const {
    return cell_.by_kind[kind].load(std::memory_order_relaxed) -
           base_by_kind_[kind];
  }

 protected:
  CycleCounts();
  ~CycleCounts();

  void add(std::size_t kind, u64 cycles) {
    std::atomic<u64>& k = cell_.by_kind[kind];
    cell_.total.store(cell_.total.load(std::memory_order_relaxed) + cycles,
                      std::memory_order_relaxed);
    k.store(k.load(std::memory_order_relaxed) + cycles,
            std::memory_order_relaxed);
  }

 private:
  CycleCell& cell_;
  // The cell's totals when this account took it.
  u64 base_total_ = 0;
  std::array<u64, CycleCell::kMaxKinds> base_by_kind_{};
};

// Every cycle charged in the process, derived when read: the sum over
// every cell handed out, live or handed back, minus the sum at the last
// reset(). A charge writes only its own account's cell, never the ledger,
// and a dead account's totals stay in its cell. Doubles as the
// deterministic clock for the event trace: `total()` is the total
// simulated work performed so far across all machines.
//
// Readers take no lock and allocate nothing. Cells only grow and are never
// freed, so a reader never touches a dead account, and a thread never sees
// `total()` go backwards while accounts come and go.
class CycleLedger {
 public:
  CycleLedger() = default;
  CycleLedger(const CycleLedger&) = delete;
  CycleLedger& operator=(const CycleLedger&) = delete;

  u64 total() const;
  u64 of(std::size_t kind) const;

  // Rebases: the ledger reads zero afterwards, and the accounts keep their
  // own totals (nothing is written into them).
  void reset();

 private:
  friend class CycleCounts;
  CycleCell& take();
  void give_back(CycleCell& cell);

  struct Chunk {
    static constexpr std::size_t kCells = 32;
    std::array<CycleCell, kCells> cells;
    std::atomic<Chunk*> next{nullptr};
  };
  // Field 0 is the total, field 1 + k is kind k.
  u64 read(std::size_t f) const;  // sum(f) minus its value at reset()
  u64 sum(std::size_t f) const;   // over every cell handed out

  std::mutex mu_;  // serialises take/give_back/reset; guards the members below
  std::atomic<std::size_t> used_{0};  // cells ever handed out, in order
  Chunk head_;
  Chunk* tail_ = &head_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // head_'s successors
  std::vector<CycleCell*> free_;
  std::array<std::atomic<u64>, 1 + CycleCell::kMaxKinds> base_{};  // at reset
};

CycleLedger& cycle_ledger();

// Convenience for tests and bench runs: zero the registry and the ledger
// (both by rebasing their links; owners keep their own counts), the event
// trace, the histogram registry, the profiler, the span tracer, the
// time-series sampler, the flight recorder and the tenant labels in one
// call.
void reset_all();

}  // namespace lz::obs
