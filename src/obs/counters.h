// lz::obs — counters and the cycle ledger.
//
// Named monotonic counters (`subsystem.object.event`, e.g. `mem.tlb.l1_hit`,
// `lz.module.gate_switch`) with snapshot/delta/reset, and the CycleLedger,
// which sums every cycle account in the process when read, so reports and
// the event trace's clock see simulated time without a Machine. Each event
// is counted once: in a registry Counter (one relaxed atomic add, any
// thread), in an OwnedCounter its owner (a core, a TLB) links under its
// names, or in a ShardedCounter (the switch rows), which each host thread
// adds to in its own Shard. Snapshots read owners and sum shards in place,
// name-sorted; addition commutes, so values depend only on the executed
// work however the SMP machine's threads interleave.
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

class Histogram;  // histogram.h

namespace detail {
// `a += n` by the one writer `a` has: a relaxed load and store, no
// read-modify-write; any thread may read `a`.
inline void owned_add(std::atomic<u64>& a, u64 n) {
  a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}
}  // namespace detail

// Objects handed to owners and handed back when they die, never freed: the
// next owner of a handed-back object counts on from its totals, so readers
// can sum every object handed out so far, without a lock, and never see a
// total go backwards. take() and give_back() take the pool's mutex.
template <typename T>
class CellPool {
 public:
  T& take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      T& cell = *free_.back();
      free_.pop_back();
      return cell;
    }
    const std::size_t n = used_.load(std::memory_order_relaxed);
    if (n != 0 && n % Chunk::kCells == 0) {
      chunks_.push_back(std::make_unique<Chunk>());
      tail_->next.store(chunks_.back().get(), std::memory_order_release);
      tail_ = chunks_.back().get();
    }
    used_.store(n + 1, std::memory_order_release);
    return tail_->cells[n % Chunk::kCells];
  }
  void give_back(T& cell) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(&cell);
  }
  // Calls `f` on every object handed out so far, held or handed back.
  template <typename F>
  void for_each(F&& f) const {
    std::size_t n = used_.load(std::memory_order_acquire);
    for (const Chunk* c = &head_; n != 0;
         c = c->next.load(std::memory_order_acquire)) {
      const std::size_t k = n < Chunk::kCells ? n : Chunk::kCells;
      for (std::size_t i = 0; i < k; ++i) f(c->cells[i]);
      n -= k;
    }
  }

 private:
  struct Chunk {
    static constexpr std::size_t kCells = 32;
    std::array<T, kCells> cells;
    std::atomic<Chunk*> next{nullptr};
  };

  std::mutex mu_;  // taken by take/give_back; used_ is also read without it
  std::atomic<std::size_t> used_{0};  // objects ever handed out, in order
  Chunk head_;
  Chunk* tail_ = &head_;
  std::vector<std::unique_ptr<Chunk>> chunks_;  // head_'s successors
  std::vector<T*> free_;
};

class Counter {
 public:
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

  void add(u64 n = 1) { detail::owned_add(value_, n); }
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  // registry().link(name, *this, host); the destructor unlinks.
  void link(std::string name, bool host = false);

 private:
  std::atomic<u64> value_{0};
  std::vector<std::string> names_;
};

// One host thread's stores for the instruments written on every domain
// switch: the Registry's ShardedCounters and every HistogramRegistry
// histogram, one slot each. Only the thread holding a shard writes it, so an
// update is relaxed loads and stores with no read-modify-write; readers sum
// every shard. A thread takes a shard from shards() on its first update and
// hands it back when it exits, so a one-thread run holds one shard.
struct alignas(64) Shard {  // two threads' shards never share a line
  static constexpr std::size_t kSlots = 32;

  std::array<std::atomic<u64>, kSlots> counts{};
  // Made by the owner on first record into the slot.
  std::array<std::atomic<Histogram*>, kSlots> histograms{};
  // The HistogramRegistry reset its histograms count from (histogram.h).
  std::atomic<u64> histogram_gen{0};
};

namespace detail {
inline thread_local Shard* t_shard = nullptr;
Shard& take_shard();
}  // namespace detail

// The calling thread's shard; takes one on first use.
inline Shard& this_thread_shard() {
  Shard* s = detail::t_shard;
  return s != nullptr ? *s : detail::take_shard();
}
// The pool the threads' shards come from.
CellPool<Shard>& shards();

// A registry counter that each host thread adds to in its own shard; made
// by Registry::sharded.
class ShardedCounter {
 public:
  explicit ShardedCounter(std::size_t slot) : slot_(slot) {}
  void add(u64 n = 1) const {
    detail::owned_add(this_thread_shard().counts[slot_], n);
  }

 private:
  std::size_t slot_;
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

  // Registers `name` on first use as a counter summed over every Shard;
  // subsequent calls return a handle to the same slot.
  ShardedCounter sharded(std::string_view name);

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
    int slot = -1;        // Shard slot of a sharded counter
    u64 slot_base = 0;    // the slot's sum at the last reset()
  };

  Entry& entry(std::string_view name, bool host);  // registers on first use
  Snapshot values(bool host) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::size_t slots_ = 0;  // Shard slots handed out
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
// a CycleCell from the ledger's pool when constructed and hands it back
// when it dies; its totals are what it added to the cell. One writer at a
// time — the owning core's thread, or the thread bound to that core — so
// add() is a relaxed load and store per field, with no read-modify-write;
// any thread may read the totals.
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
    detail::owned_add(cell_.total, cycles);
    detail::owned_add(cell_.by_kind[kind], cycles);
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
// Readers take no lock and allocate nothing (CellPool::for_each).
class CycleLedger {
 public:
  u64 total() const;
  u64 of(std::size_t kind) const;

  // Rebases: the ledger reads zero afterwards, and the accounts keep their
  // own totals (nothing is written into them).
  void reset();

 private:
  friend class CycleCounts;
  // Field 0 is the total, field 1 + k is kind k.
  u64 read(std::size_t f) const;  // sum(f) minus its value at reset()
  u64 sum(std::size_t f) const;   // over every cell handed out

  CellPool<CycleCell> cells_;
  std::array<std::atomic<u64>, 1 + CycleCell::kMaxKinds> base_{};  // at reset
};

CycleLedger& cycle_ledger();

// Writes `text` to `path` (truncating); false on an I/O error. The one
// file writer of the reports, traces, profiles and expositions.
bool write_text(const std::string& path, std::string_view text);

// Convenience for tests and bench runs: zero the registry and the ledger
// (both by rebasing their links; owners keep their own counts), the event
// trace, the histogram registry, the profiler, the span tracer, the
// time-series sampler, the flight recorder and the tenant labels in one
// call.
void reset_all();

}  // namespace lz::obs
