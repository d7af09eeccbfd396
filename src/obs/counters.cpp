#include "obs/counters.h"

#include <algorithm>
#include <cstdio>

#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "support/status.h"

namespace lz::obs {

namespace {

// Hands the thread's shard back when the thread exits.
struct ShardLease {
  ~ShardLease() {
    shards().give_back(*detail::t_shard);
    detail::t_shard = nullptr;
  }
};

u64 slot_sum(int slot) {
  u64 sum = 0;
  shards().for_each([&](const Shard& s) {
    sum += s.counts[static_cast<std::size_t>(slot)].load(
        std::memory_order_relaxed);
  });
  return sum;
}

}  // namespace

CellPool<Shard>& shards() {
  static CellPool<Shard>* pool = new CellPool<Shard>;  // outlives every thread
  return *pool;
}

Shard& detail::take_shard() {
  t_shard = &shards().take();
  static thread_local ShardLease lease;
  return *t_shard;
}

Registry::Entry& Registry::entry(std::string_view name, bool host) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    // try_emplace: Counter holds an atomic and is not copyable/movable.
    it = entries_.try_emplace(std::string(name)).first;
    it->second.host = host;
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  return entry(name, /*host=*/false).own;
}

ShardedCounter Registry::sharded(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(name, /*host=*/false);
  if (e.slot < 0) {
    LZ_CHECK(slots_ < Shard::kSlots);
    e.slot = static_cast<int>(slots_++);
  }
  return ShardedCounter(static_cast<std::size_t>(e.slot));
}

void Registry::link(std::string_view name, const OwnedCounter& c, bool host) {
  std::lock_guard<std::mutex> lock(mu_);
  entry(name, host).links.push_back({&c, c.value()});
}

void Registry::unlink(std::string_view name, const OwnedCounter& c) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto e = entries_.find(name);
  LZ_CHECK(e != entries_.end());
  auto& links = e->second.links;
  const auto it = std::find_if(links.begin(), links.end(),
                               [&](const Link& l) { return l.counter == &c; });
  LZ_CHECK(it != links.end());
  e->second.own.add(c.value() - it->base);
  links.erase(it);
}

Snapshot Registry::values(bool host) const {
  Snapshot snap;
  for (const auto& [name, e] : entries_) {
    if (e.host != host) continue;
    u64 v = e.own.value();
    for (const Link& l : e.links) v += l.counter->value() - l.base;
    if (e.slot >= 0) v += slot_sum(e.slot) - e.slot_base;
    snap.emplace_back(name, v);
  }
  return snap;
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values(/*host=*/false);
}

Snapshot Registry::host_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values(/*host=*/true);
}

Snapshot Registry::delta(const Snapshot& before, const Snapshot& after) {
  Snapshot out;
  out.reserve(after.size());
  for (const auto& [name, value] : after) {
    const auto it = std::lower_bound(
        before.begin(), before.end(), name,
        [](const auto& entry, const std::string& n) { return entry.first < n; });
    const u64 prev =
        (it != before.end() && it->first == name) ? it->second : 0;
    out.emplace_back(name, value - prev);
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    e.own.reset();
    for (Link& l : e.links) l.base = l.counter->value();
    if (e.slot >= 0) e.slot_base = slot_sum(e.slot);
  }
}

OwnedCounter::~OwnedCounter() {
  for (const std::string& name : names_) registry().unlink(name, *this);
}

void OwnedCounter::link(std::string name, bool host) {
  registry().link(name, *this, host);
  names_.push_back(std::move(name));
}

Registry& registry() {
  static Registry r;
  return r;
}

CycleCounts::CycleCounts()
    : cell_(cycle_ledger().cells_.take()),
      base_total_(cell_.total.load(std::memory_order_relaxed)) {
  for (std::size_t k = 0; k < base_by_kind_.size(); ++k) {
    base_by_kind_[k] = cell_.by_kind[k].load(std::memory_order_relaxed);
  }
}

CycleCounts::~CycleCounts() { cycle_ledger().cells_.give_back(cell_); }

u64 CycleLedger::total() const { return read(0); }

u64 CycleLedger::of(std::size_t kind) const { return read(1 + kind); }

u64 CycleLedger::read(std::size_t f) const {
  // The reset base first: the cells it was summed from hold at least as
  // much by the time this thread reads them, so the difference never wraps.
  const u64 base = base_[f].load(std::memory_order_acquire);
  return sum(f) - base;
}

u64 CycleLedger::sum(std::size_t f) const {
  u64 sum = 0;
  cells_.for_each([&](const CycleCell& cell) {
    sum += (f == 0 ? cell.total : cell.by_kind[f - 1])
               .load(std::memory_order_relaxed);
  });
  return sum;
}

void CycleLedger::reset() {
  for (std::size_t f = 0; f < base_.size(); ++f) {
    base_[f].store(sum(f), std::memory_order_release);
  }
}

CycleLedger& cycle_ledger() {
  static CycleLedger l;
  return l;
}

bool write_text(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

void reset_all() {
  registry().reset();
  cycle_ledger().reset();
  trace().clear();
  histograms().reset();
  profiler().reset();
  spans().clear();
  timeseries().reset();
  flight().clear();
  clear_domain_labels();
  metrics().reset();
  selfprof().reset();
  exposition_pump().reset();
}

}  // namespace lz::obs
