#include "obs/counters.h"

#include <algorithm>

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

CycleLedger& cycle_ledger() {
  static CycleLedger l;
  return l;
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
