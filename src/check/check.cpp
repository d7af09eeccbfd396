#include "check/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "obs/flight.h"

namespace lz::check {

namespace {

std::atomic<bool> g_enabled{true};

#ifdef LZ_CONF_CHECK
constexpr bool kHooksCompiledIn = true;
#else
constexpr bool kHooksCompiledIn = false;
#endif
// report()'s fail-stop path prints the flight recorder's black box, so the
// recorder is armed whenever the hooks are.
[[maybe_unused]] const bool g_flight_armed =
    (obs::flight().arm(kHooksCompiledIn), true);

std::mutex g_handler_mu;
Handler g_handler;  // guarded by g_handler_mu

obs::Counter& divergence_counter() {
  static obs::Counter& c = obs::registry().counter("check.divergence");
  return c;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
  obs::flight().arm(kHooksCompiledIn && on);
}

Handler set_divergence_handler(Handler h) {
  std::lock_guard<std::mutex> lock(g_handler_mu);
  Handler prev = std::move(g_handler);
  g_handler = std::move(h);
  return prev;
}

void report(Divergence d) {
  divergence_counter().add();
  Handler h;
  {
    std::lock_guard<std::mutex> lock(g_handler_mu);
    h = g_handler;
  }
  if (h) {
    h(d);
    return;
  }
  std::fprintf(stderr, "lz::check divergence [%s]: %s\n", d.kind.c_str(),
               d.detail.c_str());
  // Fail-stop path: print the flight recorder's black box — the last N
  // architectural events per core leading into the divergence — before
  // dying, so unattended runs (CI, fuzzing) leave a state trail.
  obs::flight_dump(stderr);
  std::abort();
}

CaptureDivergences::CaptureDivergences() {
  prev_ = set_divergence_handler(
      [this](const Divergence& d) { items_.push_back(d); });
}

CaptureDivergences::~CaptureDivergences() {
  set_divergence_handler(std::move(prev_));
}

bool is_smp_variant_counter(std::string_view name) {
  if (name.starts_with("mem.tlb.")) return true;
  if (name.starts_with("sim.dvm.")) return true;
  if (name.starts_with("check.")) return true;
  // Per-core counter domains: "sim.core<digit>..." — but not the
  // topology-independent "sim.core.*" aggregates.
  constexpr std::string_view kCore = "sim.core";
  if (name.starts_with(kCore) && name.size() > kCore.size() &&
      name[kCore.size()] >= '0' && name[kCore.size()] <= '9') {
    return true;
  }
  return false;
}

std::vector<std::string> diff_counters(const obs::Snapshot& a,
                                       const obs::Snapshot& b,
                                       const IgnoreFn& ignore) {
  std::map<std::string, std::pair<u64, u64>> merged;
  for (const auto& [name, value] : a) merged[name].first = value;
  for (const auto& [name, value] : b) merged[name].second = value;
  std::vector<std::string> out;
  for (const auto& [name, values] : merged) {
    if (values.first == values.second) continue;
    if (ignore && ignore(name)) continue;
    out.push_back(name + ": a=" + std::to_string(values.first) +
                  " b=" + std::to_string(values.second));
  }
  return out;
}

}  // namespace lz::check
