// lz::obs — the switch probe: what one domain or world switch records.
//
// Each switch (gate and PAN domain switches, world switches, HVC forwards,
// DVM shootdowns, backend-neutral Table-2 switches) feeds up to five
// instruments: a registry counter, an instant trace event, a duration
// span, a flat latency histogram and a labeled metric family. kSwitchRows
// below says which, per SwitchKind, and whether the counter and event fire
// when the switch opens or after its charges. Counters register per bank,
// the `subsystem.object.` prefix of their name: a bank's counters, switch
// or not, register together on first use of any. The kind is a template
// argument, so each call site compiles only its row's instruments. The
// probe observes and never charges.
//
// With nothing armed a switch does no atomic read-modify-write: its counter
// and histogram are stores into the calling thread's Shard, and its trace
// event and span stop at one relaxed load each.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "support/types.h"

namespace lz::obs {

enum class SwitchKind : u8 {
  kLzGate,           // secure call-gate domain switch
  kLzPan,            // PAN domain switch
  kLzWorldEnter,     // into a LightZone process VM
  kLzWorldExit,      // out of a LightZone process VM
  kLzHvcForward,     // stub HVC forwarded to the LightZone module
  kVmExit,           // full EL1 context save of a VM exit
  kVmEntry,          // full EL1 context restore of a VM entry
  kKvmHypercall,     // guest hypercall round trip
  kGuestHvcForward,  // guest-kernel HVC forwarded to the host
  kDvmShootdown,     // TLB maintenance broadcast to remote cores
  kBackendSwitch,    // Table-2 switch through any IsolationBackend
  kCount,
};

// What one switch reports; each row reads only the fields it uses.
struct SwitchArgs {
  u64 arg = 0;   // span arg: gate id, PAN value, forwarded EC, world hop
  u16 vmid = 0;
  u16 asid = 0;  // target domain's ASID (gate switch)
  u32 esr = 0;   // forwarded syndrome (HVC rows)
  std::string_view backend = {};  // backend name (backend row)
};

enum class SwitchLabels : u8 { kTenant, kTenantDomain, kBackendDomain };

struct SwitchRow {
  const char* counter;    // nullptr: none
  bool fire_at_close;     // counter and event fire after the charges
  EventKind event;        // kCount: none
  WorldKind world;        // flavour of a kWorldSwitch event
  SpanKind span;          // kCount: none
  const char* histogram;  // nullptr: none
  const char* family;     // nullptr: none
  SwitchLabels labels;
};

// One row per SwitchKind. Every name, firing point and label shows in the
// reports, traces and expositions the benches write.
inline constexpr std::array<SwitchRow,
                            static_cast<std::size_t>(SwitchKind::kCount)>
    kSwitchRows = {{
        {"lz.module.gate_switch", false, EventKind::kGateSwitch, {},
         SpanKind::kGateSwitch, "lz.gate.switch_cycles",
         "lz.tenant.gate_switch_cycles", SwitchLabels::kTenantDomain},
        {"lz.module.pan_toggle", true, EventKind::kPanToggle, {},
         SpanKind::kPanSwitch, "lz.pan.switch_cycles",
         "lz.tenant.pan_switch_cycles", SwitchLabels::kTenant},
        {"lz.module.world_enter", true, EventKind::kWorldSwitch,
         WorldKind::kLzEnter, SpanKind::kWorldSwitch, "lz.world.switch_cycles",
         "lz.tenant.world_switch_cycles", SwitchLabels::kTenant},
        {"lz.module.world_exit", true, EventKind::kWorldSwitch,
         WorldKind::kLzExit, SpanKind::kWorldSwitch, "lz.world.switch_cycles",
         "lz.tenant.world_switch_cycles", SwitchLabels::kTenant},
        {"lz.module.hvc_forward", false, EventKind::kHvcForward, {},
         SpanKind::kHvcForward, "lz.hvc.forward_cycles",
         "lz.tenant.hvc_forward_cycles", SwitchLabels::kTenant},
        {"hv.world.vm_exit", false, EventKind::kCount, {}, SpanKind::kCount,
         "hv.world.vm_switch_cycles", nullptr, SwitchLabels::kTenant},
        {"hv.world.vm_entry", false, EventKind::kCount, {}, SpanKind::kCount,
         "hv.world.vm_switch_cycles", nullptr, SwitchLabels::kTenant},
        // Its two full world switches are the kVmExit/kVmEntry rows.
        {"hv.guest.kvm_hypercall", false, EventKind::kCount, {},
         SpanKind::kWorldSwitch, nullptr, nullptr, SwitchLabels::kTenant},
        {"hv.guest.hvc_forward", false, EventKind::kHvcForward, {},
         SpanKind::kHvcForward, nullptr, nullptr, SwitchLabels::kTenant},
        {"sim.dvm.broadcast", false, EventKind::kCount, {}, SpanKind::kCount,
         "sim.dvm.shootdown_cycles", nullptr, SwitchLabels::kTenant},
        {nullptr, false, EventKind::kCount, {}, SpanKind::kCount, nullptr,
         "lz.backend.switch_cycles", SwitchLabels::kBackendDomain},
    }};

// A counter of a bank that is not a switch row; registers the whole bank
// (switch rows and the bank's other counters) on first use.
Counter& bank_counter(std::string_view name);
// Registers the bank of `kind`'s counter now and returns that counter.
ShardedCounter register_switch_bank(SwitchKind kind);

namespace detail {
void record_switch_family(SwitchKind kind, const SwitchArgs& args,
                          Cycles delta);

template <SwitchKind K>
constexpr const SwitchRow& row = kSwitchRows[static_cast<std::size_t>(K)];

// The row's counter and instant event.
template <SwitchKind K>
void fire_switch(const SwitchArgs& a) {
  constexpr const SwitchRow& r = row<K>;
  if constexpr (r.counter != nullptr) {
    static const ShardedCounter counter = register_switch_bank(K);
    counter.add();
  }
  if constexpr (r.event == EventKind::kGateSwitch) {
    trace().gate_switch(static_cast<u16>(a.arg), a.asid);
  } else if constexpr (r.event == EventKind::kPanToggle) {
    trace().pan_toggle(a.arg != 0);
  } else if constexpr (r.event == EventKind::kWorldSwitch) {
    trace().world_switch(r.world, a.vmid);
  } else if constexpr (r.event == EventKind::kHvcForward) {
    trace().hvc_forward(a.esr, static_cast<u8>(a.arg));
  }
}
}  // namespace detail

// Fires a switch's closing instruments and records `delta` into the
// histogram and, with the metrics plane enabled, the family; also takes a
// switch measured elsewhere (a backend reports its own cost).
template <SwitchKind K>
void record_switch(const SwitchArgs& args, Cycles delta) {
  constexpr const SwitchRow& r = detail::row<K>;
  if constexpr (r.fire_at_close) detail::fire_switch<K>(args);
  if constexpr (r.histogram != nullptr) {
    static ShardedHistogram& histogram = histograms().histogram(r.histogram);
    histogram.record(delta);
  }
  if constexpr (r.family != nullptr) {
    if (metrics().enabled()) detail::record_switch_family(K, args, delta);
  }
}

// One switch of kind K over `clock` (`Cycles total() const`: the calling
// core's sim::CycleAccount, so obs stays below sim); made by
// switch_scope<K>(clock, args). Construction fires the opening instruments
// and opens the span; close() or the destructor records the switch.
template <SwitchKind K, typename Clock>
class SwitchScope {
 public:
  SwitchScope(const Clock& clock, const SwitchArgs& args)
      : clock_(clock), args_(args) {
    constexpr const SwitchRow& r = detail::row<K>;
    if constexpr (!r.fire_at_close) detail::fire_switch<K>(args);
    if constexpr (r.span != SpanKind::kCount) {
      span_ = spans().begin(r.span, args.arg, args.vmid, args.asid);
    }
    start_ = clock.total();
  }
  ~SwitchScope() {
    if (!closed_) close();
    spans().end(span_);
  }
  SwitchScope(const SwitchScope&) = delete;
  SwitchScope& operator=(const SwitchScope&) = delete;

  // Records the switch now and returns its delta; the span ends with the
  // scope.
  Cycles close() {
    closed_ = true;
    const Cycles delta = clock_.total() - start_;
    record_switch<K>(args_, delta);
    return delta;
  }

 private:
  const Clock& clock_;
  SwitchArgs args_;
  u64 span_ = 0;
  Cycles start_ = 0;
  bool closed_ = false;
};

template <SwitchKind K, typename Clock>
SwitchScope<K, Clock> switch_scope(const Clock& clock,
                                   const SwitchArgs& args = {}) {
  return {clock, args};
}

}  // namespace lz::obs
