// lz::obs — architectural event trace.
//
// A bounded ring of fixed-size events timestamped by *simulated cycles*
// (the CycleLedger total, never wall clock, so traces are byte-identical
// across runs and usable as golden files): exception entry/return, TTBR0
// switches, TLB invalidations, stage-2 faults, HVC forwards, world, gate
// and PAN switches, IRQs.
//
// The emit helpers feed two sinks, this ring and the flight recorder
// (flight.h), both disarmed by default. One relaxed load of the armed
// sinks decides a helper: with neither armed it returns before it builds
// an event or reads the ledger clock. One table in trace.cpp names each
// kind's payload fields for the Chrome export and the flight dump. Load the
// export in Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.h"
#include "obs/ring.h"
#include "support/types.h"

namespace lz::obs {

enum class EventKind : u8 {
  kExcpEntry,    // exception entry: EC, from-EL, target-EL, ESR
  kExcpReturn,   // ERET: from-EL, resumed EL
  kTtbrSwitch,   // TTBR0_EL1 write: new ASID, TTBR value
  kTlbInval,     // TLB invalidation: scope, ASID, VMID
  kStage2Fault,  // stage-2 abort: faulting IPA, VMID
  kHvcForward,   // HVC forwarded to a privileged C++ layer
  kWorldSwitch,  // VM / LightZone world entry or exit
  kGateSwitch,   // secure call-gate domain switch
  kPanToggle,    // PAN mechanism domain switch
  kIrq,          // interrupt taken
  kCount,
};

const char* to_string(EventKind kind);

// TLB invalidation scopes (Event::b1 of kTlbInval, and mem::TlbiEvent's
// broadcast scope), mirroring Machine::tlbi_*_is.
enum class TlbScope : u8 {
  kVa,         // TLBI VAE1IS: (vpage, asid, vmid); a0 carries the ASID
  kVaAllAsid,  // TLBI VAAE1IS: (vpage, vmid), all ASIDs
  kAsid,       // TLBI ASIDE1IS: (asid, vmid)
  kVmid,       // TLBI VMALLS12E1IS: (vmid)
  kAll,        // TLBI ALLE1IS
};
// World-switch flavours (Event::b1 of kWorldSwitch).
enum class WorldKind : u8 { kVmEntry, kVmExit, kLzEnter, kLzExit };

const char* to_string(TlbScope scope);
const char* to_string(WorldKind kind);

struct Event {
  Cycles ts = 0;      // simulated cycles at emission (CycleLedger total)
  u64 a0 = 0, a1 = 0; // wide payload (ESR, TTBR, IPA, ...)
  EventKind kind = EventKind::kCount;
  u8 b0 = 0, b1 = 0, b2 = 0;  // narrow payload (ELs, EC, scope, ...)
};

// Append `e`'s payload fields in table order: `"key":value` pairs joined
// by ',' (json), or `key=value` words joined by ' ' (the flight dump).
void append_event_args(std::string& out, const Event& e, bool json);

class Trace {
 public:
  // Allocate (or resize) the ring and start recording. Re-arming clears;
  // arm(0) leaves the trace disarmed.
  void arm(std::size_t capacity) {
    ring_.reset(capacity);
    set_sink(kRingSink, capacity > 0);
  }
  void disarm() { set_sink(kRingSink, false); }
  bool armed() const { return (sinks() & kRingSink) != 0; }
  // The flight recorder's switch (FlightRecorder::arm).
  void feed_flight(bool on) { set_sink(kFlightSink, on); }
  bool feeds_flight() const { return (sinks() & kFlightSink) != 0; }

  // Drop recorded events; keeps the armed state and capacity.
  void clear() { ring_.clear(); }

  std::size_t size() const { return ring_.size(); }
  u64 dropped() const { return ring_.overwritten(); }

  // Recorded events, oldest first (at most the armed capacity).
  std::vector<Event> events() const { return ring_.items(); }

  // --- Typed emit helpers (the hot-path API) ---------------------------------
  // Each feeds the armed flight recorder first and then the armed ring.
  // Neither charges a cycle.
  void excp_entry(u8 ec, u8 from_el, u8 target_el, u64 esr, bool stage2) {
    emit(EventKind::kExcpEntry, esr, stage2, ec, from_el, target_el);
  }
  void excp_return(u8 from_el, u8 resumed_el) {
    emit(EventKind::kExcpReturn, 0, 0, 0, from_el, resumed_el);
  }
  void ttbr_switch(u16 asid, u64 ttbr) {
    emit(EventKind::kTtbrSwitch, ttbr, asid);
  }
  void tlb_inval(TlbScope scope, u16 asid, u16 vmid) {
    emit(EventKind::kTlbInval, asid, vmid, 0, static_cast<u8>(scope));
  }
  void stage2_fault(u64 ipa, u16 vmid) {
    emit(EventKind::kStage2Fault, ipa, vmid);
  }
  void hvc_forward(u32 forwarded_esr, u8 forwarded_ec) {
    emit(EventKind::kHvcForward, forwarded_esr, 0, forwarded_ec);
  }
  void world_switch(WorldKind kind, u16 vmid) {
    emit(EventKind::kWorldSwitch, vmid, 0, 0, static_cast<u8>(kind));
  }
  void gate_switch(u16 gate, u16 asid) {
    emit(EventKind::kGateSwitch, gate, asid);
  }
  void pan_toggle(bool on) { emit(EventKind::kPanToggle, on); }
  void irq(u8 target_el) { emit(EventKind::kIrq, 0, 0, 0, 0, target_el); }

  // --- Export ----------------------------------------------------------------
  // Chrome trace_event JSON; events come out oldest-first as instant
  // events ("ph":"i") with per-kind args. Deterministic byte-for-byte.
  // `extra_events` is a pre-rendered fragment spliced into the
  // traceEvents array after the instant events (SpanTracer::chrome_fragment
  // supplies the "ph":"X" duration events).
  std::string to_chrome_json(std::string_view extra_events = {}) const;
  bool write_chrome_json(const std::string& path,
                         std::string_view extra_events = {}) const;

 private:
  enum : u8 { kRingSink = 1, kFlightSink = 2 };
  u8 sinks() const { return sinks_.load(std::memory_order_relaxed); }
  void set_sink(u8 sink, bool on) {
    if (on) {
      sinks_.fetch_or(sink, std::memory_order_relaxed);
    } else {
      sinks_.fetch_and(static_cast<u8>(~sink), std::memory_order_relaxed);
    }
  }
  void emit(EventKind kind, u64 a0, u64 a1 = 0, u8 b0 = 0, u8 b1 = 0,
            u8 b2 = 0) {
    if (sinks() == 0) return;
    record({cycle_ledger().total(), a0, a1, kind, b0, b1, b2});
  }
  void record(const Event& e);  // feeds each armed sink

  Ring<Event> ring_;
  std::atomic<u8> sinks_{0};  // kRingSink | kFlightSink while armed
};

// The process-wide trace every subsystem emits into.
Trace& trace();

}  // namespace lz::obs
