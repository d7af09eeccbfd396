// lz::obs — architectural event trace.
//
// A bounded ring buffer of fixed-size events timestamped by *simulated
// cycles* (the global CycleLedger — never wall clock, so traces are
// byte-identical across runs and usable as golden files). The taxonomy
// covers the events the paper's numbers hinge on: exception entry/return
// with EC and target EL, TTBR0/ASID switches, TLB invalidations, stage-2
// faults, HVC forwards, and world switches.
//
// Cost model: the trace is disarmed by default, so every emit helper is a
// single predictable branch; arming allocates the ring once and emission
// stays allocation-free. Defining LZ_OBS_NO_TRACE at compile time removes
// even the branch (every helper becomes an empty inline), which is the
// hard off switch for builds that want zero overhead.
//
// Export is Chrome trace_event JSON: load the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing; `ts` is in simulated cycles.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.h"
#include "support/types.h"

namespace lz::obs {

struct Event;
#ifndef LZ_OBS_NO_TRACE
// Always-on flight-recorder feed (flight.h); called by every emit helper.
void flight_record(const Event& e);
#endif

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

class Trace {
 public:
  // Allocate (or resize) the ring and start recording. Re-arming clears.
  void arm(std::size_t capacity);
  void disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Drop recorded events; keeps the armed state and capacity.
  void clear();

  std::size_t size() const;
  std::size_t capacity() const;
  u64 dropped() const;  // overwritten by wraparound

  // Recorded events, oldest first (at most `capacity()` of them).
  std::vector<Event> events() const;

  // --- Typed emit helpers (the hot-path API) ---------------------------------
  // Every helper also feeds the always-on flight recorder (flight.h) before
  // checking the armed flag, so the black box sees the last events even in
  // runs where nobody armed a trace. The recorder is lock-free and charges
  // nothing; LZ_OBS_NO_TRACE removes both the feed and the trace.
#ifdef LZ_OBS_NO_TRACE
  void excp_entry(u8, u8, u8, u64, bool) {}
  void excp_return(u8, u8) {}
  void ttbr_switch(u16, u64) {}
  void tlb_inval(TlbScope, u16, u16) {}
  void stage2_fault(u64, u16) {}
  void hvc_forward(u32, u8) {}
  void world_switch(WorldKind, u16) {}
  void gate_switch(u16, u16) {}
  void pan_toggle(bool) {}
  void irq(u8) {}
#else
  void excp_entry(u8 ec, u8 from_el, u8 target_el, u64 esr, bool stage2) {
    emit({now(), esr, stage2, EventKind::kExcpEntry, ec, from_el, target_el});
  }
  void excp_return(u8 from_el, u8 resumed_el) {
    emit({now(), 0, 0, EventKind::kExcpReturn, 0, from_el, resumed_el});
  }
  void ttbr_switch(u16 asid, u64 ttbr) {
    emit({now(), ttbr, asid, EventKind::kTtbrSwitch, 0, 0, 0});
  }
  void tlb_inval(TlbScope scope, u16 asid, u16 vmid) {
    emit({now(), asid, vmid, EventKind::kTlbInval, 0,
          static_cast<u8>(scope), 0});
  }
  void stage2_fault(u64 ipa, u16 vmid) {
    emit({now(), ipa, vmid, EventKind::kStage2Fault, 0, 0, 0});
  }
  void hvc_forward(u32 forwarded_esr, u8 forwarded_ec) {
    emit({now(), forwarded_esr, 0, EventKind::kHvcForward, forwarded_ec, 0,
          0});
  }
  void world_switch(WorldKind kind, u16 vmid) {
    emit({now(), vmid, 0, EventKind::kWorldSwitch, 0,
          static_cast<u8>(kind), 0});
  }
  void gate_switch(u16 gate, u16 asid) {
    emit({now(), gate, asid, EventKind::kGateSwitch, 0, 0, 0});
  }
  void pan_toggle(bool on) {
    emit({now(), on, 0, EventKind::kPanToggle, 0, 0, 0});
  }
  void irq(u8 target_el) {
    emit({now(), 0, 0, EventKind::kIrq, 0, 0, target_el});
  }
#endif

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
  static Cycles now() { return cycle_ledger().total(); }
#ifndef LZ_OBS_NO_TRACE
  void emit(const Event& e) {
    flight_record(e);  // always-on black box, armed or not
    if (!armed_) return;
    push(e);
  }
#endif
  void push(const Event& e);

  // The armed flag is a relaxed atomic so the disarmed fast path stays a
  // single branch under SMP; the ring itself is mutex-guarded (emission is
  // rare enough — armed runs only — that contention does not matter).
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next write index
  std::size_t count_ = 0;
  u64 dropped_ = 0;
  std::atomic<bool> armed_{false};
};

// The process-wide trace every subsystem emits into.
Trace& trace();

}  // namespace lz::obs
