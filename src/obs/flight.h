// lz::obs — always-on crash flight recorder.
//
// A per-core, lock-free ring of the last N architectural events
// (exceptions, TLB invalidations, TTBR/sysreg writes, domain and world
// switches). Unlike the main trace it is *always on*: every Trace emit
// helper feeds it even when the trace is disarmed, so when something goes
// wrong — an lz::check oracle divergence, an unhandled guest fault, a
// stray std::abort — the black box can print the state trail that led
// there without anyone having asked for a trace up front.
//
// Cost contract: recording charges zero simulated cycles and bumps no
// counters (fuzz replay oracles compare counter snapshots, so the
// recorder must be invisible to them). The host cost per event is a
// handful of relaxed atomic stores into a fixed slot claimed with one
// fetch_add — no locks, no allocation, TSan-clean under the SMP machine.
// Readers (the crash dump) tolerate torn in-flight slots; slots are
// tagged with a sequence number so the dump orders events per core.
// LZ_OBS_NO_TRACE compiles the feed out together with the trace helpers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <string>

#include "support/types.h"

namespace lz::obs {

struct Event;  // trace.h

// Simulated core currently bound to this host thread (set by
// sim::Machine::CoreBinding); 0 for unbound threads. Returns the previous
// value so bindings can nest/restore.
unsigned set_current_core(unsigned core);
unsigned current_core();

class FlightRecorder {
 public:
  static constexpr std::size_t kMaxCores = 64;
  static constexpr std::size_t kEventsPerCore = 64;  // power of two

  // Record one architectural event on `current_core()`.
  void record(const Event& e);

  // Drop everything recorded so far (test / session boundary).
  void clear();

  // Events recorded since the last clear(): the sum of the per-core claim
  // counters, so recording bumps no shared tally.
  u64 recorded() const;

  // Human-readable black-box report: for each core that recorded
  // anything, the last kEventsPerCore events oldest-first with sequence
  // number, simulated timestamp, kind and decoded payload.
  std::string report() const;

 private:
  struct Slot {
    std::atomic<u64> seq{0};  // 1-based claim order on this core; 0 = empty
    std::atomic<u64> ts{0};
    std::atomic<u64> a0{0};
    std::atomic<u64> a1{0};
    std::atomic<u32> meta{0};  // kind | b0<<8 | b1<<16 | b2<<24
  };

  struct CoreRing {
    std::atomic<u64> next{0};  // total events claimed on this core
    std::array<Slot, kEventsPerCore> slots;
  };

  std::array<CoreRing, kMaxCores> cores_;
};

// The process-wide recorder (always constructed, always recording).
FlightRecorder& flight();

// Feed hook called by every Trace emit helper (armed or not).
#ifdef LZ_OBS_NO_TRACE
inline void flight_record(const Event&) {}
#else
void flight_record(const Event& e);
#endif

// Write the black-box report to `out` (stderr in the crash paths) with a
// BLACK BOX banner; no-op if nothing was recorded.
void flight_dump(std::FILE* out);

// Install a SIGABRT handler that dumps the black box before the process
// dies, so LZ_CHECK failures and stray aborts leave a state trail.
// Idempotent; chains to any previously installed handler.
void install_flight_abort_handler();

}  // namespace lz::obs
