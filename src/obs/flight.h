// lz::obs — crash flight recorder, armed by its readers.
//
// Per-core lock-free rings of the last N architectural events (exceptions,
// TLB invalidations, TTBR writes, domain and world switches). While it is
// armed, every Trace emit helper feeds it, armed trace or not, so an
// lz::check divergence, an unhandled fault or a stray abort can print the
// state trail that led there. Its readers arm it: lz::check (check.cpp)
// for as long as its hooks are compiled in and enabled, and the fuzz
// replay drivers (bench/fuzz_replay.h). Elsewhere it is off and costs the
// emit helpers nothing, and the abort handler has nothing to print.
//
// Recording charges no simulated cycle and bumps no counter (the fuzz
// replay oracles diff counter snapshots). A slot is claimed with one
// fetch_add and filled with relaxed atomic stores: no lock, no allocation.
// The dump tolerates torn slots, orders each core's events by their
// sequence tags, and prints each payload from the trace's field table as
// key=value words.
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

  // Start (or stop) taking the trace's events.
  void arm(bool on = true);
  bool armed() const;

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

// The process-wide recorder.
FlightRecorder& flight();

// Write the black-box report to `out` (stderr in the crash paths) with a
// BLACK BOX banner; no-op if nothing was recorded.
void flight_dump(std::FILE* out);

// Install a SIGABRT handler that dumps the black box before the process
// dies, so LZ_CHECK failures and stray aborts leave a state trail.
// Idempotent; chains to any previously installed handler.
void install_flight_abort_handler();

}  // namespace lz::obs
