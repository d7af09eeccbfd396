#include "obs/flight.h"

#include <cinttypes>
#include <csignal>
#include <cstdio>

#include "obs/trace.h"

namespace lz::obs {
namespace {

thread_local unsigned t_current_core = 0;

// Decode one recorded slot into the same vocabulary as the trace export,
// but formatted for a terminal, not Perfetto.
void format_event(std::string& out, u64 seq, u64 ts, u64 a0, u64 a1,
                  EventKind kind, u8 b0, u8 b1, u8 b2) {
  char buf[192];
  int n = std::snprintf(buf, sizeof buf, "    #%-6" PRIu64 " @%-12" PRIu64
                        " %-12s ",
                        seq, ts, to_string(kind));
  out.append(buf, static_cast<std::size_t>(n));
  n = 0;
  switch (kind) {
    case EventKind::kExcpEntry:
      n = std::snprintf(buf, sizeof buf,
                        "ec=0x%x el%u->el%u esr=0x%" PRIx64 "%s", b0, b1, b2,
                        a0, a1 ? " stage2" : "");
      break;
    case EventKind::kExcpReturn:
      n = std::snprintf(buf, sizeof buf, "el%u->el%u", b1, b2);
      break;
    case EventKind::kTtbrSwitch:
      n = std::snprintf(buf, sizeof buf, "asid=%" PRIu64 " ttbr=0x%" PRIx64,
                        a1, a0);
      break;
    case EventKind::kTlbInval:
      n = std::snprintf(buf, sizeof buf,
                        "scope=%s asid=%" PRIu64 " vmid=%" PRIu64,
                        to_string(static_cast<TlbScope>(b1)), a0, a1);
      break;
    case EventKind::kStage2Fault:
      n = std::snprintf(buf, sizeof buf, "ipa=0x%" PRIx64 " vmid=%" PRIu64,
                        a0, a1);
      break;
    case EventKind::kHvcForward:
      n = std::snprintf(buf, sizeof buf, "esr=0x%" PRIx64 " ec=0x%x", a0, b0);
      break;
    case EventKind::kWorldSwitch:
      n = std::snprintf(buf, sizeof buf, "%s vmid=%" PRIu64,
                        to_string(static_cast<WorldKind>(b1)), a0);
      break;
    case EventKind::kGateSwitch:
      n = std::snprintf(buf, sizeof buf, "gate=%" PRIu64 " asid=%" PRIu64, a0,
                        a1);
      break;
    case EventKind::kPanToggle:
      n = std::snprintf(buf, sizeof buf, "pan=%" PRIu64, a0);
      break;
    case EventKind::kIrq:
      n = std::snprintf(buf, sizeof buf, "target_el=%u", b2);
      break;
    case EventKind::kCount:
      break;
  }
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  out += '\n';
}

using AbortHandler = void (*)(int);
AbortHandler g_prev_abort_handler = SIG_DFL;

void flight_abort_handler(int sig) {
  // async-signal-safety: abort() is called from ordinary (non-signal)
  // context in this codebase (LZ_CHECK, lz::check fail-stop, libc
  // assert), so taking the dump's internal loads here is acceptable for a
  // diagnostic of last resort.
  flight_dump(stderr);
  std::signal(SIGABRT, g_prev_abort_handler);
  std::raise(sig);
}

}  // namespace

unsigned set_current_core(unsigned core) {
  const unsigned prev = t_current_core;
  t_current_core = core;
  return prev;
}

unsigned current_core() { return t_current_core; }

void FlightRecorder::record(const Event& e) {
  const unsigned core = t_current_core < kMaxCores ? t_current_core : 0;
  CoreRing& ring = cores_[core];
  const u64 seq = ring.next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[seq & (kEventsPerCore - 1)];
  // Readers tolerate torn slots; seq is stored last so a fully written
  // slot is very likely tagged by the time a crash dump reads it.
  slot.ts.store(e.ts, std::memory_order_relaxed);
  slot.a0.store(e.a0, std::memory_order_relaxed);
  slot.a1.store(e.a1, std::memory_order_relaxed);
  slot.meta.store(static_cast<u32>(e.kind) | (static_cast<u32>(e.b0) << 8) |
                      (static_cast<u32>(e.b1) << 16) |
                      (static_cast<u32>(e.b2) << 24),
                  std::memory_order_release);
  slot.seq.store(seq + 1, std::memory_order_release);
}

u64 FlightRecorder::recorded() const {
  u64 n = 0;
  for (const CoreRing& ring : cores_)
    n += ring.next.load(std::memory_order_relaxed);
  return n;
}

void FlightRecorder::clear() {
  for (CoreRing& ring : cores_) {
    ring.next.store(0, std::memory_order_relaxed);
    for (Slot& slot : ring.slots) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.ts.store(0, std::memory_order_relaxed);
      slot.a0.store(0, std::memory_order_relaxed);
      slot.a1.store(0, std::memory_order_relaxed);
      slot.meta.store(0, std::memory_order_relaxed);
    }
  }
}

std::string FlightRecorder::report() const {
  std::string out;
  char buf[160];
  for (std::size_t core = 0; core < kMaxCores; ++core) {
    const CoreRing& ring = cores_[core];
    const u64 next = ring.next.load(std::memory_order_acquire);
    if (next == 0) continue;
    const u64 window = next < kEventsPerCore ? next : kEventsPerCore;
    int n = std::snprintf(buf, sizeof buf,
                          "  core %zu: %" PRIu64 " event%s recorded, last %"
                          PRIu64 ":\n",
                          core, next, next == 1 ? "" : "s", window);
    out.append(buf, static_cast<std::size_t>(n));
    for (u64 seq = next - window; seq < next; ++seq) {
      const Slot& slot = ring.slots[seq & (kEventsPerCore - 1)];
      if (slot.seq.load(std::memory_order_acquire) != seq + 1)
        continue;  // torn / overwritten while dumping
      const u32 meta = slot.meta.load(std::memory_order_relaxed);
      format_event(out, seq + 1, slot.ts.load(std::memory_order_relaxed),
                   slot.a0.load(std::memory_order_relaxed),
                   slot.a1.load(std::memory_order_relaxed),
                   static_cast<EventKind>(meta & 0xff),
                   static_cast<u8>(meta >> 8), static_cast<u8>(meta >> 16),
                   static_cast<u8>(meta >> 24));
    }
  }
  return out;
}

FlightRecorder& flight() {
  static FlightRecorder recorder;
  return recorder;
}

#ifndef LZ_OBS_NO_TRACE
void flight_record(const Event& e) { flight().record(e); }
#endif

void flight_dump(std::FILE* out) {
  FlightRecorder& f = flight();
  if (f.recorded() == 0) return;
  std::fprintf(out,
               "==== lz::obs flight recorder — BLACK BOX (last %zu "
               "architectural events per core) ====\n",
               FlightRecorder::kEventsPerCore);
  const std::string body = f.report();
  std::fwrite(body.data(), 1, body.size(), out);
  std::fprintf(out, "==== end of black box ====\n");
  std::fflush(out);
}

void install_flight_abort_handler() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  g_prev_abort_handler = std::signal(SIGABRT, flight_abort_handler);
  if (g_prev_abort_handler == SIG_ERR) g_prev_abort_handler = SIG_DFL;
}

}  // namespace lz::obs
