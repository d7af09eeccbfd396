// lz::obs — request-scoped span tracing.
//
// Spans are duration events with parent/child causality: a workload
// request nests the kernel task that runs it, that task's syscalls, their
// HVC forwards and the switches LightZone makes for them. A completed span
// records [start, end] in simulated cycles and the VMID/ASID active at
// open time, so one request can be followed across layers and cores.
//
// Each thread keeps a stack of open spans, and `begin` parents a new span
// under its top. Where work hops threads (kernel::Kernel::run_on), the
// enqueuing side captures `current()` and the worker adopts it with an
// `Adopt` guard before opening its task span.
//
// Disarmed, `begin` is one inline relaxed load and `end(0)` an inline
// branch; spans never charge cycles. Export is Chrome trace_event "X"
// events, which Perfetto nests by containment per track (tid = simulated
// core).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.h"
#include "support/types.h"

namespace lz::obs {

enum class SpanKind : u8 {
  kRequest,     // one client request (workload layer)
  kTask,        // one kernel::Kernel queued task execution
  kSyscall,     // one syscall dispatch (kernel layer)
  kHvcForward,  // one HVC forwarded to a privileged C++ layer
  kGateSwitch,  // one secure call-gate domain switch
  kPanSwitch,   // one PAN domain switch
  kWorldSwitch, // one VM / LightZone world entry-exit pair
  kCount,
};

const char* to_string(SpanKind kind);

struct SpanEvent {
  Cycles start = 0;
  Cycles end = 0;
  u64 id = 0;      // unique per armed session, never 0
  u64 parent = 0;  // 0 == root
  u64 arg = 0;     // kind-specific (request #, syscall nr, gate id, ...)
  unsigned core = 0;
  u16 vmid = 0, asid = 0;
  SpanKind kind = SpanKind::kCount;
};

class SpanTracer {
 public:
  static constexpr std::size_t kMaxDepth = 16;

  // Allocate (or resize) the completed-span ring and start recording.
  // Re-arming clears recorded spans but keeps the id sequence fresh.
  void arm(std::size_t capacity);
  void disarm() { armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Drop recorded spans and statistics; keeps armed state and capacity.
  void clear();

  // Open a span under the current thread's innermost open span (or the
  // adopted ambient parent at depth 0). Returns the span id, or 0 when
  // disarmed / the per-thread stack is full.
  u64 begin(SpanKind kind, u64 arg = 0, u16 vmid = 0, u16 asid = 0) {
    return armed() ? begin_armed(kind, arg, vmid, asid) : 0;
  }
  // Close the span; ids are closed innermost-first (RAII enforces this).
  // end(0) is a no-op, so disarmed begin/end pairs cost two inline branches.
  void end(u64 id) {
    if (id != 0) end_open(id);
  }
  // Innermost open span id on this thread (the value to propagate across
  // a thread hop), or the ambient parent, or 0.
  static u64 current();

  // Re-establish `parent` as the ambient parent on this thread for the
  // guard's lifetime (used by kernel workers to adopt the submitter's
  // span across the queue hop). Nestable; restores the previous value.
  class Adopt {
   public:
    explicit Adopt(u64 parent);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    u64 prev_ = 0;
  };

  std::size_t size() const { return ring_.size(); }
  u64 completed() const { return completed_.load(std::memory_order_relaxed); }
  // Ring overwrites + depth overflows + spans unwound past their parent.
  u64 dropped() const {
    return ring_.overwritten() + dropped_.load(std::memory_order_relaxed);
  }
  u64 max_depth() const { return max_depth_.load(std::memory_order_relaxed); }
  u64 completed_of(SpanKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

  // Completed spans, oldest first.
  std::vector<SpanEvent> events() const { return ring_.items(); }

  // Chrome trace_event fragment: one "ph":"X" object per completed span,
  // comma-separated, no enclosing brackets — ready to splice into
  // Trace::to_chrome_json's traceEvents array. Deterministic given a
  // deterministic span stream.
  std::string chrome_fragment() const;

 private:
  u64 begin_armed(SpanKind kind, u64 arg, u16 vmid, u16 asid);
  void end_open(u64 id);

  Ring<SpanEvent> ring_;
  std::atomic<u64> next_id_{1};
  std::atomic<u64> completed_{0};
  std::atomic<u64> dropped_{0};  // depth overflows + unwound spans
  std::atomic<u64> max_depth_{0};
  std::array<std::atomic<u64>, static_cast<std::size_t>(SpanKind::kCount)>
      by_kind_{};
  std::atomic<bool> armed_{false};
};

// RAII span handle; safe (and free) when the tracer is disarmed.
class SpanScope {
 public:
  SpanScope(SpanKind kind, u64 arg = 0, u16 vmid = 0, u16 asid = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  u64 id() const { return id_; }

 private:
  u64 id_ = 0;
};

// The process-wide span tracer every subsystem emits into; inline, so a
// disarmed span costs no call.
inline SpanTracer& spans() {
  static SpanTracer tracer;
  return tracer;
}

// --- Tenant labels -----------------------------------------------------------
// Human-readable names for (VMID, ASID) tenants, attached to span args in
// the Chrome export and appended as a frame in the profiler's collapsed
// stacks. Labels are sanitized for flamegraph.pl on output, not on entry.
void set_domain_label(u16 vmid, u16 asid, std::string_view label);
// Registered label or "" if none.
std::string domain_label(u16 vmid, u16 asid);
void clear_domain_labels();

// Replace characters that corrupt flamegraph.pl frames (`;` separates
// frames, whitespace separates the count) with '_'.
std::string sanitize_frame(std::string_view frame);

}  // namespace lz::obs
