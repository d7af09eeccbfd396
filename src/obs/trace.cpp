#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "obs/counters.h"

namespace lz::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kExcpEntry: return "excp-entry";
    case EventKind::kExcpReturn: return "excp-return";
    case EventKind::kTtbrSwitch: return "ttbr-switch";
    case EventKind::kTlbInval: return "tlb-inval";
    case EventKind::kStage2Fault: return "stage2-fault";
    case EventKind::kHvcForward: return "hvc-forward";
    case EventKind::kWorldSwitch: return "world-switch";
    case EventKind::kGateSwitch: return "gate-switch";
    case EventKind::kPanToggle: return "pan-toggle";
    case EventKind::kIrq: return "irq";
    case EventKind::kCount: break;
  }
  return "?";
}

const char* to_string(TlbScope scope) {
  switch (scope) {
    case TlbScope::kAll: return "all";
    case TlbScope::kVmid: return "vmid";
    case TlbScope::kAsid: return "asid";
    case TlbScope::kVa: return "va";
    case TlbScope::kVaAllAsid: return "va-all-asid";
  }
  return "?";
}

const char* to_string(WorldKind kind) {
  switch (kind) {
    case WorldKind::kVmEntry: return "vm-entry";
    case WorldKind::kVmExit: return "vm-exit";
    case WorldKind::kLzEnter: return "lz-enter";
    case WorldKind::kLzExit: return "lz-exit";
  }
  return "?";
}

namespace {

const char* tlb_scope_name(u8 scope) {
  return to_string(static_cast<TlbScope>(scope));
}

const char* world_kind_name(u8 kind) {
  return to_string(static_cast<WorldKind>(kind));
}

void append_kv_u64(std::string& out, const char* key, u64 v, bool first) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                v);
  out += buf;
}

void append_kv_hex(std::string& out, const char* key, u64 v, bool first) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s\"%s\":\"0x%" PRIx64 "\"",
                first ? "" : ",", key, v);
  out += buf;
}

void append_kv_str(std::string& out, const char* key, const char* v,
                   bool first) {
  out += first ? "" : ",";
  out += '"';
  out += key;
  out += "\":\"";
  out += v;  // taxonomy names only; never user data, never needs escaping
  out += '"';
}

// Per-kind argument rendering: stable key order, stable formatting.
void append_args(std::string& out, const Event& e) {
  switch (e.kind) {
    case EventKind::kExcpEntry:
      append_kv_hex(out, "ec", e.b0, true);
      append_kv_u64(out, "from_el", e.b1, false);
      append_kv_u64(out, "target_el", e.b2, false);
      append_kv_hex(out, "esr", e.a0, false);
      append_kv_u64(out, "stage2", e.a1, false);
      return;
    case EventKind::kExcpReturn:
      append_kv_u64(out, "from_el", e.b1, true);
      append_kv_u64(out, "resumed_el", e.b2, false);
      return;
    case EventKind::kTtbrSwitch:
      append_kv_u64(out, "asid", e.a1, true);
      append_kv_hex(out, "ttbr", e.a0, false);
      return;
    case EventKind::kTlbInval:
      append_kv_str(out, "scope", tlb_scope_name(e.b1), true);
      append_kv_u64(out, "asid", e.a0, false);
      append_kv_u64(out, "vmid", e.a1, false);
      return;
    case EventKind::kStage2Fault:
      append_kv_hex(out, "ipa", e.a0, true);
      append_kv_u64(out, "vmid", e.a1, false);
      return;
    case EventKind::kHvcForward:
      append_kv_hex(out, "esr", e.a0, true);
      append_kv_hex(out, "forwarded_ec", e.b0, false);
      return;
    case EventKind::kWorldSwitch:
      append_kv_str(out, "kind", world_kind_name(e.b1), true);
      append_kv_u64(out, "vmid", e.a0, false);
      return;
    case EventKind::kGateSwitch:
      append_kv_u64(out, "gate", e.a0, true);
      append_kv_u64(out, "asid", e.a1, false);
      return;
    case EventKind::kPanToggle:
      append_kv_u64(out, "pan", e.a0, true);
      return;
    case EventKind::kIrq:
      append_kv_u64(out, "target_el", e.b2, true);
      return;
    case EventKind::kCount:
      return;
  }
}

}  // namespace

void Trace::arm(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.assign(capacity, Event{});
  head_ = count_ = 0;
  dropped_ = 0;
  armed_.store(capacity > 0, std::memory_order_relaxed);
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = count_ = 0;
  dropped_ = 0;
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::size_t Trace::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

u64 Trace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Trace::push(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return;
  ring_[head_] = e;
  head_ = (head_ + 1) % ring_.size();
  if (count_ < ring_.size()) {
    ++count_;
  } else {
    ++dropped_;  // wraparound: the oldest event was overwritten
    // Surface silent truncation in the counter registry too, so reports
    // flag it without the trace file. Registered lazily on the first drop:
    // drop-free runs keep their counter section (and goldens) unchanged.
    static Counter& dropped_counter = registry().counter("obs.trace.dropped");
    dropped_counter.add();
  }
}

std::vector<Event> Trace::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(count_);
  const std::size_t start =
      count_ < ring_.size() ? 0 : head_;  // oldest surviving event
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string Trace::to_chrome_json(std::string_view extra_events) const {
  std::string out;
  out.reserve(size() * 128 + 128);
  out += "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":"
         "\"simulated-cycles\",\"dropped_events\":";
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, dropped());
    out += buf;
  }
  out += "},\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events()) {
    if (!first) out += ',';
    first = false;
    char head[128];
    std::snprintf(head, sizeof head,
                  "{\"name\":\"%s\",\"cat\":\"arch\",\"ph\":\"i\",\"s\":\"g\","
                  "\"pid\":0,\"tid\":0,\"ts\":%" PRIu64 ",\"args\":{",
                  to_string(e.kind), e.ts);
    out += head;
    append_args(out, e);
    out += "}}";
  }
  if (!extra_events.empty()) {
    if (!first) out += ',';
    out += extra_events;
  }
  out += "]}";
  return out;
}

bool Trace::write_chrome_json(const std::string& path,
                              std::string_view extra_events) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::string json = to_chrome_json(extra_events);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

Trace& trace() {
  static Trace t;
  return t;
}

}  // namespace lz::obs
