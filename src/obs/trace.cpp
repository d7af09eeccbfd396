#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "obs/counters.h"
#include "obs/flight.h"

namespace lz::obs {

namespace {

// The event vocabulary, written once: for each EventKind (in enum order)
// its name and its payload fields in render order, each with the Event
// slot it is read from and how it prints.
enum class Src : u8 { kA0, kA1, kB0, kB1, kB2 };
enum class Fmt : u8 { kDec, kHex, kScope, kWorld };
struct Field {
  const char* key = nullptr;  // nullptr ends the kind's list
  Src src = Src::kA0;
  Fmt fmt = Fmt::kDec;
};
struct KindRow {
  const char* name;
  Field fields[5];
};
using S = Src;
using F = Fmt;
constexpr KindRow kKinds[] = {
    {"excp-entry",
     {{"ec", S::kB0, F::kHex}, {"from_el", S::kB1}, {"target_el", S::kB2},
      {"esr", S::kA0, F::kHex}, {"stage2", S::kA1}}},
    {"excp-return", {{"from_el", S::kB1}, {"resumed_el", S::kB2}}},
    {"ttbr-switch", {{"asid", S::kA1}, {"ttbr", S::kA0, F::kHex}}},
    {"tlb-inval",
     {{"scope", S::kB1, F::kScope}, {"asid", S::kA0}, {"vmid", S::kA1}}},
    {"stage2-fault", {{"ipa", S::kA0, F::kHex}, {"vmid", S::kA1}}},
    {"hvc-forward",
     {{"esr", S::kA0, F::kHex}, {"forwarded_ec", S::kB0, F::kHex}}},
    {"world-switch", {{"kind", S::kB1, F::kWorld}, {"vmid", S::kA0}}},
    {"gate-switch", {{"gate", S::kA0}, {"asid", S::kA1}}},
    {"pan-toggle", {{"pan", S::kA0}}},
    {"irq", {{"target_el", S::kB2}}},
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(EventKind::kCount));

// TlbScope and WorldKind names, in enum order.
constexpr const char* kScopeNames[] = {"va", "va-all-asid", "asid", "vmid",
                                       "all"};
constexpr const char* kWorldNames[] = {"vm-entry", "vm-exit", "lz-enter",
                                       "lz-exit"};

template <std::size_t N>
const char* name_at(const char* const (&names)[N], std::size_t i) {
  return i < N ? names[i] : "?";
}

}  // namespace

const char* to_string(EventKind kind) {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kKinds) ? kKinds[k].name : "?";
}
const char* to_string(TlbScope scope) {
  return name_at(kScopeNames, static_cast<std::size_t>(scope));
}
const char* to_string(WorldKind kind) {
  return name_at(kWorldNames, static_cast<std::size_t>(kind));
}

void append_event_args(std::string& out, const Event& e, bool json) {
  const auto kind = static_cast<std::size_t>(e.kind);
  if (kind >= std::size(kKinds)) return;
  const u64 slots[] = {e.a0, e.a1, e.b0, e.b1, e.b2};  // indexed by Src
  const char* q = json ? "\"" : "";
  for (const Field& f : kKinds[kind].fields) {
    if (f.key == nullptr) break;
    const u64 v = slots[static_cast<std::size_t>(f.src)];
    if (&f != kKinds[kind].fields) out += json ? ',' : ' ';
    out.append(q).append(f.key).append(q).append(json ? ":" : "=");
    char buf[32];
    if (f.fmt == Fmt::kDec) {
      std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    } else if (f.fmt == Fmt::kHex) {
      std::snprintf(buf, sizeof buf, "%s0x%" PRIx64 "%s", q, v, q);
    } else {  // taxonomy names only: never user data, never needs escaping
      std::snprintf(buf, sizeof buf, "%s%s%s", q,
                    f.fmt == Fmt::kScope ? name_at(kScopeNames, v)
                                         : name_at(kWorldNames, v),
                    q);
    }
    out += buf;
  }
}

void Trace::record(const Event& e) {
  const u8 sinks = this->sinks();
  if ((sinks & kFlightSink) != 0) flight().record(e);
  if ((sinks & kRingSink) == 0 || !ring_.push(e)) return;
  // Wraparound overwrote the oldest event. Surface silent truncation in
  // the counter registry too, so reports flag it without the trace file.
  // Registered lazily on the first drop: drop-free runs keep their counter
  // section (and goldens) unchanged.
  static Counter& dropped_counter = registry().counter("obs.trace.dropped");
  dropped_counter.add();
}

std::string Trace::to_chrome_json(std::string_view extra_events) const {
  std::string out;
  out.reserve(size() * 128 + 128);
  out += "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":"
         "\"simulated-cycles\",\"dropped_events\":";
  out += std::to_string(dropped());
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
    append_event_args(out, e, /*json=*/true);
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
  return write_text(path, to_chrome_json(extra_events));
}

Trace& trace() {
  static Trace t;
  return t;
}

}  // namespace lz::obs
