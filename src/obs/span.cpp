#include "obs/span.h"

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <mutex>

#include "obs/counters.h"
#include "obs/flight.h"
#include "obs/histogram.h"

namespace lz::obs {
namespace {

// Per-thread open-span state. `stack` holds the spans this thread opened
// and has not yet closed (`end` and `core` are filled in at close);
// `ambient` is the cross-thread parent adopted by SpanTracer::Adopt
// (kernel workers running a submitted task).
struct TlsSpans {
  std::array<SpanEvent, SpanTracer::kMaxDepth> stack;
  std::size_t depth = 0;
  u64 ambient = 0;
};

thread_local TlsSpans t_spans;

Cycles span_now() { return cycle_ledger().total(); }

struct DomainLabels {
  std::mutex mu;
  std::map<u32, std::string> labels;  // vmid<<16 | asid
};

DomainLabels& domain_labels() {
  static DomainLabels labels;
  return labels;
}

constexpr u32 domain_key(u16 vmid, u16 asid) {
  return (static_cast<u32>(vmid) << 16) | asid;
}

}  // namespace

const char* to_string(SpanKind kind) {
  constexpr const char* kNames[] = {"request",     "task",        "syscall",
                                    "hvc-forward", "gate-switch", "pan-switch",
                                    "world-switch"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(SpanKind::kCount));
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kNames) ? kNames[k] : "unknown";
}

void SpanTracer::arm(std::size_t capacity) {
  // Re-arming keeps the statistics (clear() drops them), so the overwrites
  // of the ring being replaced move into the drop tally.
  dropped_.fetch_add(ring_.overwritten(), std::memory_order_relaxed);
  ring_.reset(capacity ? capacity : 1);
  armed_.store(true, std::memory_order_relaxed);
}

void SpanTracer::clear() {
  ring_.clear();
  completed_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  max_depth_.store(0, std::memory_order_relaxed);
  for (auto& k : by_kind_) k.store(0, std::memory_order_relaxed);
}

u64 SpanTracer::begin_armed(SpanKind kind, u64 arg, u16 vmid, u16 asid) {
  TlsSpans& t = t_spans;
  if (t.depth >= kMaxDepth) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const u64 parent = t.depth ? t.stack[t.depth - 1].id : t.ambient;
  const u64 id = next_id_.fetch_add(1, std::memory_order_relaxed);
  t.stack[t.depth++] = {span_now(), 0, id, parent, arg, 0, vmid, asid, kind};
  atomic_max(max_depth_, t.depth);
  return id;
}

void SpanTracer::end_open(u64 id) {
  TlsSpans& t = t_spans;
  // Unwind to the matching id; anything above it was abandoned (its scope
  // leaked past its parent's), which RAII makes impossible in practice.
  while (t.depth > 0) {
    SpanEvent e = t.stack[--t.depth];
    if (e.id != id) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!armed_.load(std::memory_order_relaxed)) return;
    e.end = span_now();
    e.core = current_core();
    completed_.fetch_add(1, std::memory_order_relaxed);
    by_kind_[static_cast<std::size_t>(e.kind)].fetch_add(
        1, std::memory_order_relaxed);
    ring_.push(e);
    return;
  }
}

u64 SpanTracer::current() {
  const TlsSpans& t = t_spans;
  return t.depth ? t.stack[t.depth - 1].id : t.ambient;
}

SpanTracer::Adopt::Adopt(u64 parent) {
  prev_ = t_spans.ambient;
  t_spans.ambient = parent;
}

SpanTracer::Adopt::~Adopt() { t_spans.ambient = prev_; }

std::string SpanTracer::chrome_fragment() const {
  std::string out;
  char buf[352];
  for (const SpanEvent& e : events()) {
    const Cycles dur = e.end >= e.start ? e.end - e.start : 0;
    int n = std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,"
        "\"tid\":%u,\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
        ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
        ",\"arg\":%" PRIu64 ",\"vmid\":%u,\"asid\":%u",
        out.empty() ? "" : ",", to_string(e.kind), e.core,
        static_cast<u64>(e.start), static_cast<u64>(dur), e.id, e.parent,
        e.arg, e.vmid, e.asid);
    out.append(buf, static_cast<std::size_t>(n));
    const std::string label = domain_label(e.vmid, e.asid);
    if (!label.empty()) {
      out += ",\"tenant\":\"";
      out += sanitize_frame(label);
      out += '"';
    }
    out += "}}";
  }
  return out;
}

SpanScope::SpanScope(SpanKind kind, u64 arg, u16 vmid, u16 asid)
    : id_(spans().begin(kind, arg, vmid, asid)) {}

SpanScope::~SpanScope() { spans().end(id_); }

void set_domain_label(u16 vmid, u16 asid, std::string_view label) {
  DomainLabels& dl = domain_labels();
  std::lock_guard<std::mutex> lock(dl.mu);
  dl.labels[domain_key(vmid, asid)] = std::string(label);
}

std::string domain_label(u16 vmid, u16 asid) {
  DomainLabels& dl = domain_labels();
  std::lock_guard<std::mutex> lock(dl.mu);
  auto it = dl.labels.find(domain_key(vmid, asid));
  return it == dl.labels.end() ? std::string() : it->second;
}

void clear_domain_labels() {
  DomainLabels& dl = domain_labels();
  std::lock_guard<std::mutex> lock(dl.mu);
  dl.labels.clear();
}

std::string sanitize_frame(std::string_view frame) {
  std::string out(frame);
  for (char& c : out) {
    if (c == ';' || c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
        c == '"' || c == '\\')
      c = '_';
  }
  return out;
}

}  // namespace lz::obs
