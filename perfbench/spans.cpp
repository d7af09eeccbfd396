#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace lzbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kGateSwitch: return "lightzone.gate_switch";
    case Layer::kSetPan: return "lightzone.set_pan";
    case Layer::kAlloc: return "lightzone.alloc";
    case Layer::kProt: return "lightzone.prot";
    case Layer::kMapGate: return "lightzone.map_gate";
    case Layer::kTouch: return "lightzone.touch";
    case Layer::kFree: return "lightzone.free";
    case Layer::kMemRead: return "sim.mem_read";
    case Layer::kMemWrite: return "sim.mem_write";
    case Layer::kTranslate: return "sim.translate";
    case Layer::kAesExpand: return "crypto.aes_expand";
    case Layer::kAesCbc: return "crypto.aes_cbc";
    case Layer::kA64Fuzz: return "check.a64_fuzz";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer() {
  raw_.reserve(kMaxRawSpans);
  // Calibrate with the real bookkeeping: empty spans inside a dummy op,
  // corrections off. The inner cost is what an empty span reports as its
  // own duration; the outer cost is what it adds to the enclosing op.
  constexpr int kSpans = 20'000;
  constexpr int kTrials = 7;
  std::vector<double> inner, outer;
  for (int t = 0; t < kTrials; ++t) {
    reset();
    op_begin(0);
    for (int i = 0; i < kSpans; ++i) {
      span_begin(Layer::kGateSwitch);
      span_end();
    }
    op_end();
    inner.push_back(layer(Layer::kGateSwitch).self_ns / kSpans);
    outer.push_back(op_ns_ / kSpans);
  }
  std::sort(inner.begin(), inner.end());
  std::sort(outer.begin(), outer.end());
  cost_in_ = inner[kTrials / 2];
  cost_out_ = std::max(outer[kTrials / 2], cost_in_);
  reset();
}

void Tracer::reset() {
  for (auto& l : layers_) l = LayerStats{};
  raw_.clear();
  depth_ = 0;
  ops_ = 0;
  op_ns_ = 0;
  unattributed_ns_ = 0;
}

void Tracer::op_begin(uint64_t op) {
  op_ = op;
  depth_ = 0;
  op_top_ns_ = 0;
  op_top_spans_ = 0;
  op_all_spans_ = 0;
  op_start_ = now_ns();
}

void Tracer::op_end() {
  const int64_t dur = now_ns() - op_start_;
  const double gap = cost_out_ - cost_in_;
  ++ops_;
  op_ns_ += static_cast<double>(dur) -
            static_cast<double>(op_all_spans_) * cost_out_;
  unattributed_ns_ += static_cast<double>(dur - op_top_ns_) -
                      static_cast<double>(op_top_spans_) * gap;
}

void Tracer::span_begin(Layer l) {
  uint32_t raw = ~0u;
  if (raw_.size() < kMaxRawSpans) {
    raw = static_cast<uint32_t>(raw_.size());
    const uint32_t parent = depth_ > 0 ? stack_[depth_ - 1].raw : ~0u;
    raw_.push_back(RawSpan{op_, parent, l, 0, 0, 0});
  }
  if (depth_ < kMaxDepth) stack_[depth_] = Open{l, 0, 0, 0, raw};
  ++depth_;
  // Read the clock last so the bookkeeping above stays outside the span.
  if (depth_ <= kMaxDepth) stack_[depth_ - 1].start = now_ns();
}

void Tracer::span_end() {
  const int64_t end = now_ns();
  --depth_;
  if (depth_ >= kMaxDepth) return;  // too deep to account; cannot happen here
  const Open& o = stack_[depth_];
  const int64_t dur = end - o.start;
  const double self = static_cast<double>(dur - o.child_ns) - cost_in_ -
                      static_cast<double>(o.children) * (cost_out_ - cost_in_);
  LayerStats& ls = layers_[static_cast<std::size_t>(o.layer)];
  ++ls.calls;
  ls.self_ns += self;
  ls.hist.record(self > 0 ? static_cast<uint64_t>(self + 0.5) : 0);
  if (o.raw != ~0u) {
    RawSpan& r = raw_[o.raw];
    r.start_ns = o.start - op_start_;
    r.dur_ns = dur;
    r.self_ns = self;
  }
  ++op_all_spans_;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
    ++stack_[depth_ - 1].children;
  } else {
    op_top_ns_ += dur;
    ++op_top_spans_;
  }
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# empty span: inner %.1f ns, outer %.1f ns\n", cost_in_,
               cost_out_);
  std::fprintf(f, "id\top\tparent\tlayer\tstart_ns\tdur_ns\tself_ns\n");
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& r = raw_[i];
    std::fprintf(f, "%zu\t%llu\t%lld\t%s\t%lld\t%lld\t%.1f\n", i,
                 static_cast<unsigned long long>(r.op),
                 r.parent == ~0u ? -1LL : static_cast<long long>(r.parent),
                 layer_name(r.layer), static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.dur_ns), r.self_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace lzbench
