// Outside-in span tracer of the repo benchmark.
//
// The workloads wrap every public simulator call they make in a Span named
// after the layer (module) it enters. With no tracer installed a Span is
// one load and one branch, which is what the untraced run pays. With one
// installed, each span's self time (its duration minus its child spans and
// minus the calibrated cost of an empty span) is added to its layer, and
// the op time no span covers is the unattributed remainder, so per op
//
//   op time - spans * empty-span cost == sum of self times + unattributed.
//
// Raw spans are kept in memory, up to a cap, and written out at exit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace lzbench {

enum class Layer : uint8_t {
  kGateSwitch,  // LzProc::lz_switch_to_ttbr_gate
  kSetPan,      // LzProc::set_pan
  kAlloc,       // LzProc::lz_alloc
  kProt,        // LzProc::lz_prot
  kMapGate,     // LzProc::lz_map_gate_pgt + lz_set_gate_entry
  kTouch,       // LzModule::touch_page (pre-fault)
  kFree,        // LzProc::lz_free
  kMemRead,     // sim::Core::mem_read
  kMemWrite,    // sim::Core::mem_write
  kTranslate,   // sim::Core::translate
  kAesExpand,   // crypto::aes_expand_key
  kAesCbc,      // crypto::aes_cbc_encrypt
  kA64Fuzz,     // check::run_a64_fuzz
  kCount,
};

const char* layer_name(Layer l);

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerStats {
  uint64_t calls = 0;
  double self_ns = 0;  // corrected sum; the histogram holds per-call values
  LogHistogram hist;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxDepth = 16;
  static constexpr std::size_t kMaxRawSpans = 100'000;

  // Measures the cost of an empty span on this host.
  Tracer();

  // The installed tracer, or null (untraced).
  static Tracer* current() { return current_; }
  void install() { current_ = this; }
  static void uninstall() { current_ = nullptr; }

  void op_begin(uint64_t op);
  void op_end();
  void span_begin(Layer l);
  void span_end();

  const LayerStats& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  uint64_t ops() const { return ops_; }
  // Sums over traced ops, empty-span cost removed.
  double op_ns() const { return op_ns_; }
  double unattributed_ns() const { return unattributed_ns_; }
  // What one empty span adds to the time around it.
  double span_cost_ns() const { return cost_out_; }

  // Writes the kept raw spans as TSV; false if the file cannot be written.
  bool write_spans(const std::string& path) const;

 private:
  // Drops everything recorded so far; the calibration stays.
  void reset();

  struct Open {
    Layer layer;
    int64_t start;
    int64_t child_ns;
    uint32_t children;
    uint32_t raw;  // index into raw_, or ~0u when past the cap
  };
  struct RawSpan {
    uint64_t op;
    uint32_t parent;  // raw index of the parent span, ~0u for top level
    Layer layer;
    int64_t start_ns;  // relative to the op's start
    int64_t dur_ns;
    double self_ns;
  };

  static inline Tracer* current_ = nullptr;

  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> layers_;
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::vector<RawSpan> raw_;

  uint64_t op_ = 0;
  int64_t op_start_ = 0;
  int64_t op_top_ns_ = 0;
  uint64_t op_top_spans_ = 0;
  uint64_t op_all_spans_ = 0;

  uint64_t ops_ = 0;
  double op_ns_ = 0;
  double unattributed_ns_ = 0;
  double cost_in_ = 0;
  double cost_out_ = 0;
};

// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(Layer l) : t_(Tracer::current()) {
    if (t_ != nullptr) t_->span_begin(l);
  }
  ~Span() {
    if (t_ != nullptr) t_->span_end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace lzbench
