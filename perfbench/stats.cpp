#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace lzbench {

namespace {
constexpr unsigned kExact = 128;  // values below are their own bucket
constexpr unsigned kOctaves = 64 - 7;
}  // namespace

LogHistogram::LogHistogram() : buckets_(kExact + kOctaves * kSub, 0) {}

unsigned LogHistogram::bucket_of(uint64_t v) {
  if (v < kExact) return static_cast<unsigned>(v);
  const unsigned e = 63 - static_cast<unsigned>(std::countl_zero(v));  // >= 7
  const unsigned sub = static_cast<unsigned>((v >> (e - 7)) & (kSub - 1));
  return kExact + (e - 7) * kSub + sub;
}

double LogHistogram::bucket_low(unsigned b) {
  if (b < kExact) return b;
  const unsigned e = (b - kExact) / kSub + 7;
  const unsigned sub = (b - kExact) % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(e) - 7);
}

double LogHistogram::bucket_high(unsigned b) {
  if (b < kExact) return b + 1.0;
  const unsigned e = (b - kExact) / kSub + 7;
  return bucket_low(b) + std::ldexp(1.0, static_cast<int>(e) - 7);
}

void LogHistogram::record(uint64_t v, uint64_t n) {
  buckets_[bucket_of(v)] += n;
  count_ += n;
}

void LogHistogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

std::vector<std::pair<unsigned, uint64_t>> LogHistogram::compact() const {
  std::vector<std::pair<unsigned, uint64_t>> out;
  for (unsigned b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] != 0) out.emplace_back(b, buckets_[b]);
  }
  return out;
}

void LogHistogram::merge(const std::vector<std::pair<unsigned, uint64_t>>& c,
                         double scale) {
  for (const auto& [b, n] : c) {
    const double mid = (bucket_low(b) + bucket_high(b)) / 2;
    record(static_cast<uint64_t>(std::llround(mid * scale)), n);
  }
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  uint64_t below = 0;
  for (unsigned b = 0; b < buckets_.size(); ++b) {
    const uint64_t c = buckets_[b];
    if (c == 0) continue;
    if (static_cast<double>(below + c) >= rank) {
      // Spread the bucket's samples evenly over its width.
      const double pos = (rank - static_cast<double>(below) - 0.5) /
                         static_cast<double>(c);
      return bucket_low(b) + pos * (bucket_high(b) - bucket_low(b));
    }
    below += c;
  }
  return bucket_high(static_cast<unsigned>(buckets_.size() - 1));
}

bool percentile_reportable(uint64_t n, double q) {
  const auto at = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > at && n - at > 10;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

const std::vector<MetricDef>& metric_catalogue() {
  using R = MetricRun;
  static const std::vector<MetricDef> kDefs = {
      // End to end: host time of the closed loop, tracing off.
      {"ops_per_s", "ops/s", R::kEndToEnd, "higher", ""},
      {"op_us.p50", "us", R::kEndToEnd, "lower", ""},
      {"op_us.p90", "us", R::kEndToEnd, "lower", ""},
      {"setup_s", "s", R::kEndToEnd, "lower", ""},
      {"peak_rss_mb", "MB", R::kEndToEnd, "lower", ""},
      {"success_rate", "fraction", R::kEndToEnd, "higher", ""},
      // Per layer (traced run). Self times exclude child spans and the
      // calibrated cost of an empty span.
      {"lightzone.gate_switch.ns.p50", "ns", R::kPerLayer, "", "nginx_ttbr domain_churn"},
      {"lightzone.gate_switch.ns.p99", "ns", R::kPerLayer, "", "nginx_ttbr domain_churn"},
      {"lightzone.gate_switch.calls_per_op", "1/op", R::kPerLayer, "", "nginx_ttbr domain_churn"},
      {"lightzone.gate_switch.share", "fraction", R::kPerLayer, "", "nginx_ttbr domain_churn"},
      {"sim.trace.invalidated_gen_per_op", "1/op", R::kPerLayer, "", "nginx_ttbr domain_churn"},
      {"sim.trace.built_per_op", "1/op", R::kPerLayer, "", "nginx_ttbr domain_churn"},
      {"lightzone.set_pan.ns.p50", "ns", R::kPerLayer, "", "nvm_pan"},
      {"lightzone.set_pan.share", "fraction", R::kPerLayer, "", "nvm_pan"},
      {"lightzone.alloc.us.p50", "us", R::kPerLayer, "", "domain_churn"},
      {"lightzone.alloc.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"lightzone.prot.us.p50", "us", R::kPerLayer, "", "domain_churn"},
      {"lightzone.prot.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"lightzone.map_gate.us.p50", "us", R::kPerLayer, "", "domain_churn"},
      {"lightzone.map_gate.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"lightzone.touch.us.p50", "us", R::kPerLayer, "", "domain_churn"},
      {"lightzone.touch.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"lightzone.free.us.p50", "us", R::kPerLayer, "", "domain_churn"},
      {"lightzone.free.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"setup.env.s", "s", R::kPerLayer, "", "all"},
      {"setup.enter.s", "s", R::kPerLayer, "", "all"},
      {"setup.domains.s", "s", R::kPerLayer, "", "nginx_ttbr"},
      {"setup.data.s", "s", R::kPerLayer, "", "all"},
      {"sim.mem_read.ns.p50", "ns", R::kPerLayer, "", "nvm_pan"},
      {"sim.mem_read.calls_per_op", "1/op", R::kPerLayer, "", "nvm_pan"},
      {"sim.mem_read.share", "fraction", R::kPerLayer, "", "nvm_pan"},
      {"sim.mem_write.ns.p50", "ns", R::kPerLayer, "", "domain_churn"},
      {"sim.mem_write.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"sim.translate.ns.p50", "ns", R::kPerLayer, "", "domain_churn"},
      {"sim.translate.share", "fraction", R::kPerLayer, "", "domain_churn"},
      {"mem.tlb.hit_ratio", "fraction", R::kPerLayer, "", "nvm_pan"},
      {"mem.tlb.miss_per_op", "1/op", R::kPerLayer, "", "nvm_pan"},
      {"mem.tlb.invalidation_per_op", "1/op", R::kPerLayer, "", "domain_churn"},
      {"sim.dvm.broadcast_per_op", "1/op", R::kPerLayer, "", "domain_churn"},
      {"sim.insns_per_op", "1/op", R::kPerLayer, "", "a64_streams"},
      {"sim.mips", "MIPS", R::kPerLayer, "", "a64_streams"},
      {"sim.trace.exec_per_build", "ratio", R::kPerLayer, "", "a64_streams"},
      {"kernel.syscalls_per_op", "1/op", R::kPerLayer, "", "a64_streams"},
      {"hv.hvc_forward_per_op", "1/op", R::kPerLayer, "", "a64_streams"},
      {"lightzone.s1_faults_per_op", "1/op", R::kPerLayer, "", "a64_streams"},
      {"lightzone.kills_per_op", "1/op", R::kPerLayer, "", "a64_streams"},
      {"check.a64.words_per_op", "1/op", R::kPerLayer, "", "a64_streams"},
      {"check.a64_fuzz.share", "fraction", R::kPerLayer, "", "a64_streams"},
      {"crypto.aes_expand.us.p50", "us", R::kPerLayer, "", "nginx_ttbr"},
      {"crypto.aes_cbc.us.p50", "us", R::kPerLayer, "", "nginx_ttbr"},
      {"crypto.share", "fraction", R::kPerLayer, "", "nginx_ttbr"},
      {"bench.unattributed.share", "fraction", R::kPerLayer, "", "all"},
      {"trace.overhead_pct", "%", R::kPerLayer, "", "all"},
      {"trace.span_cost_ns", "ns", R::kPerLayer, "", "all"},
  };
  return kDefs;
}

}  // namespace lzbench
