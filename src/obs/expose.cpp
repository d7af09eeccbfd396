#include "obs/expose.h"

#include <cinttypes>
#include <cstdio>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace lz::obs {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our registry names use '.'
// separators, so mangle those (and anything else exotic) to '_'.
std::string mangle(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

// One exposition line: `name[labels] value\n`. `extra` is an additional
// label fragment (e.g. `quantile="0.99"` or `overflow="true"`) merged into
// the label braces after the LabelSet's own labels.
void line(std::string& out, const std::string& name, const LabelSet& labels,
          std::string_view extra, u64 value) {
  out += name;
  std::string rendered = labels.render();
  if (!extra.empty()) {
    if (rendered.empty()) {
      rendered += '{';
    } else {
      rendered.pop_back();  // '}'
      rendered += ',';
    }
    rendered += extra;
    rendered += '}';
  }
  char text[32];
  std::snprintf(text, sizeof text, " %" PRIu64 "\n", value);
  out += rendered;
  out += text;
}

// A flat counter snapshot, one TYPE line and one value line per name.
void render_counters(std::string& out, const Snapshot& snapshot) {
  for (const auto& [name, value] : snapshot) {
    const std::string mname = mangle(name);
    out += "# TYPE " + mname + " counter\n";
    line(out, mname, LabelSet{}, "", value);
  }
}

void render_histogram_series(std::string& out, const std::string& name,
                             const LabelSet& labels, std::string_view extra,
                             const Histogram& h) {
  struct Q {
    const char* label;
    double p;
  };
  static constexpr Q kQuantiles[] = {
      {"quantile=\"0.5\"", 50.0},
      {"quantile=\"0.9\"", 90.0},
      {"quantile=\"0.99\"", 99.0},
  };
  for (const Q& q : kQuantiles) {
    std::string extra_q(extra);
    if (!extra_q.empty()) extra_q += ',';
    extra_q += q.label;
    line(out, name, labels, extra_q, h.percentile(q.p));
  }
  line(out, name + "_count", labels, extra, h.count());
  line(out, name + "_sum", labels, extra, h.sum());
  line(out, name + "_min", labels, extra, h.min());
  line(out, name + "_max", labels, extra, h.max());
}

}  // namespace

std::string render_exposition(const ExpositionOptions& opts) {
  SelfProfScope prof(SelfTier::kObs);
  std::string out;
  out += "# lz.obs exposition v1\n";

  // Flat simulated counters (already name-sorted by the registry).
  render_counters(out, registry().snapshot());

  // Labeled counter families (name-sorted; series label-sorted).
  for (const CounterFamily* fam : metrics().counter_families()) {
    auto series = fam->series();
    if (series.empty()) continue;
    const std::string mname = mangle(fam->name());
    out += "# TYPE " + mname + " counter\n";
    for (const auto& s : series)
      line(out, mname, s.labels, s.overflow ? "overflow=\"true\"" : "",
           s.inst->value());
  }

  // Flat histogram summaries (registry snapshot skips empty instruments).
  for (const HistogramStats& st : histograms().snapshot()) {
    const std::string mname = mangle(st.name);
    out += "# TYPE " + mname + " summary\n";
    line(out, mname, LabelSet{}, "quantile=\"0.5\"", st.p50);
    line(out, mname, LabelSet{}, "quantile=\"0.9\"", st.p90);
    line(out, mname, LabelSet{}, "quantile=\"0.99\"", st.p99);
    line(out, mname + "_count", LabelSet{}, "", st.count);
    char mean[64];
    std::snprintf(mean, sizeof mean, "_mean %.3f\n", st.mean);
    out += mname + mean;
    line(out, mname + "_min", LabelSet{}, "", st.min);
    line(out, mname + "_max", LabelSet{}, "", st.max);
  }

  // Labeled histogram families; empty series are skipped like the flat
  // registry skips empty instruments.
  for (const HistogramFamily* fam : metrics().histogram_families()) {
    auto series = fam->series();
    bool any = false;
    for (const auto& s : series) any = any || s.inst->count() > 0;
    if (!any) continue;
    const std::string mname = mangle(fam->name());
    out += "# TYPE " + mname + " summary\n";
    for (const auto& s : series) {
      if (s.inst->count() == 0) continue;
      render_histogram_series(out, mname, s.labels,
                              s.overflow ? "overflow=\"true\"" : "", *s.inst);
    }
  }

  // Host-side counters (`sim.trace.*`): deterministic per config, but not
  // across configs that merely execute identical simulated work.
  render_counters(out, registry().host_snapshot());

  // Wall-clock self attribution: never part of the determinism contract.
  if (opts.include_self) {
    for (std::size_t i = 0; i < kNumSelfTiers; ++i) {
      const auto tier = static_cast<SelfTier>(i);
      const std::string mname =
          std::string("host_self_") + to_string(tier) + "_ticks";
      out += "# TYPE " + mname + " counter\n";
      line(out, mname, LabelSet{}, "", selfprof().ticks(tier));
    }
  }

  return out;
}

bool write_exposition(const std::string& path, const ExpositionOptions& opts) {
  const std::string text = render_exposition(opts);
  SelfProfScope prof(SelfTier::kObs);
  return write_text(path, text);
}

void ExpositionPump::arm(std::string path, ExpositionOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  path_ = std::move(path);
  opts_ = opts;
  armed_.store(true, std::memory_order_relaxed);
}

void ExpositionPump::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
}

void ExpositionPump::poll() {
  if (!armed()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return;
  if (write_exposition(path_, opts_))
    dumps_.fetch_add(1, std::memory_order_relaxed);
}

void ExpositionPump::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
  dumps_.store(0, std::memory_order_relaxed);
  path_.clear();
}

ExpositionPump& exposition_pump() {
  static ExpositionPump pump;
  return pump;
}

}  // namespace lz::obs
