// lz::obs — machine-readable benchmark reports.
//
// `Json` is a minimal ordered JSON document: enough to serialise bench
// reports and Chrome traces deterministically (insertion-ordered objects,
// fixed number formatting) and to parse them back for round-trip tests —
// no third-party dependency. `Report` is the schema-stable envelope every
// bench binary emits behind `--json <path>`:
//
//   {
//     "schema": "lz.bench.report.v2",
//     "bench": "<binary name>",
//     "results": { "<series>.<point>": number, ... },
//     "cycles": { "total": N, "by_kind": { "<CostKind name>": N, ... } },
//     "counters": { "<subsystem.object.event>": N, ... },
//     "histograms": { "<name>": { "count","min","max","mean",
//                                 "p50","p90","p99" }, ... },
//     "profile": { "period","samples","dropped_keys",
//                  "by_domain": { "vmid<v>.asid<a>": cycles, ... },
//                  "by_el": { "el0","el1","el2" },
//                  "hotspots": { "0x<pc>": samples, ... } },
//     "timeseries": { "period","dropped",
//                     "snapshots": [ { "ts": N,
//                                      "counters": { "<name>": N, ... },
//                                      "histograms": { "<name>":
//                                        { "count","p50","p90","p99" },
//                                        ... } }, ... ] },
//     "spans": { "completed","dropped","max_depth",
//                "by_kind": { "request": N, "syscall": N, ... } }
//   }
//
// The simulation-derived sections never contain wall-clock time: cycle
// totals, counter values, histogram percentiles, and profile attributions
// are fully determined by the executed work, so a BENCH_*.json trajectory
// diff across PRs is a real regression signal, not noise. (Host-timing
// headline results, e.g. throughput MIPS, live in "results" and describe
// the machine that produced them.)
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"
#include "support/types.h"

namespace lz::obs {

class Profiler;
class SpanTracer;
class TimeSeries;

class Json {
 public:
  enum class Kind { kNull, kBool, kUint, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  static Json boolean(bool v);
  static Json number(u64 v);
  static Json number(i64 v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const {
    return kind_ == Kind::kUint || kind_ == Kind::kInt ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }

  // --- Object interface (insertion-ordered) ----------------------------------
  Json& set(std::string key, Json value);  // returns *this for chaining
  const Json* find(std::string_view key) const;
  std::size_t size() const;  // members (object), elements (array)
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  // --- Array interface -------------------------------------------------------
  Json& push(Json value);
  const std::vector<Json>& elements() const { return elements_; }

  // --- Scalar accessors ------------------------------------------------------
  bool as_bool() const { return bool_; }
  u64 as_u64() const;
  double as_double() const;
  const std::string& as_string() const { return string_; }

  // Deterministic serialisation (no whitespace, insertion order, "%.17g"
  // doubles so values round-trip exactly).
  std::string dump() const;

  // Recursive-descent parser; nullopt on malformed input.
  static std::optional<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  u64 uint_ = 0;
  i64 int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> elements_;
};

class Report {
 public:
  static constexpr std::string_view kSchema = "lz.bench.report.v2";

  explicit Report(std::string bench_name) : bench_(std::move(bench_name)) {}

  // Bench-specific headline numbers, keyed "<series>.<point>".
  void add_result(std::string key, double value);
  void add_result(std::string key, u64 value);

  // Per-CostKind cycle breakdown (names supplied by the caller so obs
  // stays below sim in the layering).
  void set_cycles_total(u64 total) { cycles_total_ = total; }
  void add_cycles(std::string kind_name, u64 cycles);

  // Counter snapshot section (typically registry().snapshot()).
  void add_counters(const Snapshot& snapshot);

  // Host-counter section ("host", typically registry().host_snapshot()).
  // Host counters are run-to-run deterministic
  // for a fixed configuration but may legitimately differ between configs
  // that execute identical simulated work (e.g. `sim.trace.*` with the
  // trace tier on vs off), so they live outside "counters" and lz_report's
  // --require-sim-identical strips them before comparing documents. The
  // section is emitted only when the snapshot is non-empty, so reports
  // from engines that registered no host counters stay byte-identical to
  // pre-v4 output.
  void add_host_counters(const Snapshot& snapshot);

  void add_histograms(std::vector<HistogramStats> stats);
  void set_profile(const Profiler& profiler);
  // Snapshot the time-series sampler / span tracer into optional
  // sections ("timeseries", "spans"). Sections appear only when these are
  // called, so reports from runs without --ts-period / --trace stay
  // byte-identical to pre-v3 output.
  void set_timeseries(const TimeSeries& series);
  void set_spans(const SpanTracer& tracer);

  const std::string& bench() const { return bench_; }

  Json to_json() const;
  std::string to_string() const { return to_json().dump(); }
  bool write(const std::string& path) const;

  // Validates the envelope produced by to_json(): schema tag, bench name,
  // the results/cycles/counters/histograms sections and, when present, the
  // profile, timeseries, spans and host sections. Used by tests, the
  // report_check tool, and tooling that consumes BENCH_*.json trajectories.
  static bool validate(const Json& doc);

 private:
  struct ProfileSection {
    u64 period = 0;
    u64 samples = 0;
    u64 dropped_keys = 0;
    std::vector<std::pair<std::string, u64>> by_domain;  // "vmid<v>.asid<a>"
    std::array<u64, 3> by_el{};
    std::vector<std::pair<u64, u64>> hotspots;  // (pc, samples)
  };

  struct TimeSeriesSection {
    struct Snap {
      u64 ts = 0;
      Snapshot counters;
      std::vector<HistogramStats> histograms;
    };
    u64 period = 0;
    u64 dropped = 0;
    std::vector<Snap> snapshots;
  };

  struct SpanSection {
    u64 completed = 0;
    u64 dropped = 0;
    u64 max_depth = 0;
    std::vector<std::pair<std::string, u64>> by_kind;
  };

  std::string bench_;
  std::vector<std::pair<std::string, Json>> results_;
  u64 cycles_total_ = 0;
  std::vector<std::pair<std::string, u64>> cycles_by_kind_;
  Snapshot counters_;
  Snapshot host_counters_;
  std::vector<HistogramStats> histograms_;
  std::optional<ProfileSection> profile_;
  std::optional<TimeSeriesSection> timeseries_;
  std::optional<SpanSection> spans_;
};

}  // namespace lz::obs
