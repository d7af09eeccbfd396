// Shared plumbing for the bench binaries' command lines and reports.
//
// Every bench main parses its flags through one parser (no per-binary
// hand-rolled loops), so all the binaries accept the same set; the set is
// listed once, in print_bench_usage() below (`--help`), and `--benchmark_*`
// flags pass through to google-benchmark untouched.
//
// Any other `--flag` is an error: the binary prints the offender to stderr
// and exits 2, so a typo can never silently run the wrong experiment. Both
// the --help text and the unknown-flag message come from one place here,
// so they cannot drift between binaries.
//
// The report covers only the deterministic print_* phase, not the
// wall-clock-driven BM_* loops, so two runs of the same binary produce
// byte-identical simulation sections. Host-timed headline numbers (MIPS)
// are wall-clock by nature; benches run ObsSession::repeats() in-process
// repeats and record_stats() reports their mean plus `.min` / `.median`
// keys.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lightzone/backend.h"
#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/cost.h"

namespace lz::bench {

struct ObsOptions {
  std::string json_path;
  std::string trace_path;
  std::string profile_path;
  u64 sample_period = obs::Profiler::kDefaultPeriod;  // 0 = profiler off
  u64 ts_period = 0;   // --ts-period N: time-series sampling (0 = off)
  unsigned cores = 0;  // --cores N: size of the SMP machine (0 = not given)
  u64 iters = 1;       // --iters K: workload scale factor
  // --backend B: which IsolationBackend the bench evaluates.
  core::BackendKind backend = core::BackendKind::kTtbrPan;
  // --metrics-out F: arm the metrics plane, write the exposition to F.
  std::string metrics_path;
  bool self_profile = false;  // --self-profile: host.self.* tick brackets
};

// The one flag summary every bench binary prints for --help.
inline void print_bench_usage(const char* argv0, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s [flags] [--benchmark_* flags]\n"
      "  --json <path>          write lz.bench.report JSON\n"
      "  --trace <path>         Chrome/Perfetto trace: arch events + spans\n"
      "  --profile <path>       collapsed stacks (flamegraph.pl input)\n"
      "  --sample-period <N>    profiler period, simulated cycles "
      "(default %llu, 0 = off)\n"
      "  --ts-period <N>        time-series sampling period, simulated "
      "cycles (0 = off)\n"
      "  --cores <N>            SMP machine size (default: binary-specific)\n"
      "  --iters <K>            workload scale factor (default 1)\n"
      "  --backend <B>          ttbr_pan (default) | poe | cca | watchpoint "
      "| lwc\n"
      "  --metrics-out <path>   arm the metrics plane; write Prometheus-style\n"
      "                         exposition (live-updated under --ts-period)\n"
      "  --self-profile         host.self.* wall-clock tier attribution\n"
      "  --help, -h             this text\n",
      argv0, static_cast<unsigned long long>(obs::Profiler::kDefaultPeriod));
}

// Parses the shared flag set out of argv, leaving only argv[0], positional
// arguments, and --benchmark_* flags for benchmark::Initialize. Unknown
// --flags (and malformed values for known ones) are fatal: exit(2) with a
// message naming the offender.
inline ObsOptions parse_bench_flags(int* argc, char** argv) {
  ObsOptions opts;
  std::string cores_str, period_str, ts_period_str, iters_str;
  std::string backend_str;
  const auto die = [&](const char* what, const std::string& arg) {
    std::fprintf(stderr, "%s: %s '%s'\n", argv[0], what, arg.c_str());
    print_bench_usage(argv[0], stderr);
    std::exit(2);
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      print_bench_usage(argv[0], stdout);
      std::exit(0);
    }
    const auto take = [&](std::string_view flag, std::string* dst) {
      if (arg == flag) {
        if (i + 1 >= *argc) die("missing value for", std::string(arg));
        *dst = argv[++i];
        return true;
      }
      if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
          arg[flag.size()] == '=') {
        *dst = std::string(arg.substr(flag.size() + 1));
        return true;
      }
      return false;
    };
    if (arg == "--self-profile") {
      opts.self_profile = true;
      continue;
    }
    if (take("--json", &opts.json_path) ||
        take("--metrics-out", &opts.metrics_path) ||
        take("--trace", &opts.trace_path) ||
        take("--profile", &opts.profile_path) ||
        take("--sample-period", &period_str) ||
        take("--ts-period", &ts_period_str) ||
        take("--cores", &cores_str) ||
        take("--iters", &iters_str) ||
        take("--backend", &backend_str)) {
      continue;
    }
    if (arg.rfind("--benchmark_", 0) == 0 || arg.rfind("--", 0) != 0) {
      argv[out++] = argv[i];
      continue;
    }
    die("unknown flag", std::string(arg));
  }
  *argc = out;
  if (!cores_str.empty()) {
    const long n = std::strtol(cores_str.c_str(), nullptr, 10);
    if (n < 1 || n > 64) die("bad core count", cores_str);
    opts.cores = static_cast<unsigned>(n);
  }
  if (!period_str.empty()) {
    opts.sample_period = std::strtoull(period_str.c_str(), nullptr, 10);
  }
  if (!ts_period_str.empty()) {
    opts.ts_period = std::strtoull(ts_period_str.c_str(), nullptr, 10);
  }
  if (!iters_str.empty()) {
    opts.iters = std::strtoull(iters_str.c_str(), nullptr, 10);
    if (opts.iters == 0) opts.iters = 1;
  }
  if (!backend_str.empty()) {
    const auto kind = core::backend_from_string(backend_str);
    if (!kind) die("unknown backend", backend_str);
    opts.backend = *kind;
  }
  return opts;
}

// One per bench main. Construction resets all process-wide observability
// state (so the report covers exactly this run), arms the event ring when a
// trace was requested, and arms the sampling profiler when a report or a
// collapsed-stack file was requested; finish() assembles and writes the
// artifacts.
class ObsSession {
 public:
  static constexpr std::size_t kTraceCapacity = 1u << 16;

  ObsSession(std::string bench_name, int* argc, char** argv)
      : opts_(parse_bench_flags(argc, argv)), report_(std::move(bench_name)) {
    obs::reset_all();
    if (!opts_.trace_path.empty()) {
      obs::trace().arm(kTraceCapacity);
      obs::spans().arm(kTraceCapacity);
    }
    if (opts_.ts_period > 0) obs::timeseries().arm(opts_.ts_period);
    if (!opts_.metrics_path.empty()) {
      obs::metrics().enable();
      // Live scrape file: every time-series sample also rewrites the
      // exposition snapshot, so `watch cat FILE` observes the run.
      if (opts_.ts_period > 0) {
        obs::exposition_pump().arm(opts_.metrics_path,
                                   {/*include_host=*/true,
                                    /*include_self=*/opts_.self_profile});
      }
    }
    if (opts_.self_profile) obs::selfprof().enable();
    if ((!opts_.profile_path.empty() || !opts_.json_path.empty()) &&
        opts_.sample_period > 0) {
      obs::profiler().arm(opts_.sample_period);
    }
    // Black boxes are most valuable in unattended runs; make sure a stray
    // abort (LZ_CHECK, oracle fail-stop) dumps the last events per core.
    obs::install_flight_abort_handler();
    instance_ = this;
  }
  ~ObsSession() {
    if (instance_ == this) instance_ = nullptr;
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  void add_result(std::string key, double value) {
    report_.add_result(std::move(key), value);
  }
  void add_result(std::string key, u64 value) {
    report_.add_result(std::move(key), value);
  }

  // Records a repeated host-timed measurement: mean under the bare key,
  // plus `.min` and `.median` keys so reports expose run-to-run variance.
  void add_stats(const std::string& key, std::vector<double> values) {
    if (values.empty()) return;
    double sum = 0;
    for (const double v : values) sum += v;
    report_.add_result(key, sum / static_cast<double>(values.size()));
    std::sort(values.begin(), values.end());
    report_.add_result(key + ".min", values.front());
    report_.add_result(key + ".median", values[values.size() / 2]);
  }

  // Writes the requested artifacts. Call after the print_* phase and
  // before benchmark::RunSpecifiedBenchmarks() so the gbench timing loops
  // (wall-clock-dependent iteration counts) cannot perturb them.
  void finish() {
    const bool spans_armed = obs::spans().armed();
    if (!opts_.trace_path.empty()) {
      obs::trace().disarm();
      obs::spans().disarm();
      if (obs::trace().write_chrome_json(opts_.trace_path,
                                         obs::spans().chrome_fragment())) {
        std::printf("obs: wrote %zu trace events + %zu spans to %s\n",
                    obs::trace().size(), obs::spans().size(),
                    opts_.trace_path.c_str());
      } else {
        std::fprintf(stderr, "obs: failed to write trace to %s\n",
                     opts_.trace_path.c_str());
      }
    }
    if (!opts_.profile_path.empty()) {
      if (obs::profiler().write_collapsed(opts_.profile_path)) {
        std::printf("obs: wrote %llu profile samples to %s\n",
                    static_cast<unsigned long long>(obs::profiler().samples()),
                    opts_.profile_path.c_str());
      } else {
        std::fprintf(stderr, "obs: failed to write profile to %s\n",
                     opts_.profile_path.c_str());
      }
    }
    if (!opts_.metrics_path.empty()) {
      obs::exposition_pump().disarm();
      if (obs::write_exposition(opts_.metrics_path,
                                {/*include_host=*/true,
                                 /*include_self=*/opts_.self_profile})) {
        std::printf("obs: wrote metrics exposition to %s\n",
                    opts_.metrics_path.c_str());
      } else {
        std::fprintf(stderr, "obs: failed to write metrics exposition to %s\n",
                     opts_.metrics_path.c_str());
      }
    }
    if (opts_.json_path.empty()) {
      obs::profiler().disarm();
      return;
    }
    const auto& ledger = obs::cycle_ledger();
    report_.set_cycles_total(ledger.total());
    for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
      report_.add_cycles(sim::to_string(static_cast<sim::CostKind>(k)),
                         ledger.of(k));
    }
    report_.add_counters(obs::registry().snapshot());
    report_.add_histograms(obs::histograms().snapshot());
    // Capture the profile while the profiler is still armed so the
    // section records the effective sampling period.
    if (opts_.sample_period > 0) report_.set_profile(obs::profiler());
    // Optional v3 sections: emitted only when their instrument ran, so
    // reports from flagless runs stay byte-identical with pre-v3 output.
    if (opts_.ts_period > 0) {
      // Final snapshot catches the tail between the last period boundary
      // and the end of the run; set_timeseries() while armed records the
      // period itself.
      obs::timeseries().sample_now();
      report_.set_timeseries(obs::timeseries());
      obs::timeseries().disarm();
    }
    if (spans_armed) report_.set_spans(obs::spans());
    // Host-counter section ("host"): `sim.trace.*` and friends in every
    // report, not just bench/throughput's results. Emitted only when
    // the engine registered host counters (Report skips empty sections),
    // and values depend on host-side caching — lz_report's
    // --require-sim-identical strips this member before comparing.
    report_.add_host_counters(obs::registry().host_snapshot());
    obs::profiler().disarm();
    if (report_.write(opts_.json_path)) {
      std::printf("obs: wrote report to %s\n", opts_.json_path.c_str());
    } else {
      std::fprintf(stderr, "obs: failed to write report to %s\n",
                   opts_.json_path.c_str());
    }
  }

  static ObsSession* instance() { return instance_; }

  unsigned cores() const { return opts_.cores; }
  u64 iters() const { return opts_.iters; }
  core::BackendKind backend() const { return opts_.backend; }
  // In-process repeats for host-timed measurements.
  static constexpr unsigned repeats() { return 3; }

 private:
  ObsOptions opts_;
  obs::Report report_;
  inline static ObsSession* instance_ = nullptr;
};

// For benches that model one process: --cores would be ignored, so refuse
// it the way an unknown flag is refused. Returns main's exit status (2).
inline int reject_cores(const char* argv0) {
  std::fprintf(stderr, "%s: --cores is not supported (one-process model)\n",
               argv0);
  return 2;
}

// Headline-number hook for the table printers: records into the active
// session's report, if any (no-op when the binary runs without --json).
inline void record(std::string key, double value) {
  if (auto* s = ObsSession::instance()) s->add_result(std::move(key), value);
}
inline void record(std::string key, u64 value) {
  if (auto* s = ObsSession::instance()) s->add_result(std::move(key), value);
}

// Repeated-measurement hook: mean under `key`, plus `.min`/`.median`.
inline void record_stats(const std::string& key, std::vector<double> values) {
  if (auto* s = ObsSession::instance()) s->add_stats(key, std::move(values));
}

}  // namespace lz::bench
