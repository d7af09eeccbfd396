// The replay harness of the seeded fuzz drivers (fuzz_table2, fuzz_a64).
//
// A driver's streams run three times and every lz::check oracle applies:
//
//   run A, run B (same config)      — must be byte-identical: same streams,
//                                     same hash, same counters.
//   run C (same streams, 1 core)    — must produce the same streams and the
//                                     same counters modulo the documented
//                                     SMP-variant set.
//
// A failed check prints `FAIL`, dumps the flight recorder's black box and
// exits 1; a bad flag exits 2. `Fuzz` (see the drivers) names the run
// function, its Result's hash/streams/count, the per-run oracle findings
// (`check`), the counter diff and the reproducer dump of a stream mismatch.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "check/check.h"
#include "obs/flight.h"

namespace lz::bench {

// `--name VALUE`; `set` returns false when it rejects VALUE (after saying
// why), which exits 2.
struct FuzzFlag {
  const char* name;
  std::function<bool(const char*)> set;
};

template <typename T>
FuzzFlag number_flag(const char* name, T& field) {
  return {name, [&field](const char* v) {
            field = static_cast<T>(std::strtoull(v, nullptr, 0));
            return true;
          }};
}

// Parses --seed, --cores, --streams and the driver's `own` flags into
// `cfg`. Returns the exit code for --help (0) or a bad flag (2), or -1 to
// go on.
template <typename Config>
int parse_fuzz_flags(int argc, char** argv, Config& cfg, const char* usage,
                     std::vector<FuzzFlag> flags) {
  flags.push_back(number_flag("--seed", cfg.seed));
  flags.push_back(number_flag("--cores", cfg.cores));
  flags.push_back(number_flag("--streams", cfg.streams));
  for (int i = 1; i < argc; ++i) {
    const FuzzFlag* flag = nullptr;
    for (const auto& f : flags) {
      if (std::strcmp(argv[i], f.name) == 0 && i + 1 < argc) flag = &f;
    }
    if (flag != nullptr) {
      if (!flag->set(argv[++i])) return 2;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: %s %s\n", argv[0], usage);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], argv[i]);
      std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
      return 2;
    }
  }
  return -1;
}

// Prints one check's verdict; failures count toward the exit code.
struct ReplayChecks {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    failures += !ok;
  }
};

template <typename Fuzz>
int run_replay(const typename Fuzz::Config& cfg) {
  // A crashed fuzz run (LZ_CHECK, oracle abort) should leave a state trail:
  // record into the flight recorder and dump its per-core black box on
  // abort.
  obs::flight().arm();
  obs::install_flight_abort_handler();
  ReplayChecks checks;
  const std::string stream = Fuzz::kStream;
  const auto a = Fuzz::run(cfg);
  Fuzz::summary(a);
  Fuzz::check("A", a, checks);
  const auto compare = [&](const auto& other, const char* runs,
                           const std::string& what,
                           const check::IgnoreFn& ignore,
                           const std::string& counters_what) {
    const bool same = Fuzz::streams(a) == Fuzz::streams(other);
    checks.expect(same, what + stream + " streams");
    if (!same) Fuzz::dump_mismatch(a, other, runs);
    const auto diff = Fuzz::diff(a, other, ignore);
    checks.expect(diff.empty(), counters_what);
    for (const auto& line : diff) std::printf("    %s\n", line.c_str());
  };

  // Replay determinism, same topology: byte-identical.
  const auto b = Fuzz::run(cfg);
  Fuzz::check("B", b, checks);
  checks.expect(Fuzz::hash(a) == Fuzz::hash(b),
                "replay A==B: " + stream + " hash");
  compare(b, "A vs B", "replay A==B: ", nullptr,
          "replay A==B: counters byte-identical");

  // Topology independence: the same streams on a single core.
  typename Fuzz::Config uni = cfg;
  uni.cores = 1;
  uni.streams = cfg.streams != 0 ? cfg.streams : cfg.cores;
  const auto c = Fuzz::run(uni);
  Fuzz::check("C", c, checks);
  compare(c, "A vs C", "1-core vs N-core: ", check::is_smp_variant_counter,
          "1-core vs N-core: counters modulo SMP-variant set");

  if (checks.failures != 0) {
    std::printf("%s: %d failure(s)\n", Fuzz::kTool, checks.failures);
    // A divergence without a fail-stop abort (captured handler) still
    // dumps the black box, so the failing op sequence's tail is on record.
    obs::flight_dump(stderr);
    return 1;
  }
  std::printf("%s: OK (%llu %s x3 runs, zero divergence)\n", Fuzz::kTool,
              static_cast<unsigned long long>(Fuzz::count(a)), Fuzz::kUnit);
  return 0;
}

}  // namespace lz::bench
