// Randomized Table-2 conformance fuzz driver (ISSUE 3).
//
//   fuzz_table2 [--seed S] [--cores N] [--streams M] [--ops K]
//               [--backend ttbr_pan|poe|cca|watchpoint|lwc]
//
// Runs M seeded streams of Table-2 calls (K ops each, processes pinned
// round-robin over N cores) through the three-run replay harness
// (fuzz_replay.h). Each op is also checked against the ShadowTable2
// reference model as it executes, and (in LZ_CHECK builds) every TLB hit
// is re-walked by the sim::Core oracle. Any divergence → nonzero exit.
#include <cstdio>
#include <string>

#include "check/fuzz.h"
#include "fuzz_replay.h"

namespace {

struct Table2Fuzz {
  using Config = lz::check::FuzzConfig;
  using Result = lz::check::FuzzResult;
  static constexpr const char* kTool = "fuzz_table2";
  static constexpr const char* kStream = "status";
  static constexpr const char* kUnit = "ops";

  static Result run(const Config& cfg) {
    return lz::check::run_table2_fuzz(cfg);
  }
  static lz::u64 hash(const Result& r) { return r.status_hash; }
  static const auto& streams(const Result& r) { return r.status_streams; }
  static lz::u64 count(const Result& r) { return r.total_ops; }
  static void summary(const Result& r) {
    std::printf("run A: %llu ops (%llu skipped), status hash %016llx\n",
                static_cast<unsigned long long>(r.total_ops),
                static_cast<unsigned long long>(r.skipped),
                static_cast<unsigned long long>(r.status_hash));
  }
  static void check(const char* run, const Result& r,
                    lz::bench::ReplayChecks& checks) {
    for (const auto& d : r.divergences) {
      checks.expect(false, std::string("run ") + run + " divergence [" +
                               d.kind + "] " + d.detail);
    }
  }
  // Cross-backend counter sets are rejected, not diffed.
  static std::vector<std::string> diff(const Result& a, const Result& b,
                                       const lz::check::IgnoreFn& ignore) {
    return lz::check::diff_fuzz_counters(a, b, ignore);
  }
  static void dump_mismatch(const Result&, const Result&, const char*) {}
};

}  // namespace

int main(int argc, char** argv) {
  Table2Fuzz::Config cfg;
  cfg.seed = 1;
  cfg.cores = 4;
  cfg.streams = 0;  // = cores
  cfg.ops_per_stream = 2600;
  const int rc = lz::bench::parse_fuzz_flags(
      argc, argv, cfg,
      "[--seed S] [--cores N] [--streams M] [--ops K] [--backend B]",
      {lz::bench::number_flag("--ops", cfg.ops_per_stream),
       {"--backend", [&](const char* v) {
          const auto kind = lz::core::backend_from_string(v);
          if (!kind) {
            std::fprintf(stderr,
                         "%s: unknown backend '%s' (expected one of "
                         "ttbr_pan, poe, cca, watchpoint, lwc)\n",
                         argv[0], v);
            return false;
          }
          cfg.backend = *kind;
          return true;
        }}});
  if (rc >= 0) return rc;

  std::printf(
      "fuzz_table2: backend=%s seed=%llu cores=%u streams=%u ops/stream=%d\n",
      lz::core::to_string(cfg.backend),
      static_cast<unsigned long long>(cfg.seed), cfg.cores,
      cfg.streams != 0 ? cfg.streams : cfg.cores, cfg.ops_per_stream);
  return lz::bench::run_replay<Table2Fuzz>(cfg);
}
