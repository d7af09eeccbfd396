// Encoded-A64 stream fuzz driver (ISSUE 8).
//
//   fuzz_a64 [--seed S] [--cores N] [--streams M] [--insns K]
//            [--max-steps T]
//
// Runs M seeded streams of encoded A64 instructions (K generator picks
// each, processes pinned round-robin over N cores) through the full
// LightZone entry/sanitizer/gate/fault path with every in-build oracle
// armed — the break-before-make write-protocol monitor on all PTE stores
// and the TLB-vs-walk cross-check on every TLB hit — through the three-run
// replay harness (fuzz_replay.h).
//
// Any oracle divergence aborts fail-stop with a flight-recorder dump; any
// replay mismatch prints the offending stream's words (the byte-identical
// reproducer) and exits nonzero.
#include <cstdio>
#include <string>

#include "check/fuzz_a64.h"
#include "fuzz_replay.h"

namespace {

struct A64Fuzz {
  using Config = lz::check::FuzzA64Config;
  using Result = lz::check::FuzzA64Result;
  static constexpr const char* kTool = "fuzz_a64";
  static constexpr const char* kStream = "outcome";
  static constexpr const char* kUnit = "streams";

  static Result run(const Config& cfg) { return lz::check::run_a64_fuzz(cfg); }
  static lz::u64 hash(const Result& r) { return r.outcome_hash; }
  static const auto& streams(const Result& r) { return r.outcome_streams; }
  static lz::u64 count(const Result& r) { return r.total_streams; }
  static void summary(const Result& r) {
    std::printf("run A: %llu streams, %llu words, %llu killed "
                "(%llu sanitizer), %llu exited, outcome hash %016llx\n",
                static_cast<unsigned long long>(r.total_streams),
                static_cast<unsigned long long>(r.total_words),
                static_cast<unsigned long long>(r.killed),
                static_cast<unsigned long long>(r.sanitizer_rejects),
                static_cast<unsigned long long>(r.exited),
                static_cast<unsigned long long>(r.outcome_hash));
  }
  // Oracle divergences abort fail-stop inside the run.
  static void check(const char*, const Result&, lz::bench::ReplayChecks&) {}
  static std::vector<std::string> diff(const Result& a, const Result& b,
                                       const lz::check::IgnoreFn& ignore) {
    return lz::check::diff_counters(a.counters, b.counters, ignore);
  }
  // On an outcome mismatch, dump the first offending stream's words in
  // hex: together with the seed that is the byte-identical reproducer.
  static void dump_mismatch(const Result& a, const Result& b,
                            const char* runs) {
    for (std::size_t s = 0; s < a.outcome_streams.size() &&
                            s < b.outcome_streams.size();
         ++s) {
      if (a.outcome_streams[s] == b.outcome_streams[s]) continue;
      std::printf("  first mismatching stream (%s): %zu\n", runs, s);
      std::printf("    outcome A:");
      for (const auto byte : a.outcome_streams[s]) std::printf(" %02x", byte);
      std::printf("\n    outcome B:");
      for (const auto byte : b.outcome_streams[s]) std::printf(" %02x", byte);
      std::printf("\n    words:");
      for (std::size_t i = 0; i < a.words[s].size(); ++i) {
        std::printf("%s%08x", i % 8 == 0 ? "\n      " : " ", a.words[s][i]);
      }
      std::printf("\n");
      return;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  A64Fuzz::Config cfg;
  cfg.seed = 1;
  cfg.cores = 4;
  cfg.streams = 0;  // = cores
  const int rc = lz::bench::parse_fuzz_flags(
      argc, argv, cfg,
      "[--seed S] [--cores N] [--streams M] [--insns K] [--max-steps T]",
      {lz::bench::number_flag("--insns", cfg.insns_per_stream),
       lz::bench::number_flag("--max-steps", cfg.max_steps)});
  if (rc >= 0) return rc;

  std::printf("fuzz_a64: seed=%llu cores=%u streams=%u insns/stream=%d "
              "max-steps=%llu\n",
              static_cast<unsigned long long>(cfg.seed), cfg.cores,
              cfg.streams != 0 ? cfg.streams : cfg.cores,
              cfg.insns_per_stream,
              static_cast<unsigned long long>(cfg.max_steps));
  return lz::bench::run_replay<A64Fuzz>(cfg);
}
