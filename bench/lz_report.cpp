// lz_report — diff and regression-gate lz.bench.report documents.
//
// Usage:
//   lz_report <base.json> <candidate.json>... [gates]
//
// Gates (all optional; with none given the tool only prints the diff):
//   --result-min KEY:PCT     the best candidate's results[KEY] must be at
//                            least (1 - PCT/100) x the baseline value
//                            (wall-clock headline numbers like MIPS are
//                            noisy downward, so pass several candidates
//                            and let the best one speak)
//   --result-floor KEY:VAL   the best candidate's results[KEY] must be at
//                            least VAL, absolutely — for hard product
//                            claims ("500+ host MIPS") that a drifting
//                            baseline must not be able to relax
//   --hist-max NAME:PCT      the best (lowest) candidate p99 for histogram
//                            NAME must not exceed (1 + PCT/100) x the
//                            baseline p99
//   --require-cycles-equal   every candidate's simulated cycles.total must
//                            equal the baseline's exactly — the
//                            determinism gate for observe-only changes
//   --require-sim-identical  every candidate document must serialise
//                            byte-identically to the baseline after the
//                            "host" member (host-side counters such as
//                            sim.trace.*) is stripped from both — the
//                            byte-compare gate for configs that execute
//                            identical simulated work but different host
//                            engines (trace tier on vs off)
//
// Every file is parsed with the same obs::Json parser the benches
// serialise with and schema-checked with obs::Report::validate before any
// comparison, so a malformed artifact fails loudly instead of producing a
// vacuous pass. Exit codes: 0 all gates pass, 1 a gate failed, 2 usage /
// I/O / parse error. This replaces the ad-hoc grep/awk comparisons ci.sh
// used to carry.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.h"

namespace {

using lz::u64;
using lz::obs::Json;

struct Gate {
  std::string key;   // result key or histogram name
  double pct = 0;    // allowed regression, percent
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s <base.json> <candidate.json>... [gates]\n"
               "  --result-min KEY:PCT     best candidate results[KEY] >= "
               "(1-PCT/100) x base\n"
               "  --result-floor KEY:VAL   best candidate results[KEY] >= "
               "VAL (absolute)\n"
               "  --hist-max NAME:PCT      best candidate p99 of histogram "
               "NAME <= (1+PCT/100) x base\n"
               "  --require-cycles-equal   all candidate cycles.total == "
               "base cycles.total\n"
               "  --require-sim-identical  all candidate docs byte-identical "
               "to base after\n"
               "                           stripping the \"host\" section\n"
               "  --help, -h               this text\n",
               argv0);
  std::exit(code);
}

std::optional<Json> load_report(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "lz_report: %s: cannot open\n", path);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  auto doc = Json::parse(buf.str());
  if (!doc.has_value()) {
    std::fprintf(stderr, "lz_report: %s: malformed JSON\n", path);
    return std::nullopt;
  }
  if (!lz::obs::Report::validate(*doc)) {
    std::fprintf(stderr, "lz_report: %s: schema validation failed\n", path);
    return std::nullopt;
  }
  return doc;
}

Gate parse_gate(const char* argv0, const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    std::fprintf(stderr, "%s: bad gate spec '%s' (want KEY:PCT)\n", argv0,
                 spec.c_str());
    std::exit(2);
  }
  Gate g;
  g.key = spec.substr(0, colon);
  char* end = nullptr;
  g.pct = std::strtod(spec.c_str() + colon + 1, &end);
  if (end == nullptr || *end != '\0' || g.pct < 0) {
    std::fprintf(stderr, "%s: bad gate percentage in '%s'\n", argv0,
                 spec.c_str());
    std::exit(2);
  }
  return g;
}

std::optional<double> result_value(const Json& doc, const std::string& key) {
  const Json* results = doc.find("results");
  if (results == nullptr) return std::nullopt;
  const Json* v = results->find(key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_double();
}

std::optional<u64> cycles_total(const Json& doc) {
  const Json* cycles = doc.find("cycles");
  if (cycles == nullptr) return std::nullopt;
  const Json* total = cycles->find("total");
  if (total == nullptr || !total->is_number()) return std::nullopt;
  return total->as_u64();
}

std::optional<double> hist_percentile(const Json& doc, const std::string& name,
                                      const char* pct_key) {
  const Json* hists = doc.find("histograms");
  if (hists == nullptr) return std::nullopt;
  const Json* h = hists->find(name);
  if (h == nullptr) return std::nullopt;
  const Json* v = h->find(pct_key);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  return v->as_double();
}

double pct_delta(double base, double got) {
  if (base == 0) return got == 0 ? 0 : HUGE_VAL;
  return (got - base) / base * 100.0;
}

// Shallow copy of an object document minus one top-level member. Used by
// --require-sim-identical to drop the "host" section (host-side engine
// counters like sim.trace.*) before byte-comparing two configs that must
// agree on all simulation-derived sections.
Json without_member(const Json& doc, std::string_view member) {
  Json out = Json::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != member) out.set(key, value);
  }
  return out;
}

// Human-readable diff of base vs the first candidate: shared result keys,
// cycle totals, and p50/p90/p99 of every shared histogram.
void print_diff(const Json& base, const Json& cand) {
  std::printf("== results (base vs candidate) ==\n");
  const Json* base_results = base.find("results");
  if (base_results != nullptr) {
    for (const auto& [key, value] : base_results->members()) {
      if (!value.is_number()) continue;
      const auto got = result_value(cand, key);
      if (!got.has_value()) continue;
      std::printf("  %-40s %14.3f -> %14.3f  (%+.2f%%)\n", key.c_str(),
                  value.as_double(), *got,
                  pct_delta(value.as_double(), *got));
    }
  }
  const auto base_cycles = cycles_total(base);
  const auto cand_cycles = cycles_total(cand);
  if (base_cycles.has_value() && cand_cycles.has_value()) {
    std::printf("== cycles.total ==\n  %llu -> %llu  (%s)\n",
                static_cast<unsigned long long>(*base_cycles),
                static_cast<unsigned long long>(*cand_cycles),
                *base_cycles == *cand_cycles ? "equal" : "DIFFERENT");
  }
  const Json* base_hists = base.find("histograms");
  if (base_hists != nullptr && base_hists->size() > 0) {
    std::printf("== histograms (p50/p90/p99 deltas) ==\n");
    for (const auto& [name, h] : base_hists->members()) {
      (void)h;
      bool any = false;
      std::string line = "  " + name + ":";
      for (const char* p : {"p50", "p90", "p99"}) {
        const auto b = hist_percentile(base, name, p);
        const auto c = hist_percentile(cand, name, p);
        if (!b.has_value() || !c.has_value()) continue;
        any = true;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.0f->%.0f (%+.2f%%)", p, *b, *c,
                      pct_delta(*b, *c));
        line += buf;
      }
      if (any) std::printf("%s\n", line.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> files;
  std::vector<Gate> result_min, result_floor, hist_max;
  bool require_cycles_equal = false;
  bool require_sim_identical = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto gate_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (arg == "--result-min") {
      result_min.push_back(parse_gate(argv[0], gate_value("--result-min")));
    } else if (arg == "--result-floor") {
      result_floor.push_back(
          parse_gate(argv[0], gate_value("--result-floor")));
    } else if (arg == "--hist-max") {
      hist_max.push_back(parse_gate(argv[0], gate_value("--hist-max")));
    } else if (arg == "--require-cycles-equal") {
      require_cycles_equal = true;
    } else if (arg == "--require-sim-identical") {
      require_sim_identical = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      usage(argv[0], 2);
    } else {
      files.push_back(argv[i]);
    }
  }

  if (files.size() < 2) usage(argv[0], 2);

  const auto base = load_report(files[0]);
  if (!base.has_value()) return 2;
  std::vector<Json> candidates;
  for (std::size_t i = 1; i < files.size(); ++i) {
    auto cand = load_report(files[i]);
    if (!cand.has_value()) return 2;
    candidates.push_back(std::move(*cand));
  }

  print_diff(*base, candidates.front());

  int failures = 0;

  if (require_cycles_equal) {
    const auto want = cycles_total(*base);
    if (!want.has_value()) {
      std::fprintf(stderr, "lz_report: %s: no cycles.total\n", files[0]);
      return 2;
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto got = cycles_total(candidates[i]);
      if (!got.has_value() || *got != *want) {
        std::fprintf(stderr,
                     "lz_report: FAIL cycles.total: %s has %llu, baseline "
                     "%s has %llu\n",
                     files[i + 1],
                     static_cast<unsigned long long>(got.value_or(0)),
                     files[0], static_cast<unsigned long long>(*want));
        ++failures;
      }
    }
    if (failures == 0) {
      std::printf("lz_report: ok cycles.total equal across %zu candidate(s)\n",
                  candidates.size());
    }
  }

  if (require_sim_identical) {
    const std::string want = without_member(*base, "host").dump();
    int sim_failures = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::string got = without_member(candidates[i], "host").dump();
      if (got != want) {
        std::fprintf(stderr,
                     "lz_report: FAIL sim sections differ: %s vs baseline %s "
                     "(after stripping \"host\")\n",
                     files[i + 1], files[0]);
        ++sim_failures;
      }
    }
    if (sim_failures == 0) {
      std::printf(
          "lz_report: ok sim sections identical across %zu candidate(s)\n",
          candidates.size());
    }
    failures += sim_failures;
  }

  for (const Gate& g : result_min) {
    const auto want = result_value(*base, g.key);
    if (!want.has_value()) {
      std::fprintf(stderr, "lz_report: %s: no result '%s'\n", files[0],
                   g.key.c_str());
      return 2;
    }
    double best = -HUGE_VAL;
    bool any = false;
    for (const Json& cand : candidates) {
      const auto got = result_value(cand, g.key);
      if (!got.has_value()) continue;
      any = true;
      if (*got > best) best = *got;
    }
    if (!any) {
      std::fprintf(stderr, "lz_report: no candidate has result '%s'\n",
                   g.key.c_str());
      return 2;
    }
    const double floor = *want * (1.0 - g.pct / 100.0);
    if (best < floor) {
      std::fprintf(stderr,
                   "lz_report: FAIL result %s regressed >%.3g%%: best %.3f "
                   "vs baseline %.3f\n",
                   g.key.c_str(), g.pct, best, *want);
      ++failures;
    } else {
      std::printf("lz_report: ok result %s: best %.3f vs baseline %.3f "
                  "(floor %.3f)\n",
                  g.key.c_str(), best, *want, floor);
    }
  }

  for (const Gate& g : result_floor) {
    // Absolute floor: the baseline value is irrelevant by design — the
    // spec's VAL field (parsed into Gate::pct) IS the floor.
    const double floor = g.pct;
    double best = -HUGE_VAL;
    bool any = false;
    for (const Json& cand : candidates) {
      const auto got = result_value(cand, g.key);
      if (!got.has_value()) continue;
      any = true;
      if (*got > best) best = *got;
    }
    if (!any) {
      std::fprintf(stderr, "lz_report: no candidate has result '%s'\n",
                   g.key.c_str());
      return 2;
    }
    if (best < floor) {
      std::fprintf(stderr,
                   "lz_report: FAIL result %s below absolute floor: best "
                   "%.3f < %.3f\n",
                   g.key.c_str(), best, floor);
      ++failures;
    } else {
      std::printf("lz_report: ok result %s: best %.3f >= floor %.3f\n",
                  g.key.c_str(), best, floor);
    }
  }

  for (const Gate& g : hist_max) {
    const auto want = hist_percentile(*base, g.key, "p99");
    if (!want.has_value()) {
      std::fprintf(stderr, "lz_report: %s: no histogram '%s'\n", files[0],
                   g.key.c_str());
      return 2;
    }
    double best = HUGE_VAL;
    bool any = false;
    for (const Json& cand : candidates) {
      const auto got = hist_percentile(cand, g.key, "p99");
      if (!got.has_value()) continue;
      any = true;
      if (*got < best) best = *got;
    }
    if (!any) {
      std::fprintf(stderr, "lz_report: no candidate has histogram '%s'\n",
                   g.key.c_str());
      return 2;
    }
    const double ceiling = *want * (1.0 + g.pct / 100.0);
    if (best > ceiling) {
      std::fprintf(stderr,
                   "lz_report: FAIL histogram %s p99 regressed >%.3g%%: best "
                   "%.0f vs baseline %.0f\n",
                   g.key.c_str(), g.pct, best, *want);
      ++failures;
    } else {
      std::printf("lz_report: ok histogram %s p99: best %.0f vs baseline "
                  "%.0f (ceiling %.1f)\n",
                  g.key.c_str(), best, *want, ceiling);
    }
  }

  return failures == 0 ? 0 : 1;
}
