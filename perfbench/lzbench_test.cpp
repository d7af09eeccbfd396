// Tests of the benchmark itself: seeded determinism, metric naming, the
// percentile rule and the tracer's time accounting. Exits non-zero on the
// first failure; run as `lzbench_test` from the benchmark build directory.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "hostspeed.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int g_checks = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    ++g_checks;                                                         \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,      \
                   __LINE__, #cond);                                    \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

using namespace lzbench;

lzbench::Fingerprint run_ops(std::string_view name, uint64_t seed, int ops) {
  auto wl = make_workload(name);
  EXPECT(wl != nullptr);
  (void)wl->setup(seed);
  for (int i = 0; i < ops; ++i) EXPECT(wl->op(static_cast<uint64_t>(i)));
  return wl->fingerprint();
}

void same_seed_same_ops() {
  for (const auto name : workload_names()) {
    const auto a = run_ops(name, 7, 24);
    const auto b = run_ops(name, 7, 24);
    const auto c = run_ops(name, 8, 24);
    EXPECT(a == b);
    EXPECT(a.digest != c.digest);
    EXPECT(a.sim > 0);
  }
  EXPECT(make_workload("no_such_workload") == nullptr);
}

void traced_ops_match_untraced() {
  for (const auto name : workload_names()) {
    const auto plain = run_ops(name, 3, 16);
    Tracer t;
    t.install();
    auto wl = make_workload(name);
    (void)wl->setup(3);
    for (uint64_t i = 0; i < 16; ++i) {
      t.op_begin(i);
      EXPECT(wl->op(i));
      t.op_end();
    }
    Tracer::uninstall();
    EXPECT(wl->fingerprint() == plain);
    EXPECT(t.ops() == 16);
  }
}

bool valid_unit(std::string_view u) {
  if (u.empty() || u.size() > 16) return false;
  for (const char c : u) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '/' || c == '%' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void metric_names() {
  std::set<std::string_view> seen;
  int e2e = 0;
  for (const MetricDef& d : metric_catalogue()) {
    EXPECT(valid_metric_name(d.name));
    EXPECT(valid_unit(d.unit));
    EXPECT(seen.insert(d.name).second);
    if (d.run == MetricRun::kEndToEnd) {
      ++e2e;
      EXPECT(d.better == "higher" || d.better == "lower");
    } else {
      EXPECT(!d.moves.empty());
    }
  }
  EXPECT(e2e == 6);
  EXPECT(seen.count("setup_s") == 1);
  EXPECT(!valid_metric_name("op us"));
  EXPECT(!valid_metric_name("p99{core=0}"));
  EXPECT(!valid_metric_name(""));
}

void percentile_rule() {
  // More than 10 samples must lie beyond the percentile.
  EXPECT(!percentile_reportable(1000, 0.99));  // exactly 10 beyond
  EXPECT(percentile_reportable(1200, 0.99));
  EXPECT(!percentile_reportable(21, 0.50));
  EXPECT(percentile_reportable(23, 0.50));
  EXPECT(!percentile_reportable(0, 0.50));

  LogHistogram h;
  for (uint64_t v = 1; v <= 100'000; ++v) h.record(v);
  EXPECT(h.count() == 100'000);
  EXPECT(std::fabs(h.quantile(0.50) - 50'000) < 50'000 * 0.01);
  EXPECT(std::fabs(h.quantile(0.99) - 99'000) < 99'000 * 0.01);
  LogHistogram small;
  for (uint64_t v = 0; v < 100; ++v) small.record(v);
  EXPECT(std::fabs(small.quantile(0.5) - 49.5) < 1.0);  // exact buckets

  // A compacted histogram merged back at half scale halves its quantiles.
  LogHistogram half;
  half.merge(h.compact(), 0.5);
  EXPECT(half.count() == h.count());
  EXPECT(std::fabs(half.quantile(0.99) - 49'500) < 49'500 * 0.02);
}

void host_speed_probe() {
  HostSpeed host;
  const double ns = host.probe_ns();
  // Reference work of ~0.5 ms; a loop the compiler dropped would take ~0.
  EXPECT(ns > 20'000 && ns < 50'000'000);
}

void spin(int64_t ns) {
  const int64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

void tracer_accounts_for_op_time() {
  Tracer t;
  t.install();
  for (uint64_t op = 0; op < 20; ++op) {
    t.op_begin(op);
    spin(20'000);  // unattributed glue work
    {
      const Span outer(Layer::kA64Fuzz);
      spin(30'000);
      const Span inner(Layer::kMemRead);
      spin(50'000);
    }
    t.op_end();
  }
  Tracer::uninstall();
  double shares = t.unattributed_ns() / t.op_ns();
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    shares += t.layer(static_cast<Layer>(l)).self_ns / t.op_ns();
  }
  EXPECT(std::fabs(shares - 1.0) < 1e-9);
  EXPECT(t.layer(Layer::kMemRead).calls == 20);
  // Self times land on the right layer, to within scheduling noise.
  const double inner = t.layer(Layer::kMemRead).self_ns / 20;
  const double outer = t.layer(Layer::kA64Fuzz).self_ns / 20;
  EXPECT(inner > 45'000 && inner < 80'000);
  EXPECT(outer > 25'000 && outer < 60'000);
  EXPECT(t.span_cost_ns() > 0 && t.span_cost_ns() < 2'000);
}

}  // namespace

int main() {
  metric_names();
  percentile_rule();
  host_speed_probe();
  tracer_accounts_for_op_time();
  same_seed_same_ops();
  traced_ops_match_untraced();
  std::printf("lzbench_test: %d checks passed\n", g_checks);
  return 0;
}
