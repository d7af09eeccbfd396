// lz::obs v4 — the per-tenant metrics plane and its exposition. Covers the
// labeled-family registration discipline (stable handles, fixed label
// order, sanitized values, bounded cardinality with an explicit overflow
// series), deterministic Prometheus-style rendering, the live dump pump
// riding the TimeSeries due-threshold hook, the host-side self-profiler,
// the observe-only contract (an enabled plane changes no simulated
// cycles), and the flight recorder's torn-slot-tolerant reader under
// concurrent multi-core writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/platform.h"
#include "obs/counters.h"
#include "obs/expose.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "workloads/httpd.h"

namespace lz {
namespace {

using obs::CounterFamily;
using obs::HistogramFamily;
using obs::LabelKey;
using obs::LabelSet;
using workload::AppConfig;
using workload::HttpdParams;
using workload::Placement;

class MetricsTest : public ::testing::Test {
 protected:
  // Armed as its readers arm it, for the flight recorder test.
  void SetUp() override {
    obs::reset_all();
    flight_was_armed_ = obs::flight().armed();
    obs::flight().arm();
  }
  void TearDown() override {
    obs::timeseries().reset();
    obs::flight().arm(flight_was_armed_);
    obs::reset_all();
  }
  bool flight_was_armed_ = false;

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

// --- Labels ------------------------------------------------------------------

TEST_F(MetricsTest, LabelSetRendersInFixedKeyOrder) {
  // Insertion order backend-then-tenant must not leak into the rendering:
  // LabelKey order (tenant, domain, core, backend) is the contract.
  LabelSet labels;
  labels.set(LabelKey::kBackend, "poe");
  labels.set(LabelKey::kTenant, "worker0");
  labels.set(LabelKey::kCore, u64{3});
  EXPECT_EQ(labels.render(), "{tenant=\"worker0\",core=\"3\",backend=\"poe\"}");
  EXPECT_EQ(LabelSet{}.render(), "");
  EXPECT_TRUE(LabelSet{}.empty());
  EXPECT_FALSE(labels.empty());
}

TEST_F(MetricsTest, LabelValuesAreSanitizedOnEntry) {
  // A tenant named to break out of the quoted value (or to smuggle the
  // collapsed-stack ';' separator) must come out inert — same
  // sanitize_frame defence the profiler exporter uses.
  LabelSet labels;
  labels.set(LabelKey::kTenant, "evil\";x=\"1");
  labels.set(LabelKey::kDomain, "a b;c\\d");
  const std::string rendered = labels.render();
  EXPECT_EQ(rendered.find('\\'), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find(' '), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find(';'), std::string::npos) << rendered;
  // The only quotes left are the value delimiters themselves.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '"'), 4) << rendered;
  EXPECT_NE(rendered.find("evil"), std::string::npos) << rendered;
}

// --- Families ----------------------------------------------------------------

TEST_F(MetricsTest, FamilyHandlesAreStableAndShared) {
  CounterFamily& fam = obs::metrics().counter_family("test.requests");
  EXPECT_EQ(&fam, &obs::metrics().counter_family("test.requests"));

  LabelSet a;
  a.set(LabelKey::kTenant, "a");
  obs::Counter& series = fam.with(a);
  EXPECT_EQ(&series, &fam.with(a));  // same labels -> same instrument
  series.add(3);
  fam.with(a).add(2);

  const auto all = fam.series();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].inst->value(), 5u);
  EXPECT_FALSE(all[0].overflow);
  EXPECT_EQ(all[0].labels.get(LabelKey::kTenant), "a");
}

TEST_F(MetricsTest, FamilyCardinalityIsBounded) {
  CounterFamily& fam = obs::metrics().counter_family("test.cardinality");
  for (std::size_t i = 0; i < obs::kMaxSeriesPerFamily + 5; ++i) {
    LabelSet labels;
    labels.set(LabelKey::kTenant, "tenant" + std::to_string(i));
    fam.with(labels).add(1);
  }
  EXPECT_EQ(fam.size(), obs::kMaxSeriesPerFamily);
  EXPECT_EQ(fam.dropped_series(), 5u);

  // The five overflowing label-sets all folded into one shared series,
  // flagged and appended after the real (label-sorted) series.
  const auto all = fam.series();
  ASSERT_EQ(all.size(), obs::kMaxSeriesPerFamily + 1);
  EXPECT_TRUE(all.back().overflow);
  EXPECT_EQ(all.back().inst->value(), 5u);
}

// --- Exposition --------------------------------------------------------------

TEST_F(MetricsTest, ExpositionIsDeterministicAndSorted) {
  obs::metrics().enable();
  // Register in anti-alphabetical order; the exposition must sort.
  LabelSet b_labels, a_labels;
  b_labels.set(LabelKey::kTenant, "z");
  a_labels.set(LabelKey::kTenant, "a");
  obs::metrics().counter_family("zz.family").with(b_labels).add(7);
  obs::metrics().counter_family("aa.family").with(a_labels).add(1);

  const std::string once = obs::render_exposition();
  const std::string twice = obs::render_exposition();
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.rfind("# lz.obs exposition v1\n", 0), 0u) << once;
  // Dots mangle to underscores; aa renders before zz.
  const auto aa = once.find("aa_family{tenant=\"a\"} 1\n");
  const auto zz = once.find("zz_family{tenant=\"z\"} 7\n");
  ASSERT_NE(aa, std::string::npos) << once;
  ASSERT_NE(zz, std::string::npos) << once;
  EXPECT_LT(aa, zz);
}

TEST_F(MetricsTest, ExpositionRendersHistogramSeries) {
  obs::metrics().enable();
  LabelSet labels;
  labels.set(LabelKey::kTenant, "w0");
  labels.set(LabelKey::kDomain, u64{4});
  obs::Histogram& h =
      obs::metrics().histogram_family("lz.tenant.gate_switch_cycles")
          .with(labels);
  for (u64 v : {100, 200, 300, 400}) h.record(v);

  const std::string text = obs::render_exposition();
  const char* prefix = "lz_tenant_gate_switch_cycles";
  for (const char* q : {"0.5", "0.9", "0.99"}) {
    const std::string want = std::string(prefix) +
                             "{tenant=\"w0\",domain=\"4\",quantile=\"" + q +
                             "\"}";
    EXPECT_NE(text.find(want), std::string::npos) << text;
  }
  EXPECT_NE(text.find(std::string(prefix) +
                      "_count{tenant=\"w0\",domain=\"4\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(std::string(prefix) +
                      "_sum{tenant=\"w0\",domain=\"4\"} 1000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("_min{tenant=\"w0\",domain=\"4\"} 100\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("_max{tenant=\"w0\",domain=\"4\"} 400\n"),
            std::string::npos)
      << text;
}

TEST_F(MetricsTest, ExpositionFlagsOverflowSeries) {
  obs::metrics().enable();
  CounterFamily& fam = obs::metrics().counter_family("test.overflow");
  for (std::size_t i = 0; i < obs::kMaxSeriesPerFamily + 1; ++i) {
    LabelSet labels;
    labels.set(LabelKey::kTenant, "t" + std::to_string(i));
    fam.with(labels).add(1);
  }
  const std::string text = obs::render_exposition();
  EXPECT_NE(text.find("test_overflow{overflow=\"true\"} 1\n"),
            std::string::npos);
}

// --- Observe-only contract ---------------------------------------------------

TEST_F(MetricsTest, EnabledPlaneChangesNoSimulatedCycles) {
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 50;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         workload::kLzTtbr, 42};

  const auto off = workload::run_httpd(config, params)[0];
  const auto counters_off = obs::registry().snapshot();

  obs::reset_all();
  obs::metrics().enable();
  const auto on = workload::run_httpd(config, params)[0];
  const auto counters_on = obs::registry().snapshot();

  // Identical simulated work, identical counters — recording is free in
  // simulated time even though the plane captured per-tenant series.
  EXPECT_EQ(on.cycles_per_request, off.cycles_per_request);
  EXPECT_EQ(counters_on, counters_off);
  const auto series =
      obs::metrics().counter_family("httpd.requests").series();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series[0].inst->value(), 50u);
}

TEST_F(MetricsTest, DisabledPlaneRecordsNothing) {
  // Registrations survive reset_all() (handles are stable for the process
  // lifetime), so gauge the disabled run by growth and value movement.
  ASSERT_FALSE(obs::metrics().enabled());
  const std::size_t requests_before =
      obs::metrics().counter_family("httpd.requests").size();
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 10;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         workload::kLzPan, 42};
  (void)workload::run_httpd(config, params);
  EXPECT_EQ(obs::metrics().counter_family("httpd.requests").size(),
            requests_before);
  for (const auto& s : obs::metrics().counter_family("httpd.requests")
                           .series()) {
    EXPECT_EQ(s.inst->value(), 0u);  // reset zeroed it; disabled run added 0
  }
  for (const auto& s :
       obs::metrics().histogram_family("httpd.request_cycles").series()) {
    EXPECT_EQ(s.inst->count(), 0u);
  }
}

// --- The dump pump -----------------------------------------------------------

TEST_F(MetricsTest, PumpRidesTheTimeSeriesHook) {
  const std::string path = temp_path("pump_exposition.prom");
  obs::metrics().enable();
  obs::timeseries().arm(/*period=*/5000);
  obs::exposition_pump().arm(path);
  ASSERT_TRUE(obs::exposition_pump().armed());

  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 100;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         workload::kLzTtbr, 42};
  (void)workload::run_httpd(config, params);

  // The workload burned well over one sampling period, so the sampler
  // fired and each sample rewrote the snapshot file.
  EXPECT_GT(obs::exposition_pump().dumps(), 0u);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[32] = {};
  ASSERT_GT(std::fread(header, 1, sizeof(header) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(header).rfind("# lz.obs exposition v1", 0), 0u);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, WriteExpositionRoundTripsDeterministically) {
  obs::metrics().enable();
  LabelSet labels;
  labels.set(LabelKey::kTenant, "t");
  obs::metrics().counter_family("round.trip").with(labels).add(9);
  const std::string a = temp_path("expo_a.prom");
  const std::string b = temp_path("expo_b.prom");
  ASSERT_TRUE(obs::write_exposition(a));
  ASSERT_TRUE(obs::write_exposition(b));
  std::ifstream fa(a), fb(b);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- Self-profiler -----------------------------------------------------------

TEST_F(MetricsTest, SelfProfilerAccumulatesOnlyWhenEnabled) {
  ASSERT_FALSE(obs::selfprof().enabled());
  {
    obs::SelfProfScope scope(obs::SelfTier::kObs);
  }
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);

  obs::selfprof().enable();
  {
    obs::SelfProfScope scope(obs::SelfTier::kObs);
    // Enough work that even a coarse tick source observes time passing.
    volatile u64 sink = 0;
    for (u64 i = 0; i < 200000; ++i) sink = sink + i;
  }
  EXPECT_GT(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kRun), 0u);

  obs::selfprof().reset();
  EXPECT_FALSE(obs::selfprof().enabled());
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);
}

TEST_F(MetricsTest, SelfProfilerAttributesEngineTiersDuringRuns) {
  obs::selfprof().enable();
  HttpdParams params = HttpdParams::defaults(arch::Platform::cortex_a55());
  params.requests = 50;
  const AppConfig config{&arch::Platform::cortex_a55(), Placement::kHost,
                         workload::kLzTtbr, 42};
  (void)workload::run_httpd(config, params);
  // The outer run bracket always accumulates; the walker fires on TLB
  // misses, which this workload generates by construction.
  EXPECT_GT(obs::selfprof().ticks(obs::SelfTier::kRun), 0u);
  EXPECT_GT(obs::selfprof().ticks(obs::SelfTier::kWalker), 0u);
}

// --- reset_all() -------------------------------------------------------------

TEST_F(MetricsTest, ResetAllDisarmsAndZeroesThePlane) {
  obs::metrics().enable();
  obs::selfprof().enable();
  obs::exposition_pump().arm(temp_path("reset_probe.prom"));
  LabelSet labels;
  labels.set(LabelKey::kTenant, "t");
  obs::metrics().counter_family("reset.family").with(labels).add(5);
  obs::selfprof().add(obs::SelfTier::kObs, 10);

  obs::reset_all();

  EXPECT_FALSE(obs::metrics().enabled());
  EXPECT_FALSE(obs::selfprof().enabled());
  EXPECT_FALSE(obs::exposition_pump().armed());
  EXPECT_EQ(obs::selfprof().ticks(obs::SelfTier::kObs), 0u);
  const auto series =
      obs::metrics().counter_family("reset.family").series();
  ASSERT_EQ(series.size(), 1u);  // registration survives, value is zeroed
  EXPECT_EQ(series[0].inst->value(), 0u);
}

// --- Flight recorder under concurrency ---------------------------------------

// Satellite: the black box's reader must tolerate torn in-flight slots
// while multiple simulated cores write concurrently. Writers hammer
// per-core rings; a reader thread renders the report the whole time. Under
// the TSan leg this doubles as a data-race proof for the relaxed-atomic
// slot protocol.
TEST_F(MetricsTest, FlightRecorderToleratesConcurrentWriters) {
  constexpr unsigned kWriters = 4;
  constexpr u64 kEventsPerWriter = 2000;

  std::atomic<bool> stop{false};
  // The writers start once the reader has rendered, so the two overlap
  // even when the reader thread is scheduled late.
  std::atomic<bool> rendered{false};
  std::thread reader([&] {
    u64 renders = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string report = obs::flight().report();
      (void)report;
      ++renders;
      rendered.store(true, std::memory_order_release);
    }
    EXPECT_GT(renders, 0u);
  });

  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &rendered] {
      while (!rendered.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const unsigned prev = obs::set_current_core(w + 1);
      for (u64 i = 0; i < kEventsPerWriter; ++i) {
        obs::Event e;
        e.ts = i;
        e.kind = obs::EventKind::kGateSwitch;
        e.a0 = w;
        e.a1 = i;
        obs::flight().record(e);
      }
      obs::set_current_core(prev);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(obs::flight().recorded(), kWriters * kEventsPerWriter);
  const std::string report = obs::flight().report();
  for (unsigned w = 0; w < kWriters; ++w) {
    EXPECT_NE(report.find("core " + std::to_string(w + 1) + ":"),
              std::string::npos)
        << report;
  }
  // Quiescent ring: every surviving slot was fully published, so each
  // core's section shows exactly the ring depth.
  const u64 kept = obs::FlightRecorder::kEventsPerCore;
  EXPECT_NE(report.find("#" + std::to_string(kEventsPerWriter - kept + 1) +
                        " "),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace lz
