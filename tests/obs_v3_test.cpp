// lz::obs v3 — request-scoped span tracing, time-series telemetry, and the
// crash flight recorder. Covers span causality (same-thread nesting, the
// cross-core adopt through kernel::Kernel::run_on), the simulated-cycle
// time-series sampler, the armed per-core black box (including the
// lz::check fail-stop dump), the tenant-label sanitization the profiler's
// collapsed-stack export relies on, and the HVC-forward / DVM-shootdown
// latency histograms under a 4-core machine.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "check/check.h"
#include "kernel/kernel.h"
#include "lightzone/api.h"
#include "obs/counters.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/assembler.h"
#include "sim/cost.h"
#include "sim/machine.h"

#if defined(__SANITIZE_THREAD__)
#define LZ_OBS_V3_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LZ_OBS_V3_TSAN 1
#endif
#endif

namespace lz {
namespace {

using core::Env;
using core::LzProc;
using obs::SpanEvent;
using obs::SpanKind;
using obs::SpanScope;
using sim::Asm;

class ObsV3Test : public ::testing::Test {
 protected:
  // The flight tests read the black box, so the recorder is armed here
  // as its readers arm it.
  void SetUp() override {
    obs::reset_all();
    flight_was_armed_ = obs::flight().armed();
    obs::flight().arm();
  }
  void TearDown() override {
    obs::spans().disarm();
    obs::timeseries().reset();
    obs::trace().disarm();
    obs::flight().arm(flight_was_armed_);
    obs::reset_all();
  }
  bool flight_was_armed_ = false;

  static std::optional<SpanEvent> find_span(SpanKind kind) {
    for (const SpanEvent& e : obs::spans().events()) {
      if (e.kind == kind) return e;
    }
    return std::nullopt;
  }
};

// --- Span tracer -------------------------------------------------------------

TEST_F(ObsV3Test, DisarmedSpansRecordNothing) {
  EXPECT_FALSE(obs::spans().armed());
  EXPECT_EQ(obs::spans().begin(SpanKind::kRequest), 0u);
  obs::spans().end(0);  // must be a no-op
  { SpanScope scope(SpanKind::kGateSwitch, 3); }
  EXPECT_EQ(obs::spans().size(), 0u);
  EXPECT_EQ(obs::spans().completed(), 0u);
  EXPECT_EQ(obs::SpanTracer::current(), 0u);
}

TEST_F(ObsV3Test, NestedScopesRecordParentChildCausality) {
  obs::spans().arm(64);
  u64 outer_id = 0, inner_id = 0;
  {
    SpanScope outer(SpanKind::kRequest, /*arg=*/7, /*vmid=*/3, /*asid=*/5);
    outer_id = outer.id();
    EXPECT_NE(outer_id, 0u);
    EXPECT_EQ(obs::SpanTracer::current(), outer_id);
    {
      SpanScope inner(SpanKind::kSyscall, /*arg=*/42);
      inner_id = inner.id();
      EXPECT_EQ(obs::SpanTracer::current(), inner_id);
    }
  }
  ASSERT_EQ(obs::spans().size(), 2u);
  const auto events = obs::spans().events();
  // Spans complete innermost-first.
  EXPECT_EQ(events[0].id, inner_id);
  EXPECT_EQ(events[0].parent, outer_id);
  EXPECT_EQ(events[0].kind, SpanKind::kSyscall);
  EXPECT_EQ(events[0].arg, 42u);
  EXPECT_EQ(events[1].id, outer_id);
  EXPECT_EQ(events[1].parent, 0u);  // root
  EXPECT_EQ(events[1].vmid, 3u);
  EXPECT_EQ(events[1].asid, 5u);
  EXPECT_LE(events[0].start, events[0].end);
  EXPECT_EQ(obs::spans().completed_of(SpanKind::kRequest), 1u);
  EXPECT_EQ(obs::spans().completed_of(SpanKind::kSyscall), 1u);
  EXPECT_EQ(obs::spans().max_depth(), 2u);
}

TEST_F(ObsV3Test, SpanTimestampsFollowTheCycleLedger) {
  obs::spans().arm(8);
  sim::CycleAccount account;
  account.charge(sim::CostKind::kInsn, 100);
  const u64 id = obs::spans().begin(SpanKind::kGateSwitch);
  account.charge(sim::CostKind::kInsn, 50);
  obs::spans().end(id);
  const auto events = obs::spans().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].start, 100u);
  EXPECT_EQ(events[0].end, 150u);
}

TEST_F(ObsV3Test, DepthOverflowDropsInsteadOfCorrupting) {
  obs::spans().arm(256);
  std::vector<u64> ids;
  for (std::size_t i = 0; i < obs::SpanTracer::kMaxDepth + 3; ++i) {
    ids.push_back(obs::spans().begin(SpanKind::kTask, i));
  }
  // The overflowing begins return 0 and count as dropped.
  EXPECT_EQ(ids[obs::SpanTracer::kMaxDepth], 0u);
  EXPECT_EQ(obs::spans().dropped(), 3u);
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) obs::spans().end(*it);
  EXPECT_EQ(obs::spans().size(), obs::SpanTracer::kMaxDepth);
  EXPECT_EQ(obs::spans().max_depth(), obs::SpanTracer::kMaxDepth);
  // Ring overwrites add to the same tally: 250 more spans into the
  // 256-slot ring overwrite the 10 oldest (the 16 above closed innermost
  // first, args 15..0), and the survivors come out oldest-first.
  for (int i = 0; i < 250; ++i) SpanScope s(SpanKind::kTask);
  EXPECT_EQ(obs::spans().size(), 256u);
  EXPECT_EQ(obs::spans().dropped(), 3u + 10u);
  EXPECT_EQ(obs::spans().events().front().arg, 5u);
}

TEST_F(ObsV3Test, AdoptEstablishesAmbientParentForRootSpans) {
  obs::spans().arm(16);
  {
    obs::SpanTracer::Adopt adopt(999);
    EXPECT_EQ(obs::SpanTracer::current(), 999u);
    SpanScope task(SpanKind::kTask);
    EXPECT_NE(task.id(), 0u);
  }
  EXPECT_EQ(obs::SpanTracer::current(), 0u);  // restored
  const auto task = find_span(SpanKind::kTask);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->parent, 999u);
}

// The cross-core edge: a task submitted through kernel::Kernel::run_on
// under an open request span must record that request as its parent even
// though it executes on another core's worker thread.
TEST_F(ObsV3Test, KernelRunOnPropagatesSpanParentAcrossCores) {
  Env env(Env::Options().cores(2));
  obs::spans().arm(64);
  u64 request_id = 0;
  u64 seen_current = 0;
  {
    SpanScope request(SpanKind::kRequest, /*arg=*/1);
    request_id = request.id();
    ASSERT_NE(request_id, 0u);
    env.kern().run_on(1, [&](unsigned) {
      // Inside the worker the innermost open span is the kernel's own
      // task span, itself parented under the submitter's request.
      seen_current = obs::SpanTracer::current();
    });
    env.kern().schedule();
  }
  EXPECT_NE(seen_current, 0u);
  EXPECT_NE(seen_current, request_id);
  const auto task = find_span(SpanKind::kTask);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->id, seen_current);
  EXPECT_EQ(task->parent, request_id);
}

TEST_F(ObsV3Test, ChromeFragmentEmitsCompleteEventsWithTenantLabels) {
  obs::spans().arm(16);
  obs::set_domain_label(3, 5, "tenant a;b");
  {
    SpanScope outer(SpanKind::kRequest, 1, /*vmid=*/3, /*asid=*/5);
    SpanScope inner(SpanKind::kGateSwitch, 2, /*vmid=*/3, /*asid=*/5);
  }
  const std::string frag = obs::spans().chrome_fragment();
  // The fragment must be a valid comma-separated object list...
  const auto parsed = obs::Json::parse("[" + frag + "]");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  const obs::Json& first = parsed->elements()[0];
  EXPECT_EQ(first.find("ph")->as_string(), "X");
  EXPECT_EQ(first.find("cat")->as_string(), "span");
  EXPECT_EQ(first.find("name")->as_string(), "gate-switch");
  ASSERT_NE(first.find("args"), nullptr);
  EXPECT_NE(first.find("args")->find("parent")->as_u64(), 0u);
  // ...and the user-supplied tenant label must come out sanitized.
  EXPECT_EQ(first.find("args")->find("tenant")->as_string(), "tenant_a_b");
}

TEST_F(ObsV3Test, SpliceSpansIntoChromeTrace) {
  obs::trace().arm(16);
  obs::spans().arm(16);
  obs::trace().gate_switch(1, 2);
  { SpanScope s(SpanKind::kGateSwitch, 1); }
  const std::string json =
      obs::trace().to_chrome_json(obs::spans().chrome_fragment());
  const auto doc = obs::Json::parse(json);
  ASSERT_TRUE(doc.has_value());
  const obs::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Instant event + complete (span) event in one traceEvents array.
  ASSERT_EQ(events->size(), 2u);
  bool saw_instant = false, saw_complete = false;
  for (const obs::Json& e : events->elements()) {
    if (e.find("ph")->as_string() == "i") saw_instant = true;
    if (e.find("ph")->as_string() == "X") saw_complete = true;
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_complete);
}

// --- Tenant-label sanitization (profiler collapsed stacks) -------------------

TEST_F(ObsV3Test, SanitizeFrameMapsSeparatorsToUnderscore) {
  EXPECT_EQ(obs::sanitize_frame("plain"), "plain");
  EXPECT_EQ(obs::sanitize_frame("a;b c\td\ne\rf\"g\\h"), "a_b_c_d_e_f_g_h");
  EXPECT_EQ(obs::sanitize_frame(""), "");
}

// Regression: a domain label containing flamegraph.pl's frame separator
// (';') or the count separator (whitespace) must not corrupt the collapsed
// stack line it is appended to.
TEST_F(ObsV3Test, CollapsedStacksSanitizeDomainLabels) {
  obs::set_domain_label(7, 9, "evil;tenant name");
  obs::profiler().arm(64);
  obs::SampleKey key;
  key.core = 0;
  key.el = 1;
  key.pan = 0;
  key.vmid = 7;
  key.asid = 9;
  key.pc = 0x1234;
  obs::profiler().record(key);
  const std::string out = obs::profiler().collapsed();
  obs::profiler().disarm();
  EXPECT_NE(out.find("evil_tenant_name;"), std::string::npos) << out;
  EXPECT_EQ(out.find("evil;"), std::string::npos) << out;
  // Exactly one space per line: the frame/count separator.
  const std::string line = out.substr(0, out.find('\n'));
  EXPECT_EQ(std::count(line.begin(), line.end(), ' '), 1) << line;
}

// --- Time-series telemetry ---------------------------------------------------

TEST_F(ObsV3Test, DisarmedTimeSeriesNeverSamples) {
  sim::CycleAccount account;
  account.charge(sim::CostKind::kInsn, 1'000'000);
  EXPECT_EQ(obs::timeseries().size(), 0u);
  EXPECT_FALSE(obs::timeseries().armed());
}

TEST_F(ObsV3Test, ChargesCrossingThePeriodTakeSamples) {
  obs::registry().counter("test.ts.marker").add(5);
  obs::histograms().histogram("test.ts.hist").record(77);
  obs::timeseries().arm(1000);
  sim::CycleAccount account;
  for (int i = 0; i < 25; ++i) account.charge(sim::CostKind::kInsn, 100);
  // 2500 cycles at period 1000: at least two samples are due.
  ASSERT_GE(obs::timeseries().size(), 2u);
  const auto samples = obs::timeseries().samples();
  u64 prev_ts = 0;
  for (const auto& s : samples) {
    EXPECT_GT(s.ts, prev_ts);
    prev_ts = s.ts;
  }
  // Each sample carries a full counter + histogram snapshot.
  bool saw_counter = false;
  for (const auto& [name, value] : samples.back().counters) {
    if (name == "test.ts.marker" && value == 5) saw_counter = true;
  }
  EXPECT_TRUE(saw_counter);
  bool saw_hist = false;
  for (const auto& h : samples.back().histograms) {
    if (h.name == "test.ts.hist" && h.count == 1) saw_hist = true;
  }
  EXPECT_TRUE(saw_hist);
  obs::timeseries().disarm();
  const std::size_t at_disarm = obs::timeseries().size();
  account.charge(sim::CostKind::kInsn, 10'000);
  EXPECT_EQ(obs::timeseries().size(), at_disarm);  // parked
}

TEST_F(ObsV3Test, RingKeepsNewestAndCountsDrops) {
  obs::timeseries().arm(100, /*capacity=*/4);
  sim::CycleAccount account;
  for (int i = 0; i < 20; ++i) account.charge(sim::CostKind::kInsn, 100);
  EXPECT_EQ(obs::timeseries().size(), 4u);
  EXPECT_GT(obs::timeseries().dropped(), 0u);
  const auto samples = obs::timeseries().samples();
  // Oldest-first, and the survivors are the newest samples.
  EXPECT_GT(samples.front().ts, 100u);
}

TEST_F(ObsV3Test, SampleNowFlushesFinalState) {
  obs::timeseries().arm(1u << 30);  // period far beyond this test's work
  sim::CycleAccount account;
  account.charge(sim::CostKind::kInsn, 10);
  EXPECT_EQ(obs::timeseries().size(), 0u);
  obs::timeseries().sample_now();
  ASSERT_EQ(obs::timeseries().size(), 1u);
  EXPECT_EQ(obs::timeseries().samples()[0].ts, 10u);
}

TEST_F(ObsV3Test, ReportEmitsTimeseriesAndSpanSections) {
  obs::spans().arm(16);
  obs::timeseries().arm(100);
  sim::CycleAccount account;
  { SpanScope s(SpanKind::kRequest, 1); }
  for (int i = 0; i < 5; ++i) account.charge(sim::CostKind::kInsn, 100);
  obs::timeseries().sample_now();

  obs::Report report("obs_v3");
  report.add_result("r", u64{1});
  report.set_cycles_total(obs::cycle_ledger().total());
  report.add_counters(obs::registry().snapshot());
  report.add_histograms(obs::histograms().snapshot());
  report.set_timeseries(obs::timeseries());
  report.set_spans(obs::spans());

  const auto doc = obs::Json::parse(report.to_string());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(obs::Report::validate(*doc));
  const obs::Json* ts = doc->find("timeseries");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->find("period")->as_u64(), 100u);
  ASSERT_NE(ts->find("snapshots"), nullptr);
  EXPECT_GE(ts->find("snapshots")->size(), 2u);
  const obs::Json* spans = doc->find("spans");
  ASSERT_NE(spans, nullptr);
  EXPECT_EQ(spans->find("completed")->as_u64(), 1u);
  EXPECT_EQ(spans->find("by_kind")->find("request")->as_u64(), 1u);

  // Without the setters the sections must be absent (golden byte-identity
  // for flagless runs).
  obs::Report plain("obs_v3_plain");
  plain.add_result("r", u64{1});
  const std::string text = plain.to_string();
  EXPECT_EQ(text.find("timeseries"), std::string::npos);
  EXPECT_EQ(text.find("\"spans\""), std::string::npos);
}

// --- Flight recorder ---------------------------------------------------------

TEST_F(ObsV3Test, FlightRecordsEvenWithTraceDisarmed) {
  ASSERT_FALSE(obs::trace().armed());
  const auto counters_before = obs::registry().snapshot();
  obs::trace().gate_switch(/*gate=*/2, /*vmid=*/7);
  obs::trace().tlb_inval(obs::TlbScope::kAsid, 9, 3);
  EXPECT_EQ(obs::trace().size(), 0u);  // the main ring stayed empty
  EXPECT_EQ(obs::flight().recorded(), 2u);
  // Cost contract: the black box bumps no counters (fuzz replay oracles
  // diff counter snapshots and must not see it).
  EXPECT_EQ(obs::registry().snapshot(), counters_before);
  const std::string report = obs::flight().report();
  EXPECT_NE(report.find("gate-switch"), std::string::npos) << report;
  EXPECT_NE(report.find("tlb-inval"), std::string::npos) << report;
}

TEST_F(ObsV3Test, FlightAttributesEventsToTheBoundCore) {
  const unsigned prev = obs::set_current_core(3);
  obs::trace().pan_toggle(true);
  obs::set_current_core(prev);
  const std::string report = obs::flight().report();
  EXPECT_NE(report.find("core 3:"), std::string::npos) << report;
}

TEST_F(ObsV3Test, FlightRingKeepsTheLastEventsPerCore) {
  for (u16 g = 0; g < obs::FlightRecorder::kEventsPerCore + 10; ++g) {
    obs::trace().gate_switch(g, 0);
  }
  EXPECT_EQ(obs::flight().recorded(),
            obs::FlightRecorder::kEventsPerCore + 10);
  const std::string report = obs::flight().report();
  // The oldest surviving event is #11 (10 were overwritten).
  EXPECT_EQ(report.find("#1 "), std::string::npos) << report;
  EXPECT_NE(report.find("#11 "), std::string::npos) << report;
  EXPECT_NE(report.find("#74 "), std::string::npos) << report;
}

TEST_F(ObsV3Test, FlightDumpIsSilentWhenEmpty) {
  // flight_dump on a clean recorder must print nothing (no banner noise in
  // passing runs). Use a memstream-free check: report() is empty.
  EXPECT_EQ(obs::flight().recorded(), 0u);
  EXPECT_EQ(obs::flight().report(), "");
}

// An lz::check divergence with no captured handler is fail-stop and must
// print the black box before aborting. Death tests fork(); TSan's runtime
// does not support that reliably, so the death half is compiled out there
// (the non-death content checks above still run under TSan).
#ifndef LZ_OBS_V3_TSAN
TEST_F(ObsV3Test, CheckDivergenceDumpsBlackBoxBeforeAbort) {
  EXPECT_DEATH(
      {
        obs::trace().gate_switch(4, 2);
        check::report({"test-kind", "forced divergence for the black box"});
      },
      "BLACK BOX.*gate-switch");
}
#endif

// --- HVC-forward and DVM-shootdown histograms under SMP ----------------------

namespace smp_helpers {

Asm syscall_program(unsigned count) {
  Asm a;
  for (unsigned i = 0; i < count; ++i) {
    a.movz(8, kernel::nr::kEmpty);
    a.svc(0);
  }
  a.movz(8, kernel::nr::kExit);
  a.svc(0);
  return a;
}

void install_code(Env& env, kernel::Process& proc, Asm& a) {
  for (u64 off = 0; off < a.size_bytes(); off += kPageSize) {
    LZ_CHECK_OK(env.kern().populate_page(
        proc, Env::kCodeVa + off, kernel::kProtRead | kernel::kProtExec));
  }
  const auto walk = proc.pgt().lookup(Env::kCodeVa);
  a.install(env.machine->mem(), page_floor(walk.out_addr));
}

}  // namespace smp_helpers

// Four LightZone processes, one per core, each running a forwarded-syscall
// program concurrently: the lz.hvc.forward_cycles histogram must see every
// forwarded trap, and the multi-core TLB maintenance behind process setup
// must land in sim.dvm.shootdown_cycles.
TEST_F(ObsV3Test, SmpRunRecordsHvcForwardAndDvmShootdownHistograms) {
  constexpr unsigned kCores = 4;
  Env env(Env::Options().cores(kCores));
  std::vector<std::optional<LzProc>> lzs(kCores);
  for (unsigned w = 0; w < kCores; ++w) {
    sim::Machine::CoreBinding bind(*env.machine, w);
    auto& proc = env.new_process();
    Asm a = smp_helpers::syscall_program(16);
    smp_helpers::install_code(env, proc, a);
    lzs[w].emplace(LzProc::enter(*env.module, proc, true, 1));
  }
  for (unsigned w = 0; w < kCores; ++w) {
    env.kern().run_on(w, [&, w](unsigned) {
      lzs[w]->run(1'000'000);
      LZ_CHECK(!lzs[w]->proc().alive());
    });
  }
  env.kern().schedule();

  const obs::Histogram* hvc =
      obs::histograms().find("lz.hvc.forward_cycles");
  ASSERT_NE(hvc, nullptr);
  // 16 forwarded empty syscalls + exit per core.
  EXPECT_GE(hvc->count(), u64{kCores} * 17) << hvc->count();
  EXPECT_GT(hvc->percentile(99.0), 0u);

  const obs::Histogram* dvm =
      obs::histograms().find("sim.dvm.shootdown_cycles");
  ASSERT_NE(dvm, nullptr);
  EXPECT_GT(dvm->count(), 0u);
  // Every broadcast on a 4-core machine snoops 3 remote cores, so the
  // minimum observed cost covers base + 3 per-core snoop charges.
  EXPECT_GE(dvm->min(),
            env.machine->platform().dvm_bcast_base +
                3 * env.machine->platform().dvm_bcast_per_core);
}

}  // namespace
}  // namespace lz
