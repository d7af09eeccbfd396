// lz::obs — counters, event trace, and report serialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/tlb.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/cost.h"
#include "sim/machine.h"
#include "workloads/microbench.h"

namespace lz {
namespace {

using obs::Json;
using obs::Registry;
using obs::Report;
using obs::Snapshot;

// The value registry().snapshot() lists for `name`, if it is registered.
std::optional<u64> listed(std::string_view name) {
  for (const auto& [n, v] : obs::registry().snapshot()) {
    if (n == name) return v;
  }
  return std::nullopt;
}

class ObsTest : public ::testing::Test {
 protected:
  // Every test starts (and leaves) the process-global observability state
  // clean so tests stay order-independent.
  void SetUp() override { obs::reset_all(); }
  void TearDown() override {
    obs::trace().disarm();
    obs::reset_all();
  }
};

// --- Counter registry --------------------------------------------------------

TEST_F(ObsTest, CounterHandleIsStableAndShared) {
  auto& a = obs::registry().counter("test.obj.event");
  a.add();
  a.add(41);
  auto& b = obs::registry().counter("test.obj.event");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 42u);
}

TEST_F(ObsTest, SnapshotListsOnlyRegisteredNames) {
  EXPECT_EQ(listed("test.not.registered"), std::nullopt);
  obs::registry().counter("test.now.registered");
  EXPECT_EQ(listed("test.now.registered"), 0u);
}

TEST_F(ObsTest, SnapshotIsNameSorted) {
  obs::registry().counter("test.zz").add(1);
  obs::registry().counter("test.aa").add(2);
  obs::registry().counter("test.mm").add(3);
  const Snapshot snap = obs::registry().snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
}

TEST_F(ObsTest, DeltaSubtractsPerName) {
  auto& c1 = obs::registry().counter("test.delta.one");
  auto& c2 = obs::registry().counter("test.delta.two");
  c1.add(10);
  const Snapshot before = obs::registry().snapshot();
  c1.add(5);
  c2.add(7);
  obs::registry().counter("test.delta.fresh").add(3);
  const Snapshot after = obs::registry().snapshot();

  const Snapshot d = Registry::delta(before, after);
  const auto value_of = [&d](std::string_view name) -> u64 {
    for (const auto& [n, v] : d) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing delta entry " << name;
    return 0;
  };
  EXPECT_EQ(value_of("test.delta.one"), 5u);
  EXPECT_EQ(value_of("test.delta.two"), 7u);
  // Names absent from `before` count from zero.
  EXPECT_EQ(value_of("test.delta.fresh"), 3u);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsHandles) {
  auto& c = obs::registry().counter("test.reset.me");
  c.add(9);
  obs::registry().reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  c.add(2);
  EXPECT_EQ(listed("test.reset.me"), 2u);
}

// --- CycleLedger -------------------------------------------------------------

TEST_F(ObsTest, CycleAccountChargesMirrorIntoLedger) {
  sim::CycleAccount account;
  account.charge(sim::CostKind::kGate, 12);
  account.charge(sim::CostKind::kInsn, 30);
  account.charge(sim::CostKind::kGate, 8);
  EXPECT_EQ(account.total(), 50u);
  EXPECT_EQ(obs::cycle_ledger().total(), 50u);
  EXPECT_EQ(
      obs::cycle_ledger().of(static_cast<std::size_t>(sim::CostKind::kGate)),
      20u);
}

// The ledger stores nothing per charge: it is the totals of dead accounts
// plus those of the live ones, summed when read.

std::size_t kind_index(sim::CostKind k) { return static_cast<std::size_t>(k); }

TEST_F(ObsTest, LedgerIsFoldedTotalsPlusLiveAccountsPerKind) {
  std::array<u64, sim::kNumCostKinds> folded{};
  {
    sim::CycleAccount dead;
    dead.charge(sim::CostKind::kGate, 7);
    dead.charge(sim::CostKind::kTlbi, 5);
    for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
      folded[k] = dead.of(static_cast<sim::CostKind>(k));
    }
  }
  sim::CycleAccount a;
  sim::CycleAccount b;
  a.charge(sim::CostKind::kGate, 12);
  a.charge(sim::CostKind::kMem, 3);
  b.charge(sim::CostKind::kInsn, 30);
  b.charge(sim::CostKind::kGate, 8);
  const auto& ledger = obs::cycle_ledger();
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    const auto kind = static_cast<sim::CostKind>(k);
    EXPECT_EQ(ledger.of(k), folded[k] + a.of(kind) + b.of(kind))
        << sim::to_string(kind);
  }
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kGate)), 27u);
  EXPECT_EQ(ledger.total(), 12u + a.total() + b.total());
  EXPECT_EQ(ledger.total(), 65u);
}

TEST_F(ObsTest, LedgerTotalsSurviveTheirAccounts) {
  Cycles machine_cycles = 0;
  {
    sim::Machine machine(arch::Platform::cortex_a55(), 42, 2);
    machine.account(0).charge(sim::CostKind::kWorkload, 100);
    machine.account(1).charge(sim::CostKind::kExcp, 40);
    machine_cycles = machine.cycles();
    EXPECT_EQ(obs::cycle_ledger().total(), machine_cycles);
  }
  {
    sim::CycleAccount account;
    account.charge(sim::CostKind::kWorkload, 9);
  }
  // Both the Machine and the stack account are gone; their cycles stay.
  const auto& ledger = obs::cycle_ledger();
  EXPECT_EQ(machine_cycles, 140u);
  EXPECT_EQ(ledger.total(), 149u);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kWorkload)), 109u);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kExcp)), 40u);
}

TEST_F(ObsTest, ResetAllRebasesTheLedgerNotTheAccounts) {
  const auto& ledger = obs::cycle_ledger();
  {
    sim::CycleAccount gone;
    gone.charge(sim::CostKind::kInsn, 1000);
  }
  sim::CycleAccount account;
  account.charge(sim::CostKind::kGate, 50);
  obs::reset_all();
  EXPECT_EQ(ledger.total(), 0u);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kGate)), 0u);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kInsn)), 0u);
  EXPECT_EQ(account.total(), 50u);  // the account keeps its own count
  EXPECT_EQ(account.of(sim::CostKind::kGate), 50u);
  account.charge(sim::CostKind::kGate, 5);
  EXPECT_EQ(account.total(), 55u);
  EXPECT_EQ(ledger.total(), 5u);
  {
    sim::CycleAccount fresh;
    fresh.charge(sim::CostKind::kMem, 3);
    EXPECT_EQ(ledger.total(), 8u);
  }
  EXPECT_EQ(ledger.total(), 8u);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kGate)), 5u);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kMem)), 3u);
}

// Readers race accounts that are created, charged and destroyed. Each
// account's cycles must be counted live or folded, never both or neither,
// so no reader may ever see the total (or a kind) go backwards.
TEST_F(ObsTest, LedgerTotalNeverDecreasesWhileAccountsLinkAndUnlink) {
  constexpr int kAccounts = 50000;
  constexpr int kLive = 64;
  const auto& ledger = obs::cycle_ledger();
  std::array<std::optional<sim::CycleAccount>, kLive> live;
  std::atomic<bool> done{false};
  std::array<bool, 2> monotone{};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < monotone.size(); ++r) {
    readers.emplace_back([&ledger, &done, &monotone, r] {
      const std::size_t gate = kind_index(sim::CostKind::kGate);
      bool ok = true;
      u64 last = 0;
      u64 last_gate = 0;
      while (!done.load(std::memory_order_acquire)) {
        const u64 total = ledger.total();
        const u64 of_gate = ledger.of(gate);
        ok &= total >= last && of_gate >= last_gate;
        last = total;
        last_gate = of_gate;
      }
      monotone[r] = ok;
    });
  }
  u64 expected = 0;
  for (int i = 0; i < kAccounts; ++i) {
    auto& slot = live[i % kLive];
    slot.reset();  // destroys the oldest account: its totals fold in
    sim::CycleAccount& a = slot.emplace();
    const Cycles c = 1 + static_cast<Cycles>(i % 13) * 1000;
    a.charge(sim::CostKind::kGate, c);
    a.charge(sim::CostKind::kInsn, 1);
    expected += c + 1;
  }
  for (auto& slot : live) slot.reset();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (std::size_t r = 0; r < monotone.size(); ++r) {
    EXPECT_TRUE(monotone[r]) << "reader " << r;
  }
  EXPECT_EQ(ledger.total(), expected);
  EXPECT_EQ(ledger.of(kind_index(sim::CostKind::kInsn)), u64{kAccounts});
}

TEST_F(ObsTest, EveryCostKindHasAName) {
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    const char* name = sim::to_string(static_cast<sim::CostKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u) << "CostKind " << k;
    EXPECT_STRNE(name, "?") << "CostKind " << k;
  }
}

#ifndef NDEBUG
TEST_F(ObsTest, ChargeAssertsOnOutOfRangeKindInDebug) {
  sim::CycleAccount account;
  EXPECT_DEATH(account.charge(sim::CostKind::kCount, 1), "out-of-range");
}
#endif

// --- Event trace -------------------------------------------------------------

TEST_F(ObsTest, DisarmedTraceRecordsNothing) {
  EXPECT_FALSE(obs::trace().armed());
  obs::trace().gate_switch(1, 2);
  EXPECT_EQ(obs::trace().size(), 0u);
}

TEST_F(ObsTest, RingBufferWrapsAndCountsDrops) {
  obs::trace().arm(4);
  for (u16 g = 0; g < 10; ++g) obs::trace().gate_switch(g, 0);
  EXPECT_EQ(obs::trace().size(), 4u);
  EXPECT_EQ(obs::trace().dropped(), 6u);
  // Oldest-first: the survivors are the last four emits.
  const auto events = obs::trace().events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].kind, obs::EventKind::kGateSwitch);
    EXPECT_EQ(events[i].a0, 6u + i);
  }
}

TEST_F(ObsTest, TraceDropsSurfaceInCounterAndChromeMetadata) {
  obs::trace().arm(4);
  for (u16 g = 0; g < 10; ++g) obs::trace().gate_switch(g, 0);
  // Silent truncation is never silent: the registry counter mirrors the
  // ring's drop count, and the Chrome export carries it as metadata.
  EXPECT_EQ(listed("obs.trace.dropped"), obs::trace().dropped());
  EXPECT_EQ(listed("obs.trace.dropped"), 6u);
  const std::string json = obs::trace().to_chrome_json();
  EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos);
}

TEST_F(ObsTest, TraceTimestampsFollowTheCycleLedger) {
  obs::trace().arm(8);
  sim::CycleAccount account;
  account.charge(sim::CostKind::kInsn, 100);
  obs::trace().pan_toggle(true);
  account.charge(sim::CostKind::kInsn, 50);
  obs::trace().pan_toggle(false);
  const auto events = obs::trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[1].ts, 150u);
}

// Two identical armed runs of a real workload must serialise to the same
// bytes: the trace clock is simulated cycles, never wall time.
TEST_F(ObsTest, TraceJsonIsDeterministicAcrossRuns) {
  const auto run_once = [] {
    obs::reset_all();
    obs::trace().arm(1024);
    workload::lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                                   workload::Placement::kHost, 2, 40);
    std::string json = obs::trace().to_chrome_json();
    obs::trace().disarm();
    return json;
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_GT(first.size(), 2u);
  EXPECT_EQ(first, second);
}

TEST_F(ObsTest, ChromeTraceFileParsesAndValidates) {
  obs::trace().arm(1024);
  workload::lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                                 workload::Placement::kHost, 2, 20);
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::trace().write_chrome_json(path));
  EXPECT_GT(obs::trace().size(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = Json::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());

  const Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->size(), obs::trace().size());
  u64 prev_ts = 0;
  for (const Json& e : events->elements()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    EXPECT_EQ(e.find("ph")->as_string(), "i");
    const u64 ts = e.find("ts")->as_u64();
    EXPECT_GE(ts, prev_ts);  // ledger clock is monotonic
    prev_ts = ts;
  }
  std::remove(path.c_str());
}

TEST_F(ObsTest, TraceEventArgsCarryArchitecturalDetail) {
  obs::trace().arm(16);
  obs::trace().tlb_inval(obs::TlbScope::kAsid, 7, 3);
  obs::trace().excp_entry(0x15, 0, 1, 0x56000000, false);
  const std::string json = obs::trace().to_chrome_json();
  EXPECT_NE(json.find("\"tlb-inval\""), std::string::npos);
  EXPECT_NE(json.find("\"asid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"vmid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"excp-entry\""), std::string::npos);
}

// --- Json --------------------------------------------------------------------

TEST_F(ObsTest, JsonRoundTripsScalarsExactly) {
  Json obj = Json::object();
  obj.set("u", Json::number(u64{18446744073709551615ull}));
  obj.set("d", Json::number(471.92000000000002));
  obj.set("s", Json::string("a\"b\\c\n\t"));
  obj.set("b", Json::boolean(true));
  const std::string text = obj.dump();
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("u")->as_u64(), 18446744073709551615ull);
  EXPECT_EQ(parsed->find("d")->as_double(), 471.92000000000002);
  EXPECT_EQ(parsed->find("s")->as_string(), "a\"b\\c\n\t");
  EXPECT_TRUE(parsed->find("b")->as_bool());
  // Serialisation is canonical: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(parsed->dump(), text);
}

TEST_F(ObsTest, JsonRejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::parse("[1,2] trailing").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
}

// --- Report ------------------------------------------------------------------

TEST_F(ObsTest, ReportRoundTripsThroughItsOwnParser) {
  Report report("obs_test_bench");
  report.add_result("series.point", 123.5);
  report.add_result("series.count", u64{77});
  report.set_cycles_total(1000);
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    report.add_cycles(sim::to_string(static_cast<sim::CostKind>(k)),
                      k * 10);
  }
  obs::registry().counter("test.report.counter").add(5);
  report.add_counters(obs::registry().snapshot());

  const std::string text = report.to_string();
  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(Report::validate(*doc));

  EXPECT_EQ(doc->find("schema")->as_string(), Report::kSchema);
  EXPECT_EQ(doc->find("bench")->as_string(), "obs_test_bench");
  EXPECT_EQ(doc->find("results")->find("series.point")->as_double(), 123.5);
  EXPECT_EQ(doc->find("results")->find("series.count")->as_u64(), 77u);
  EXPECT_EQ(doc->find("cycles")->find("total")->as_u64(), 1000u);
  const Json* by_kind = doc->find("cycles")->find("by_kind");
  ASSERT_NE(by_kind, nullptr);
  EXPECT_EQ(by_kind->size(), sim::kNumCostKinds);
  EXPECT_EQ(
      doc->find("counters")->find("test.report.counter")->as_u64(), 5u);
}

TEST_F(ObsTest, ValidateRejectsWrongSchemaOrMissingSections) {
  Report report("x");
  report.add_result("r", u64{1});
  auto doc = report.to_json();
  EXPECT_TRUE(Report::validate(doc));
  doc.set("schema", Json::string("lz.bench.report.v0"));
  EXPECT_FALSE(Report::validate(doc));
  EXPECT_FALSE(Report::validate(Json::object()));
}

// A v2 report carries latency histograms and the sampling profile, and its
// validator checks both sections.
TEST_F(ObsTest, V2ReportRoundTripsWithHistogramsAndProfile) {
  obs::profiler().arm(64);
  workload::lz_switch_avg_cycles(arch::Platform::cortex_a55(),
                                 workload::Placement::kHost, 2, 40);
  Report report("v2_style");
  report.add_result("r", u64{1});
  report.set_cycles_total(obs::cycle_ledger().total());
  report.add_counters(obs::registry().snapshot());
  report.add_histograms(obs::histograms().snapshot());
  report.set_profile(obs::profiler());
  obs::profiler().disarm();

  const auto doc = Json::parse(report.to_string());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(Report::validate(*doc));
  EXPECT_EQ(doc->find("schema")->as_string(), Report::kSchema);

  // The workload's gate switches landed in the latency histogram with a
  // full percentile row.
  const Json* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const Json* gate = hists->find("lz.gate.switch_cycles");
  ASSERT_NE(gate, nullptr);
  EXPECT_GT(gate->find("count")->as_u64(), 0u);
  EXPECT_GE(gate->find("p99")->as_u64(), gate->find("p50")->as_u64());
  EXPECT_GE(gate->find("max")->as_u64(), gate->find("p99")->as_u64());

  // The profile section attributes samples per domain and per EL.
  const Json* prof = doc->find("profile");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->find("period")->as_u64(), 64u);
  EXPECT_GT(prof->find("samples")->as_u64(), 0u);
  ASSERT_NE(prof->find("by_domain"), nullptr);
  EXPECT_GT(prof->find("by_domain")->size(), 0u);
  ASSERT_NE(prof->find("hotspots"), nullptr);
  EXPECT_GT(prof->find("hotspots")->size(), 0u);

  // Stripping the histograms section invalidates the v2 document.
  auto no_hist = *doc;
  no_hist.set("histograms", Json::number(u64{0}));
  EXPECT_FALSE(Report::validate(no_hist));
}

// End-to-end: the exact flow the bench binaries run behind --json.
TEST_F(ObsTest, BenchStyleReportCapturesWorkloadActivity) {
  const double avg = workload::lz_switch_avg_cycles(
      arch::Platform::cortex_a55(), workload::Placement::kHost, 2, 40);

  Report report("bench_style");
  report.add_result("cortex_host.lz.2", avg);
  const auto& ledger = obs::cycle_ledger();
  report.set_cycles_total(ledger.total());
  for (std::size_t k = 0; k < sim::kNumCostKinds; ++k) {
    report.add_cycles(sim::to_string(static_cast<sim::CostKind>(k)),
                      ledger.of(k));
  }
  report.add_counters(obs::registry().snapshot());

  const auto doc = Json::parse(report.to_string());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(Report::validate(*doc));
  // The workload really ran: cycles accumulated, the TLB and the gate
  // counters moved.
  EXPECT_GT(doc->find("cycles")->find("total")->as_u64(), 0u);
  const Json* counters = doc->find("counters");
  EXPECT_GT(counters->find("mem.tlb.l1_hit")->as_u64(), 0u);
  EXPECT_GT(counters->find("lz.module.gate_switch")->as_u64(), 0u);
  EXPECT_GT(counters->find("sim.core.insn_retired")->as_u64(), 0u);
}

// --- Linked counters ---------------------------------------------------------

// The owner holds the only count and the registry reads it: values outlive
// the owner, reset() rebases instead of writing to the owner, and a name
// linked by several owners is listed once with their sum.
TEST_F(ObsTest, LinkedCountersOutliveOwnerRebaseOnResetAndSumPerName) {
  const auto touch = [](mem::Tlb& tlb, u64 vpage) {
    mem::TlbEntry e;
    e.valid = true;
    e.vpage = vpage;
    e.asid = 1;
    EXPECT_FALSE(tlb.lookup(vpage, 1, 0, 4).has_value());
    tlb.insert(e);
    EXPECT_TRUE(tlb.lookup(vpage, 1, 0, 4).has_value());
  };

  mem::TlbStats gone;
  {
    sim::Machine machine(arch::Platform::cortex_a55(), 42, 1);
    touch(machine.tlb(0), 0x400);
    touch(machine.tlb(0), 0x401);
    machine.tlb(0).invalidate_all();
    gone = machine.tlb(0).stats();
  }
  EXPECT_EQ(gone.misses, 2u);
  EXPECT_EQ(gone.l1_hits, 2u);
  EXPECT_EQ(gone.invalidations, 1u);
  // The Machine is gone; its counts stay under both names.
  EXPECT_EQ(listed("mem.tlb.miss"), 2u);
  EXPECT_EQ(listed("mem.tlb.l1_hit"), 2u);
  EXPECT_EQ(listed("sim.core0.tlb.miss"), 2u);
  EXPECT_EQ(listed("sim.core0.tlb.invalidation"), 1u);

  {
    sim::Machine machine(arch::Platform::cortex_a55(), 42, 1);
    touch(machine.tlb(0), 0x400);
    EXPECT_EQ(listed("mem.tlb.miss"), 3u);
    obs::reset_all();
    // Registry totals restart from zero; the TLB's own counts do not.
    EXPECT_EQ(listed("mem.tlb.miss"), 0u);
    EXPECT_EQ(listed("sim.core0.tlb.l1_hit"), 0u);
    EXPECT_EQ(machine.tlb(0).stats().misses, 1u);
    EXPECT_EQ(machine.tlb(0).stats().l1_hits, 1u);
    touch(machine.tlb(0), 0x401);
    EXPECT_EQ(listed("mem.tlb.miss"), 1u);
    EXPECT_EQ(machine.tlb(0).stats().misses, 2u);
  }
  EXPECT_EQ(listed("mem.tlb.miss"), 1u);  // only what moved since reset

  // Two owners of one name: one snapshot entry, their sum; unlinking one
  // folds its count in and the name keeps counting the other.
  obs::OwnedCounter a;
  obs::registry().link("test.linked.twice", a);
  a.add(3);
  {
    obs::OwnedCounter b;
    b.link("test.linked.twice");
    b.add(4);
    a.add(1);
    const Snapshot snap = obs::registry().snapshot();
    EXPECT_EQ(std::count_if(snap.begin(), snap.end(),
                            [](const auto& e) {
                              return e.first == "test.linked.twice";
                            }),
              1);
    EXPECT_EQ(listed("test.linked.twice"), 8u);
  }
  a.add(1);  // b died: its 4 stay, and a keeps counting
  EXPECT_EQ(listed("test.linked.twice"), 9u);
  obs::registry().unlink("test.linked.twice", a);
  EXPECT_EQ(listed("test.linked.twice"), 9u);
}

// --- Tlb stats export --------------------------------------------------------

TEST_F(ObsTest, TlbStatsHitRate) {
  mem::TlbStats stats;
  EXPECT_EQ(stats.hit_rate(), 0.0);  // no lookups yet
  stats.l1_hits = 90;
  stats.l2_hits = 5;
  stats.misses = 5;
  EXPECT_EQ(stats.lookups(), 100u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.95);
}

}  // namespace
}  // namespace lz
