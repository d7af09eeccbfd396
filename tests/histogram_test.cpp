// lz::obs histograms: log-bucketed value distributions — bucket math,
// percentile accuracy bounds, merging, concurrency, and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "obs/histogram.h"

namespace lz {
namespace {

using obs::Histogram;

class HistogramTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset_all(); }
  void TearDown() override { obs::reset_all(); }
};

TEST_F(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (u64 v = 0; v < 16; ++v) h.record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
  // Every value below 16 has its own bucket, so percentiles are exact
  // nearest-rank picks from {0..15}.
  EXPECT_EQ(h.percentile(50.0), 7u);
  EXPECT_EQ(h.percentile(100.0), 15u);
  EXPECT_EQ(h.percentile(0.0), 0u);
}

TEST_F(HistogramTest, BucketIndexRoundTripsWithinErrorBound) {
  // bucket_upper(bucket_index(v)) must be >= v (the reported quantile never
  // undershoots) and within 1/16 relative error (the HDR-style guarantee).
  std::vector<u64> probes;
  for (u64 v = 1; v < 4096; v = v * 3 / 2 + 1) probes.push_back(v);
  probes.insert(probes.end(),
                {u64{1} << 20, (u64{1} << 20) + 12345, u64{1} << 40,
                 (u64{1} << 63) + 999});
  for (const u64 v : probes) {
    const u64 upper = Histogram::bucket_upper(Histogram::bucket_index(v));
    EXPECT_GE(upper, v) << v;
    EXPECT_LE(upper - v, v / 16) << v;
  }
}

TEST_F(HistogramTest, PercentilesOfKnownDistribution) {
  Histogram h;
  for (u64 v = 1; v <= 1000; ++v) h.record(v);
  // Nearest-rank percentile of 1..1000 is p*10; the histogram reports the
  // upper bound of that value's bucket, never more than 6.25% above.
  for (const double p : {50.0, 90.0, 99.0}) {
    const u64 exact = static_cast<u64>(p * 10);
    const u64 got = h.percentile(p);
    EXPECT_GE(got, exact) << p;
    EXPECT_LE(got - exact, exact / 16 + 1) << p;
  }
  EXPECT_EQ(h.percentile(100.0), 1000u);  // clamped to the observed max
}

TEST_F(HistogramTest, WeightedRecordCountsAllObservations) {
  Histogram h;
  h.record(100, 9);
  h.record(200, 1);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 1100u);
  EXPECT_LE(h.percentile(50.0), 107u);  // the p50 sits in 100's bucket
  EXPECT_GE(h.percentile(99.0), 200u - 200u / 16);
}

TEST_F(HistogramTest, MergeFromCombinesDistributions) {
  Histogram a, b;
  for (u64 v = 1; v <= 100; ++v) a.record(v);
  for (u64 v = 901; v <= 1000; ++v) b.record(v);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1000u);
  // Halfway through the merged multiset is the top of the low block.
  const u64 p50 = a.percentile(50.0);
  EXPECT_GE(p50, 100u);
  EXPECT_LE(p50, 107u);
  EXPECT_GE(a.percentile(90.0), 900u - 900u / 16);
}

TEST_F(HistogramTest, MergeFromEmptyKeepsMinMax) {
  Histogram a, empty;
  a.record(42);
  a.merge_from(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
}

TEST_F(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr u64 kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (u64 i = 0; i < kPerThread; ++i) {
        h.record(static_cast<u64>(t) * 1000 + 17);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min(), 17u);
  EXPECT_EQ(h.max(), 3017u);
}

TEST_F(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.record(5);
  h.record(1u << 20);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0u);
  h.record(3);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 3u);
}

TEST_F(HistogramTest, RegistryHandleIsStable) {
  auto& h1 = obs::histograms().histogram("test.hist.a");
  auto& h2 = obs::histograms().histogram("test.hist.a");
  EXPECT_EQ(&h1, &h2);
  h1.record(7);
  EXPECT_EQ(obs::histograms().find("test.hist.a")->count(), 1u);
  EXPECT_EQ(obs::histograms().find("test.hist.missing"), nullptr);
}

TEST_F(HistogramTest, SnapshotSkipsEmptyAndSortsByName) {
  obs::histograms().histogram("test.hist.z").record(100);
  obs::histograms().histogram("test.hist.a").record(3);
  obs::histograms().histogram("test.hist.empty");  // registered, unused
  const auto snap = obs::histograms().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "test.hist.a");
  EXPECT_EQ(snap[1].name, "test.hist.z");
  EXPECT_EQ(snap[0].count, 1u);
  EXPECT_EQ(snap[0].p50, 3u);
  EXPECT_EQ(snap[0].min, 3u);
  EXPECT_DOUBLE_EQ(snap[0].mean, 3.0);
}

TEST_F(HistogramTest, ResetAllResetsRegisteredHistograms) {
  auto& h = obs::histograms().histogram("test.hist.reset");
  h.record(9);
  obs::reset_all();
  EXPECT_EQ(obs::histograms().find("test.hist.reset")->count(), 0u);
}

}  // namespace
}  // namespace lz
