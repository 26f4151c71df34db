// Tests of the benchmark's own arithmetic (bench_math.h).  perfbench/run.py
// runs them before every benchmark run.
#include "bench_math.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(BenchMath, NearestRankPercentile) {
  EXPECT_EQ(percentile(one_to(100), 50), 50);
  EXPECT_EQ(percentile(one_to(100), 99), 99);
  EXPECT_EQ(percentile(one_to(1000), 99), 990);
  EXPECT_EQ(percentile(one_to(10), 90), 9);
  EXPECT_EQ(percentile(one_to(1), 99), 1);
  EXPECT_EQ(percentile({}, 50), 0);
  // Rank rounds up: p50 of 3 samples is the 2nd, of 4 samples the 2nd.
  EXPECT_EQ(percentile(one_to(3), 50), 2);
  EXPECT_EQ(percentile(one_to(4), 50), 2);
}

TEST(BenchMath, TenBeyondRule) {
  // p99 needs 1000 samples: rank 990 leaves exactly 10 above it.
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(999, 99));
  // p90 needs 100; p50 needs 20.
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_FALSE(percentile_supported(0, 50));
}

TEST(BenchMath, HighestSupportedPercentileClimbsTheLadder) {
  const double ladder[] = {50, 90, 99, 99.9};
  EXPECT_EQ(highest_supported_percentile(10, ladder), 0);
  EXPECT_EQ(highest_supported_percentile(20, ladder), 50);
  EXPECT_EQ(highest_supported_percentile(999, ladder), 90);
  EXPECT_EQ(highest_supported_percentile(1000, ladder), 99);
  EXPECT_EQ(highest_supported_percentile(9999, ladder), 99);
  EXPECT_EQ(highest_supported_percentile(10000, ladder), 99.9);
}

TEST(BenchMath, MinSamplesFor) {
  EXPECT_EQ(min_samples_for(99), 1000u);
  EXPECT_EQ(min_samples_for(90), 100u);
  EXPECT_EQ(min_samples_for(50), 20u);
}

TEST(BenchMath, WindowedPercentileIsTheMedianOverWindows) {
  // Three windows of 100: the middle one hit by interference.
  std::vector<double> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) samples.push_back(w == 1 ? 50.0 * i : i);
  }
  EXPECT_EQ(windowed_percentile(samples, 90, 100), 90);
  EXPECT_EQ(windowed_percentile(samples, 50, 100), 50);
  // One window over everything is the plain percentile.
  EXPECT_EQ(windowed_percentile(samples, 90, 1000), percentile(samples, 90));
  // A remainder joins the last window: 1..250 makes two windows, 1..100
  // (p50 = 50) and 101..250 (p50 = 175).
  std::vector<double> ascending;
  for (int i = 1; i <= 250; ++i) ascending.push_back(i);
  EXPECT_EQ(windowed_percentile(ascending, 50, 100), 112.5);
  EXPECT_EQ(windowed_percentile({}, 50, 100), 0);
}

TEST(BenchMath, MeanAndMedian) {
  const std::vector<double> values = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(mean(values), 2.5);
  EXPECT_DOUBLE_EQ(median(values), 2.5);
  EXPECT_DOUBLE_EQ(median({3, 9, 1}), 3);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0);
}

TEST(BenchMath, LatencyRunsFromTheScheduledTime) {
  // Due at 1.0 s, sent late at 1.3 s, done at 1.5 s: the op took 0.5 s
  // from its due time and the generator was 0.3 s late.
  EXPECT_DOUBLE_EQ(scheduled_latency(1.0, 1.5), 0.5);
  EXPECT_DOUBLE_EQ(generator_lateness(1.0, 1.3), 0.3);
  // Waking early is not negative lateness.
  EXPECT_DOUBLE_EQ(generator_lateness(1.0, 0.9), 0.0);
}

TEST(BenchMath, PoissonScheduleIsSeededAndInRange) {
  edx::Rng a(7), b(7), c(8);
  const std::vector<double> first = poisson_schedule(100, 10, a);
  EXPECT_EQ(first, poisson_schedule(100, 10, b));
  EXPECT_NE(first, poisson_schedule(100, 10, c));
  ASSERT_FALSE(first.empty());
  EXPECT_GT(first.front(), 0.0);
  EXPECT_LT(first.back(), 10.0);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  // 1000 expected arrivals; five standard deviations either side.
  EXPECT_NEAR(static_cast<double>(first.size()), 1000.0, 160.0);
  EXPECT_TRUE(poisson_schedule(0, 10, a).empty());
}

TEST(BenchMath, VisibilityCountsFromDueTimeToFirstCoveringSnapshot) {
  // Positions 11, 12, 13 are due at 1.0, 1.1 and 1.2 s (10 prefilled).
  VisibilityTracker tracker(11, {1.0, 1.1, 1.2});
  std::vector<double> latencies;
  tracker.observe(1.05, 10, latencies);  // still only the prefill
  EXPECT_TRUE(latencies.empty());
  tracker.observe(1.25, 12, latencies);  // covers 11 and 12
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(latencies[0], 0.25);
  EXPECT_NEAR(latencies[1], 0.15, 1e-12);
  EXPECT_EQ(tracker.pending(), 1u);
  tracker.observe(1.5, 12, latencies);  // no progress
  EXPECT_EQ(latencies.size(), 2u);
  tracker.observe(1.6, 20, latencies);
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_NEAR(latencies[2], 0.4, 1e-12);
  EXPECT_TRUE(tracker.done());
}

TEST(BenchMath, ResidualClosesTheStageSum) {
  const double stages[] = {1.5, 2.0, 0.25};
  EXPECT_DOUBLE_EQ(residual(5.0, stages), 1.25);
  // Stages running in parallel can exceed the wall time: the residual
  // goes negative rather than being clamped.
  EXPECT_DOUBLE_EQ(residual(3.0, stages), -0.75);
  EXPECT_DOUBLE_EQ(residual(2.0, {}), 2.0);
}

}  // namespace
}  // namespace perfbench
