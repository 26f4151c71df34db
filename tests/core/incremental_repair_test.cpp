// Randomized equivalence property of the FleetAnalyzer's incremental
// Steps 2-5 (re-upload splices, base re-derives, per-slot Step-3/4
// refresh with the order-statistic quartile cache): after any sequence of
// arrivals, the snapshot must be bitwise equal to a from-scratch batch
// pass.  The generator biases towards long monotone ramps with dips, so
// that base changes routinely land *inside* extended runs, and mixes new
// users with re-uploads that add and drop rare events.  See DESIGN.md
// §11.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fleet_analyzer.h"
#include "core/pipeline.h"
#include "core/report_io.h"

namespace edx::core {
namespace {

// A FleetAnalyzer fed ramping bundles (shared pool +
// per-user rare events, powers jittered per upload so bases keep moving)
// stays byte-identical to the batch pipeline at every arrival prefix.

power::UtilizationSample sample(TimestampMs timestamp, double power) {
  power::UtilizationSample s;
  s.timestamp = timestamp;
  s.estimated_app_power_mw = power;
  return s;
}

/// One upload: 36 events, a drain ramp with dips in the middle, rare
/// event "R<user%4>" sprinkled in so an arrival moves the base of only a
/// few slots' events.  Without `with_rare` those instances log shared
/// event "S3" instead, so a re-upload can take the rare event out of the
/// user's trace.
trace::TraceBundle ramp_bundle(UserId user, int variant, bool with_rare) {
  Rng rng(0xB0B + static_cast<std::uint64_t>(user) * 7919 +
          static_cast<std::uint64_t>(variant) * 104729);
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  const int events = 36;
  double level = 100.0;
  for (int i = 0; i < events; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    std::string name = "S" + std::to_string(i % 4);
    if (i % 9 == 5) name = with_rare ? "R" + std::to_string(user % 4) : "S3";
    bundle.events.add_instance(name, {t + 10, t + 40});

    if (i >= 12 && i < 28) {
      level += rng.uniform(40.0, 120.0);                       // the ramp
      if (rng.bernoulli(0.3)) level -= rng.uniform(5.0, 30.0);  // a dip
    } else {
      level = 100.0 + 40.0 * (i % 4) + rng.uniform(0.0, 9.0);
    }
    samples.push_back(sample(t + 500, level));
    samples.push_back(sample(t + 1000, level));
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

/// One upload alternating events "A" and "B" (24 of each, jittered).
/// "B" sits at one level for every user, "A" at a per-user level, so an
/// arrival whose "A" level sits far from the others' drags A's base and
/// rescales every other normalized power of each trace holding it.
trace::TraceBundle alternating_bundle(UserId user, double a_level) {
  Rng rng(0xA17E + static_cast<std::uint64_t>(user) * 7919);
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  for (int i = 0; i < 48; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    const bool a = i % 2 == 0;
    bundle.events.add_instance(a ? "A" : "B", {t + 10, t + 40});
    const double level =
        (a ? a_level : 200.0) + rng.uniform(0.0, a ? 0.1 * a_level : 40.0);
    samples.push_back(sample(t + 500, level));
    samples.push_back(sample(t + 1000, level));
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

AnalysisConfig fleet_config(std::size_t num_threads) {
  AnalysisConfig config;
  config.reporting.window_size = 2;
  config.reporting.developer_reported_fraction = 0.2;
  config.num_threads = num_threads;
  return config;
}

std::string render(const AnalysisResult& result) {
  ReportRenderOptions options;
  options.developer_reported_fraction = 0.2;
  return report_to_text(result.report, /*code_map=*/nullptr, options) +
         report_to_json(result.report, /*code_map=*/nullptr, options);
}

void expect_bitwise_equal(const AnalysisResult& batch,
                          const AnalysisResult& incremental) {
  EXPECT_EQ(render(batch), render(incremental));
  ASSERT_EQ(batch.traces.size(), incremental.traces.size());
  for (std::size_t t = 0; t < batch.traces.size(); ++t) {
    const AnalyzedTrace& a = batch.traces[t];
    const AnalyzedTrace& b = incremental.traces[t];
    SCOPED_TRACE("trace=" + std::to_string(t));
    EXPECT_EQ(a.manifestation_indices, b.manifestation_indices);
    ASSERT_EQ(a.normalized_power, b.normalized_power);
    ASSERT_EQ(a.variation_amplitude, b.variation_amplitude);
    EXPECT_EQ(a.outlier_fence, b.outlier_fence);
    EXPECT_EQ(a.amplitude_quartiles.q1, b.amplitude_quartiles.q1);
    EXPECT_EQ(a.amplitude_quartiles.q3, b.amplitude_quartiles.q3);
  }

  // Every distribution holds the batch's powers in batch order, and the
  // live sorted caches the re-upload splice maintains equal a fresh sort
  // bit for bit — equal values alone would hide a -0.0/0.0 or NaN slip.
  EXPECT_EQ(batch.ranking.event_count(), incremental.ranking.event_count());
  for (const EventPowerDistribution& dist : incremental.ranking.all()) {
    if (dist.instance_count() == 0) continue;
    SCOPED_TRACE("event=" + event_name(dist.id()));
    EXPECT_EQ(batch.ranking.distribution(dist.id()).powers(), dist.powers());
    std::vector<double> resorted = dist.powers();
    std::sort(resorted.begin(), resorted.end());
    const std::vector<double>& sorted = dist.sorted_powers();
    ASSERT_EQ(sorted.size(), resorted.size());
    EXPECT_EQ(std::memcmp(sorted.data(), resorted.data(),
                          sorted.size() * sizeof(double)),
              0);
  }
}

TEST(IncrementalRepairTest, FleetRampArrivalsMatchBatchAtEveryPrefix) {
  // Arrival sequence mixing new users and re-uploads (variant bumps).
  // Rare event R<u%4> is held by users u and u+4; dropping it from a
  // re-upload makes an event's last instance leave the fleet, and a later
  // re-upload or new user brings it back:
  //   R3 leaves at (3,1), returns by re-upload at (3,2), leaves at (3,3),
  //   and returns with new user 7;
  //   R0 leaves once both holders drop it — (0,3) then (4,1) — and
  //   returns through mid-fleet slot 4 at (4,2).
  struct Arrival {
    UserId user;
    int variant;
    bool with_rare;
  };
  const Arrival arrivals[] = {
      {0, 0, true},  {1, 0, true},  {2, 0, true},  {0, 1, true},
      {3, 0, true},  {3, 1, false}, {4, 0, true},  {2, 1, true},
      {3, 2, true},  {5, 0, true},  {3, 3, false}, {6, 0, true},
      {1, 1, true},  {7, 0, true},  {0, 2, true},  {0, 3, false},
      {4, 1, false}, {4, 2, true},  {0, 4, true},
  };
  for (std::size_t num_threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    FleetAnalyzer fleet(fleet_config(num_threads));
    std::vector<trace::TraceBundle> latest;
    int step = 0;
    for (const auto& [user, variant, with_rare] : arrivals) {
      const trace::TraceBundle bundle = ramp_bundle(user, variant, with_rare);
      fleet.add_bundle(bundle);
      bool replaced = false;
      for (trace::TraceBundle& existing : latest) {
        if (existing.fleet_key() == bundle.fleet_key()) {
          existing = bundle;
          replaced = true;
          break;
        }
      }
      if (!replaced) latest.push_back(bundle);

      SCOPED_TRACE("step=" + std::to_string(step++));
      const ManifestationAnalyzer batch(fleet_config(num_threads));
      expect_bitwise_equal(batch.run(latest), fleet.snapshot());
    }
  }
}

TEST(IncrementalRepairTest, BaseMovesThatReorderAmplitudesMatchBatch) {
  // Each arrival drags A's base far down or back up, so every trace
  // already in the fleet is rebased with most of its amplitude ranks
  // reshuffled: the sorted cache's adaptive re-sort overruns its move
  // budget and falls back to an argsort.  Either way the quartiles, fence
  // and points must stay bitwise equal to batch.
  const double a_levels[] = {400.0, 40.0, 30.0, 900.0, 20.0, 1500.0, 60.0};
  for (std::size_t num_threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    FleetAnalyzer fleet(fleet_config(num_threads));
    std::vector<trace::TraceBundle> bundles;
    for (std::size_t user = 0; user < std::size(a_levels); ++user) {
      bundles.push_back(
          alternating_bundle(static_cast<UserId>(user), a_levels[user]));
      fleet.add_bundle(bundles.back());
      SCOPED_TRACE("arrivals=" + std::to_string(bundles.size()));
      const ManifestationAnalyzer batch(fleet_config(num_threads));
      expect_bitwise_equal(batch.run(bundles), fleet.snapshot());
    }
  }
}

}  // namespace
}  // namespace edx::core
