// Randomized equivalence properties of the incremental Steps 3-4 kernels
// (scatter renormalization, run-window amplitude repair, order-statistic
// quartile maintenance) and of the FleetAnalyzer built on them: after any
// sequence of base changes, the repaired state must be bitwise equal to a
// from-scratch pass.  The generators bias towards long monotone ramps with
// dips so that changed instances routinely land *inside* extended runs —
// the regime where a wrong repair window silently corrupts neighbours.
// See DESIGN.md §11.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detection.h"
#include "core/fleet_analyzer.h"
#include "core/normalization.h"
#include "core/pipeline.h"
#include "core/report_io.h"

namespace edx::core {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level property: renormalize_instances + repair_variation_amplitudes
// + ordered-multiset maintenance + redetect == full recompute, bit for bit.

constexpr std::size_t kEventPool = 5;

/// A trace whose raw powers ramp up with occasional dips, instances
/// assigned pseudo-randomly to a small event pool so that one event's
/// base change scatters through the middle of monotone runs.
AnalyzedTrace ramp_trace(Rng& rng, std::size_t count,
                         std::vector<std::vector<std::uint32_t>>& positions) {
  AnalyzedTrace trace;
  positions.assign(kEventPool, {});
  double level = 100.0;
  bool ramping = false;
  for (std::size_t i = 0; i < count; ++i) {
    PoweredEvent event;
    const std::size_t which = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kEventPool) - 1));
    event.id = intern_event("Lx/Prop;.e" + std::to_string(which));
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    event.interval = {t, t + 10};
    if (!ramping && rng.bernoulli(0.15)) ramping = true;
    if (ramping) {
      level += rng.uniform(30.0, 90.0);       // the ramp
      if (rng.bernoulli(0.25)) level -= rng.uniform(5.0, 25.0);  // a dip
      if (level > 900.0 && rng.bernoulli(0.5)) {
        level = rng.uniform(90.0, 130.0);      // drop back to normal
        ramping = false;
      }
    } else {
      level += rng.uniform(-8.0, 8.0);
      level = std::max(level, 60.0);
    }
    event.raw_power = level;
    positions[which].push_back(static_cast<std::uint32_t>(i));
    trace.events.push_back(event);
  }
  return trace;
}

TEST(IncrementalRepairTest, RandomBaseChangeSequencesMatchFromScratch) {
  Rng seeder(0xED5);
  for (int round = 0; round < 8; ++round) {
    Rng rng(seeder.next_u64());
    std::vector<std::vector<std::uint32_t>> positions;
    AnalyzedTrace live = ramp_trace(rng, 120, positions);

    std::vector<double> bases(kEventPool);
    for (double& base : bases) base = rng.uniform(80.0, 120.0);

    const auto scratch_norms = [&](AnalyzedTrace& trace,
                                   const std::vector<double>& b) {
      trace.normalized_power.assign(trace.events.size(), 0.0);
      for (std::size_t e = 0; e < kEventPool; ++e) {
        for (std::uint32_t p : positions[e]) {
          trace.normalized_power[p] = trace.events[p].raw_power / b[e];
        }
      }
    };

    DetectionConfig config;
    scratch_norms(live, bases);
    attribute_variation_amplitude(live, config);
    std::vector<double> sorted;
    detect_manifestation_points(live, config, sorted);

    std::vector<std::uint32_t> changed;
    std::vector<AmplitudeChange> amp_changes;
    for (int step = 0; step < 12; ++step) {
      // Move 1-3 bases; every instance of those events renormalizes.
      const int moves = static_cast<int>(rng.uniform_int(1, 3));
      changed.clear();
      amp_changes.clear();
      for (int m = 0; m < moves; ++m) {
        const std::size_t e = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kEventPool) - 1));
        bases[e] = rng.uniform(80.0, 120.0);
        renormalize_instances(live, positions[e], bases[e], changed);
      }
      if (!changed.empty()) {
        std::sort(changed.begin(), changed.end());
        repair_variation_amplitudes(live, changed, config, amp_changes);
        for (const AmplitudeChange& change : amp_changes) {
          sorted.erase(std::lower_bound(sorted.begin(), sorted.end(),
                                        change.old_amplitude));
          sorted.insert(std::upper_bound(sorted.begin(), sorted.end(),
                                         change.new_amplitude),
                        change.new_amplitude);
        }
        redetect_manifestation_points(live, config, sorted);
      }

      // From-scratch reference over the same raw powers and bases.
      AnalyzedTrace fresh;
      fresh.events = live.events;
      scratch_norms(fresh, bases);
      attribute_variation_amplitude(fresh, config);
      detect_manifestation_points(fresh, config);

      SCOPED_TRACE("round=" + std::to_string(round) +
                   " step=" + std::to_string(step));
      ASSERT_EQ(live.normalized_power, fresh.normalized_power);
      ASSERT_EQ(live.variation_amplitude, fresh.variation_amplitude);
      EXPECT_EQ(live.run_peak_index, fresh.run_peak_index);
      EXPECT_EQ(live.run_dep_end, fresh.run_dep_end);
      EXPECT_EQ(live.manifestation_indices, fresh.manifestation_indices);
      EXPECT_EQ(live.amplitude_quartiles.q1, fresh.amplitude_quartiles.q1);
      EXPECT_EQ(live.amplitude_quartiles.q3, fresh.amplitude_quartiles.q3);
      EXPECT_EQ(live.outlier_fence, fresh.outlier_fence);
      // The maintained multiset equals a fresh sort element for element.
      std::vector<double> resorted = fresh.variation_amplitude;
      std::sort(resorted.begin(), resorted.end());
      ASSERT_EQ(sorted, resorted);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet-level property: a FleetAnalyzer fed ramping bundles (shared pool +
// per-user rare events, powers jittered per upload so bases keep moving)
// stays byte-identical to the batch pipeline at every arrival prefix.

power::UtilizationSample sample(TimestampMs timestamp, double power) {
  power::UtilizationSample s;
  s.timestamp = timestamp;
  s.estimated_app_power_mw = power;
  return s;
}

/// One upload: 36 events, a drain ramp with dips in the middle, rare
/// event "R<user%4>" sprinkled in so most arrivals leave most other
/// slots repairing only a handful of instances (the delta path).  Without
/// `with_rare` those instances log shared event "S3" instead, so a
/// re-upload can take the rare event out of the user's trace.
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

}  // namespace
}  // namespace edx::core
