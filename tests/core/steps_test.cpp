// Unit tests for the five analysis steps on hand-crafted traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "core/pipeline.h"

namespace edx::core {
namespace {

power::UtilizationSample sample_at(TimestampMs timestamp, double power) {
  power::UtilizationSample sample;
  sample.timestamp = timestamp;
  sample.estimated_app_power_mw = power;
  return sample;
}

/// A bundle with events at 1 s spacing and a flat-then-step power profile.
trace::TraceBundle step_bundle(UserId user, double low, double high,
                               std::size_t events_before, std::size_t total) {
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  for (std::size_t i = 0; i < total; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    bundle.events.add_instance("Lx/A;.onResume", {t + 10, t + 30});
    const double power = i < events_before ? low : high;
    samples.push_back(sample_at(t + 500, power));
    samples.push_back(sample_at(t + 1000, power));
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

TEST(Step1Test, MapsEventPowerFromSamples) {
  const trace::TraceBundle bundle = step_bundle(0, 100.0, 400.0, 3, 6);
  const AnalyzedTrace analyzed = estimate_event_power(bundle);
  ASSERT_EQ(analyzed.events.size(), 6u);
  EXPECT_NEAR(analyzed.events[0].raw_power, 100.0, 1e-9);
  EXPECT_NEAR(analyzed.events[5].raw_power, 400.0, 1e-9);
}

TEST(Step2Test, RankingCollectsAcrossTraces) {
  std::vector<AnalyzedTrace> traces = {
      estimate_event_power(step_bundle(0, 100.0, 100.0, 6, 6)),
      estimate_event_power(step_bundle(1, 200.0, 200.0, 6, 6)),
  };
  const EventRanking ranking = EventRanking::build(traces);
  EXPECT_EQ(ranking.event_count(), 1u);
  const EventPowerDistribution& dist = ranking.distribution("Lx/A;.onResume");
  EXPECT_EQ(dist.instance_count(), 12u);
  EXPECT_NEAR(dist.percentile(50.0), 150.0, 1e-9);
  EXPECT_EQ(ranking.rank_of("Lx/A;.onResume", 150.0), 7u);
  EXPECT_THROW((void)ranking.distribution("unknown"), AnalysisError);
  EXPECT_FALSE(ranking.contains("unknown"));
}

TEST(Step2Test, RanksOrderInstances) {
  EventPowerDistribution dist;
  dist.set_powers({30.0, 10.0, 20.0, 20.0});
  EXPECT_EQ(dist.ranks(), (std::vector<std::size_t>{4, 1, 2, 2}));
}

/// Bitwise equality of two double sequences (== would accept -0.0 for 0.0).
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Step2Test, SpliceReplacesRunInOrderAndKeepsSortedCacheExact) {
  // A re-upload replaces one fleet slot's run of instances mid-list.
  // powers() must hold the spliced list in order; the sorted cache —
  // maintained in place when live, rebuilt on demand when invalid — must
  // equal a fresh sort bit for bit.  Duplicates straddle the run edges so
  // a wrong multiset removal shows.
  const std::vector<double> base = {30.0, 10.0, 20.0, 20.0, 50.0, 40.0, 10.0};
  struct Case {
    const char* name;
    std::size_t offset;
    std::size_t count;
    std::vector<double> replacement;
  };
  const Case cases[] = {
      {"shrink", 1, 3, {25.0}},
      {"grow", 2, 1, {5.0, 60.0, 20.0, 10.0}},
      {"same size", 3, 3, {45.0, 20.0, 1.0}},
      {"to empty", 0, 7, {}},
      {"insert", 4, 0, {35.0, 35.0}},
  };
  for (const Case& c : cases) {
    for (const bool live : {true, false}) {
      SCOPED_TRACE(std::string(c.name) +
                   (live ? ", cache live" : ", cache invalid"));
      EventPowerDistribution dist;
      dist.set_powers(base);
      if (live) {
        ASSERT_EQ(dist.sorted_powers().size(), base.size());
      }
      dist.splice(c.offset, c.count, c.replacement);

      std::vector<double> expected(base.begin(), base.begin() + c.offset);
      expected.insert(expected.end(), c.replacement.begin(),
                      c.replacement.end());
      expected.insert(expected.end(), base.begin() + c.offset + c.count,
                      base.end());
      EXPECT_EQ(dist.powers(), expected);
      std::sort(expected.begin(), expected.end());
      EXPECT_TRUE(bitwise_equal(dist.sorted_powers(), expected));

      // Then a run enters at the front — for "to empty", the event
      // returning to the fleet.
      dist.splice(0, 0, std::vector<double>{15.0, 5.0});
      expected.insert(expected.begin(), {5.0, 15.0});
      std::sort(expected.begin(), expected.end());
      EXPECT_TRUE(bitwise_equal(dist.sorted_powers(), expected));
      EXPECT_EQ(dist.percentile(50.0), stats::percentile(expected, 50.0));
    }
  }

  EventPowerDistribution dist;
  dist.set_powers(base);
  EXPECT_THROW(dist.splice(5, 3, std::vector<double>{1.0}), InvalidArgument);
  EXPECT_THROW(dist.splice(8, 0, std::vector<double>{1.0}), InvalidArgument);
  EXPECT_EQ(dist.powers(), base);

  // A NaN (which overflowing Step-1 sums can still produce) matches no
  // cache entry: splicing it out drops the cache instead of corrupting it.
  EventPowerDistribution poisoned;
  poisoned.set_powers({1.0, std::nan(""), 3.0});
  ASSERT_EQ(poisoned.sorted_powers().size(), 3u);
  poisoned.splice(1, 1, std::vector<double>{2.0});
  EXPECT_EQ(poisoned.sorted_powers(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Step2Test, SpliceEventTracksLiveEventCount) {
  std::vector<AnalyzedTrace> traces = {
      estimate_event_power(step_bundle(0, 100.0, 300.0, 3, 6))};
  EventRanking ranking = EventRanking::build(traces);
  const EventId id = find_event("Lx/A;.onResume");
  ASSERT_EQ(ranking.event_count(), 1u);
  ranking.splice_event(id, 0, 6, {});
  EXPECT_EQ(ranking.event_count(), 0u);
  EXPECT_FALSE(ranking.contains(id));
  ranking.splice_event(id, 0, 0, std::vector<double>{42.0});
  EXPECT_EQ(ranking.event_count(), 1u);
  EXPECT_EQ(ranking.distribution(id).powers(), std::vector<double>{42.0});
}

TEST(Step3Test, NormalizationDividesByBase) {
  std::vector<AnalyzedTrace> traces = {
      estimate_event_power(step_bundle(0, 100.0, 400.0, 3, 6))};
  const EventRanking ranking = EventRanking::build(traces);
  NormalizationConfig config;
  config.base_percentile = 50.0;
  normalize_events(traces, ranking, config);
  // Base = median of {100,100,100,400,400,400} = 250.
  EXPECT_NEAR(traces[0].normalized_power[0], 100.0 / 250.0, 1e-9);
  EXPECT_NEAR(traces[0].normalized_power[5], 400.0 / 250.0, 1e-9);
  EXPECT_NEAR(base_power(ranking, "Lx/A;.onResume", config), 250.0, 1e-9);
}

TEST(Step3Test, MinBaseFloorPreventsBlowup) {
  std::vector<AnalyzedTrace> traces = {
      estimate_event_power(step_bundle(0, 0.0, 50.0, 5, 6))};
  const EventRanking ranking = EventRanking::build(traces);
  NormalizationConfig config;
  config.base_percentile = 10.0;
  config.min_base_power_mw = 1.0;
  normalize_events(traces, ranking, config);
  // Base would be 0; the floor keeps the ratio finite.
  EXPECT_NEAR(traces[0].normalized_power[5], 50.0, 1e-9);
  EXPECT_THROW(normalize_events(
                   traces, ranking,
                   NormalizationConfig{.base_percentile = 101.0}),
               InvalidArgument);
}

AnalyzedTrace trace_with_norms(const std::vector<double>& norms,
                               DurationMs spacing_ms = 1000) {
  AnalyzedTrace trace;
  for (std::size_t i = 0; i < norms.size(); ++i) {
    PoweredEvent event;
    event.id = intern_event("Lx/A;.e");
    const TimestampMs t = static_cast<TimestampMs>(i) * spacing_ms;
    event.interval = {t, t + 10};
    trace.events.push_back(event);
  }
  trace.normalized_power = norms;
  return trace;
}

TEST(Step4Test, SingleStepAmplitude) {
  AnalyzedTrace trace = trace_with_norms({1.0, 1.0, 5.0, 5.0});
  DetectionConfig config;
  config.extend_monotone_runs = false;
  attribute_variation_amplitude(trace, config);
  EXPECT_NEAR(trace.variation_amplitude[0], 0.0, 1e-12);
  EXPECT_NEAR(trace.variation_amplitude[1], 4.0, 1e-12);
  EXPECT_NEAR(trace.variation_amplitude[2], 0.0, 1e-12);
  EXPECT_NEAR(trace.variation_amplitude[3], 0.0, 1e-12);  // last
}

TEST(Step4Test, MonotoneRunExtendsAmplitude) {
  // Power climbs gradually: the run start gets credited with the whole rise.
  AnalyzedTrace trace = trace_with_norms({1.0, 2.0, 3.0, 6.0, 6.0});
  attribute_variation_amplitude(trace, DetectionConfig{});
  EXPECT_NEAR(trace.variation_amplitude[0], 5.0, 1e-12);
  EXPECT_EQ(trace.run_peak_index[0], 3u);
  EXPECT_NEAR(trace.variation_amplitude[1], 4.0, 1e-12);
}

TEST(Step4Test, RunRequiresInitialRise) {
  // A dip followed by a rise must not credit the pre-dip event.
  AnalyzedTrace trace = trace_with_norms({2.0, 1.0, 6.0});
  attribute_variation_amplitude(trace, DetectionConfig{});
  EXPECT_NEAR(trace.variation_amplitude[0], -1.0, 1e-12);
  EXPECT_NEAR(trace.variation_amplitude[1], 5.0, 1e-12);
}

TEST(Step4Test, DipToleranceBridgesSamplingStaircase) {
  AnalyzedTrace trace = trace_with_norms({1.0, 2.0, 1.9, 1.9, 8.0});
  DetectionConfig config;
  config.run_dip_tolerance = 2;
  attribute_variation_amplitude(trace, config);
  EXPECT_NEAR(trace.variation_amplitude[0], 7.0, 1e-12);
  EXPECT_EQ(trace.run_peak_index[0], 4u);

  config.run_dip_tolerance = 0;
  attribute_variation_amplitude(trace, config);
  EXPECT_NEAR(trace.variation_amplitude[0], 1.0, 1e-12);
}

TEST(Step4Test, OutlierDetectionUsesOuterFence) {
  std::vector<double> norms(40, 1.0);
  norms[20] = 1.0;  // flat trace with one step up
  for (std::size_t i = 21; i < norms.size(); ++i) norms[i] = 8.0;
  AnalyzedTrace trace = trace_with_norms(norms);
  DetectionConfig config;
  std::vector<AnalyzedTrace> traces{trace};
  detect_all(traces, config);
  ASSERT_EQ(traces[0].manifestation_indices.size(), 1u);
  EXPECT_EQ(traces[0].manifestation_indices[0], 20u);
  EXPECT_GT(traces[0].outlier_fence, 0.0);
}

TEST(Step4Test, FlatTraceHasNoManifestation) {
  std::vector<double> norms(30, 1.0);
  norms[7] = 1.05;  // noise
  std::vector<AnalyzedTrace> traces{trace_with_norms(norms)};
  detect_all(traces, DetectionConfig{});
  EXPECT_TRUE(traces[0].manifestation_indices.empty());
}

TEST(Step4Test, TransientSpikeRejectedBySustainCheck) {
  std::vector<double> norms(30, 1.0);
  norms[10] = 9.0;  // one-event spike, back to 1.0 right after
  std::vector<AnalyzedTrace> traces{trace_with_norms(norms)};
  DetectionConfig config;
  config.require_sustained = true;
  detect_all(traces, config);
  EXPECT_TRUE(traces[0].manifestation_indices.empty());

  config.require_sustained = false;
  detect_all(traces, config);
  EXPECT_FALSE(traces[0].manifestation_indices.empty());
}

TEST(Step4Test, MinPeakLevelRejectsReturnToNormal) {
  // Depressed start rising back to ~1.0 is not a manifestation.
  std::vector<double> norms(30, 1.0);
  norms[10] = 0.2;
  std::vector<AnalyzedTrace> traces{trace_with_norms(norms)};
  DetectionConfig config;
  config.min_amplitude = 0.5;
  detect_all(traces, config);
  EXPECT_TRUE(traces[0].manifestation_indices.empty());
}

TEST(Step5Test, WindowAndPercentageSorting) {
  // Three traces; only trace 0 manifests, at index 5.
  std::vector<AnalyzedTrace> traces;
  for (UserId user = 0; user < 3; ++user) {
    AnalyzedTrace trace;
    trace.user = user;
    for (int i = 0; i < 10; ++i) {
      PoweredEvent event;
      event.id = intern_event("E" + std::to_string(i));
      event.interval = {i * 1000, i * 1000 + 10};
      trace.events.push_back(event);
    }
    if (user == 0) trace.manifestation_indices = {5};
    traces.push_back(trace);
  }

  ReportingConfig config;
  config.window_size = 2;
  config.developer_reported_fraction = 1.0 / 3.0;
  config.diagnosis_tolerance = 0.01;
  const DiagnosisReport report = report_problematic_events(traces, config);

  EXPECT_EQ(report.total_traces, 3u);
  EXPECT_EQ(report.traces_with_manifestation, 1u);
  // Events E3..E7 are inside the window; each impacted 1/3 of traces.
  ASSERT_EQ(report.ranked_events.size(), 5u);
  for (const ReportedEvent& event : report.ranked_events) {
    EXPECT_NEAR(event.impacted_fraction, 1.0 / 3.0, 1e-12);
    EXPECT_EQ(event.impacted_traces, 1u);
  }
  EXPECT_EQ(report.diagnosis_events.size(), 5u);
}

TEST(Step5Test, WindowClampsAtTraceEdges) {
  std::vector<AnalyzedTrace> traces(1);
  traces[0].user = 0;
  for (int i = 0; i < 4; ++i) {
    PoweredEvent event;
    event.id = intern_event("E" + std::to_string(i));
    traces[0].events.push_back(event);
  }
  traces[0].manifestation_indices = {0};
  ReportingConfig config;
  config.window_size = 10;
  const DiagnosisReport report = report_problematic_events(traces, config);
  EXPECT_EQ(report.ranked_events.size(), 4u);
}

TEST(Step5Test, TopKIncludedEvenOutsideTolerance) {
  std::vector<AnalyzedTrace> traces(2);
  for (UserId user = 0; user < 2; ++user) {
    traces[user].user = user;
    for (int i = 0; i < 3; ++i) {
      PoweredEvent event;
      event.id = intern_event("E" + std::to_string(i));
      traces[user].events.push_back(event);
    }
    traces[user].manifestation_indices = {1};  // both traces: 100% impact
  }
  ReportingConfig config;
  config.developer_reported_fraction = 0.1;  // far from 100%
  config.diagnosis_tolerance = 0.05;
  config.min_top_k = 2;
  const DiagnosisReport report = report_problematic_events(traces, config);
  // Nothing is in tolerance, but the closest min_top_k are always handed
  // to the developer.
  EXPECT_EQ(report.diagnosis_events.size(), 2u);
}

TEST(Step5Test, SortsByClosenessToDeveloperFraction) {
  // Trace A manifests around E1 only; traces A+B around E2.
  std::vector<AnalyzedTrace> traces(4);
  for (UserId user = 0; user < 4; ++user) {
    traces[user].user = user;
    for (int i = 0; i < 3; ++i) {
      PoweredEvent event;
      event.id = intern_event("E" + std::to_string(i));
      event.interval = {i * 1000, i * 1000 + 10};
      traces[user].events.push_back(event);
    }
  }
  ReportingConfig config;
  config.window_size = 0;
  config.developer_reported_fraction = 0.25;
  traces[0].manifestation_indices = {1};
  traces[0].events[1].id = intern_event("Etrigger");
  traces[1].manifestation_indices = {2};
  traces[2].manifestation_indices = {2};
  const DiagnosisReport report = report_problematic_events(traces, config);
  ASSERT_GE(report.ranked_events.size(), 2u);
  // Etrigger impacted 25% (exactly the reported fraction) -> first.
  EXPECT_EQ(report.ranked_events[0].name, "Etrigger");
}

TEST(PipelineTest, EndToEndOnSyntheticBundles) {
  std::vector<trace::TraceBundle> bundles;
  for (UserId user = 0; user < 10; ++user) {
    const bool buggy = user < 2;
    bundles.push_back(step_bundle(user, 100.0, buggy ? 800.0 : 100.0, 10, 20));
  }
  AnalysisConfig config;
  config.reporting.developer_reported_fraction = 0.2;
  const ManifestationAnalyzer analyzer(config);
  const AnalysisResult result = analyzer.run(bundles);
  EXPECT_EQ(result.traces.size(), 10u);
  EXPECT_EQ(result.report.traces_with_manifestation, 2u);
  ASSERT_FALSE(result.report.ranked_events.empty());
  EXPECT_NEAR(result.report.ranked_events[0].impacted_fraction, 0.2, 1e-12);
}

TEST(PipelineTest, EmptyInputThrows) {
  const ManifestationAnalyzer analyzer;
  EXPECT_THROW(analyzer.run(std::vector<trace::TraceBundle>{}),
               AnalysisError);
}

}  // namespace
}  // namespace edx::core
