// FleetAnalyzer's equivalence contract: after any sequence of arrivals
// (any order, with re-uploads), snapshot() must be byte-identical to a
// batch ManifestationAnalyzer::run over the same bundles in arrival
// order — rendered text + JSON and every per-instance intermediate —
// for any thread count.  See core/fleet_analyzer.h and DESIGN.md §9.
#include "core/fleet_analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/pipeline.h"
#include "core/report_io.h"

namespace edx::core {
namespace {

power::UtilizationSample sample(TimestampMs timestamp, double power) {
  power::UtilizationSample s;
  s.timestamp = timestamp;
  s.estimated_app_power_mw = power;
  return s;
}

/// Fig. 6 walkthrough fixture (same construction as
/// parallel_pipeline_test.cpp); `variant` perturbs powers so a re-upload
/// is distinguishable from the first upload.
trace::TraceBundle make_trace(UserId user, bool with_abd, int variant = 0) {
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  const int events = 12;
  int triangle_at = with_abd ? 6 : -1;
  for (int i = 0; i < events; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    std::string name = (i % 2 == 0) ? "circle" : "square";
    if (i == triangle_at) name = "triangle";
    bundle.events.add_instance(name, {t + 10, t + 40});

    double power = (i % 2 == 0) ? 100.0 : 400.0;
    if (i == triangle_at) power = 150.0;
    if (with_abd && i >= triangle_at) power += 500.0;
    power += 3.0 * ((user * 7 + i * 13 + variant * 17) % 5);
    samples.push_back(sample(t + 500, power));
    samples.push_back(sample(t + 1000, power));
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

AnalysisConfig make_config(std::size_t num_threads) {
  AnalysisConfig config;
  config.reporting.window_size = 2;
  config.reporting.developer_reported_fraction = 0.25;
  config.num_threads = num_threads;
  return config;
}

std::string render(const AnalysisResult& result) {
  ReportRenderOptions options;
  options.developer_reported_fraction = 0.25;
  return report_to_text(result.report, /*code_map=*/nullptr, options) +
         report_to_json(result.report, /*code_map=*/nullptr, options);
}

void expect_identical(const AnalysisResult& batch,
                      const AnalysisResult& incremental,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(render(batch), render(incremental));

  ASSERT_EQ(batch.traces.size(), incremental.traces.size());
  for (std::size_t t = 0; t < batch.traces.size(); ++t) {
    const AnalyzedTrace& a = batch.traces[t];
    const AnalyzedTrace& b = incremental.traces[t];
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.manifestation_indices, b.manifestation_indices);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].id, b.events[i].id);
      EXPECT_EQ(a.events[i].raw_power, b.events[i].raw_power);
      EXPECT_EQ(a.normalized_power[i], b.normalized_power[i]);
      EXPECT_EQ(a.variation_amplitude[i], b.variation_amplitude[i]);
    }
  }

  // Distributions must match in instance order, not just as multisets —
  // the incremental append/replace paths promise batch traversal order.
  ASSERT_EQ(batch.ranking.all().size(), incremental.ranking.all().size());
  for (const EventPowerDistribution& dist : batch.ranking.all()) {
    if (dist.instance_count() == 0) continue;
    EXPECT_EQ(dist.powers(),
              incremental.ranking.distribution(dist.id()).powers());
  }
}

/// Batch reference over `bundles` with a throwaway analyzer.
AnalysisResult batch_run(const std::vector<trace::TraceBundle>& bundles,
                         std::size_t num_threads) {
  const ManifestationAnalyzer analyzer(make_config(num_threads));
  return analyzer.run(bundles);
}

TEST(FleetAnalyzerTest, SnapshotAfterEveryArrivalMatchesBatchPrefix) {
  std::vector<trace::TraceBundle> bundles;
  for (UserId user = 0; user < 9; ++user) {
    bundles.push_back(make_trace(user, /*with_abd=*/user % 4 == 1));
  }
  for (std::size_t num_threads : {1u, 2u, 8u}) {
    FleetAnalyzer fleet(make_config(num_threads));
    for (std::size_t n = 0; n < bundles.size(); ++n) {
      fleet.add_bundle(bundles[n]);
      const std::vector<trace::TraceBundle> prefix(bundles.begin(),
                                                   bundles.begin() + n + 1);
      expect_identical(batch_run(prefix, num_threads), fleet.snapshot(),
                       "threads=" + std::to_string(num_threads) +
                           " prefix=" + std::to_string(n + 1));
    }
  }
}

TEST(FleetAnalyzerTest, RandomArrivalOrdersMatchBatch) {
  std::vector<trace::TraceBundle> bundles;
  for (UserId user = 0; user < 16; ++user) {
    bundles.push_back(make_trace(user, /*with_abd=*/user % 5 == 1));
  }
  // Deterministic pseudo-random permutations (LCG, not std::shuffle, so
  // the orders are stable across standard libraries).
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int round = 0; round < 4; ++round) {
    std::vector<std::size_t> order(bundles.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[next() % i]);
    }
    std::vector<trace::TraceBundle> arrival_order;
    for (std::size_t index : order) arrival_order.push_back(bundles[index]);

    FleetAnalyzer fleet(make_config(2));
    for (const trace::TraceBundle& bundle : arrival_order) {
      fleet.add_bundle(bundle);
    }
    expect_identical(batch_run(arrival_order, 2), fleet.snapshot(),
                     "round=" + std::to_string(round));
  }
}

TEST(FleetAnalyzerTest, ReuploadReplacesInsteadOfDuplicating) {
  std::vector<trace::TraceBundle> bundles;
  for (UserId user = 0; user < 6; ++user) {
    bundles.push_back(make_trace(user, /*with_abd=*/user == 1));
  }
  for (std::size_t num_threads : {1u, 8u}) {
    FleetAnalyzer fleet(make_config(num_threads));
    for (const trace::TraceBundle& bundle : bundles) fleet.add_bundle(bundle);
    ASSERT_EQ(fleet.fleet_size(), 6u);

    // User 3 re-uploads twice: first a perturbed healthy trace, then an
    // ABD one (its event set changes — "triangle" joins).  User 1's
    // re-upload goes the other way (ABD -> healthy, "triangle" leaves).
    const trace::TraceBundle reupload_a = make_trace(3, false, /*variant=*/1);
    const trace::TraceBundle reupload_b = make_trace(3, true, /*variant=*/2);
    const trace::TraceBundle reupload_c = make_trace(1, false, /*variant=*/3);
    fleet.add_bundle(reupload_a);
    fleet.add_bundle(reupload_b);
    fleet.add_bundle(reupload_c);
    EXPECT_EQ(fleet.fleet_size(), 6u);
    EXPECT_TRUE(fleet.contains_user(3));

    // Batch equivalent: each user's slot holds their latest upload.
    std::vector<trace::TraceBundle> latest = bundles;
    latest[3] = reupload_b;
    latest[1] = reupload_c;
    expect_identical(batch_run(latest, num_threads), fleet.snapshot(),
                     "threads=" + std::to_string(num_threads));
  }
}

TEST(FleetAnalyzerTest, SnapshotsInterleavedWithReuploadsMatchBatch) {
  FleetAnalyzer fleet(make_config(2));
  std::vector<trace::TraceBundle> latest;
  const auto upsert = [&latest](const trace::TraceBundle& bundle) {
    for (trace::TraceBundle& existing : latest) {
      if (existing.fleet_key() == bundle.fleet_key()) {
        existing = bundle;
        return;
      }
    }
    latest.push_back(bundle);
  };
  // Arrivals interleave new users and re-uploads; snapshot after each one
  // so stale dirty state from a prior snapshot would be caught.
  const trace::TraceBundle arrivals[] = {
      make_trace(0, false),              make_trace(1, true),
      make_trace(0, true, /*variant=*/1), make_trace(2, false),
      make_trace(1, false, /*variant=*/2), make_trace(3, true),
      make_trace(0, false, /*variant=*/3),
  };
  int step = 0;
  for (const trace::TraceBundle& bundle : arrivals) {
    fleet.add_bundle(bundle);
    upsert(bundle);
    expect_identical(batch_run(latest, 2), fleet.snapshot(),
                     "step=" + std::to_string(step++));
  }
}

std::string render_report(const DiagnosisReport& report, double fraction) {
  ReportRenderOptions options;
  options.developer_reported_fraction = fraction;
  return report_to_text(report, /*code_map=*/nullptr, options) +
         report_to_json(report, /*code_map=*/nullptr, options);
}

TEST(FleetAnalyzerTest, PublishMatchesBatchOneAndTwoPassAtEveryPrefix) {
  // publish(false) must equal one batch run with the configured fraction;
  // publish(true) the CLI's batch two-pass rule: a first run estimates
  // the fraction as traces_with_manifestation / total_traces, a second
  // full run reports around it.
  const trace::TraceBundle arrivals[] = {
      make_trace(0, false),               make_trace(1, true),
      make_trace(2, false),               make_trace(0, true, /*variant=*/1),
      make_trace(3, false),               make_trace(4, true),
      make_trace(1, false, /*variant=*/2), make_trace(5, false),
      make_trace(3, true, /*variant=*/3),  make_trace(6, false),
      make_trace(0, false, /*variant=*/4),
  };
  for (std::size_t num_threads : {1u, 2u, 8u}) {
    FleetAnalyzer fleet(make_config(num_threads));
    EXPECT_THROW((void)fleet.publish(true), AnalysisError);
    std::vector<trace::TraceBundle> latest;
    std::size_t step = 0;
    for (const trace::TraceBundle& bundle : arrivals) {
      fleet.add_bundle(bundle);
      const auto slot = std::find_if(
          latest.begin(), latest.end(), [&](const trace::TraceBundle& held) {
            return held.fleet_key() == bundle.fleet_key();
          });
      if (slot == latest.end()) {
        latest.push_back(bundle);
      } else {
        *slot = bundle;
      }
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " step=" + std::to_string(step));

      const AnalysisResult one_pass = batch_run(latest, num_threads);
      AnalysisConfig two_pass_config = make_config(num_threads);
      const double fraction =
          static_cast<double>(one_pass.report.traces_with_manifestation) /
          static_cast<double>(one_pass.report.total_traces);
      two_pass_config.reporting.developer_reported_fraction = fraction;
      const AnalysisResult two_pass =
          ManifestationAnalyzer(two_pass_config).run(latest);

      // Alternate which image is published first, so neither relies on
      // state the other left behind.
      std::shared_ptr<const FleetAnalyzer::SnapshotImage> estimated;
      std::shared_ptr<const FleetAnalyzer::SnapshotImage> configured;
      if (step++ % 2 == 0) {
        estimated = fleet.publish(true);
        configured = fleet.publish(false);
      } else {
        configured = fleet.publish(false);
        estimated = fleet.publish(true);
      }

      EXPECT_EQ(estimated->arrivals, fleet.arrivals());
      EXPECT_EQ(estimated->fleet_size, latest.size());
      EXPECT_EQ(estimated->reported_fraction, fraction);
      EXPECT_EQ(estimated->traces_with_manifestation,
                two_pass.report.traces_with_manifestation);
      EXPECT_EQ(render_report(estimated->report, estimated->reported_fraction),
                render_report(two_pass.report, fraction));

      EXPECT_EQ(configured->fleet_size, latest.size());
      EXPECT_EQ(configured->reported_fraction, 0.25);
      EXPECT_EQ(configured->traces_with_manifestation,
                one_pass.report.traces_with_manifestation);
      EXPECT_EQ(
          render_report(configured->report, configured->reported_fraction),
          render_report(one_pass.report, 0.25));
    }
  }
}

TEST(FleetAnalyzerTest, EmptyFleetSnapshotThrows) {
  FleetAnalyzer fleet;
  EXPECT_EQ(fleet.fleet_size(), 0u);
  EXPECT_THROW(fleet.snapshot(), AnalysisError);
}

TEST(FleetAnalyzerTest, RejectsInvalidConfigAtConstruction) {
  AnalysisConfig bad_percentile = make_config(1);
  bad_percentile.normalization.base_percentile = 101.0;
  EXPECT_THROW(FleetAnalyzer{bad_percentile}, InvalidArgument);

  AnalysisConfig bad_fence = make_config(1);
  bad_fence.detection.fence_iqr_multiplier = -1.0;
  EXPECT_THROW(FleetAnalyzer{bad_fence}, InvalidArgument);
}

}  // namespace
}  // namespace edx::core
