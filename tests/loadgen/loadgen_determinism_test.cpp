// The loadgen driver's two reproducibility contracts (ISSUE 9):
//
//   1. the op sequence each logical stream issues is a function of
//      (spec, seed) only — identical for driver thread counts {1,2,8};
//   2. the service's final published report after a load run is
//      byte-identical to a single-threaded batch
//      ManifestationAnalyzer::run over the applied-arrival prefix
//      (per-user last-write-wins), rebuilt from the captured
//      submission identities in applied_log() order.
#include "loadgen/driver.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/report_io.h"
#include "loadgen/op_stream.h"
#include "loadgen/workload_factory.h"
#include "service/fleet_service.h"
#include "support/temp_root.h"

namespace edx::loadgen {
namespace {

/// A small spec that exercises every op kind, hot-app skew, and a
/// multi-phase ramp, sized to finish in well under a second.
WorkloadSpec make_spec() {
  WorkloadSpec spec;
  spec.name = "determinism";
  spec.apps = 2;
  spec.users = 48;
  spec.streams = 8;
  spec.seed = 1234;
  spec.ops_per_stream = 60;
  spec.events_per_bundle = 12;
  spec.hot_apps = 1;
  spec.hot_fraction = 0.5;
  spec.user_skew = 0.5;
  spec.mix = {0.45, 0.25, 0.2, 0.1};
  spec.phases.push_back({"warmup", 100, 1.0, 0.25});
  spec.phases.push_back({"steady", 300, 1.0, 1.0});
  spec.validate();
  return spec;
}

TEST(OpStream, SameSeedSameStreamSameSequence) {
  const WorkloadSpec spec = make_spec();
  OpStream a(spec, 3);
  OpStream b(spec, 3);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.next(), b.next()) << "op " << i;
  }
}

TEST(OpStream, StreamsOwnDisjointUserSlices) {
  const WorkloadSpec spec = make_spec();
  for (std::size_t s = 0; s < spec.streams; ++s) {
    OpStream stream(spec, s);
    for (int i = 0; i < 300; ++i) {
      const Op op = stream.next();
      if (op.kind == OpKind::kIngest || op.kind == OpKind::kReupload) {
        EXPECT_EQ(static_cast<std::size_t>(op.user) % spec.streams, s)
            << "stream " << s << " touched another stream's user";
        EXPECT_LT(static_cast<std::size_t>(op.user), spec.users);
      }
    }
  }
}

TEST(OpStream, SubstreamSeedsAreWellSeparated) {
  const std::uint64_t master = 42;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 64; ++s) {
    seeds.push_back(substream_seed(master, s));
    // The pacing family (salt 1) never collides with the op family.
    EXPECT_NE(substream_seed(master, s, 1), seeds.back());
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(SyntheticBundle, IsAPureFunctionOfItsCoordinates) {
  const WorkloadSpec spec = make_spec();
  const trace::TraceBundle a = synthetic_bundle(spec, 1, 7, 2);
  const trace::TraceBundle b = synthetic_bundle(spec, 1, 7, 2);
  EXPECT_EQ(a.to_text(), b.to_text());
  // Any coordinate change changes the bytes (re-uploads are
  // distinguishable from first uploads).
  EXPECT_NE(synthetic_bundle(spec, 1, 7, 3).to_text(), a.to_text());
  EXPECT_NE(synthetic_bundle(spec, 0, 7, 2).to_text(), a.to_text());
}

TEST(LoadgenDeterminism, OpSequencesIdenticalForThreadCounts128) {
  const WorkloadSpec spec = make_spec();
  std::vector<std::vector<Op>> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    service::FleetService service{service::ServiceOptions{}};
    RunOptions options;
    options.threads = threads;
    options.capture_ops = true;
    const LoadReport report = run_load(spec, service, options);
    EXPECT_EQ(report.threads, threads);
    ASSERT_EQ(report.op_trace.size(), spec.streams);
    std::uint64_t total = 0;
    for (const std::vector<Op>& ops : report.op_trace) {
      EXPECT_EQ(ops.size(), spec.ops_per_stream);
      total += ops.size();
    }
    EXPECT_EQ(total, spec.ops_per_stream * spec.streams);
    if (reference.empty()) {
      reference = report.op_trace;
    } else {
      EXPECT_EQ(report.op_trace, reference);
    }
  }
}

TEST(LoadgenDeterminism, OpenLoopKeepsTheSameOpSequences) {
  WorkloadSpec spec = make_spec();
  spec.ops_per_stream = 24;
  service::FleetService closed_service{service::ServiceOptions{}};
  RunOptions options;
  options.capture_ops = true;
  options.threads = 2;
  const LoadReport closed = run_load(spec, closed_service, options);

  // Switching the arrival process changes timing only: pacing draws
  // come from a separate RNG substream, so op content is untouched.
  spec.arrival = ArrivalMode::kOpenUniform;
  spec.rate = 50'000.0;
  service::FleetService open_service{service::ServiceOptions{}};
  const LoadReport open = run_load(spec, open_service, options);
  EXPECT_EQ(open.op_trace, closed.op_trace);
  EXPECT_GT(open.offered_ops_per_second, 0.0);
}

// --- batch equivalence (mirrors tests/service/fleet_service_test.cpp) ---

std::string render_image(const core::FleetAnalyzer::SnapshotImage& image) {
  core::ReportRenderOptions options;
  options.developer_reported_fraction = image.reported_fraction;
  return core::report_to_text(image.report, nullptr, options) +
         core::report_to_json(image.report, nullptr, options);
}

std::string batch_reference(std::span<const trace::TraceBundle> arrivals,
                            const core::AnalysisConfig& config) {
  std::vector<trace::TraceBundle> latest;
  for (const trace::TraceBundle& bundle : arrivals) {
    bool replaced = false;
    for (trace::TraceBundle& existing : latest) {
      if (existing.fleet_key() == bundle.fleet_key()) {
        existing = bundle;
        replaced = true;
        break;
      }
    }
    if (!replaced) latest.push_back(bundle);
  }
  const core::ManifestationAnalyzer analyzer(config);
  const core::AnalysisResult result = analyzer.run(latest);
  core::FleetAnalyzer::SnapshotImage image;
  // The service defaults to the self-estimated impacted fraction; the
  // batch recipe recomputes the report under it.
  const double fraction =
      result.report.total_traces == 0
          ? 0.0
          : static_cast<double>(result.report.traces_with_manifestation) /
                static_cast<double>(result.report.total_traces);
  core::ReportingConfig reporting = config.reporting;
  reporting.developer_reported_fraction = fraction;
  image.reported_fraction = fraction;
  image.report = core::report_problematic_events(result.traces, reporting);
  return render_image(image);
}

TEST(LoadgenDeterminism, FinalReportMatchesBatchOverAppliedPrefix) {
  const WorkloadSpec spec = make_spec();
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    service::ServiceOptions service_options;
    core::AnalysisConfig config;
    config.num_threads = 1;
    service_options.analysis = config;
    service::FleetService service(service_options);

    RunOptions options;
    options.threads = threads;
    options.capture_submissions = true;
    const LoadReport report = run_load(spec, service, options);

    std::map<std::uint64_t, SubmissionRecord> by_id;
    for (const SubmissionRecord& record : report.submissions) {
      EXPECT_TRUE(by_id.emplace(record.id, record).second)
          << "duplicate submission id " << record.id;
    }
    ASSERT_FALSE(by_id.empty());

    std::size_t apps_checked = 0;
    for (std::size_t a = 0; a < spec.apps; ++a) {
      const std::string key = app_key(a);
      const std::vector<std::uint64_t> applied = service.applied_log(key);
      if (applied.empty()) continue;
      ++apps_checked;
      // Rebuild the exact applied arrival sequence from the captured
      // submission identities (bundles are pure functions of them).
      std::vector<trace::TraceBundle> arrivals;
      arrivals.reserve(applied.size());
      for (const std::uint64_t id : applied) {
        const auto it = by_id.find(id);
        ASSERT_NE(it, by_id.end()) << "applied id " << id << " not captured";
        EXPECT_EQ(it->second.app, a);
        arrivals.push_back(synthetic_bundle(spec, it->second.app,
                                            it->second.user,
                                            it->second.ordinal));
      }
      const auto snap = service.snapshot(key);
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(snap->image->arrivals, applied.size());
      EXPECT_EQ(render_image(*snap->image),
                batch_reference(arrivals, config))
          << key;
    }
    EXPECT_EQ(apps_checked, spec.apps);
  }
}

TEST(LoadgenDeterminism, ManyTenantsThroughPartitionedStoreRoundTrips) {
  // The shipped many-tenants sweep, CI-sized, against a durable
  // partitioned root: every tenant's bytes survive a restart exactly,
  // and the op sequences stay a pure function of (spec, seed).
  const std::string path =
      std::string(EDX_SOURCE_DIR) + "/examples/many_tenants.workload";
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  WorkloadSpec spec = WorkloadSpec::parse(buffer.str(), path);
  spec.apps = 6;  // CI-sized slice of the tenant axis
  spec.users = 24;
  spec.ops_per_stream = 40;
  spec.validate();

  const std::string root =
      edx::test::temp_root() + "/edx_loadgen_many_tenants";
  std::filesystem::remove_all(root);

  service::ServiceOptions service_options;
  core::AnalysisConfig config;
  config.num_threads = 1;
  service_options.analysis = config;
  service_options.num_shards = 2;
  service_options.store_root = root;

  std::map<std::string, std::string> final_bytes;
  std::vector<std::vector<Op>> reference_ops;
  {
    service::FleetService service(service_options);
    RunOptions options;
    options.threads = 2;
    options.capture_ops = true;
    const LoadReport report = run_load(spec, service, options);
    reference_ops = report.op_trace;
    EXPECT_GT(service.stats().store_fsyncs, 0u);
    for (std::size_t a = 0; a < spec.apps; ++a) {
      const std::string key = app_key(a);
      const auto snap = service.snapshot(key);
      if (snap == nullptr) continue;
      final_bytes[key] = render_image(*snap->image);
    }
    ASSERT_FALSE(final_bytes.empty());
    service.close();
  }

  // Restart adopts the pinned layout and replays to the same bytes.
  service::ServiceOptions reopen = service_options;
  reopen.num_shards = 0;
  service::FleetService restarted(reopen);
  for (const auto& [key, bytes] : final_bytes) {
    SCOPED_TRACE("app=" + key);
    const auto snap = restarted.snapshot(key);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(render_image(*snap->image), bytes);
  }

  // And the same spec re-run from scratch issues identical op streams.
  service::FleetService fresh{service::ServiceOptions{}};
  RunOptions options;
  options.threads = 8;
  options.capture_ops = true;
  EXPECT_EQ(run_load(spec, fresh, options).op_trace, reference_ops);
}

}  // namespace
}  // namespace edx::loadgen
