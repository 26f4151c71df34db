// restart: FleetService construction on a stored root until every
// tenant's first report() returns.
//
// Set-up writes a 40-tenant partitioned root (2 shards, kAlways): half of
// each fleet is compacted into a snapshot, the rest of the fleet plus
// re-uploads from a second campaign sit in sealed WAL segments and an
// active tail.  The timed phase repeatedly copies that root (untimed),
// constructs FleetService on the identical copy and reads every tenant's
// report.  This is the store's read path (snapshot load, parallel
// segment decode, tail replay) plus the add_analyzed rebuild and first
// publish, which neither other workload touches.
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>

#include "bench.h"
#include "bench_math.h"
#include "core/event_power.h"
#include "core/fleet_analyzer.h"
#include "core/report_io.h"
#include "replay.h"
#include "store/shard_store.h"
#include "workload/catalog.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace edx;

namespace {

constexpr std::size_t kUsers = 16;
constexpr std::size_t kSnapshotted = kUsers / 2;  // compacted per fleet
constexpr std::size_t kReuploads = kUsers / 4;    // second campaign, in WAL
constexpr int kCampaigns = 2;
constexpr std::size_t kShards = 2;
/// Small segments so each shard's WAL holds several sealed segments.
constexpr std::size_t kSegmentBytes = 1u << 20;

service::ServiceOptions service_options(const std::string& root) {
  service::ServiceOptions options;
  options.num_shards = kShards;
  options.store_root = root;
  options.store.fsync_policy = store::FsyncPolicy::kAlways;
  options.store.segment_target_bytes = kSegmentBytes;
  return options;
}

struct Fixture {
  std::vector<TenantInputs> tenants;
  std::string root;
  /// Per tenant, every upload the root holds, in write order.
  std::vector<std::vector<const trace::TraceBundle*>> written;
  /// Per tenant, the report before the root-writing service closed.
  std::vector<std::string> reports;
  /// Uploads written after the compaction, in submit order.
  std::vector<ReplayUpload> wal_uploads;
  std::vector<double> submit_us;
  service::ServiceStats wal_stats;
};

Fixture set_up(const RunOptions& options) {
  Fixture fixture;
  fixture.tenants = generate_tenants(workload::full_catalog(), kUsers,
                                     /*sessions=*/1, kCampaigns, options.seed);
  fixture.root = options.work_dir + "/restart-root";
  reset_dir(fixture.root);
  fixture.written.resize(fixture.tenants.size());
  const auto submit = [&](service::FleetService& service, std::size_t t,
                          std::span<const trace::TraceBundle> bundles,
                          bool to_wal) {
    const auto start = Clock::now();
    const std::vector<std::uint64_t> ids =
        service.submit_batch(fixture.tenants[t].key, bundles);
    fixture.submit_us.push_back(seconds_between(start, Clock::now()) * 1e6);
    for (std::size_t i = 0; i < bundles.size(); ++i) {
      fixture.written[t].push_back(&bundles[i]);
      if (to_wal) fixture.wal_uploads.push_back({t, &bundles[i], ids[i]});
    }
  };

  {
    service::FleetService service(service_options(fixture.root));
    for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
      submit(service, t,
             std::span(fixture.tenants[t].variants[0]).first(kSnapshotted),
             false);
    }
    service.close();
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    store::ShardStore shard = store::ShardStore::open(
        store::shard_dir(fixture.root, s), service_options("").store);
    shard.compact();
    shard.close();
  }
  fixture.submit_us.clear();  // the WAL phase's submits are the timed ones
  service::FleetService service(service_options(fixture.root));
  for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
    submit(service, t,
           std::span(fixture.tenants[t].variants[0]).subspan(kSnapshotted),
           true);
  }
  for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
    submit(service, t,
           std::span(fixture.tenants[t].variants[1]).first(kReuploads), true);
  }
  service.drain();
  fixture.wal_stats = service.stats();
  for (const TenantInputs& tenant : fixture.tenants) {
    fixture.reports.push_back(service.report(tenant.key));
  }
  service.close();
  return fixture;
}

struct Phase {
  std::vector<double> restart_ms;
  std::vector<double> report_us;
  std::vector<double> late_ms;
  std::vector<double> staleness;
  std::vector<double> arrivals;  ///< recovered uploads per restart
  SpanLog spans;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;

  explicit Phase(bool traced) : spans(traced) {}
};

void run_phase(const Fixture& fixture, const RunOptions& options,
               Phase& phase) {
  const std::string copy = options.work_dir + "/restart-copy";
  const std::uint64_t expected = kUsers + kReuploads;
  const auto deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.phase_seconds()));
  std::vector<std::string> texts(fixture.tenants.size());
  while (Clock::now() < deadline) {
    copy_tree_durably(fixture.root, copy);
    // Closed loop: a restart is due once its copy of the root is ready.
    const auto ready = Clock::now();
    ++phase.attempted;
    phase.attempted += fixture.tenants.size();
    service::ServiceOptions adopt = service_options(copy);
    adopt.num_shards = 0;  // the root's layout pins the shard count
    try {
      const auto start = Clock::now();
      phase.late_ms.push_back(seconds_between(ready, start) * 1e3);
      const std::uint32_t op = phase.spans.begin("restart");
      std::unique_ptr<service::FleetService> service;
      {
        const SpanScope span(phase.spans, "service.construct", op);
        service = std::make_unique<service::FleetService>(adopt);
      }
      for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
        const auto read = Clock::now();
        {
          const SpanScope span(phase.spans, "service.report", op);
          texts[t] = service->report(fixture.tenants[t].key);
        }
        phase.report_us.push_back(seconds_between(read, Clock::now()) * 1e6);
      }
      phase.restart_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
      phase.spans.end(op);

      // Each restart's reports byte-equal those from before the close,
      // over every upload the root holds.
      double recovered = 0;
      for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
        const std::string& key = fixture.tenants[t].key;
        std::shared_ptr<const service::FleetSnapshot> snap;
        {
          const SpanScope span(phase.spans, "service.snapshot");
          snap = service->snapshot(key);
        }
        const service::AppServiceStats row = service->app_stats(key);
        phase.staleness.push_back(
            static_cast<double>(row.submitted - row.published_arrivals));
        recovered += static_cast<double>(row.applied);
        if (texts[t] != fixture.reports[t] || snap == nullptr ||
            snap->image->arrivals != expected) {
          ++phase.failed;
          phase.problems.push_back(key + ": report after restart differs");
        }
      }
      phase.arrivals.push_back(recovered);
      service->close();
    } catch (const std::exception& error) {
      ++phase.failed;
      phase.problems.push_back(std::string("restart failed: ") + error.what());
    }
  }
  fs::remove_all(copy);
}

/// The restart path replayed through the store and core public functions:
/// open each shard, rebuild each tenant's analyzer, publish and render.
/// Repeated so the per-call means come from warm caches, as in the timed
/// restarts.
void replay_recovery(const Fixture& fixture, const RunOptions& options,
                     SpanLog& log, ReplayStats& stats,
                     std::vector<std::string>& problems) {
  constexpr int kReplays = 5;
  const std::string copy = options.work_dir + "/restart-copy";
  core::AnalysisConfig config;
  config.num_threads = 1;
  double open_ms = 0, decode_us = 0;
  std::size_t uploads = 0, instances = 0;
  for (int replay = 0; replay < kReplays; ++replay) {
    copy_tree_durably(fixture.root, copy);
    std::map<std::string, core::FleetAnalyzer> analyzers;
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto start = Clock::now();
      const std::uint32_t open_span = log.begin("store.open");
      store::ShardStore shard = store::ShardStore::open(
          store::shard_dir(copy, s), service_options("").store);
      log.end(open_span);
      open_ms += seconds_between(start, Clock::now()) * 1e3;
      decode_us += static_cast<double>(shard.recovery().decode_micros);
      for (const store::TenantInfo& info : shard.tenants()) {
        core::FleetAnalyzer& analyzer =
            analyzers.try_emplace(info.key, config).first->second;
        for (core::AnalyzedTrace& analyzed : shard.snapshot_step1(info.id)) {
          instances += analyzed.events.size();
          ++uploads;
          const SpanScope span(log, "core.apply");
          analyzer.add_analyzed(std::move(analyzed));
        }
        for (const store::BundleRef& bundle : shard.tail_refs(info.id)) {
          core::AnalyzedTrace analyzed;
          {
            const SpanScope span(log, "core.step1");
            analyzed = core::estimate_event_power(*bundle);
          }
          instances += analyzed.events.size();
          ++uploads;
          const SpanScope span(log, "core.apply");
          analyzer.add_analyzed(std::move(analyzed));
        }
      }
      shard.close();
    }
    for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
      const auto it = analyzers.find(fixture.tenants[t].key);
      if (it == analyzers.end()) {
        problems.push_back(fixture.tenants[t].key + ": missing after replay");
        continue;
      }
      std::shared_ptr<const core::FleetAnalyzer::SnapshotImage> image;
      {
        const SpanScope span(log, "core.publish");
        image = it->second.publish(/*self_estimate_fraction=*/true);
      }
      core::ReportRenderOptions render;
      render.developer_reported_fraction = image->reported_fraction;
      std::string text;
      {
        const SpanScope span(log, "core.render");
        text = core::report_to_text(image->report, nullptr, render);
      }
      if (text != fixture.reports[t]) {
        problems.push_back(fixture.tenants[t].key +
                           ": replayed recovery report differs");
      }
    }
  }
  fs::remove_all(copy);
  stats.step1_us = log.mean_us("core.step1").first;
  stats.apply_us = log.mean_us("core.apply").first;
  stats.publish_us = log.mean_us("core.publish").first;
  stats.render_us = log.mean_us("core.render").first;
  stats.opens = kShards * kReplays;
  stats.open_ms = open_ms / static_cast<double>(stats.opens);
  stats.decode_us = decode_us / static_cast<double>(stats.opens);
  stats.uploads = uploads;
  stats.publishes = fixture.tenants.size() * kReplays;
  stats.renders = stats.publishes;
  stats.instances_per_upload =
      static_cast<double>(instances) / static_cast<double>(uploads);
}

}  // namespace

WorkloadReport run_restart(const RunOptions& options) {
  WorkloadReport report;
  std::vector<double> setup_s;
  Fixture fixture;
  for (int i = 0; i < kSetupRuns; ++i) {
    fixture = Fixture{};  // the previous repetition's teardown is not timed
    fs::remove_all(options.work_dir + "/restart-root");
    const auto start = Clock::now();
    fixture = set_up(options);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  // The root-writing service's reports equal batch analysis over every
  // upload the root holds.
  for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
    ++report.attempted;
    if (fixture.reports[t] != reference_report(fixture.written[t])) {
      ++report.failed;
      report.problems.push_back(fixture.tenants[t].key +
                                ": report differs from a batch run over "
                                "the stored uploads");
    }
  }

  Phase phase(/*traced=*/false);
  run_phase(fixture, options, phase);
  report.attempted += phase.attempted;
  report.failed += phase.failed;
  report.problems.insert(report.problems.end(), phase.problems.begin(),
                         phase.problems.end());
  const double restart_mean = mean(phase.restart_ms);
  const double restart_total =
      std::accumulate(phase.restart_ms.begin(), phase.restart_ms.end(), 0.0);
  const double recovered =
      std::accumulate(phase.arrivals.begin(), phase.arrivals.end(), 0.0);

  report.notes.push_back(setup_note(setup_s));
  report.end_to_end = {
      {"setup_s", "s", median(setup_s), setup_s.size(), 0, 0,
       "inputs + writing, compacting and extending the root (median of "
       "runs)"},
      percentile_metric("latency_p50_ms", "ms", phase.restart_ms, 50, 90,
                        "restart_p50_ms: construction until every first "
                        "report() returns"),
      percentile_metric("latency_tail_ms", "ms", phase.restart_ms, 90, 90,
                        "restart_p90_ms"),
      percentile_metric("report_p50_us", "us", phase.report_us, 50, 99,
                        "each tenant's first report() after construction"),
      percentile_metric("report_tail_us", "us", phase.report_us, 99, 99,
                        "each tenant's first report() after construction, "
                        "p99"),
      {"uploads_per_s", "1/s", recovered / (restart_total / 1e3),
       static_cast<std::size_t>(recovered), 0, 0,
       "uploads recovered per second of restart time"},
  };

  if (options.trace) {
    Phase traced(/*traced=*/true);
    run_phase(fixture, options, traced);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    report.problems.insert(report.problems.end(), traced.problems.begin(),
                           traced.problems.end());

    // Store write stages over the uploads the WAL holds, batched as the
    // root-writing service batched them.
    const double wal_submitted =
        static_cast<double>(fixture.wal_uploads.size());
    const double wal_batches = static_cast<double>(fixture.wal_stats.batches);
    ReplayInput input;
    input.tenants = fixture.tenants;
    input.prefill.resize(fixture.tenants.size());
    for (std::size_t t = 0; t < fixture.tenants.size(); ++t) {
      input.prefill[t].assign(fixture.written[t].begin(),
                              fixture.written[t].begin() + kSnapshotted);
    }
    input.uploads = fixture.wal_uploads;
    input.uploads_per_batch = wal_submitted / wal_batches;
    input.store_dir = options.work_dir + "/replay-store";
    SpanLog write_log(true);
    ReplayStats replay = replay_layers(input, write_log);
    SpanLog recovery_log(true);
    std::vector<std::string> mismatches;
    replay_recovery(fixture, options, recovery_log, replay, mismatches);
    report.attempted += fixture.tenants.size();
    report.failed += mismatches.size();
    report.problems.insert(report.problems.end(), mismatches.begin(),
                           mismatches.end());

    const double tenants = static_cast<double>(fixture.tenants.size());
    const double per_restart =
        static_cast<double>(kUsers + kReuploads) * tenants;
    ServiceLayer layer;
    layer.submit_us = mean(fixture.submit_us);
    layer.snapshot_us = traced.spans.mean_us("service.snapshot").first;
    layer.uploads_per_batch = wal_submitted / wal_batches;
    layer.publishes_per_upload = tenants / per_restart;
    layer.staleness_p99 = percentile(phase.staleness, 99);
    layer.fsyncs_per_batch =
        static_cast<double>(fixture.wal_stats.store_fsyncs) / wal_batches;
    layer.gen_late_p99_ms = percentile(phase.late_ms, 99);
    layer.trace_overhead_ms = mean(traced.restart_ms) - restart_mean;
    const double snapshotted = static_cast<double>(kSnapshotted) * tenants;
    const Stage stages[] = {
        {"store.open", kShards, replay.open_ms * 1e3},
        {"core.step1", per_restart - snapshotted, replay.step1_us},
        {"core.apply", per_restart, replay.apply_us},
        {"core.publish", tenants, replay.publish_us},
        {"service.snapshot", tenants, layer.snapshot_us},
        {"core.render", tenants, replay.render_us},
    };
    layer.residual_ms = stage_residual_ms(restart_mean, stages, report.notes);
    report.per_layer = layer_metrics(replay, layer);
    const SpanLog* logs[] = {&traced.spans, &write_log, &recovery_log};
    const std::string path = options.work_dir + "/spans-restart.jsonl";
    report.notes.push_back("spans: " +
                           std::to_string(write_spans(path, logs)) +
                           " written to " + path);
  }
  fs::remove_all(fixture.root);
  return report;
}

}  // namespace perfbench
