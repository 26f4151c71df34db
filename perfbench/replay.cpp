#include "replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>

#include "core/event_power.h"
#include "core/fleet_analyzer.h"
#include "core/report_io.h"
#include "store/codec.h"
#include "store/shard_store.h"
#include "bench_math.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace edx;

namespace {

/// Replaying every upload of a long run would take as long as the run;
/// means over this many calls are steady enough.
constexpr std::size_t kMaxUploads = 2048;
constexpr std::size_t kMaxRenders = 2048;
/// The store stages stop once this much has been encoded, so a workload
/// of large uploads does not fill the disk for a per-call mean.
constexpr std::size_t kMaxStoreBytes = 64u << 20;

Metric layer(std::string name, std::string unit, double value,
             std::size_t samples = 0) {
  return {std::move(name), std::move(unit), value, samples, 0, 0, ""};
}

}  // namespace

std::vector<std::vector<const trace::TraceBundle*>> first_campaign(
    std::span<const TenantInputs> tenants) {
  std::vector<std::vector<const trace::TraceBundle*>> prefill;
  for (const TenantInputs& tenant : tenants) {
    std::vector<const trace::TraceBundle*>& fleet = prefill.emplace_back();
    for (const trace::TraceBundle& bundle : tenant.variants[0]) {
      fleet.push_back(&bundle);
    }
  }
  return prefill;
}

ReplayStats replay_layers(const ReplayInput& input, SpanLog& log) {
  ReplayStats stats;
  core::AnalysisConfig config;
  config.num_threads = 1;  // what the service gives each tenant
  std::vector<std::unique_ptr<core::FleetAnalyzer>> analyzers;
  for (std::size_t t = 0; t < input.tenants.size(); ++t) {
    analyzers.push_back(std::make_unique<core::FleetAnalyzer>(config));
    for (const trace::TraceBundle* bundle : input.prefill[t]) {
      analyzers.back()->add_bundle(*bundle);
    }
    if (analyzers.back()->fleet_size() > 0) {
      (void)analyzers.back()->publish(/*self_estimate_fraction=*/true);
    }
  }

  reset_dir(input.store_dir);
  store::StoreOptions store_options;
  store_options.fsync_policy = store::FsyncPolicy::kAlways;
  store::ShardStore store =
      store::ShardStore::open(input.store_dir, store_options);
  std::vector<store::TenantId> store_ids;
  for (const TenantInputs& tenant : input.tenants) {
    store_ids.push_back(store.ensure_tenant(tenant.key));
  }

  const std::size_t uploads = std::min(input.uploads.size(), kMaxUploads);
  const auto batch_size = static_cast<std::size_t>(
      std::max(1.0, std::round(input.uploads_per_batch)));
  std::size_t encoded_bytes = 0;
  std::size_t instances = 0;
  std::vector<core::AnalyzedTrace> analyzed;
  std::vector<std::size_t> touched;
  std::vector<std::shared_ptr<const core::FleetAnalyzer::SnapshotImage>>
      images(input.tenants.size());
  for (std::size_t begin = 0; begin < uploads; begin += batch_size) {
    const std::size_t end = std::min(uploads, begin + batch_size);
    const SpanScope batch(log, "replay.batch");
    // Step 1 for the whole batch, then apply (and append) in order, one
    // publish per touched tenant, one flush: the service's batch shape.
    analyzed.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const ReplayUpload& upload = input.uploads[i];
      const SpanScope span(log, "core.step1", batch.id(), upload.id);
      analyzed.push_back(core::estimate_event_power(*upload.bundle));
    }
    const bool store_stage = encoded_bytes < kMaxStoreBytes;
    touched.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const ReplayUpload& upload = input.uploads[i];
      if (store_stage) {
        {
          const SpanScope span(log, "store.encode", batch.id(), upload.id);
          encoded_bytes += store::encode_bundle(*upload.bundle).size();
        }
        const SpanScope span(log, "store.append", batch.id(), upload.id);
        store.append_async(store_ids[upload.tenant], *upload.bundle);
        ++stats.store_uploads;
      }
      instances += analyzed[i - begin].events.size();
      {
        const SpanScope span(log, "core.apply", batch.id(), upload.id);
        analyzers[upload.tenant]->add_analyzed(std::move(analyzed[i - begin]));
      }
      if (std::find(touched.begin(), touched.end(), upload.tenant) ==
          touched.end()) {
        touched.push_back(upload.tenant);
      }
    }
    for (const std::size_t t : touched) {
      const SpanScope span(log, "core.publish", batch.id());
      images[t] = analyzers[t]->publish(/*self_estimate_fraction=*/true);
      ++stats.publishes;
    }
    if (store_stage) {
      const SpanScope span(log, "store.flush", batch.id());
      store.flush();
    }
    ++stats.batches;
  }
  store.close();

  // Renders of the tenants the measured run read, as report(app) renders.
  for (std::size_t r = 0; r < std::min(input.reads.size(), kMaxRenders);
       ++r) {
    const std::size_t t = input.reads[r];
    if (images[t] == nullptr && analyzers[t]->fleet_size() > 0) {
      images[t] = analyzers[t]->publish(/*self_estimate_fraction=*/true);
    }
    if (images[t] == nullptr) continue;
    core::ReportRenderOptions render;
    render.developer_reported_fraction = images[t]->reported_fraction;
    const SpanScope span(log, "core.render");
    const std::string text =
        core::report_to_text(images[t]->report, nullptr, render);
    stats.renders += text.empty() ? 0 : 1;
  }

  // Reopen the scratch store: the read path over what the replay wrote.
  {
    const std::uint32_t span = log.begin("store.open");
    const auto start = Clock::now();
    store::ShardStore reopened = store::ShardStore::open(input.store_dir);
    stats.open_ms = seconds_between(start, Clock::now()) * 1e3;
    log.end(span);
    stats.decode_us = static_cast<double>(reopened.recovery().decode_micros);
    stats.opens = 1;
    reopened.close();
  }
  const std::uint64_t wal_bytes = file_bytes(input.store_dir, "wal-");
  fs::remove_all(input.store_dir);

  stats.uploads = uploads;
  stats.instances_per_upload =
      uploads == 0 ? 0.0
                   : static_cast<double>(instances) /
                         static_cast<double>(uploads);
  stats.wal_bytes_per_upload =
      stats.store_uploads == 0
          ? 0.0
          : static_cast<double>(wal_bytes) /
                static_cast<double>(stats.store_uploads);
  stats.step1_us = log.mean_us("core.step1").first;
  stats.apply_us = log.mean_us("core.apply").first;
  stats.publish_us = log.mean_us("core.publish").first;
  stats.render_us = log.mean_us("core.render").first;
  stats.encode_us = log.mean_us("store.encode").first;
  stats.append_us = log.mean_us("store.append").first;
  stats.flush_us = log.mean_us("store.flush").first;
  return stats;
}

std::vector<Metric> layer_metrics(const ReplayStats& replay,
                                  const ServiceLayer& service) {
  return {
      layer("core.step1_us", "us", replay.step1_us, replay.uploads),
      layer("core.apply_us", "us", replay.apply_us, replay.uploads),
      layer("core.publish_us", "us", replay.publish_us, replay.publishes),
      layer("core.render_us", "us", replay.render_us, replay.renders),
      layer("core.instances_per_upload", "count",
            replay.instances_per_upload, replay.uploads),
      layer("store.encode_us", "us", replay.encode_us, replay.store_uploads),
      layer("store.append_us", "us", replay.append_us, replay.store_uploads),
      layer("store.flush_us", "us", replay.flush_us, replay.batches),
      layer("store.fsyncs_per_batch", "count", service.fsyncs_per_batch),
      layer("store.wal_bytes_per_upload", "bytes",
            replay.wal_bytes_per_upload, replay.store_uploads),
      layer("store.open_ms", "ms", replay.open_ms, replay.opens),
      layer("store.decode_us", "us", replay.decode_us, replay.opens),
      layer("service.submit_us", "us", service.submit_us),
      layer("service.uploads_per_batch", "count", service.uploads_per_batch),
      layer("service.publishes_per_upload", "count",
            service.publishes_per_upload),
      layer("service.snapshot_us", "us", service.snapshot_us),
      layer("service.staleness_p99", "arrivals", service.staleness_p99),
      layer("service.residual_ms", "ms", service.residual_ms),
      layer("bench.gen_late_p99_ms", "ms", service.gen_late_p99_ms),
      layer("bench.trace_overhead_ms", "ms", service.trace_overhead_ms),
  };
}

double stage_residual_ms(double end_to_end_mean_ms,
                         std::span<const Stage> stages,
                         std::vector<std::string>& notes) {
  std::vector<double> means_ms;
  for (const Stage& stage : stages) {
    means_ms.push_back(stage.calls_per_op * stage.per_call_us / 1e3);
    notes.push_back("stage " + stage.name + ": " +
                    format_number(stage.calls_per_op) + " x " +
                    format_number(stage.per_call_us) + " us = " +
                    format_number(means_ms.back()) + " ms per op");
  }
  const double rest = residual(end_to_end_mean_ms, means_ms);
  notes.push_back("end-to-end mean " + format_number(end_to_end_mean_ms) +
                  " ms = stages + residual " + format_number(rest) + " ms");
  return rest;
}

}  // namespace perfbench
