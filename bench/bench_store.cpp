// Microbenchmarks (google-benchmark) for the durable store, one tenant in
// one ShardStore (the shape of `ingest --store`).  Not a paper figure —
// harness health:
//
//   BM_StoreIngest/<bundles>/<policy>/<events>
//       group-commit ingest throughput (append_async + one flush) under
//       fsync policy 0=none, 1=group(500us), 2=always; items/sec =
//       bundles/sec.  <events> scales the bundle payload (~66 bytes per
//       utilization sample, 2 samples per event).
//   BM_StoreRecover/<segments>/<threads>
//       cold open() of a multi-segment store: segment decode (parallel on
//       <threads>) + sequential merge.  The segment axis is forced by
//       sizing segment_target_bytes to the fixture.
//   BM_StoreRecoverReport/<bundles>/<warm>
//       restart-to-first-report: open + analyzer load + first snapshot,
//       cold (WAL replay + full Step 1) vs warm (snapshot's stored
//       Step-1 state via FleetAnalyzer::add_analyzed).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/fleet_analyzer.h"
#include "store/shard_store.h"
#include "trace/recorder.h"

namespace {

using namespace edx;
namespace fs = std::filesystem;

/// The single tenant every fixture stores, as `ingest --store` does.
constexpr char kTenant[] = "default";

std::vector<trace::TraceBundle> synthetic_bundles(int traces, int events,
                                                  std::uint64_t seed = 7) {
  std::vector<trace::TraceBundle> bundles;
  Rng rng(seed);
  for (int user = 0; user < traces; ++user) {
    trace::TraceBundle bundle;
    bundle.user = user;
    bundle.device_name = "Nexus 6";
    std::vector<power::UtilizationSample> samples;
    for (int i = 0; i < events; ++i) {
      const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
      bundle.events.add_instance("E" + std::to_string(i % 12),
                                 {t + 10, t + 40});
      power::UtilizationSample sample;
      sample.timestamp = t + 500;
      sample.estimated_app_power_mw =
          user == 0 && i > events / 2 ? 500.0 : 100.0 + rng.uniform(0, 5.0);
      samples.push_back(sample);
      sample.timestamp = t + 1000;
      samples.push_back(sample);
    }
    bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
    bundles.push_back(std::move(bundle));
  }
  return bundles;
}

std::string bench_dir(const std::string& leaf) {
  return (fs::temp_directory_path() / ("edx_bench_store_" + leaf)).string();
}

store::StoreOptions policy_options(std::int64_t policy) {
  store::StoreOptions options;
  switch (policy) {
    case 0: options.fsync_policy = store::FsyncPolicy::kNone; break;
    case 2: options.fsync_policy = store::FsyncPolicy::kAlways; break;
    default: options.fsync_policy = store::FsyncPolicy::kGroup; break;
  }
  return options;
}

/// Group-commit ingest: queue every upload, then one flush makes the
/// whole batch durable.  items/sec = bundles/sec.
void BM_StoreIngest(benchmark::State& state) {
  const auto bundles = synthetic_bundles(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(2)));
  const store::StoreOptions options = policy_options(state.range(1));
  const std::string dir = bench_dir("ingest");
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    store::ShardStore shard_store = store::ShardStore::open(dir, options);
    const store::TenantId id = shard_store.ensure_tenant(kTenant);
    for (const trace::TraceBundle& bundle : bundles) {
      shard_store.append_async(id, bundle);
    }
    shard_store.flush();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
// Policy comparison at the heavy bundle shape (~13 KB encoded), plus the
// throughput configuration perf_smoke gates (light ~3 KB uploads, group).
BENCHMARK(BM_StoreIngest)
    ->ArgsProduct({{256}, {0, 1, 2}, {100}})
    ->Args({1024, 1, 24});

/// Cold open() of a store whose WAL spans `segments` files: parallel
/// segment decode on `threads` + the deterministic sequential merge.
void BM_StoreRecover(benchmark::State& state) {
  const auto segments = static_cast<std::size_t>(state.range(0));
  constexpr int kBundles = 128;
  const auto bundles = synthetic_bundles(kBundles, /*events=*/100);
  const std::string dir =
      bench_dir("recover_seg" + std::to_string(segments));
  fs::remove_all(dir);
  store::StoreOptions build;
  {
    // Size segments so the fixture spans the requested file count.
    store::ShardStore probe = store::ShardStore::open(dir);
    probe.append(probe.ensure_tenant(kTenant), bundles[0]);
    build.segment_target_bytes =
        std::max<std::size_t>(64, fs::file_size(dir + "/wal-1.edx") *
                                      kBundles / segments);
  }
  fs::remove_all(dir);
  {
    store::ShardStore shard_store = store::ShardStore::open(dir, build);
    const store::TenantId id = shard_store.ensure_tenant(kTenant);
    for (const trace::TraceBundle& bundle : bundles) {
      shard_store.append_async(id, bundle);
    }
    shard_store.flush();
  }
  store::StoreOptions recover;
  recover.segment_target_bytes = build.segment_target_bytes;
  recover.recovery_threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    const store::ShardStore recovered = store::ShardStore::open(dir, recover);
    benchmark::DoNotOptimize(recovered.last_seq());
  }
  state.SetItemsProcessed(state.iterations() * kBundles);
  fs::remove_all(dir);
}
BENCHMARK(BM_StoreRecover)->ArgsProduct({{1, 8}, {1, 2, 8}});

/// Restart-to-first-report.  range(1) == 0: WAL only — replay re-decodes
/// every record and Step 1 re-runs the full power join.  range(1) == 1:
/// the fleet was compacted — snapshot_step1() feeds the analyzer the
/// stored Step-1 results and the power join is skipped entirely.
void BM_StoreRecoverReport(benchmark::State& state) {
  const bool with_snapshot = state.range(1) != 0;
  const auto bundles = synthetic_bundles(static_cast<int>(state.range(0)),
                                         /*events=*/100);
  const std::string dir =
      bench_dir("report" + std::to_string(state.range(0)) +
                (with_snapshot ? "s" : "w"));
  fs::remove_all(dir);
  {
    store::ShardStore shard_store = store::ShardStore::open(dir);
    const store::TenantId id = shard_store.ensure_tenant(kTenant);
    for (const trace::TraceBundle& bundle : bundles) {
      shard_store.append_async(id, bundle);
    }
    shard_store.flush();
    if (with_snapshot) shard_store.compact();
  }

  core::AnalysisConfig config;
  config.num_threads = 1;
  for (auto _ : state) {
    const store::ShardStore recovered = store::ShardStore::open(dir);
    const store::TenantId id = recovered.tenant(kTenant)->id;
    core::FleetAnalyzer fleet(config);
    std::vector<core::AnalyzedTrace> warm = recovered.snapshot_step1(id);
    for (core::AnalyzedTrace& analyzed : warm) {
      fleet.add_analyzed(std::move(analyzed));
    }
    for (const store::BundleRef& bundle : recovered.tail_refs(id)) {
      fleet.add_bundle(*bundle);
    }
    benchmark::DoNotOptimize(fleet.snapshot());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  fs::remove_all(dir);
}
BENCHMARK(BM_StoreRecoverReport)->ArgsProduct({{50, 200}, {0, 1}});

}  // namespace

BENCHMARK_MAIN();
