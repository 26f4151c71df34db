// FleetService's equivalence contract: every published snapshot —
// whatever the shard count or writer count — is byte-identical
// (rendered text + JSON) to a single-threaded batch
// ManifestationAnalyzer run over the tenant's applied arrival prefix,
// with per-user last-write-wins on re-uploads.  See
// service/fleet_service.h and DESIGN.md §14; the reader/writer race
// itself is exercised in service_concurrency_test.cpp.
#include "service/fleet_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/pipeline.h"
#include "core/report_io.h"
#include "store/store_root.h"
#include "support/temp_root.h"

namespace edx::service {
namespace {

namespace fs = std::filesystem;

power::UtilizationSample sample(TimestampMs timestamp, double power) {
  power::UtilizationSample s;
  s.timestamp = timestamp;
  s.estimated_app_power_mw = power;
  return s;
}

/// Fig. 6 walkthrough fixture (same construction as
/// fleet_analyzer_test.cpp); `variant` perturbs powers so a re-upload
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

core::AnalysisConfig make_config() {
  core::AnalysisConfig config;
  config.reporting.window_size = 2;
  config.reporting.developer_reported_fraction = 0.25;
  config.num_threads = 1;
  return config;
}

ServiceOptions make_options(std::size_t shards,
                            bool self_estimate = false) {
  ServiceOptions options;
  options.num_shards = shards;
  options.analysis = make_config();
  options.self_estimate_fraction = self_estimate;
  return options;
}

/// Renders a published image exactly as report() does (text + JSON), so
/// tests compare full bytes, not summaries.
std::string render_image(const core::FleetAnalyzer::SnapshotImage& image) {
  core::ReportRenderOptions options;
  options.developer_reported_fraction = image.reported_fraction;
  return core::report_to_text(image.report, nullptr, options) +
         core::report_to_json(image.report, nullptr, options);
}

/// The single-threaded reference: batch-run the arrival sequence with
/// per-user last-write-wins, then render under the same fraction policy
/// the service uses.
std::string batch_reference(std::span<const trace::TraceBundle> arrivals,
                            const core::AnalysisConfig& config,
                            bool self_estimate) {
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
  image.report = result.report;
  image.reported_fraction = config.reporting.developer_reported_fraction;
  if (self_estimate) {
    const double fraction =
        result.report.total_traces == 0
            ? 0.0
            : static_cast<double>(result.report.traces_with_manifestation) /
                  static_cast<double>(result.report.total_traces);
    core::ReportingConfig reporting = config.reporting;
    reporting.developer_reported_fraction = fraction;
    image.reported_fraction = fraction;
    image.report = core::report_problematic_events(result.traces, reporting);
  }
  return render_image(image);
}

TEST(FleetServiceTest, SingleWriterPrefixEquivalenceAcrossShardCounts) {
  std::vector<trace::TraceBundle> arrivals;
  for (UserId user = 0; user < 10; ++user) {
    arrivals.push_back(make_trace(user, /*with_abd=*/user % 3 == 1));
  }
  for (std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FleetService service(make_options(shards));
    service.open("app");
    std::uint64_t last_epoch = 0;
    for (std::size_t n = 0; n < arrivals.size(); ++n) {
      service.submit("app", arrivals[n]);
      service.drain();
      const auto snap = service.snapshot("app");
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(snap->image->arrivals, n + 1);
      EXPECT_EQ(snap->image->fleet_size, n + 1);
      EXPECT_GT(snap->epoch, last_epoch);
      last_epoch = snap->epoch;
      EXPECT_EQ(render_image(*snap->image),
                batch_reference(std::span(arrivals.data(), n + 1),
                                make_config(), /*self_estimate=*/false))
          << "prefix=" << n + 1;
    }
  }
}

TEST(FleetServiceTest, SelfEstimatedFractionMatchesBatchRecipe) {
  std::vector<trace::TraceBundle> arrivals;
  for (UserId user = 0; user < 8; ++user) {
    arrivals.push_back(make_trace(user, /*with_abd=*/user % 4 == 1));
  }
  FleetService service(make_options(2, /*self_estimate=*/true));
  service.submit_batch("app", arrivals);
  service.drain();
  const auto snap = service.snapshot("app");
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->image->reported_fraction, 0.0);
  EXPECT_EQ(render_image(*snap->image),
            batch_reference(arrivals, make_config(), /*self_estimate=*/true));
  // report() renders the same image (text form is the prefix of
  // render_image's text + JSON concatenation).
  EXPECT_TRUE(render_image(*snap->image).starts_with(service.report("app")));
}

TEST(FleetServiceTest, MultiAppConcurrentWritersMatchAppliedOrderBatch) {
  const std::vector<AppKey> apps = {"mail", "maps", "podcast"};
  // Per app: first uploads for 6 users, then re-uploads flipping some of
  // them — the interleaved multi-tenant traffic shape.
  std::vector<std::pair<AppKey, trace::TraceBundle>> stream;
  for (int pass = 0; pass < 2; ++pass) {
    for (UserId user = 0; user < 6; ++user) {
      for (std::size_t a = 0; a < apps.size(); ++a) {
        const bool abd = pass == 0 ? (user + a) % 3 == 0 : (user + a) % 2 == 0;
        stream.emplace_back(apps[a],
                            make_trace(user, abd, /*variant=*/pass * 3 +
                                                      static_cast<int>(a)));
      }
    }
  }
  for (std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    FleetService service(make_options(shards));
    for (const AppKey& app : apps) service.open(app);

    // Two writers split the stream.  Cross-writer interleaving can apply
    // a user's pass-2 re-upload before their pass-1 upload — the contract
    // only promises equivalence to a batch over the order actually
    // applied, which applied_log() records.
    std::mutex ids_mutex;
    std::map<std::uint64_t, const std::pair<AppKey, trace::TraceBundle>*>
        by_id;
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (std::size_t i = w; i < stream.size(); i += 2) {
          const std::uint64_t id =
              service.submit(stream[i].first, stream[i].second);
          std::lock_guard<std::mutex> lock(ids_mutex);
          by_id[id] = &stream[i];
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    service.drain();

    for (const AppKey& app : apps) {
      SCOPED_TRACE("app=" + app);
      std::vector<trace::TraceBundle> applied;
      for (const std::uint64_t id : service.applied_log(app)) {
        const auto* entry = by_id.at(id);
        ASSERT_EQ(entry->first, app);
        applied.push_back(entry->second);
      }
      ASSERT_EQ(applied.size(), stream.size() / apps.size());
      const auto snap = service.snapshot(app);
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(snap->image->arrivals, applied.size());
      EXPECT_EQ(snap->image->fleet_size, 6u);
      EXPECT_EQ(render_image(*snap->image),
                batch_reference(applied, make_config(),
                                /*self_estimate=*/false));
    }
  }
}

TEST(FleetServiceTest, SubmitBatchMatchesPerBundleSubmits) {
  std::vector<trace::TraceBundle> arrivals;
  for (UserId user = 0; user < 7; ++user) {
    arrivals.push_back(make_trace(user, /*with_abd=*/user % 2 == 0));
  }
  FleetService batch_service(make_options(2));
  const std::vector<std::uint64_t> ids =
      batch_service.submit_batch("app", arrivals);
  ASSERT_EQ(ids.size(), arrivals.size());
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
  batch_service.drain();

  FleetService single_service(make_options(2));
  for (const trace::TraceBundle& bundle : arrivals) {
    single_service.submit("app", bundle);
  }
  single_service.drain();

  EXPECT_EQ(render_image(*batch_service.snapshot("app")->image),
            render_image(*single_service.snapshot("app")->image));
}

TEST(FleetServiceTest, SubmitBatchLongerThanTheQueueDoesNotStall) {
  // A batch longer than queue_capacity must wake the worker before it
  // waits for room: the span is queued in order and applied in full.
  ServiceOptions options = make_options(1);
  options.queue_capacity = 3;
  FleetService service(options);
  std::vector<trace::TraceBundle> arrivals;
  for (UserId user = 0; user < 10; ++user) {
    arrivals.push_back(make_trace(user, /*with_abd=*/user % 3 == 0));
  }
  const std::vector<std::uint64_t> ids = service.submit_batch("app", arrivals);
  service.drain();
  EXPECT_EQ(service.applied_log("app"), ids);
  EXPECT_LE(service.stats().queue_peak, 3u);
  EXPECT_EQ(render_image(*service.snapshot("app")->image),
            batch_reference(arrivals, make_config(), /*self_estimate=*/false));
}

TEST(FleetServiceTest, StoreBackedTenantRecoversAndPublishesOnOpen) {
  const std::string root =
      edx::test::temp_root() + "/edx_service_store_recovery";
  fs::remove_all(root);

  std::vector<trace::TraceBundle> first, second;
  for (UserId user = 0; user < 6; ++user) {
    first.push_back(make_trace(user, /*with_abd=*/user % 3 == 0));
  }
  for (UserId user = 6; user < 9; ++user) {
    second.push_back(make_trace(user, /*with_abd=*/user == 7));
  }

  ServiceOptions options = make_options(2);
  options.store_root = root;
  {
    FleetService service(options);
    service.submit_batch("app", first);
    service.drain();
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.per_app.size(), 1u);
    EXPECT_EQ(stats.per_app[0].store_last_seq, first.size());
  }  // destructor drains and joins; the WAL holds all six uploads

  FleetService restarted(options);
  restarted.open("app");
  // Recovery publishes the pre-restart fleet before any new arrival.
  const auto recovered = restarted.snapshot("app");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->image->arrivals, first.size());
  EXPECT_EQ(recovered->image->fleet_size, first.size());
  EXPECT_EQ(render_image(*recovered->image),
            batch_reference(first, make_config(), /*self_estimate=*/false));

  restarted.submit_batch("app", second);
  restarted.drain();
  std::vector<trace::TraceBundle> all = first;
  all.insert(all.end(), second.begin(), second.end());
  EXPECT_EQ(render_image(*restarted.snapshot("app")->image),
            batch_reference(all, make_config(), /*self_estimate=*/false));
  EXPECT_EQ(restarted.stats().per_app[0].store_last_seq, all.size());
}

/// The active WAL of shard `index` under a partitioned root (largest
/// wal-<base>.edx in the shard directory).
std::string shard_active_wal(const std::string& root, std::size_t index) {
  const std::string dir = store::shard_dir(root, index);
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".edx")) {
      found.emplace_back(std::stoull(name.substr(4)), entry.path().string());
    }
  }
  EXPECT_FALSE(found.empty()) << "no WAL segments in " << dir;
  return std::max_element(found.begin(), found.end())->second;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FleetServiceTest, PartitionedRootRestartIsByteIdenticalAcrossShards) {
  const std::vector<AppKey> apps = {"mail", "maps", "podcast"};
  // Two passes so the second is all re-uploads (last-write-wins on disk).
  std::vector<std::pair<AppKey, trace::TraceBundle>> stream;
  for (int pass = 0; pass < 2; ++pass) {
    for (UserId user = 0; user < 5; ++user) {
      for (std::size_t a = 0; a < apps.size(); ++a) {
        const bool abd = (user + a + pass) % 3 == 0;
        stream.emplace_back(apps[a],
                            make_trace(user, abd, /*variant=*/pass * 3 +
                                                      static_cast<int>(a)));
      }
    }
  }
  for (std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string root = edx::test::temp_root() +
                             "/edx_service_partitioned_" +
                             std::to_string(shards);
    fs::remove_all(root);
    ServiceOptions options = make_options(shards);
    options.store_root = root;

    // Session 1: first pass, check prefix equivalence per app, restart.
    std::map<AppKey, std::vector<trace::TraceBundle>> applied;
    {
      FleetService service(options);
      for (std::size_t i = 0; i < stream.size() / 2; ++i) {
        service.submit(stream[i].first, stream[i].second);
        applied[stream[i].first].push_back(stream[i].second);
      }
      service.drain();
      for (const AppKey& app : apps) {
        SCOPED_TRACE("app=" + app);
        EXPECT_EQ(render_image(*service.snapshot(app)->image),
                  batch_reference(applied[app], make_config(),
                                  /*self_estimate=*/false));
      }
      EXPECT_GT(service.stats().store_fsyncs, 0u);
    }
    ASSERT_TRUE(fs::exists(root + "/layout.edx"));

    // Session 2 adopts the pinned shard count (num_shards = 0) and must
    // publish the recovered fleets before any new arrival.
    ServiceOptions adopt = options;
    adopt.num_shards = 0;
    FleetService restarted(adopt);
    EXPECT_EQ(restarted.options().num_shards, shards);
    for (const AppKey& app : apps) {
      SCOPED_TRACE("recovered app=" + app);
      const auto snap = restarted.snapshot(app);
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(snap->image->arrivals, applied[app].size());
      EXPECT_EQ(render_image(*snap->image),
                batch_reference(applied[app], make_config(),
                                /*self_estimate=*/false));
    }
    // Second pass (re-uploads) lands on the restarted service; the final
    // bytes match a never-restarted batch over the full applied order.
    for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
      restarted.submit(stream[i].first, stream[i].second);
      applied[stream[i].first].push_back(stream[i].second);
    }
    restarted.drain();
    for (const AppKey& app : apps) {
      SCOPED_TRACE("final app=" + app);
      EXPECT_EQ(render_image(*restarted.snapshot(app)->image),
                batch_reference(applied[app], make_config(),
                                /*self_estimate=*/false));
    }
  }
}

TEST(FleetServiceTest, GroupCommitCostsOneFsyncPerDrainNotPerTenant) {
  const std::string root = edx::test::temp_root() + "/edx_service_groupcommit";
  fs::remove_all(root);
  ServiceOptions options = make_options(1);
  options.store_root = root;
  // A group window far longer than the test: the only sync trigger is
  // the worker's end-of-batch flush.
  options.store.group_window_us = 60'000'000;

  FleetService service(options);
  const std::uint64_t before = service.stats().store_fsyncs;
  // One submit_batch = one worker batch: it is enqueued under the shard
  // lock in one go, so the drain touches all 3 tenants in one
  // process_batch and must cost exactly ONE fdatasync — the
  // group-commit receipt the partitioned store exists for.
  std::vector<std::pair<AppKey, trace::TraceBundle>> batch;
  for (UserId user = 0; user < 2; ++user) {
    for (const AppKey app : {"mail", "maps", "podcast"}) {
      batch.emplace_back(app, make_trace(user, user % 2 == 0));
    }
  }
  std::map<AppKey, std::vector<trace::TraceBundle>> by_app;
  for (auto& [app, bundle] : batch) by_app[app].push_back(bundle);
  for (auto& [app, bundles] : by_app) service.submit_batch(app, bundles);
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.per_app.size(), 3u);
  // submit_batch is per-app, so up to 3 worker batches ran — but never
  // one sync per touched tenant per batch.
  EXPECT_LE(stats.store_fsyncs - before, 3u);
  EXPECT_GE(stats.store_fsyncs - before, 1u);
}

TEST(FleetServiceTest, TornMixedTenantWalTailRecoversAppliedPrefix) {
  const std::string root = edx::test::temp_root() + "/edx_service_torntail";
  fs::remove_all(root);
  ServiceOptions options = make_options(1);
  options.store_root = root;

  // Alternate two apps with a drain between submits so the shared WAL
  // order is deterministic: mail0, maps0, mail1, maps1, mail2, maps2.
  std::vector<trace::TraceBundle> mail, maps;
  for (UserId user = 0; user < 3; ++user) {
    mail.push_back(make_trace(user, user % 2 == 0, /*variant=*/1));
    maps.push_back(make_trace(user, user % 2 == 1, /*variant=*/2));
  }
  {
    FleetService service(options);
    for (std::size_t i = 0; i < mail.size(); ++i) {
      service.submit("mail", mail[i]);
      service.drain();
      service.submit("maps", maps[i]);
      service.drain();
    }
  }
  // Tear the final record (maps2) mid-frame: a crash mid-write on the
  // tenant-tagged log. mail's fleet is complete, maps loses one upload.
  const std::string wal = shard_active_wal(root, 0);
  const std::string wal_bytes = read_file(wal);
  ASSERT_GT(wal_bytes.size(), 25u);
  write_file(wal, wal_bytes.substr(0, wal_bytes.size() - 25));

  FleetService restarted(options);
  const auto mail_snap = restarted.snapshot("mail");
  ASSERT_NE(mail_snap, nullptr);
  EXPECT_EQ(mail_snap->image->arrivals, 3u);
  EXPECT_EQ(render_image(*mail_snap->image),
            batch_reference(mail, make_config(), /*self_estimate=*/false));
  const auto maps_snap = restarted.snapshot("maps");
  ASSERT_NE(maps_snap, nullptr);
  EXPECT_EQ(maps_snap->image->arrivals, 2u);
  EXPECT_EQ(render_image(*maps_snap->image),
            batch_reference(std::span(maps.data(), 2), make_config(),
                            /*self_estimate=*/false));
}

// Headers of the retired single-tenant formats.  Their contents never
// matter: a complete magic that names another format version is enough
// to be refused.
const std::string kOldSegment = std::string("EDXWAL02") + '\x01';
const std::string kOldSnapshot = std::string("EDXSNAP1") + '\x01' + '\0';

/// Constructing a service over options.store_root must throw the one-line
/// re-ingest Error naming `path`, and leave every file that existed
/// before byte-identical.
void expect_service_refuses(const ServiceOptions& options,
                            const std::string& path) {
  std::map<std::string, std::string> before;
  for (const auto& entry :
       fs::recursive_directory_iterator(options.store_root)) {
    if (entry.is_regular_file()) {
      before[entry.path().string()] = read_file(entry.path().string());
    }
  }
  try {
    FleetService service(options);
    ADD_FAILURE() << "old format under " << options.store_root
                  << " was not refused";
  } catch (const edx::Error& refusal) {
    const std::string message = refusal.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("re-ingest"), std::string::npos) << message;
  }
  for (const auto& [file, bytes] : before) {
    EXPECT_EQ(read_file(file), bytes) << file << " was modified";
  }
}

TEST(FleetServiceTest, LegacyPerTenantRootIsRefusedUntouched) {
  // The retired pre-partition layout: one store directory per tenant.
  // It is refused with a re-ingest error, never migrated.
  const std::string root = edx::test::temp_root() + "/edx_service_legacy";
  fs::remove_all(root);
  for (const std::string tenant : {"mail", "maps"}) {
    fs::create_directories(root + "/" + tenant);
    write_file(root + "/" + tenant + "/wal-1.edx", kOldSegment);
  }
  write_file(root + "/maps/snapshot-1.edx", kOldSnapshot);
  ServiceOptions options = make_options(2);
  options.store_root = root;
  expect_service_refuses(options, root + "/ma");  // mail/ or maps/
  EXPECT_FALSE(fs::exists(root + "/layout.edx"));
}

TEST(FleetServiceTest, OldFormatShardIsRefusedUntouched) {
  // An old single-tenant store sitting where a shard store belongs: the
  // header scan must refuse it, not truncate it to a fresh header.
  const std::string root = edx::test::temp_root() + "/edx_service_oldshard";
  fs::remove_all(root);
  fs::create_directories(store::shard_dir(root, 0));
  write_file(store::shard_dir(root, 0) + "/wal-1.edx", kOldSegment);
  ServiceOptions options = make_options(1);
  options.store_root = root;
  expect_service_refuses(options, store::shard_dir(root, 0) + "/wal-1.edx");

  // Separately: a current root whose shard holds an old-format snapshot.
  const std::string snap_root =
      edx::test::temp_root() + "/edx_service_oldsnap";
  fs::remove_all(snap_root);
  options.store_root = snap_root;
  {
    FleetService service(options);
    service.submit("app", make_trace(0, true));
    service.drain();
  }
  const std::string snapshot =
      store::shard_dir(snap_root, 0) + "/snapshot-1.edx";
  write_file(snapshot, kOldSnapshot);
  expect_service_refuses(options, snapshot);
}

TEST(FleetServiceTest, PartitionedRootRejectsMismatchedShardCount) {
  const std::string root = edx::test::temp_root() + "/edx_service_mismatch";
  fs::remove_all(root);
  ServiceOptions options = make_options(2);
  options.store_root = root;
  { FleetService service(options); }  // pins shard_count = 2

  ServiceOptions wrong = make_options(3);
  wrong.store_root = root;
  EXPECT_THROW(FleetService{wrong}, edx::Error);

  ServiceOptions adopt = make_options(0);
  adopt.store_root = root;
  FleetService adopted(adopt);
  EXPECT_EQ(adopted.options().num_shards, 2u);
}

/// Every file under `dir`, keyed by path, with its bytes.
std::map<std::string, std::string> tree_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().string()] = read_file(entry.path().string());
    }
  }
  return files;
}

/// A 6-shard root whose layout.edx is gone: a count the core-count
/// default (at most 4) can never produce.  Returns each app's report.
std::map<AppKey, std::string> six_shard_root_without_layout(
    const std::string& root) {
  fs::remove_all(root);
  ServiceOptions options = make_options(6);
  options.store_root = root;
  std::map<AppKey, std::string> reports;
  {
    FleetService service(options);
    for (UserId user = 0; user < 3; ++user) {
      for (const AppKey app : {"mail", "maps", "podcast", "notes", "chat"}) {
        service.submit(app, make_trace(user, (user + app.size()) % 2 == 0));
      }
    }
    service.drain();
    for (const AppKey app : {"mail", "maps", "podcast", "notes", "chat"}) {
      reports[app] = render_image(*service.snapshot(app)->image);
    }
  }
  fs::remove(root + "/layout.edx");
  return reports;
}

/// Reopens `root` at num_shards 0: it must adopt 6 shards from the
/// shard-<i> directories, republish every report byte for byte, and then
/// pin the count in a new layout.edx.
void expect_adopts_six_shards(const std::string& root,
                              const std::map<AppKey, std::string>& reports) {
  ServiceOptions adopt = make_options(0);
  adopt.store_root = root;
  FleetService service(adopt);
  EXPECT_EQ(service.options().num_shards, 6u);
  for (const auto& [app, report] : reports) {
    SCOPED_TRACE("app=" + app);
    ASSERT_NE(service.snapshot(app), nullptr);
    EXPECT_EQ(render_image(*service.snapshot(app)->image), report);
  }
  const store::StoreRoot pinned = store::StoreRoot::scan(root);
  EXPECT_TRUE(pinned.has_layout());
  EXPECT_EQ(pinned.shard_count(), 6u);
}

TEST(FleetServiceTest, MissingLayoutAdoptsTheShardDirectoryCount) {
  const std::string root = edx::test::temp_root() + "/edx_service_nolayout";
  expect_adopts_six_shards(root, six_shard_root_without_layout(root));
}

TEST(FleetServiceTest, MissingLayoutRefusesAWrongCountUntouched) {
  // 3 divides 6, so every tenant on shards 0-2 would pass the home-shard
  // check while shards 3-5 went unread: the count the directories imply
  // pins it as a layout.edx would.
  const std::string root =
      edx::test::temp_root() + "/edx_service_nolayout_wrong";
  const std::map<AppKey, std::string> reports =
      six_shard_root_without_layout(root);
  const std::map<std::string, std::string> before = tree_bytes(root);
  ServiceOptions wrong = make_options(3);
  wrong.store_root = root;
  try {
    FleetService service(wrong);
    ADD_FAILURE() << "a 6-shard root opened with 3 shards";
  } catch (const edx::Error& refusal) {
    EXPECT_NE(std::string(refusal.what()).find("6 shard(s)"),
              std::string::npos)
        << refusal.what();
  }
  EXPECT_FALSE(fs::exists(root + "/layout.edx"));
  EXPECT_EQ(tree_bytes(root), before);
  expect_adopts_six_shards(root, reports);
}

TEST(FleetServiceTest, TenantOffItsHomeShardIsRefusedUntouched) {
  // A root where a tenant has records on a shard other than its home
  // shard cannot be replayed in order, so the service refuses it with a
  // re-ingest error and writes nothing: not even the repairs an open of
  // the home shard would make.
  const std::string root = edx::test::temp_root() + "/edx_service_offhome";
  fs::remove_all(root);
  ServiceOptions options = make_options(4);
  options.store_root = root;
  {
    FleetService service(options);
    for (UserId user = 0; user < 4; ++user) {
      service.submit("mail", make_trace(user, user % 2 == 0));
      service.submit("podcast", make_trace(user, user % 2 == 1));
    }
  }
  // "mail" lives on shard 0; give it one record on shard 1 as well, the
  // way a fanned-out writer placed a user's uploads.
  ASSERT_EQ(store::home_shard("mail", 4), 0u);
  {
    store::ShardStore stray =
        store::ShardStore::open(store::shard_dir(root, 1));
    stray.append(stray.ensure_tenant("mail"), make_trace(9, true));
  }
  // A crash left a temp file on shard 0, which a writable open removes.
  write_file(store::shard_dir(root, 0) + "/manifest.edx.tmp", "left");
  const std::map<std::string, std::string> before = tree_bytes(root);

  try {
    FleetService service(options);
    ADD_FAILURE() << "a tenant off its home shard was not refused";
  } catch (const edx::Error& refusal) {
    const std::string message = refusal.what();
    EXPECT_NE(message.find("'mail'"), std::string::npos) << message;
    EXPECT_NE(message.find("on shard-1"), std::string::npos) << message;
    EXPECT_NE(message.find("home shard is shard-0"), std::string::npos)
        << message;
    EXPECT_NE(message.find("re-ingest"), std::string::npos) << message;
  }
  EXPECT_EQ(tree_bytes(root), before);
}

TEST(FleetServiceTest, SingleStoreRootIsRejectedWithClearError) {
  // Store files at the top of the root are the retired single-store
  // layout; the service refuses it untouched.
  const std::string root = edx::test::temp_root() + "/edx_service_singleroot";
  fs::remove_all(root);
  fs::create_directories(root);
  write_file(root + "/wal-1.edx", kOldSegment);
  write_file(root + "/manifest.edx", "EDXMAN01");
  ServiceOptions options = make_options(1);
  options.store_root = root;
  expect_service_refuses(options, root);
  EXPECT_FALSE(fs::exists(root + "/layout.edx"));
}

// The shutdown-ordering satellite: a store writer-thread error raised by
// the FINAL drain must come out of close() (and only be swallowed — with
// a stderr note — by the destructor), never silently dropped.
TEST(FleetServiceTest, CloseSurfacesStoreWriterErrorFromFinalDrain) {
  const std::string root = edx::test::temp_root() + "/edx_service_writererr";
  fs::remove_all(root);
  ServiceOptions options = make_options(1);
  options.store_root = root;
  options.store.segment_target_bytes = 2'000;  // seal on ~every record

  auto service = std::make_unique<FleetService>(options);
  service->submit("app", make_trace(0, true));
  service->drain();
  // Pull the store out from under the writer: the open fd keeps
  // absorbing writes, but sealing (creating the next segment) fails in
  // the store's writer thread during the drain below.
  fs::remove_all(root);
  for (UserId user = 1; user < 8; ++user) {
    service->submit("app", make_trace(user, user % 2 == 0));
  }
  EXPECT_THROW(service->close(), edx::Error);
  service.reset();  // second close() via destructor: idempotent, quiet
}

TEST(FleetServiceTest, SubmitAfterCloseThrows) {
  FleetService service(make_options(2));
  service.submit("app", make_trace(0, true));
  service.close();
  EXPECT_THROW(service.submit("app", make_trace(1, false)), edx::Error);
  const std::vector<trace::TraceBundle> late = {make_trace(1, false)};
  EXPECT_THROW(service.submit_batch("app", late), edx::Error);
}

TEST(FleetServiceTest, ErrorAndEmptyStates) {
  FleetService service(make_options(1));
  EXPECT_THROW(service.snapshot("unknown"), edx::InvalidArgument);
  EXPECT_THROW(service.report("unknown"), edx::InvalidArgument);
  EXPECT_THROW(service.applied_log("unknown"), edx::InvalidArgument);

  service.open("app");
  service.open("app");  // idempotent
  EXPECT_EQ(service.snapshot("app"), nullptr);  // nothing published yet
  EXPECT_THROW(service.report("app"), edx::AnalysisError);

  // submit() auto-opens unknown tenants.
  service.submit("fresh", make_trace(0, true));
  service.drain();
  EXPECT_NE(service.snapshot("fresh"), nullptr);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.apps, 2u);
  EXPECT_EQ(stats.submitted, 1u);
  ASSERT_EQ(stats.per_app.size(), 2u);
  EXPECT_EQ(stats.per_app[0].app, "app");  // sorted by key
  EXPECT_EQ(stats.per_app[1].app, "fresh");
  EXPECT_EQ(stats.per_app[1].submitted, 1u);
  EXPECT_EQ(stats.per_app[1].applied, 1u);
  EXPECT_GE(stats.per_app[1].epoch, 1u);
}

TEST(FleetServiceTest, DefaultsResolveShardsAndNormalizeConfig) {
  ServiceOptions options;  // all defaults but an invalid queue bound
  options.queue_capacity = 0;
  FleetService service(options);  // auto shard count
  EXPECT_GE(service.options().num_shards, 1u);
  EXPECT_LE(service.options().num_shards, 4u);
  EXPECT_EQ(service.options().queue_capacity, 1u);
}

}  // namespace
}  // namespace edx::service
