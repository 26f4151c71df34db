// Readers racing writers: N reader threads pull snapshots/reports while
// M writer threads submit interleaved re-uploads across three apps.
// Every snapshot a reader ever observes must be byte-identical to a
// single-threaded batch run over that tenant's first `arrivals` applied
// uploads — the applied_log() prefix.  Sized to stay fast under TSan
// (the CI race-detector job runs this suite); the sibling
// fleet_service_test.cpp covers the sequential contract.
#include "service/fleet_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "core/report_io.h"
#include "support/temp_root.h"

namespace edx::service {
namespace {

power::UtilizationSample sample(TimestampMs timestamp, double power) {
  power::UtilizationSample s;
  s.timestamp = timestamp;
  s.estimated_app_power_mw = power;
  return s;
}

/// Same Fig. 6 fixture as fleet_service_test.cpp.
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

std::string render_image(const core::FleetAnalyzer::SnapshotImage& image) {
  core::ReportRenderOptions options;
  options.developer_reported_fraction = image.reported_fraction;
  return core::report_to_text(image.report, nullptr, options) +
         core::report_to_json(image.report, nullptr, options);
}

/// Batch reference over an arrival prefix with per-user last-write-wins.
std::string batch_reference(std::span<const trace::TraceBundle> arrivals) {
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
  const core::ManifestationAnalyzer analyzer(make_config());
  const core::AnalysisResult result = analyzer.run(latest);
  core::ReportRenderOptions options;
  options.developer_reported_fraction = 0.25;
  return core::report_to_text(result.report, nullptr, options) +
         core::report_to_json(result.report, nullptr, options);
}

/// What a reader saw: one epoch of one app, with the full rendered bytes.
struct Observation {
  std::string app;
  std::uint64_t epoch{0};
  std::uint64_t arrivals{0};
  std::string rendered;
};

TEST(ServiceConcurrencyTest, ReadersObserveOnlyBatchEquivalentSnapshots) {
  const std::vector<AppKey> apps = {"mail", "maps", "podcast"};
  const std::size_t kWriters = 2;
  const std::size_t kReaders = 2;

  // Per app: 5 users x 3 passes (passes 2-3 are re-uploads), interleaved
  // across apps so every batch mixes tenants.
  std::vector<std::pair<AppKey, trace::TraceBundle>> stream;
  for (int pass = 0; pass < 3; ++pass) {
    for (UserId user = 0; user < 5; ++user) {
      for (std::size_t a = 0; a < apps.size(); ++a) {
        stream.emplace_back(
            apps[a],
            make_trace(user, (user + pass + static_cast<int>(a)) % 2 == 0,
                       /*variant=*/pass * 7 + static_cast<int>(a)));
      }
    }
  }

  for (std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServiceOptions options;
    options.num_shards = shards;
    options.analysis = make_config();
    options.self_estimate_fraction = false;
    FleetService service(options);
    for (const AppKey& app : apps) service.open(app);

    std::mutex ids_mutex;
    std::map<std::uint64_t, const trace::TraceBundle*> bundle_of;

    std::atomic<bool> stop{false};
    std::vector<std::vector<Observation>> observed(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        std::map<std::string, std::uint64_t> last_epoch;
        while (!stop.load(std::memory_order_acquire)) {
          for (const AppKey& app : apps) {
            const auto snap = service.snapshot(app);
            if (snap == nullptr) continue;
            // Epochs move forward only, arrivals with them.
            EXPECT_GE(snap->epoch, last_epoch[app]);
            last_epoch[app] = snap->epoch;
            observed[r].push_back(Observation{app, snap->epoch,
                                              snap->image->arrivals,
                                              render_image(*snap->image)});
          }
        }
      });
    }

    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (std::size_t i = w; i < stream.size(); i += kWriters) {
          const std::uint64_t id =
              service.submit(stream[i].first, stream[i].second);
          std::lock_guard<std::mutex> lock(ids_mutex);
          bundle_of[id] = &stream[i].second;
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    service.drain();
    stop.store(true, std::memory_order_release);
    for (std::thread& reader : readers) reader.join();
    // One deterministic post-drain pull so every app has at least one
    // observation even if the scheduler starved the reader threads.
    for (const AppKey& app : apps) {
      const auto snap = service.snapshot(app);
      ASSERT_NE(snap, nullptr);
      observed[0].push_back(Observation{app, snap->epoch,
                                        snap->image->arrivals,
                                        render_image(*snap->image)});
    }

    for (const AppKey& app : apps) {
      SCOPED_TRACE("app=" + app);
      // Reconstruct the applied arrival order once per app...
      std::vector<trace::TraceBundle> applied;
      for (const std::uint64_t id : service.applied_log(app)) {
        applied.push_back(*bundle_of.at(id));
      }
      ASSERT_EQ(applied.size(), stream.size() / apps.size());

      // ...then check every distinct observed epoch against the batch
      // reference over its prefix (cache per arrivals count — several
      // observations usually share an epoch).
      std::map<std::uint64_t, std::string> reference_cache;
      std::set<std::uint64_t> epochs_seen;
      for (const std::vector<Observation>& lane : observed) {
        for (const Observation& obs : lane) {
          if (obs.app != app) continue;
          ASSERT_GE(obs.arrivals, 1u);
          ASSERT_LE(obs.arrivals, applied.size());
          auto [it, fresh] = reference_cache.try_emplace(obs.arrivals);
          if (fresh) {
            it->second = batch_reference(
                std::span(applied.data(), obs.arrivals));
          }
          EXPECT_EQ(obs.rendered, it->second)
              << "epoch=" << obs.epoch << " arrivals=" << obs.arrivals;
          epochs_seen.insert(obs.epoch);
        }
      }
      // The drained final state must match the full stream too.
      const auto final_snap = service.snapshot(app);
      ASSERT_NE(final_snap, nullptr);
      EXPECT_EQ(final_snap->image->arrivals, applied.size());
      EXPECT_EQ(render_image(*final_snap->image), batch_reference(applied));
      EXPECT_FALSE(epochs_seen.empty());
    }
  }
}

TEST(ServiceConcurrencyTest, ConcurrentReportsAndStatsStayCoherent) {
  // report() and stats() under writer load: no torn reads, counters
  // monotone, and the drained totals add up.
  ServiceOptions options;
  options.num_shards = 2;
  options.analysis = make_config();
  options.self_estimate_fraction = false;
  FleetService service(options);
  service.open("app");

  std::vector<trace::TraceBundle> arrivals;
  for (int pass = 0; pass < 4; ++pass) {
    for (UserId user = 0; user < 6; ++user) {
      arrivals.push_back(make_trace(user, (user + pass) % 2 == 0, pass));
    }
  }

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last_applied = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ServiceStats stats = service.stats();
      for (const AppServiceStats& row : stats.per_app) {
        // (applied vs published_arrivals is deliberately not compared:
        // the two atomics are sampled independently, so a publication
        // landing between the loads can make published read ahead.)
        EXPECT_GE(row.applied, last_applied);
        last_applied = row.applied;
      }
      if (service.snapshot("app") != nullptr) {
        EXPECT_FALSE(service.report("app").empty());
        ReportOptions json;
        json.as_json = true;
        EXPECT_FALSE(service.report("app", json).empty());
      }
    }
  });

  std::thread writer([&] {
    for (const trace::TraceBundle& bundle : arrivals) {
      service.submit("app", bundle);
    }
  });
  writer.join();
  service.drain();
  stop.store(true, std::memory_order_release);
  reader.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, arrivals.size());
  ASSERT_EQ(stats.per_app.size(), 1u);
  EXPECT_EQ(stats.per_app[0].applied, arrivals.size());
  EXPECT_EQ(stats.per_app[0].published_arrivals, arrivals.size());
  EXPECT_EQ(stats.per_app[0].fleet_size, 6u);
}

TEST(ServiceConcurrencyTest, StoreBackedParallelPublishMatchesBatch) {
  // The partitioned-store drain loop: concurrent writers feed tenants
  // that share ShardStores while each shard's worker publishes the
  // tenants it touched and readers race snapshot pulls — the TSan target
  // for the group-commit + publish path.  Restarting afterwards must
  // reproduce the exact final bytes from the WAL.
  namespace fs = std::filesystem;
  const std::vector<AppKey> apps = {"mail", "maps", "podcast"};
  std::vector<std::pair<AppKey, trace::TraceBundle>> stream;
  for (int pass = 0; pass < 2; ++pass) {
    for (UserId user = 0; user < 4; ++user) {
      for (std::size_t a = 0; a < apps.size(); ++a) {
        stream.emplace_back(
            apps[a],
            make_trace(user, (user + pass + static_cast<int>(a)) % 2 == 0,
                       /*variant=*/pass * 5 + static_cast<int>(a)));
      }
    }
  }

  for (std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string root = edx::test::temp_root() +
                             "/edx_concurrency_store_" +
                             std::to_string(shards);
    fs::remove_all(root);
    ServiceOptions options;
    options.num_shards = shards;
    options.analysis = make_config();
    options.self_estimate_fraction = false;
    options.store_root = root;

    std::map<AppKey, std::string> final_bytes;
    {
      FleetService service(options);
      for (const AppKey& app : apps) service.open(app);

      std::mutex ids_mutex;
      std::map<std::uint64_t, const trace::TraceBundle*> bundle_of;
      std::atomic<bool> stop{false};
      std::thread reader([&] {
        std::map<std::string, std::uint64_t> last_epoch;
        while (!stop.load(std::memory_order_acquire)) {
          for (const AppKey& app : apps) {
            const auto snap = service.snapshot(app);
            if (snap == nullptr) continue;
            EXPECT_GE(snap->epoch, last_epoch[app]);
            last_epoch[app] = snap->epoch;
          }
        }
      });
      std::vector<std::thread> writers;
      for (std::size_t w = 0; w < 2; ++w) {
        writers.emplace_back([&, w] {
          for (std::size_t i = w; i < stream.size(); i += 2) {
            const std::uint64_t id =
                service.submit(stream[i].first, stream[i].second);
            std::lock_guard<std::mutex> lock(ids_mutex);
            bundle_of[id] = &stream[i].second;
          }
        });
      }
      for (std::thread& writer : writers) writer.join();
      service.drain();
      stop.store(true, std::memory_order_release);
      reader.join();

      for (const AppKey& app : apps) {
        SCOPED_TRACE("app=" + app);
        std::vector<trace::TraceBundle> applied;
        for (const std::uint64_t id : service.applied_log(app)) {
          applied.push_back(*bundle_of.at(id));
        }
        ASSERT_EQ(applied.size(), stream.size() / apps.size());
        const auto snap = service.snapshot(app);
        ASSERT_NE(snap, nullptr);
        final_bytes[app] = render_image(*snap->image);
        EXPECT_EQ(final_bytes[app], batch_reference(applied));
      }
      EXPECT_GT(service.stats().store_fsyncs, 0u);
      service.close();  // any store writer error must surface here
    }

    // The tenant-tagged WAL replays to the exact same published bytes.
    ServiceOptions reopen = options;
    reopen.num_shards = 0;  // adopt the pinned layout
    FleetService restarted(reopen);
    for (const AppKey& app : apps) {
      SCOPED_TRACE("recovered app=" + app);
      const auto snap = restarted.snapshot(app);
      ASSERT_NE(snap, nullptr);
      EXPECT_EQ(render_image(*snap->image), final_bytes[app]);
    }
  }
}

}  // namespace
}  // namespace edx::service
