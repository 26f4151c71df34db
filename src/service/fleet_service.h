// FleetService — the long-running multi-tenant fleet diagnosis server.
//
// The paper's deployment is a service: instrumented phones from many
// apps upload trace bundles continuously, and developers pull the
// current diagnosis report whenever they look at the dashboard.  Until
// now the repo only had the parts — a per-app incremental engine
// (core/fleet_analyzer.h) and the durable store (store/shard_store.h) —
// hand-wired per CLI command.  This facade is the redesigned surface that
// owns them:
//
//   open(app)                 registers a tenant (idempotent); stored
//                             tenants are recovered at construction,
//                             before the first open();
//   submit(app, bundle)       routes the arrival to its ingest shard and
//                             returns a submission id once queued
//                             (backpressure: blocks while the shard
//                             queue is at capacity);
//   submit_batch(app, span)   same, one routing pass for a whole batch;
//   snapshot(app)             the current epoch's immutable
//                             SnapshotImage-backed FleetSnapshot —
//                             lock-free, never blocks on writers;
//   report(app)               renders that snapshot as text or JSON;
//   stats()                   per-app and per-shard ingest counters;
//   drain()                   blocks until every submission made before
//                             the call is applied AND published (the
//                             test/shutdown barrier).
//
// Ingest pipeline (per shard, one worker thread each — the PR-7
// group-commit MPSC idiom lifted from the WAL writer to the analysis
// layer):
//
//   submit -> [bounded MPSC queue] -> worker drains the whole queue as
//   one batch -> Step 1 (the expensive power join) for every queued
//   bundle, fanned across the shard's private ThreadPool -> results
//   applied in queue order to each tenant's FleetAnalyzer under that
//   tenant's apply mutex (and appended, tenant-tagged, to the SHARD's
//   store) -> one epoch publication per touched tenant, fanned across
//   the same pool -> ONE store flush for the whole batch.
//
// Batching is what makes the economics work: N arrivals in a burst cost
// one queue hand-off each but only ONE snapshot recompute per tenant
// and — because the shard's tenants share one ShardStore WAL — ONE
// fdatasync per shard per drain, no matter how many tenants the batch
// touched.  Before the partitioned store each touched tenant paid its
// own fsync, so multi-tenant ingest throughput fell off linearly in
// tenant count; now it is roughly flat.  The per-batch working set
// (Step-1 slots, the touched list, encode buffers inside the store) is
// pooled and reused across batches, so a warmed-up drain loop stays off
// the allocator.
//
// Sharding (service/shard_router.h): an app's arrivals land on its home
// shard — hash(app) mod shards — so per-app arrival order is queue
// order.  Apps listed in ServiceOptions::hot_apps additionally fan out
// across hot_fanout consecutive shards by fleet-key range; a given
// user's re-uploads still serialize on one shard, and cross-user
// interleaving commutes in the report (the fleet is a per-user
// last-write map), so the published snapshot remains byte-identical to
// a single-threaded batch run over the applied order.
//
// Publication (service/epoch.h): workers build each snapshot off to the
// side (FleetAnalyzer::publish) and swap it in with one atomic
// shared_ptr store.  Readers load the pointer and render at leisure —
// zero reader stalls, and writers never wait on readers.
//
// Equivalence contract: every FleetSnapshot a reader ever observes, for
// any shard count and any number of concurrent writers, is
// byte-identical (rendered text and JSON) to a single-threaded batch
// ManifestationAnalyzer run over that tenant's first
// `FleetSnapshot::arrivals` applied uploads — the prefix applied_log()
// records.  tests/service/ holds the suites; DESIGN.md §14 the design.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/fleet_analyzer.h"
#include "service/epoch.h"
#include "service/shard_router.h"
#include "store/shard_store.h"

namespace edx::service {

/// Tenant key: the app's stable identifier (package name, catalog id...).
using AppKey = std::string;

/// How the service runs.  The defaults suit tests and a small host; a
/// real deployment tunes shards/queue depth to core count and burst
/// size.
struct ServiceOptions {
  /// Ingest shards (each with one worker thread).  0 = one per hardware
  /// thread, capped at 4.
  std::size_t num_shards{0};
  /// Threads of each shard's private Step-1 pool.  1 = join inline on
  /// the worker (the default; shard-level parallelism usually
  /// saturates first).
  std::size_t step1_threads{1};
  /// Per-shard queue bound: submit() blocks once a shard holds this
  /// many undrained bundles.  Also bounds snapshot staleness — a reader
  /// can lag the submitted count by at most queue_capacity + one
  /// in-flight batch per shard.
  std::size_t queue_capacity{1024};
  /// Apps in hot_apps fan out across this many consecutive shards by
  /// fleet-key range (see ShardRouter); <= 1 disables fan-out.
  std::size_t hot_fanout{1};
  std::vector<AppKey> hot_apps;
  /// Per-tenant analysis config.  num_threads 0 (the AnalysisConfig
  /// default, "one per core") is overridden to 1: the service
  /// parallelizes across shards, not inside one tenant's snapshot.
  core::AnalysisConfig analysis;
  /// Build reports with the self-estimated impacted fraction (the CLI's
  /// no---reported-fraction behavior).  When false, the fraction in
  /// `analysis.reporting` is used as given.
  bool self_estimate_fraction{true};
  /// When non-empty, the service root of a PARTITIONED store: one
  /// tenant-tagged ShardStore per ingest shard at <store_root>/shard-<i>,
  /// with the shard count pinned by <store_root>/layout.edx.  All
  /// tenants are recovered at construction; a root in an old on-disk
  /// format is refused with an Error, never migrated.  num_shards 0
  /// adopts an existing layout's count; a non-zero num_shards that
  /// contradicts the layout is an error.
  std::string store_root;
  store::StoreOptions store;
};

/// What snapshot(app) hands a reader: one immutable epoch of one
/// tenant's diagnosis.  Everything here is frozen at publication.
struct FleetSnapshot {
  AppKey app;
  /// Publication counter for this tenant (1 = first publish).  Strictly
  /// increasing; arrivals is non-decreasing in it.
  std::uint64_t epoch{0};
  /// The report below equals a batch run over the tenant's first
  /// `image->arrivals` applied uploads.
  std::shared_ptr<const core::FleetAnalyzer::SnapshotImage> image;
};

/// How report(app) renders the current snapshot.
struct ReportOptions {
  bool as_json{false};
  std::size_t max_events{10};
  /// Echoed into the report header (empty = omitted), like the CLI's
  /// --app display name.
  std::string app_name;
};

/// stats() — one row per tenant plus service-wide ingest counters.
struct AppServiceStats {
  AppKey app;
  bool hot{false};
  std::uint64_t submitted{0};   ///< accepted by submit()
  std::uint64_t applied{0};     ///< applied to the analyzer
  std::uint64_t epoch{0};       ///< publications so far
  std::uint64_t published_arrivals{0};  ///< arrivals of the live epoch
  std::size_t fleet_size{0};    ///< distinct users in the live epoch
  /// Shard-store sequence of the tenant's newest durable record (its
  /// home shard's sequence space; the last writing shard's for a hot
  /// app).  0 when the service has no store.
  std::uint64_t store_last_seq{0};
};

struct ServiceStats {
  std::size_t shards{0};
  std::size_t apps{0};
  std::uint64_t submitted{0};
  std::uint64_t batches{0};     ///< worker drains that did work
  std::size_t queue_peak{0};    ///< max bundles seen in any one queue
  /// Total fdatasync calls across every shard store — the group-commit
  /// receipt: bounded by batches x shards, NOT by touched tenants.
  std::uint64_t store_fsyncs{0};
  std::vector<AppServiceStats> per_app;  ///< sorted by app key
};

class FleetService {
 public:
  explicit FleetService(ServiceOptions options = {});
  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;
  /// close() that must not throw: failures are noted on stderr and
  /// swallowed.
  ~FleetService();

  /// Stops accepting, drains every queue (applying and publishing what
  /// was still queued), joins the workers, closes the shard stores, and
  /// rethrows the first worker or store failure — so an error raised
  /// while the final batch commits is surfaced instead of dying with
  /// the worker thread.  Idempotent; submit() after close() throws.
  void close();

  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] const ShardRouter& router() const { return router_; }

  /// Registers `app` (idempotent).  Stored tenants are recovered at
  /// construction — a recovered non-empty fleet publishes its snapshot
  /// immediately, so readers see the pre-restart state before the first
  /// new arrival — making open() on a recovered app a no-op.
  void open(const AppKey& app);

  /// Queues one upload for `app` (auto-opens unknown apps) and returns
  /// its submission id.  Blocks only on shard-queue backpressure.
  /// Thread-safe; arrivals from one thread to one app keep their order.
  std::uint64_t submit(const AppKey& app, const trace::TraceBundle& bundle);

  /// submit() for a whole batch with one routing pass; ids are returned
  /// in `bundles` order and per-user order is preserved.
  std::vector<std::uint64_t> submit_batch(
      const AppKey& app, std::span<const trace::TraceBundle> bundles);

  /// The live epoch for `app`, or nullptr when nothing has been
  /// published yet.  Lock-free with respect to writers: never blocks on
  /// an ingest batch, and the returned snapshot stays valid for as long
  /// as the caller holds it.  Throws InvalidArgument for an unknown app.
  [[nodiscard]] std::shared_ptr<const FleetSnapshot> snapshot(
      const AppKey& app) const;

  /// Renders the live epoch.  Throws AnalysisError when nothing has
  /// been published yet (no arrivals applied).
  [[nodiscard]] std::string report(const AppKey& app,
                                   const ReportOptions& options = {}) const;

  /// Blocks until every submission accepted before the call is applied
  /// and published, then rethrows the first worker failure, if any.
  /// Callers racing drain() with new submit()s get a barrier for their
  /// own prior submissions only.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

  /// One tenant's stats() row without the full-service sweep — the
  /// cheap per-submit/per-read probe the loadgen driver samples
  /// snapshot staleness from.  Throws InvalidArgument for an unknown
  /// app.
  [[nodiscard]] AppServiceStats app_stats(const AppKey& app) const;

  /// The tenant's applied order: submission ids in the order the worker
  /// applied them — the prefix order every published snapshot is
  /// byte-identical to a batch run over.  Meant for equivalence tests
  /// and debugging; take it drained (it copies under the apply lock).
  [[nodiscard]] std::vector<std::uint64_t> applied_log(
      const AppKey& app) const;

 private:
  /// One registered app: analyzer + per-shard store ids + publication
  /// slot.
  struct Tenant;
  /// One ingest lane: queue + worker + private Step-1 pool + the
  /// shard's partition of the store.
  struct Shard;
  /// One queued arrival.
  struct Item;

  Tenant& ensure_tenant(const AppKey& app);
  /// Construction-time store bring-up: opens (or creates) the
  /// partitioned root and warm-starts every stored tenant.
  void open_stores();
  [[nodiscard]] const Tenant* find_tenant(const AppKey& app) const;
  /// Builds one stats row from a tenant's counters (callers hold no
  /// tenant lock; every field loads an atomic or the published epoch).
  [[nodiscard]] static AppServiceStats tenant_row(const AppKey& key,
                                                  const Tenant& tenant);
  /// Builds and swaps in one epoch for `tenant`; apply mutex held.
  void publish_locked(Tenant& tenant);
  void worker_loop(Shard& shard);
  void process_batch(Shard& shard, std::vector<Item>& batch);
  void enqueue(Shard& shard, Tenant& tenant,
               const trace::TraceBundle& bundle, std::uint64_t id);

  ServiceOptions options_;
  ShardRouter router_;

  mutable std::shared_mutex tenants_mutex_;
  /// Values are pointer-stable across rehash (workers hold Tenant*).
  std::unordered_map<AppKey, std::unique_ptr<Tenant>> tenants_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_submission_{1};
};

}  // namespace edx::service
