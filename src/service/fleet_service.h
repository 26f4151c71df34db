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
//   submit(app, bundle)       queues the arrival on the app's home shard
//                             and returns a submission id once queued
//                             (backpressure: blocks while the shard
//                             queue is at capacity);
//   submit_batch(app, span)   same for a whole batch, queued in span
//                             order (submit is a batch of one);
//   snapshot(app)             the current epoch's immutable
//                             SnapshotImage-backed FleetSnapshot —
//                             lock-free, never blocks on writers;
//   report(app)               renders that snapshot as text or JSON;
//   stats()                   per-app and per-shard ingest counters;
//   drain()                   blocks until every submission made before
//                             the call is applied AND published (the
//                             test/shutdown barrier).
//
// Sharding: every app has one home shard, store::home_shard(app, shards) —
// FNV-1a 64 of the key mod the shard count — and all of its uploads go
// there.  Each shard has one worker thread, so the shard count is the
// service's one parallelism knob: tenants on different shards ingest in
// parallel, and one tenant's arrivals apply in its queue order.
//
// Ingest pipeline (per shard — the group-commit MPSC idiom lifted from
// the WAL writer to the analysis layer):
//
//   submit -> [bounded MPSC queue] -> worker drains the whole queue as
//   one batch -> for each bundle in queue order: Step 1 (the power
//   join), then apply to its tenant's FleetAnalyzer under that tenant's
//   apply mutex (and append, tenant-tagged, to the shard's store) ->
//   one epoch publication per touched tenant -> ONE store flush for the
//   whole batch.
//
// Batching is what makes the economics work: N arrivals in a burst cost
// one queue hand-off each but only ONE snapshot recompute per tenant,
// and because the shard's tenants share one ShardStore WAL, the batch's
// durability wait is one flush() however many tenants it touched.  The
// per-batch working set (the touched list, encode buffers inside the
// store) is reused across batches.
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
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/fleet_analyzer.h"
#include "service/epoch.h"
#include "store/store_root.h"

namespace edx::service {

/// Tenant key: the app's stable identifier (package name, catalog id...).
using AppKey = std::string;

/// How the service runs.  The defaults suit tests and a small host; a
/// real deployment tunes shards/queue depth to core count and burst
/// size.
struct ServiceOptions {
  /// Ingest shards, each with one worker thread — the service's one
  /// parallelism knob.  0 = one per hardware thread, capped at 4.
  std::size_t num_shards{0};
  /// Per-shard queue bound: submit() blocks once a shard holds this
  /// many undrained bundles.  Also bounds snapshot staleness — a reader
  /// can lag the submitted count by at most queue_capacity + one
  /// in-flight batch per shard.
  std::size_t queue_capacity{1024};
  /// Per-tenant analysis config.  Its num_threads is unused: each
  /// tenant's FleetAnalyzer runs on its home shard's worker thread, and
  /// the service parallelizes across shards.
  core::AnalysisConfig analysis;
  /// Build reports with the self-estimated impacted fraction (the CLI's
  /// no---reported-fraction behavior).  When false, the fraction in
  /// `analysis.reporting` is used as given.
  bool self_estimate_fraction{true};
  /// When non-empty, a store root (store/store_root.h): one ShardStore
  /// per ingest shard.  The constructor opens it as every command does
  /// (a read-only scan of every shard, the checks, then the repairs) and
  /// recovers every tenant; a refused root throws an Error before any
  /// file changes.  num_shards 0 adopts the root's count, and any other
  /// count must equal it.
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
  std::uint64_t submitted{0};   ///< accepted by submit()
  std::uint64_t applied{0};     ///< applied to the analyzer
  std::uint64_t epoch{0};       ///< publications so far
  std::uint64_t published_arrivals{0};  ///< arrivals of the live epoch
  std::size_t fleet_size{0};    ///< distinct users in the live epoch
  /// Shard-store sequence of the tenant's newest durable record, in its
  /// home shard's sequence space.  0 when the service has no store.
  std::uint64_t store_last_seq{0};
};

struct ServiceStats {
  std::size_t shards{0};
  std::size_t apps{0};
  std::uint64_t submitted{0};
  std::uint64_t batches{0};     ///< worker drains that did work
  std::size_t queue_peak{0};    ///< max bundles seen in any one queue
  /// Total fdatasync calls across every shard store.  Each store's WAL
  /// writer syncs per drain of its own queue (kAlways), per group window
  /// (kGroup) and per segment seal, so one service batch whose appends
  /// reach the writer in several drains costs several syncs.  The count
  /// does not grow with the tenants a batch touches.
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

  /// Registers `app` (idempotent).  Stored tenants are recovered at
  /// construction — a recovered non-empty fleet publishes its snapshot
  /// immediately, so readers see the pre-restart state before the first
  /// new arrival — making open() on a recovered app a no-op.
  void open(const AppKey& app);

  /// Queues one upload for `app` (auto-opens unknown apps) and returns
  /// its submission id.  Blocks only on shard-queue backpressure.
  /// Thread-safe; arrivals from one thread to one app keep their order.
  std::uint64_t submit(const AppKey& app, const trace::TraceBundle& bundle);

  /// submit() for a whole batch: the bundles are queued in span order
  /// and their ids are returned in that order.
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
  /// One registered app: home shard + analyzer + store id + publication
  /// slot.
  struct Tenant;
  /// One ingest shard: queue + worker + the shard's partition of the
  /// store.
  struct Shard;
  /// One queued arrival.
  struct Item;

  Tenant& ensure_tenant(const AppKey& app);
  [[nodiscard]] const Tenant* find_tenant(const AppKey& app) const;
  /// Builds one stats row from a tenant's counters (callers hold no
  /// tenant lock; every field loads an atomic or the published epoch).
  [[nodiscard]] static AppServiceStats tenant_row(const AppKey& key,
                                                  const Tenant& tenant);
  /// Builds and swaps in one epoch for `tenant`; apply mutex held.
  void publish_locked(Tenant& tenant);
  void worker_loop(Shard& shard);
  void process_batch(Shard& shard, std::vector<Item>& batch);

  ServiceOptions options_;

  mutable std::shared_mutex tenants_mutex_;
  /// Values are pointer-stable across rehash (workers hold Tenant*).
  std::unordered_map<AppKey, std::unique_ptr<Tenant>> tenants_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> next_submission_{1};
};

}  // namespace edx::service
