#include "service/fleet_service.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "core/event_power.h"
#include "core/report_io.h"

namespace edx::service {

namespace fs = std::filesystem;

namespace {

/// Shard count resolution order: an existing partitioned layout pins it
/// (records route by key hash, so reopening with a different count would
/// silently split tenants across shards); otherwise the explicit request;
/// otherwise one per hardware thread, capped at 4.
std::size_t resolve_shards(const ServiceOptions& options) {
  const std::size_t requested = options.num_shards;
  if (!options.store_root.empty()) {
    if (const std::optional<store::PartitionedLayout> layout =
            store::read_layout(options.store_root)) {
      if (requested != 0 && requested != layout->shard_count) {
        throw Error("FleetService: store root '" + options.store_root +
                    "' is partitioned for " +
                    std::to_string(layout->shard_count) +
                    " shard(s) but " + std::to_string(requested) +
                    " were requested; reopen with the stored count (or 0)");
      }
      return layout->shard_count;
    }
  }
  if (requested != 0) return requested;
  const std::size_t hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

}  // namespace

/// One registered app.  The apply mutex serializes everything that
/// mutates tenant state — analyzer arrivals, the applied log, store
/// sequence tracking, and epoch publication — so a hot app fanned over
/// several shards still applies and publishes one arrival at a time.
/// Readers never take it: they go through the Published slot.
struct FleetService::Tenant {
  explicit Tenant(core::AnalysisConfig config) : analyzer(std::move(config)) {}

  AppKey key;
  bool hot{false};
  mutable std::mutex apply_mutex;
  core::FleetAnalyzer analyzer;
  /// This tenant's id in each shard's store, kInvalidTenant until its
  /// first record lands there.  Slot `s` is only touched by shard s's
  /// worker (and by single-threaded recovery), so no extra lock.
  std::vector<store::TenantId> store_ids;
  /// Submission ids in applied order — the arrival prefix every
  /// published snapshot is equivalent to a batch run over.
  std::vector<std::uint64_t> applied_log;

  // Counters readable without the apply mutex (written under it, or
  // under a shard lock for `submitted`).
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> applied{0};
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> published_arrivals{0};
  std::atomic<std::uint64_t> store_seq{0};

  Published<FleetSnapshot> published;
};

/// One queued arrival.  The bundle is copied at submit() — the caller's
/// buffer may die immediately after — and moved through Step 1.
struct FleetService::Item {
  Tenant* tenant{nullptr};
  std::uint64_t id{0};
  trace::TraceBundle bundle;
};

/// One ingest lane: a bounded MPSC queue drained whole by a dedicated
/// worker (the WAL writer's group-commit shape at the analysis layer),
/// plus this shard's partition of the durable store.
struct FleetService::Shard {
  std::size_t index{0};
  std::mutex mutex;
  std::condition_variable arrived;  ///< worker wake-up
  std::condition_variable room;     ///< producers waiting for queue room
  std::condition_variable idle;     ///< drain() waiting for quiescence
  std::deque<Item> queue;
  bool busy{false};  ///< a drained batch is being processed
  bool stop{false};
  std::exception_ptr error;
  std::uint64_t batches{0};
  std::size_t queue_peak{0};
  /// Private Step-1 pool: ThreadPool's run_batch state is per-pool, so
  /// concurrent shard workers must not share one.  Also fans out the
  /// per-tenant epoch publications at the end of each batch.
  std::optional<common::ThreadPool> step1_pool;
  /// All tenants routed here share this store: one WAL, one writer, one
  /// group-commit fdatasync per drained batch.  Null without store_root.
  std::unique_ptr<store::ShardStore> store;
  /// Batch scratch, worker-private and reused across batches — together
  /// with the store's pooled encode buffers this keeps a warmed-up
  /// drain loop off the allocator.
  std::vector<core::AnalyzedTrace> scratch_analyzed;  ///< Step-1 slots
  std::vector<Tenant*> scratch_touched;
  std::thread worker;
};

FleetService::FleetService(ServiceOptions options)
    : options_(std::move(options)),
      router_(resolve_shards(options_), options_.hot_fanout) {
  options_.num_shards = router_.num_shards();
  options_.hot_fanout = router_.hot_fanout();
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.analysis.num_threads == 0) {
    // AnalysisConfig's 0 means "one thread per core" — right for one
    // batch run, wrong for a service that already parallelizes across
    // shards and would otherwise spawn a full pool per tenant.
    options_.analysis.num_threads = 1;
  }

  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& shard = *shards_.back();
    shard.index = s;
    if (common::ThreadPool::resolve_threads(options_.step1_threads) > 1) {
      shard.step1_pool.emplace(options_.step1_threads);
    }
  }
  // Stores open (and recovery runs) before any worker starts: every
  // stored tenant is warm and published when the constructor returns.
  if (!options_.store_root.empty()) open_stores();
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard& ref = *shard;
    ref.worker = std::thread([this, &ref] { worker_loop(ref); });
  }
}

FleetService::~FleetService() {
  try {
    close();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "FleetService: error during shutdown: %s\n",
                 error.what());
  } catch (...) {
    std::fprintf(stderr, "FleetService: unknown error during shutdown\n");
  }
}

void FleetService::close() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->stop = true;
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->arrived.notify_all();
    shard->room.notify_all();  // blocked producers re-check stop and throw
  }
  // Workers drain whatever is still queued (applying and publishing it)
  // before exiting, so close() is also a graceful flush.
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Surface what the shutdown found, worker failures first: a worker
  // error from the final drain used to die with the thread here.
  std::exception_ptr failure;
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    if (shard->error != nullptr && failure == nullptr) {
      failure = std::exchange(shard->error, nullptr);
    }
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->store == nullptr) continue;
    try {
      shard->store->close();  // rethrows the store writer's first error
    } catch (...) {
      if (failure == nullptr) failure = std::current_exception();
    }
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

void FleetService::open_stores() {
  const std::string& root = options_.store_root;
  store::inspect_root(root);  // refuses a root in an old format
  fs::create_directories(root);
  // Layout first, stores second: a crash in between leaves a valid
  // (empty-shard) partitioned root.
  if (!store::read_layout(root)) store::write_layout(root, shards_.size());
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->store.reset(new store::ShardStore(store::ShardStore::open(
        store::shard_dir(root, shard->index), options_.store)));
  }

  // Warm-start every stored tenant: snapshotted slots re-enter through
  // their stored Step-1 state (no power join), the WAL tail through the
  // normal arrival path — so the recovered analyzer state matches a
  // never-restarted run byte for byte.  Shard order then tenant-id
  // order; a hot tenant spanning shards merges per-user streams, which
  // commutes in the report.
  for (std::unique_ptr<Shard>& shard_ptr : shards_) {
    store::ShardStore& shard_store = *shard_ptr->store;
    for (const store::TenantInfo& stored : shard_store.tenants()) {
      Tenant& tenant = ensure_tenant(stored.key);
      tenant.store_ids[shard_ptr->index] = stored.id;
      std::lock_guard apply_lock(tenant.apply_mutex);
      for (core::AnalyzedTrace& analyzed :
           shard_store.snapshot_step1(stored.id)) {
        tenant.analyzer.add_analyzed(std::move(analyzed));
      }
      for (const store::BundleRef& bundle :
           shard_store.tail_refs(stored.id)) {
        tenant.analyzer.add_bundle(*bundle);
      }
      tenant.store_seq.store(
          std::max(tenant.store_seq.load(std::memory_order_relaxed),
                   stored.last_seq),
          std::memory_order_relaxed);
    }
  }
  for (auto& [key, tenant] : tenants_) {
    const std::uint64_t recovered = tenant->analyzer.arrivals();
    if (recovered == 0) continue;
    // Recovered uploads count as already submitted and applied, so the
    // submitted/applied/published counters stay comparable.
    tenant->submitted.store(recovered, std::memory_order_relaxed);
    tenant->applied.store(recovered, std::memory_order_relaxed);
    if (tenant->analyzer.fleet_size() > 0) {
      std::lock_guard apply_lock(tenant->apply_mutex);
      publish_locked(*tenant);
    }
  }
}

FleetService::Tenant& FleetService::ensure_tenant(const AppKey& app) {
  require(!app.empty(), "FleetService: app key must be non-empty");
  {
    std::shared_lock lock(tenants_mutex_);
    const auto it = tenants_.find(app);
    if (it != tenants_.end()) return *it->second;
  }
  std::unique_lock lock(tenants_mutex_);
  const auto it = tenants_.find(app);
  if (it != tenants_.end()) return *it->second;

  auto tenant = std::make_unique<Tenant>(options_.analysis);
  tenant->key = app;
  tenant->hot = std::find(options_.hot_apps.begin(), options_.hot_apps.end(),
                          app) != options_.hot_apps.end();
  tenant->store_ids.assign(shards_.size(), store::kInvalidTenant);
  return *tenants_.emplace(app, std::move(tenant)).first->second;
}

const FleetService::Tenant* FleetService::find_tenant(
    const AppKey& app) const {
  std::shared_lock lock(tenants_mutex_);
  const auto it = tenants_.find(app);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void FleetService::open(const AppKey& app) { ensure_tenant(app); }

void FleetService::enqueue(Shard& shard, Tenant& tenant,
                           const trace::TraceBundle& bundle,
                           std::uint64_t id) {
  {
    std::unique_lock lock(shard.mutex);
    shard.room.wait(lock, [&] {
      return shard.stop || shard.queue.size() < options_.queue_capacity;
    });
    require(!shard.stop, "FleetService: submit after close()");
    tenant.submitted.fetch_add(1, std::memory_order_relaxed);
    shard.queue.push_back(Item{&tenant, id, bundle});
    shard.queue_peak = std::max(shard.queue_peak, shard.queue.size());
  }
  shard.arrived.notify_one();
}

std::uint64_t FleetService::submit(const AppKey& app,
                                   const trace::TraceBundle& bundle) {
  Tenant& tenant = ensure_tenant(app);
  const std::size_t shard_index =
      router_.route(app, bundle.fleet_key(), tenant.hot);
  const std::uint64_t id =
      next_submission_.fetch_add(1, std::memory_order_relaxed);
  enqueue(*shards_[shard_index], tenant, bundle, id);
  return id;
}

std::vector<std::uint64_t> FleetService::submit_batch(
    const AppKey& app, std::span<const trace::TraceBundle> bundles) {
  Tenant& tenant = ensure_tenant(app);
  std::vector<std::uint64_t> ids(bundles.size(), 0);
  // One routing pass, then one lock acquisition per touched shard.  A
  // user's bundles always land in the same bucket (same key -> same
  // shard), and a bucket preserves span order, so per-user order holds.
  std::vector<std::vector<std::size_t>> buckets(shards_.size());
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    buckets[router_.route(app, bundles[i].fleet_key(), tenant.hot)]
        .push_back(i);
  }
  for (std::size_t s = 0; s < buckets.size(); ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    {
      std::unique_lock lock(shard.mutex);
      for (const std::size_t i : buckets[s]) {
        shard.room.wait(lock, [&] {
          return shard.stop || shard.queue.size() < options_.queue_capacity;
        });
        require(!shard.stop, "FleetService: submit after close()");
        ids[i] = next_submission_.fetch_add(1, std::memory_order_relaxed);
        tenant.submitted.fetch_add(1, std::memory_order_relaxed);
        shard.queue.push_back(Item{&tenant, ids[i], bundles[i]});
        shard.queue_peak = std::max(shard.queue_peak, shard.queue.size());
      }
    }
    shard.arrived.notify_one();
  }
  return ids;
}

void FleetService::worker_loop(Shard& shard) {
  std::vector<Item> batch;
  for (;;) {
    {
      std::unique_lock lock(shard.mutex);
      shard.busy = false;
      shard.idle.notify_all();
      shard.arrived.wait(lock,
                         [&] { return shard.stop || !shard.queue.empty(); });
      if (shard.queue.empty()) return;  // stop requested, queue drained
      batch.clear();
      while (!shard.queue.empty()) {
        batch.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      shard.busy = true;
      ++shard.batches;
    }
    shard.room.notify_all();
    try {
      process_batch(shard, batch);
    } catch (...) {
      std::lock_guard lock(shard.mutex);
      if (!shard.error) shard.error = std::current_exception();
    }
  }
}

void FleetService::process_batch(Shard& shard, std::vector<Item>& batch) {
  // Step 1 — the expensive per-trace power join — for the whole batch,
  // fanned across the shard's private pool.  Results are slot-indexed,
  // so the parallel join commits in exactly the queue order below.
  std::vector<core::AnalyzedTrace>& analyzed = shard.scratch_analyzed;
  analyzed.clear();
  analyzed.resize(batch.size());
  const auto join = [&](std::size_t i) {
    analyzed[i] = core::estimate_event_power(batch[i].bundle);
  };
  if (shard.step1_pool.has_value() && batch.size() > 1) {
    shard.step1_pool->parallel_for(0, batch.size(), join);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) join(i);
  }

  // Apply in queue order under each tenant's apply mutex: analyzer
  // arrival, applied-log entry, and the shard store's group-commit
  // queue move together, so the durable order equals the applied order.
  std::vector<Tenant*>& touched = shard.scratch_touched;
  touched.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Item& item = batch[i];
    Tenant& tenant = *item.tenant;
    {
      std::lock_guard lock(tenant.apply_mutex);
      if (shard.store != nullptr) {
        store::TenantId& id = tenant.store_ids[shard.index];
        if (id == store::kInvalidTenant) {
          id = shard.store->ensure_tenant(tenant.key);
        }
        const std::uint64_t seq = shard.store->append_async(id, item.bundle);
        tenant.store_seq.store(seq, std::memory_order_relaxed);
      }
      tenant.analyzer.add_analyzed(std::move(analyzed[i]));
      tenant.applied_log.push_back(item.id);
      tenant.applied.store(tenant.analyzer.arrivals(),
                           std::memory_order_relaxed);
    }
    if (std::find(touched.begin(), touched.end(), &tenant) == touched.end()) {
      touched.push_back(&tenant);
    }
  }

  // One epoch publication per touched tenant, fanned across the shard's
  // pool — the snapshot recompute is the serial tail of a multi-tenant
  // drain once the fsync below is shared.  Each publish still runs
  // under its tenant's apply mutex, so epochs stay monotone even for a
  // hot tenant two shards publish concurrently.
  const auto publish_one = [&](std::size_t t) {
    Tenant& tenant = *touched[t];
    std::lock_guard lock(tenant.apply_mutex);
    publish_locked(tenant);
  };
  if (shard.step1_pool.has_value() && touched.size() > 1) {
    shard.step1_pool->parallel_for(0, touched.size(), publish_one);
  } else {
    for (std::size_t t = 0; t < touched.size(); ++t) publish_one(t);
  }

  // ONE durability sync for the whole batch — every touched tenant's
  // records share this shard's WAL, so a K-tenant batch costs one
  // fdatasync, not K.  (flush runs outside every apply mutex: appliers
  // on other shards are not held up by this shard's fsync.)
  if (shard.store != nullptr) shard.store->flush();
}

void FleetService::publish_locked(Tenant& tenant) {
  auto snapshot = std::make_shared<FleetSnapshot>();
  snapshot->app = tenant.key;
  snapshot->image = tenant.analyzer.publish(options_.self_estimate_fraction);
  snapshot->epoch = tenant.epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  tenant.published_arrivals.store(snapshot->image->arrivals,
                                  std::memory_order_relaxed);
  tenant.published.store(std::move(snapshot));
}

std::shared_ptr<const FleetSnapshot> FleetService::snapshot(
    const AppKey& app) const {
  const Tenant* tenant = find_tenant(app);
  require(tenant != nullptr, "FleetService: unknown app '" + app +
                                 "' (open() or submit() it first)");
  return tenant->published.load();
}

std::string FleetService::report(const AppKey& app,
                                 const ReportOptions& options) const {
  const std::shared_ptr<const FleetSnapshot> snap = snapshot(app);
  if (snap == nullptr) {
    throw AnalysisError("FleetService: no published snapshot for app '" +
                        app + "' yet");
  }
  core::ReportRenderOptions render;
  render.max_events = options.max_events;
  render.developer_reported_fraction = snap->image->reported_fraction;
  render.app_name = options.app_name;
  return options.as_json
             ? core::report_to_json(snap->image->report, nullptr, render)
             : core::report_to_text(snap->image->report, nullptr, render);
}

void FleetService::drain() {
  std::exception_ptr failure;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock lock(shard.mutex);
    shard.idle.wait(lock, [&] { return shard.queue.empty() && !shard.busy; });
    if (shard.error != nullptr && failure == nullptr) {
      failure = std::exchange(shard.error, nullptr);
    }
  }
  if (failure != nullptr) std::rethrow_exception(failure);
}

ServiceStats FleetService::stats() const {
  ServiceStats stats;
  stats.shards = shards_.size();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    stats.batches += shard->batches;
    stats.queue_peak = std::max(stats.queue_peak, shard->queue_peak);
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->store != nullptr) {
      stats.store_fsyncs += shard->store->fsync_count();
    }
  }
  std::shared_lock lock(tenants_mutex_);
  stats.apps = tenants_.size();
  stats.per_app.reserve(tenants_.size());
  for (const auto& [key, tenant] : tenants_) {
    AppServiceStats row = tenant_row(key, *tenant);
    stats.submitted += row.submitted;
    stats.per_app.push_back(std::move(row));
  }
  std::sort(stats.per_app.begin(), stats.per_app.end(),
            [](const AppServiceStats& a, const AppServiceStats& b) {
              return a.app < b.app;
            });
  return stats;
}

AppServiceStats FleetService::tenant_row(const AppKey& key,
                                         const Tenant& tenant) {
  AppServiceStats row;
  row.app = key;
  row.hot = tenant.hot;
  row.submitted = tenant.submitted.load(std::memory_order_relaxed);
  row.applied = tenant.applied.load(std::memory_order_relaxed);
  row.epoch = tenant.epoch.load(std::memory_order_relaxed);
  row.published_arrivals =
      tenant.published_arrivals.load(std::memory_order_relaxed);
  if (const auto snap = tenant.published.load()) {
    row.fleet_size = snap->image->fleet_size;
  }
  row.store_last_seq = tenant.store_seq.load(std::memory_order_relaxed);
  return row;
}

AppServiceStats FleetService::app_stats(const AppKey& app) const {
  const Tenant* tenant = find_tenant(app);
  require(tenant != nullptr, "FleetService: unknown app '" + app + "'");
  return tenant_row(app, *tenant);
}

std::vector<std::uint64_t> FleetService::applied_log(
    const AppKey& app) const {
  const Tenant* tenant = find_tenant(app);
  require(tenant != nullptr,
          "FleetService: unknown app '" + app + "'");
  std::lock_guard lock(tenant->apply_mutex);
  return tenant->applied_log;
}

}  // namespace edx::service
