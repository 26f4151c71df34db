#include "service/fleet_service.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/error.h"
#include "core/event_power.h"
#include "core/report_io.h"

namespace edx::service {

namespace {

/// The shard count without a store root, and for a new one: the request,
/// or one per hardware thread, capped at 4.
std::size_t resolve_shards(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware, 1, 4);
}

}  // namespace

/// One registered app.  Only its home shard's worker (and
/// single-threaded recovery) mutates it; the apply mutex is held while
/// it does, so applied_log() readers and publication see whole
/// arrivals.  Snapshot readers never take it: they go through the
/// Published slot.
struct FleetService::Tenant {
  explicit Tenant(core::AnalysisConfig config) : analyzer(std::move(config)) {}

  AppKey key;
  std::size_t shard{0};  ///< home shard index
  mutable std::mutex apply_mutex;
  core::FleetAnalyzer analyzer;
  /// The tenant's id in its home shard's store, kInvalidTenant until its
  /// first record lands there.
  store::TenantId store_id{store::kInvalidTenant};
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

/// One queued arrival.  The bundle is copied at submit(), before the
/// shard lock is taken — the caller's buffer may die immediately after.
struct FleetService::Item {
  Tenant* tenant{nullptr};
  std::uint64_t id{0};
  trace::TraceBundle bundle;
};

/// One ingest shard: a bounded MPSC queue drained whole by a dedicated
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
  /// Every tenant homed here shares this store: one WAL, one writer, one
  /// flush() per drained batch.  Null without store_root.
  std::unique_ptr<store::ShardStore> store;
  /// Tenants the current batch touched; worker-private, reused across
  /// batches.
  std::vector<Tenant*> scratch_touched;
  std::thread worker;
};

FleetService::FleetService(ServiceOptions options)
    : options_(std::move(options)) {
  // A store root pins the shard count, and opens (scan, check, repair)
  // before any worker starts: every stored tenant is warm and published
  // when the constructor returns.
  const std::size_t fresh = resolve_shards(options_.num_shards);
  std::vector<std::unique_ptr<store::ShardStore>> stores;
  if (!options_.store_root.empty()) {
    stores = store::StoreRoot::scan(options_.store_root, options_.store,
                                    options_.num_shards, fresh)
                 .open();
  }
  options_.num_shards = stores.empty() ? fresh : stores.size();
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;

  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->index = s;
    if (!stores.empty()) shards_.back()->store = std::move(stores[s]);
  }
  if (!stores.empty()) {
    // Snapshotted slots re-enter through their stored Step-1 state (no
    // power join), the WAL tail through the normal arrival path — so the
    // recovered analyzer state matches a never-restarted run byte for byte.
    for (std::unique_ptr<Shard>& shard : shards_) {
      store::ShardStore& shard_store = *shard->store;
      for (const store::TenantInfo& stored : shard_store.tenants()) {
        Tenant& tenant = ensure_tenant(stored.key);
        tenant.store_id = stored.id;
        std::lock_guard apply_lock(tenant.apply_mutex);
        for (core::AnalyzedTrace& analyzed :
             shard_store.snapshot_step1(stored.id)) {
          tenant.analyzer.add_analyzed(std::move(analyzed));
        }
        for (const store::BundleRef& bundle :
             shard_store.tail_refs(stored.id)) {
          tenant.analyzer.add_bundle(*bundle);
        }
        tenant.store_seq.store(stored.last_seq, std::memory_order_relaxed);
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
  tenant->shard = store::home_shard(app, shards_.size());
  return *tenants_.emplace(app, std::move(tenant)).first->second;
}

const FleetService::Tenant* FleetService::find_tenant(
    const AppKey& app) const {
  std::shared_lock lock(tenants_mutex_);
  const auto it = tenants_.find(app);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void FleetService::open(const AppKey& app) { ensure_tenant(app); }

std::uint64_t FleetService::submit(const AppKey& app,
                                   const trace::TraceBundle& bundle) {
  return submit_batch(app, std::span(&bundle, 1)).front();
}

std::vector<std::uint64_t> FleetService::submit_batch(
    const AppKey& app, std::span<const trace::TraceBundle> bundles) {
  Tenant& tenant = ensure_tenant(app);
  Shard& shard = *shards_[tenant.shard];
  // Copy the uploads before taking the shard lock: the worker needs that
  // lock to drain the queue.  Under it, only wait for room, assign ids
  // and move the items in, in span order.
  std::vector<Item> items;
  items.reserve(bundles.size());
  for (const trace::TraceBundle& bundle : bundles) {
    items.push_back(Item{&tenant, 0, bundle});
  }
  std::vector<std::uint64_t> ids(items.size(), 0);
  {
    std::unique_lock lock(shard.mutex);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (shard.queue.size() >= options_.queue_capacity) {
        // A batch longer than the free room must wake the worker before
        // waiting for it, or both would wait on each other.
        shard.arrived.notify_one();
        shard.room.wait(lock, [&] {
          return shard.stop || shard.queue.size() < options_.queue_capacity;
        });
      }
      require(!shard.stop, "FleetService: submit after close()");
      ids[i] = next_submission_.fetch_add(1, std::memory_order_relaxed);
      items[i].id = ids[i];
      tenant.submitted.fetch_add(1, std::memory_order_relaxed);
      shard.queue.push_back(std::move(items[i]));
      shard.queue_peak = std::max(shard.queue_peak, shard.queue.size());
    }
  }
  shard.arrived.notify_one();
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
  // In queue order: Step 1 (the power join) outside every lock, then the
  // analyzer arrival, applied-log entry and store append together under
  // the tenant's apply mutex, so the durable order equals the applied
  // order.
  std::vector<Tenant*>& touched = shard.scratch_touched;
  touched.clear();
  for (Item& item : batch) {
    Tenant& tenant = *item.tenant;
    core::AnalyzedTrace analyzed = core::estimate_event_power(item.bundle);
    {
      std::lock_guard lock(tenant.apply_mutex);
      if (shard.store != nullptr) {
        if (tenant.store_id == store::kInvalidTenant) {
          tenant.store_id = shard.store->ensure_tenant(tenant.key);
        }
        tenant.store_seq.store(
            shard.store->append_async(tenant.store_id, item.bundle),
            std::memory_order_relaxed);
      }
      tenant.analyzer.add_analyzed(std::move(analyzed));
      tenant.applied_log.push_back(item.id);
      tenant.applied.store(tenant.analyzer.arrivals(),
                           std::memory_order_relaxed);
    }
    if (std::find(touched.begin(), touched.end(), &tenant) == touched.end()) {
      touched.push_back(&tenant);
    }
  }

  // One epoch publication per touched tenant, not per arrival.
  for (Tenant* tenant : touched) {
    std::lock_guard lock(tenant->apply_mutex);
    publish_locked(*tenant);
  }

  // ONE flush for the whole batch: every touched tenant's records share
  // this shard's WAL.  It runs outside every apply mutex, so
  // applied_log() readers do not wait on the disk.
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
