// Durable, restart-safe storage for the trace fleets of many tenants: one
// shard of a store root.
//
// The paper's deployment is a long-running service: phones upload trace
// bundles opportunistically and the server re-diagnoses each app's
// growing fleet (core/fleet_analyzer.h).  The store lets that service
// restart, or crash, without losing a fleet.  Every tenant routed to a
// shard shares ONE log, ONE writer thread, and ONE group-commit
// fdatasync per drained batch; frames carry a tenant tag so recovery fans
// the records back out to per-tenant fleets.
//
//   append()        encodes the bundle (store/codec.h), adds it to the
//                   tenant's tail, queues it for the writer, and returns
//                   once the covering sync completed; append_async()
//                   returns once queued and flush() makes everything
//                   durable.  The writer packs each drained batch into
//                   one write(2) and syncs once: kAlways after every
//                   batch, kGroup after group_window_us, kNone never.
//   compact_async() folds every tenant's tail as of last_seq() into its
//                   Step-1 slots on a background thread (Step 1 runs for
//                   the tail records only), writes them as a snapshot,
//                   then deletes the sealed segments it subsumes and all
//                   but the two newest snapshots.  Appends keep flowing.
//   open()          loads the newest valid snapshot and replays the WAL
//                   over it: sealed segments decode in parallel and merge
//                   in sequence order; replay stops at the first record
//                   whose frame is torn or fails its CRC32C, and at the
//                   first sequence gap.
//
// A tenant's state is Step 1's output for each user the snapshot covers
// (snapshot_step1(), first-arrival slot order) plus the bundles appended
// since (tail_refs(), arrival order).  Re-uploads honor
// TraceBundle::fleet_key(): compaction folds a tail record into its
// user's slot, the same replace-not-duplicate rule FleetAnalyzer applies,
// so feeding snapshot_step1() and then tail_refs() to the analyzer
// reproduces the never-restarted report.  A snapshot keeps no utilization
// samples: once compacted, an upload cannot be re-run through Step 1.
//
// On-disk layout inside the shard directory:
//   wal-<base>.edx      one WAL segment; header "EDXWAL03" + varint base
//                       (the first sequence the segment may hold;
//                       sequences are per-shard, shared by all tenants).
//                       Records:
//                         varint frame_len | frame | u32le crc32c(frame)
//                         frame := u8 kind | varint tenant_id |
//                                  varint seq | [string key] | payload
//                         kind 1: payload = codec bundle record
//                         kind 2: payload = varint raw_len |
//                                 common::block_compress(bundle record)
//                         kind 3/4: as 1/2, but a `string key` precedes
//                                 the payload: the tenant's first-ever
//                                 record, so the id->key map rebuilds from
//                                 the log itself.
//                       The segment with the largest base is the active
//                       tail; at segment_target_bytes the writer fsyncs
//                       and seals it.  Salvage-and-truncate repair applies
//                       only to the active tail; a torn sealed segment
//                       stops replay but is never modified.
//   manifest.edx        "EDXMAN01" + varint payload_len + payload + u32le
//                       crc32c(payload); payload := varint snapshot_seq,
//                       varint sealed_count x (varint base + varint
//                       last_seq), varint active_base.  Advisory: the
//                       directory scan is authoritative.
//   snapshot-<seq>.edx  "EDXSNP3" + varint payload_len + payload + u32le
//                         crc32c(payload)
//                         payload := varint seq
//                                    varint tenant_count
//                                    tenant_count x tenant section,
//                                      ascending tenant id:
//                                      varint tenant_id | string key |
//                                      varint name_count + names |
//                                      varint slot_count x slot
//                         slot := zigzag user | varint event_count x
//                                 (varint name_index | zigzag begin delta
//                                  | zigzag length | f64 raw_power)
//                       A slot is one user's Step-1 trace: its events in
//                       trace order, each begin a delta from the previous
//                       event's, raw powers as exact IEEE-754 bits.
//                       Every registered tenant appears, even with an
//                       empty fleet, so the id->key map survives the
//                       deletion of the sealed segments that carried the
//                       kind-3/4 records.  Tenant ids are never reassigned.
//
// A segment or snapshot whose complete magic names another EDX format
// version is refused: open() throws before it changes any file.  Old
// formats are never migrated or repaired; their traces must be re-ingested.
//
// Replay that stops anywhere but in the torn end of the active segment
// (a torn sealed segment, a sequence gap, a tenant-key conflict, a record
// of an unregistered tenant) leaves the store read-only: open() repairs
// nothing and writes no manifest, reads work, and append(), append_async()
// and compact_async() throw an Error naming the reason, so no upload is
// acknowledged that the next open would not replay.
//
// Thread safety: append()/append_async()/flush() from any threads, one
// background compaction; per-tenant read accessors need a quiesced store.
// close() (also run by the destructor) stops the writer and RETHROWS any
// writer-thread failure, so an error raised while a service drains its
// final batch is never swallowed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/analysis_types.h"
#include "store/store_types.h"
#include "trace/recorder.h"

namespace edx::store {

/// Dense per-shard tenant handle.  Ids are assigned in registration order,
/// persisted in the WAL/snapshot, and never reused.
using TenantId = std::uint32_t;
inline constexpr TenantId kInvalidTenant = ~TenantId{0};

/// Read-side summary of one tenant (tenants() accessor).
struct TenantInfo {
  TenantId id{kInvalidTenant};
  std::string key;
  std::size_t fleet_size{0};
  std::size_t tail_size{0};
  std::uint64_t last_seq{0};  ///< shard seq of the tenant's newest record
};

// ---------------------------------------------------------------------
// Partitioned-root layout (a directory of shard stores)
// ---------------------------------------------------------------------

/// layout.edx pins the shard count of a partitioned store root: records
/// route to shards by key hash, so reopening with a different count would
/// silently split tenants across shards.  "EDXLAY01" + varint payload_len
/// + payload(varint shard_count) + u32le crc32c(payload).
struct PartitionedLayout {
  std::size_t shard_count{0};
};

/// Subdirectory holding shard `index` of a partitioned root.
std::string shard_dir(const std::string& root, std::size_t index);

/// Reads root/layout.edx.  nullopt when the file is missing; throws Error
/// when it exists but is corrupt (the shard count cannot be guessed).
std::optional<PartitionedLayout> read_layout(const std::string& root);

/// Publishes root/layout.edx (temp + fsync + rename).
void write_layout(const std::string& root, std::size_t shard_count);

/// What a store root on disk actually is.
enum class RootKind {
  kMissing,      ///< directory does not exist
  kEmpty,        ///< exists, nothing store-like inside
  kPartitioned,  ///< layout.edx and/or shard-<i>/ subdirectories
};

struct RootInfo {
  RootKind kind{RootKind::kMissing};
  std::size_t shard_count{0};  ///< kPartitioned only
};

/// Classifies `root` without opening any store.  Store files at the top
/// level, or in a subdirectory not named shard-<i>, are an old format:
/// throws Error naming the path and asking for a re-ingest.
RootInfo inspect_root(const std::string& root);

// ---------------------------------------------------------------------
// ShardStore
// ---------------------------------------------------------------------

class ShardStore {
 public:
  static ShardStore open(const std::string& directory);
  static ShardStore open(const std::string& directory,
                         const StoreOptions& options);

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;
  ShardStore(ShardStore&&) = delete;
  ShardStore& operator=(ShardStore&&) = delete;
  ~ShardStore();

  /// Flushes nothing, stops the writer thread, and rethrows the first
  /// writer or compaction failure — so errors raised by the final batch
  /// are surfaced, not swallowed.  Idempotent; the store is unusable
  /// afterwards.  The destructor calls it and swallows (with a stderr
  /// note) because destructors must not throw.
  void close();

  [[nodiscard]] const std::string& directory() const { return directory_; }
  [[nodiscard]] const StoreOptions& options() const { return options_; }
  [[nodiscard]] const RecoveryStats& recovery() const { return recovery_; }

  /// Registers `key` (idempotent) and returns its permanent id.  The key
  /// itself is persisted inline with the tenant's first record (kind 3/4)
  /// and in every snapshot; registering without ever appending leaves no
  /// trace on disk.
  TenantId ensure_tenant(const std::string& key);
  [[nodiscard]] std::optional<TenantId> find_tenant(
      const std::string& key) const;
  [[nodiscard]] std::size_t tenant_count() const;
  [[nodiscard]] const std::string& tenant_key(TenantId id) const;
  /// All tenants, ascending id.
  [[nodiscard]] std::vector<TenantInfo> tenants() const;

  // Per-tenant reads (quiesced store).  snapshot_step1(): a copy of Step
  // 1's output for each user the snapshot covers, first-arrival slot
  // order.  tail_refs(): bundles appended after that snapshot, in arrival
  // order (zero-copy).
  [[nodiscard]] std::vector<core::AnalyzedTrace> snapshot_step1(
      TenantId id) const;
  [[nodiscard]] const std::vector<BundleRef>& tail_refs(TenantId id) const;
  [[nodiscard]] std::uint64_t tenant_last_seq(TenantId id) const;

  /// Durably appends one upload for `id` (blocks for the covering sync).
  /// Returns the record's shard-wide sequence number.
  std::uint64_t append(TenantId id, const trace::TraceBundle& bundle);
  /// Queues without waiting for durability; pair with flush().
  std::uint64_t append_async(TenantId id, const trace::TraceBundle& bundle);
  /// Blocks until every queued record is durable under the fsync policy.
  void flush();

  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }
  [[nodiscard]] std::uint64_t snapshot_seq() const { return snapshot_seq_; }
  /// Total fdatasync/fsync calls issued by the writer thread so far — the
  /// group-commit receipt: one batch touching K tenants bumps this once.
  [[nodiscard]] std::uint64_t fsync_count() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }

  /// Folds every tenant's tail as of last_seq() into its slots and writes
  /// them as one snapshot, on a background thread.
  bool compact_async();
  void wait_for_compaction();
  void compact();
  [[nodiscard]] bool compaction_running() const;

 private:
  /// Per-tenant fleet state; id-indexed in a deque for stable references
  /// across concurrent ensure_tenant calls.
  struct Tenant {
    std::string key;
    bool key_persisted{false};  ///< a kind-3/4 or snapshot record holds it
    std::uint64_t last_seq{0};
    /// Step 1's output (user + events) per snapshotted user, slot order;
    /// written only by open() and compaction.
    std::vector<core::AnalyzedTrace> slots;
    /// Every user the slots or the tail hold (tenants()' fleet_size).
    std::unordered_set<UserId> users;
    std::vector<BundleRef> tail;  ///< every record after the snapshot
  };

  /// One queued, already-encoded WAL record.  `kind` is final (includes
  /// the +2 inline-key variant); the key bytes are fetched from the
  /// tenant at write time (immutable once registered).
  struct Pending {
    std::uint64_t seq{0};
    TenantId tenant{kInvalidTenant};
    std::uint8_t kind{0};
    std::string payload;
  };

  struct SealedSegment {
    std::uint64_t base_seq{0};
    std::uint64_t last_seq{0};
    std::string path;
  };

  struct Recovered;
  explicit ShardStore(Recovered&& state);

  Tenant& tenant_ref(TenantId id);
  const Tenant& tenant_ref(TenantId id) const;

  std::uint64_t enqueue(TenantId id, const trace::TraceBundle& bundle,
                        bool durable);
  void writer_loop();
  void drain_queue_locked(std::vector<Pending>& batch);
  void write_batch(std::vector<Pending>& batch);
  void seal_active_segment(std::uint64_t next_base);
  void sync_active_segment();
  void write_manifest();
  /// Returns a pooled encode buffer (cleared, capacity retained) or a
  /// fresh string; the writer recycles batch payloads after write(2).
  std::string take_pooled_payload();
  void recycle_payloads(std::vector<Pending>& batch);

  void run_compaction(
      std::uint64_t cut,
      std::vector<std::pair<TenantId, std::vector<BundleRef>>> tails);
  /// Throws when recovery left the store read-only.
  void require_writable(const char* operation) const;

  // --- immutable after open() -----------------------------------------
  std::string directory_;
  StoreOptions options_;
  RecoveryStats recovery_;

  // --- tenant / fleet state (mutex_ when racing appends) ---------------
  std::uint64_t last_seq_{0};
  std::uint64_t snapshot_seq_{0};
  std::deque<Tenant> tenants_;  ///< id-indexed, reference-stable
  std::unordered_map<std::string, TenantId> tenant_by_key_;
  mutable std::shared_mutex tenant_mutex_;  ///< guards the two above

  // --- writer / group commit ------------------------------------------
  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable room_cv_;
  std::condition_variable durable_cv_;
  std::condition_variable compact_cv_;
  std::deque<Pending> queue_;
  std::size_t queue_bytes_{0};
  std::uint64_t durable_seq_{0};
  bool flush_requested_{false};
  bool stop_{false};
  bool closed_{false};
  std::exception_ptr writer_error_;
  std::thread writer_;
  std::atomic<std::uint64_t> fsyncs_{0};

  /// Pooled encode buffers: producers take, the writer gives back after
  /// the batch hits write(2) — per-batch allocation churn goes away once
  /// the pool warms up.
  std::mutex pool_mutex_;
  std::vector<std::string> payload_pool_;

  std::vector<SealedSegment> sealed_segments_;

  // Writer-thread-private active segment state (active_base_ also read
  // under mutex_ by write_manifest).
  int active_fd_{-1};
  std::uint64_t active_base_{1};
  std::uint64_t active_last_seq_{0};
  std::size_t active_bytes_{0};
  std::uint64_t written_seq_{0};
  bool active_dirty_{false};
  std::string write_buffer_;  ///< writer-private, reused across batches

  // --- background compaction ------------------------------------------
  bool compaction_running_{false};
  std::exception_ptr compaction_error_;
  std::thread compaction_thread_;

  std::mutex manifest_mutex_;
};

}  // namespace edx::store
