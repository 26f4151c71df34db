// The durable store's value types (store/shard_store.h): the bundle
// handle, the fsync policy knobs, and the recovery report scan() fills in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/recorder.h"

namespace edx::store {

/// One decoded upload, held exactly once and shared between the tail and
/// a compaction's cut (a full TraceBundle copy is ~10 heap allocations —
/// sharing is what keeps the append hot path alloc-light).  The pointee
/// is immutable.
using BundleRef = std::shared_ptr<const trace::TraceBundle>;

/// When the writer thread syncs a batch to stable storage.
enum class FsyncPolicy {
  kAlways,  ///< one fdatasync per drained batch
  kGroup,   ///< collect arrivals up to group_window_us, then one fdatasync
  kNone,    ///< never sync (process-kill durable only, like PR-4 append)
};

struct StoreOptions {
  FsyncPolicy fsync_policy{FsyncPolicy::kGroup};
  /// How long a kGroup batch keeps absorbing arrivals before its sync.
  std::uint32_t group_window_us{500};
  /// A segment reaching this size is sealed and the next one opened.
  std::size_t segment_target_bytes{8u << 20};
  /// Threads for a scan's shards and segments; 0 = hardware.
  std::size_t recovery_threads{0};
};

/// Per-segment recovery diagnostics, in base-sequence order.
struct SegmentStats {
  std::string file;          ///< filename, e.g. "wal-1.edx"
  std::uint64_t base_seq{0};
  std::uint64_t last_seq{0}; ///< last valid record's seq (base-1 if none)
  std::size_t records{0};    ///< valid records decoded
  std::size_t bytes{0};      ///< bytes that parsed cleanly
  bool sealed{false};        ///< not the active tail
  bool torn{false};          ///< scan stopped before the end
  std::string reason;        ///< why it stopped ("" when clean)
  /// Valid records per tenant in this segment, (tenant key, count),
  /// tenant-id order.  An unresolved tenant key is labeled "tenant#<id>".
  std::vector<std::pair<std::string, std::size_t>> tenant_records;
};

/// What scan() found and how much of it was usable.
struct RecoveryStats {
  std::uint64_t snapshot_seq{0};       ///< 0 = recovered without a snapshot
  std::size_t snapshot_bundle_count{0}; ///< Step-1 slots it holds
  std::size_t snapshots_found{0};
  std::size_t snapshots_skipped{0};    ///< corrupt / unreadable snapshots
  std::size_t wal_records_replayed{0}; ///< valid records applied to state
  std::size_t wal_records_obsolete{0}; ///< seq <= snapshot (already folded)
  std::size_t wal_bytes_salvaged{0};   ///< bytes that parsed cleanly (all segments)
  std::size_t wal_bytes_dropped{0};    ///< bytes at/after the first bad record
  bool wal_tail_torn{false};           ///< some segment scan stopped early
  std::string wal_tail_reason;         ///< first stop reason ("" when clean)
  /// Set when replay stopped anywhere but in the active segment's torn
  /// end: the store repaired nothing and refuses appends and compaction.
  std::string read_only_reason;        ///< "" = writable

  std::size_t segments_scanned{0};
  std::size_t segments_salvaged{0};    ///< torn segments whose prefix was kept
  std::size_t tail_bytes_truncated{0}; ///< active-tail bytes repair cuts
  /// Wall time of the segment decode (shared by every shard scanned
  /// together) plus this shard's merge.
  std::uint64_t decode_micros{0};
  bool manifest_ok{true};              ///< manifest matched the directory scan
  std::string manifest_note;           ///< why not ("" when ok)
  /// Tenants known after recovery.
  std::size_t tenants_recovered{0};
  std::vector<SegmentStats> segments;
};

}  // namespace edx::store
