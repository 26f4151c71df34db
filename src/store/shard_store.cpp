#include "store/shard_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <ranges>
#include <utility>

#include "common/crc32c.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "core/event_power.h"
#include "store/codec.h"
#include "store/store_util.h"

namespace edx::store {

namespace fs = std::filesystem;

using sutil::manifest_path;
using sutil::publish_file;
using sutil::read_file_bytes;
using sutil::refuse_old_format;
using sutil::scan_varint;
using sutil::segment_path;
using sutil::snapshot_path;
using sutil::write_all;
using ManifestContents = sutil::ManifestContents;

namespace {

constexpr std::string_view kSegmentMagic = "EDXWAL03";
constexpr std::string_view kSnapshotMagic = "EDXSNP3";
// Frame kinds: 1 = bundle record; 3 = the same record, but a `string key`
// precedes it — the tenant's first-ever persisted record registers its
// key without spending a separate sequence number.  No other kind is
// written, and a CRC-valid frame of any other kind is refused, not
// truncated as a tear.
constexpr std::uint8_t kRecordKindBundle = 1;
constexpr std::uint8_t kRecordKindKeyed = 3;
/// Producers block once this many encoded-but-unwritten bytes are queued.
constexpr std::size_t kMaxQueueBytes = 8u << 20;
/// Encode-buffer pool bounds: plenty for a full writer queue of typical
/// bundles without letting a burst of huge records pin memory forever.
constexpr std::size_t kMaxPooledPayloads = 1024;
constexpr std::size_t kMaxPooledPayloadCapacity = 1u << 20;

std::string segment_header(std::uint64_t base) {
  std::string header(kSegmentMagic);
  put_varint(header, base);
  return header;
}

/// True when `bytes` open with a complete magic of another EDX format
/// version (a torn header that is a prefix of `magic` is not one).
bool foreign_format(std::string_view bytes, std::string_view magic) {
  return bytes.size() >= magic.size() && bytes.starts_with("EDX") &&
         !bytes.starts_with(magic);
}

/// One valid record out of a tenant-tagged segment scan.
struct ScannedRecord {
  std::uint64_t seq{0};
  TenantId tenant{kInvalidTenant};
  bool has_key{false};
  std::string key;
  BundleParts parts;
};

/// Result of scanning one tenant-tagged segment file.
struct SegmentScan {
  SegmentStats stats;
  std::size_t file_size{0};
  std::vector<ScannedRecord> records;
  /// Valid records per tenant id (resolved to keys at merge time).
  std::map<TenantId, std::size_t> tenant_counts;
  /// The header names another format version, or a CRC-valid frame
  /// has a kind this format does not write.
  bool foreign{false};
};

/// Decodes a tenant-tagged segment up to the first bad byte.  Never
/// throws: damage sets stats.torn, a frame this format does not write
/// sets `foreign`, and interning is deferred to the sequential merge.
/// Records with seq <= skip_upto_seq skip the bundle decode
/// (snapshot-covered) but still surface their kind, tenant tag and key.
SegmentScan scan_segment(const std::string& path, std::uint64_t base,
                         std::uint64_t skip_upto_seq) {
  SegmentScan scan;
  scan.stats.file = fs::path(path).filename().string();
  scan.stats.base_seq = base;
  scan.stats.last_seq = base == 0 ? 0 : base - 1;

  const auto torn = [&scan](std::size_t good_prefix, std::string reason) {
    scan.stats.torn = true;
    scan.stats.reason = std::move(reason);
    scan.stats.bytes = good_prefix;
  };

  std::string bytes;
  try {
    bytes = read_file_bytes(path);
  } catch (const Error&) {
    torn(0, "unreadable segment file");
    return scan;
  }
  scan.file_size = bytes.size();

  const std::string header = segment_header(base);
  if (bytes.size() < header.size() ||
      std::string_view(bytes).substr(0, header.size()) != header) {
    scan.foreign = foreign_format(bytes, kSegmentMagic);
    torn(0, "bad segment header");
    return scan;
  }
  std::size_t offset = header.size();
  scan.stats.bytes = offset;
  const std::string_view data(bytes);
  std::uint64_t previous_seq = base - 1;
  while (offset < data.size()) {
    std::size_t cursor = offset;
    std::uint64_t frame_len = 0;
    if (!scan_varint(data, cursor, frame_len)) {
      torn(offset, "truncated frame length");
      return scan;
    }
    if (frame_len > data.size() - cursor ||
        data.size() - cursor - frame_len < 4) {
      torn(offset, "truncated frame");
      return scan;
    }
    const std::string_view frame =
        data.substr(cursor, static_cast<std::size_t>(frame_len));
    cursor += static_cast<std::size_t>(frame_len);
    std::uint32_t stored_crc = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      stored_crc |= static_cast<std::uint32_t>(
                        static_cast<unsigned char>(data[cursor++]))
                    << shift;
    }
    if (stored_crc != common::crc32c(frame)) {
      torn(offset, "frame CRC32C mismatch");
      return scan;
    }
    ScannedRecord record;
    try {
      Reader reader(frame);
      const auto kind = static_cast<std::uint8_t>(reader.bytes(1)[0]);
      if (kind != kRecordKindBundle && kind != kRecordKindKeyed) {
        // The CRC vouches for these bytes: a writer of another format
        // (an older build's compressed frames) made them.  Truncating
        // would drop acknowledged records, so open() refuses the root.
        scan.foreign = true;
        return scan;
      }
      const std::uint64_t tenant = reader.varint();
      if (tenant >= kInvalidTenant) {
        throw ParseError("tenant id out of range");
      }
      record.tenant = static_cast<TenantId>(tenant);
      record.seq = reader.varint();
      record.has_key = kind == kRecordKindKeyed;
      if (record.has_key) record.key = std::string(reader.string());
      // Snapshot-covered records keep empty parts: the CRC already
      // vouches for the bytes, and the key, if any, was parsed above.
      if (record.seq > skip_upto_seq) {
        record.parts = decode_bundle_parts(reader.bytes(reader.remaining()));
      }
    } catch (const ParseError& failure) {
      torn(offset, std::string("bad frame: ") + failure.what());
      return scan;
    }
    if (record.seq <= previous_seq) {
      torn(offset, "out-of-order sequence number");
      return scan;
    }
    previous_seq = record.seq;
    scan.stats.last_seq = record.seq;
    ++scan.stats.records;
    ++scan.tenant_counts[record.tenant];
    scan.records.push_back(std::move(record));
    offset = cursor;
    scan.stats.bytes = offset;
  }
  return scan;
}

/// One tenant section as loaded from an EDXSNP3 snapshot.
struct SnapshotTenant {
  TenantId id{kInvalidTenant};
  std::string key;
  std::vector<core::AnalyzedTrace> slots;
};

/// Reads snapshot-<seq>.edx, interning each section's name table once;
/// returns false when invalid in any way and throws when it is in another
/// format version.
bool load_snapshot_file(const std::string& path,
                        std::vector<SnapshotTenant>& tenants) {
  std::string bytes;
  try {
    bytes = read_file_bytes(path);
  } catch (const Error&) {
    return false;
  }
  if (foreign_format(bytes, kSnapshotMagic)) refuse_old_format(path);
  std::vector<SnapshotTenant> loaded;
  try {
    Reader payload(sutil::unframe_file(bytes, kSnapshotMagic));
    payload.varint();  // seq; the filename is authoritative
    const std::uint64_t tenant_count = payload.varint();
    if (tenant_count > payload.remaining()) return false;
    TenantId previous_id = kInvalidTenant;  // sections ascend by id
    for (std::uint64_t t = 0; t < tenant_count; ++t) {
      SnapshotTenant& tenant = loaded.emplace_back();
      const std::uint64_t id = payload.varint();
      if (id >= kInvalidTenant ||
          (previous_id != kInvalidTenant && id <= previous_id)) {
        return false;
      }
      tenant.id = previous_id = static_cast<TenantId>(id);
      tenant.key = std::string(payload.string());
      if (tenant.key.empty()) return false;
      const std::uint64_t name_count = payload.varint();
      if (name_count > payload.remaining()) return false;
      std::vector<EventId> names(static_cast<std::size_t>(name_count));
      for (EventId& name : names) name = intern_event(payload.string());
      const std::uint64_t slot_count = payload.varint();
      if (slot_count > payload.remaining()) return false;
      tenant.slots.resize(static_cast<std::size_t>(slot_count));
      for (core::AnalyzedTrace& slot : tenant.slots) {
        slot.user = static_cast<UserId>(payload.zigzag());
        const std::uint64_t event_count = payload.varint();
        if (event_count > payload.remaining() / 11) return false;
        slot.events.resize(static_cast<std::size_t>(event_count));
        TimestampMs begin = 0;
        for (core::PoweredEvent& event : slot.events) {
          const std::uint64_t name = payload.varint();
          if (name >= names.size()) return false;
          event.id = names[static_cast<std::size_t>(name)];
          begin += payload.zigzag();
          event.interval = {begin, begin + payload.zigzag()};
          event.raw_power = payload.f64();
        }
      }
    }
    if (!payload.done()) return false;
  } catch (const ParseError&) {
    return false;
  }
  tenants = std::move(loaded);
  return true;
}

}  // namespace

// ----------------------------------------------------------------------
// Recovery: ShardScan, scan, then open
// ----------------------------------------------------------------------

std::string shard_dir(const std::string& root, std::size_t index) {
  return root + "/shard-" + std::to_string(index);
}

const ShardScan::Tenant& ShardScan::tenant_at(TenantId id) const {
  if (id >= tenants_.size() || tenants_[id].key.empty()) {
    throw InvalidArgument("ShardStore: unknown tenant id " +
                          std::to_string(id));
  }
  return tenants_[id];
}

std::vector<TenantInfo> ShardScan::tenants() const {
  std::vector<TenantInfo> rows;
  for (std::size_t id = 0; id < tenants_.size(); ++id) {
    const Tenant& tenant = tenants_[id];
    if (tenant.key.empty()) continue;  // unregistered placeholder (gap)
    rows.push_back({static_cast<TenantId>(id), tenant.key,
                    tenant.users.size(), tenant.tail.size(), tenant.last_seq});
  }
  return rows;
}

std::optional<TenantInfo> ShardScan::tenant(const std::string& key) const {
  for (const TenantInfo& row : tenants()) {
    if (row.key == key) return row;
  }
  return std::nullopt;
}

std::vector<ShardScan> ShardStore::scan_each(
    const std::vector<std::string>& directories, const StoreOptions& options) {
  // Per shard: what the scan loads and merges is built on this thread (it
  // outlives the scan); only segment decode runs on the pool.
  struct Shard {
    ShardScan st;
    std::vector<std::pair<std::uint64_t, std::string>> segments;
    std::vector<SegmentScan> scans;
    std::exception_ptr refused;
  };
  // Ensures a tenant slot exists for `id` (gaps become unregistered
  // placeholders with an empty key; ids on disk are authoritative).
  const auto tenant_slot = [](ShardScan& st, TenantId id) -> Tenant& {
    while (st.tenants_.size() <= id) st.tenants_.emplace_back();
    return st.tenants_[id];
  };
  const auto load = [&](Shard& shard, const std::string& directory) {
    ShardScan& st = shard.st;
    st.directory_ = directory;
    st.options_ = options;
    if (st.options_.segment_target_bytes < 64) {
      st.options_.segment_target_bytes = 64;  // floor: header + one frame
    }
    std::error_code ec;
    st.exists_ = fs::exists(directory, ec);
    if (st.exists_ && !fs::is_directory(directory, ec)) {
      throw Error("store: cannot open directory " + directory +
                  ": not a directory");
    }

    // Newest valid snapshot wins; corrupt ones are skipped.
    RecoveryStats& recovery = st.recovery_;
    if (st.exists_) {
      std::vector<SnapshotTenant> sections;
      const auto snapshots = sutil::list_numbered(directory, "snapshot-");
      for (const auto& [seq, path] : std::views::reverse(snapshots)) {
        ++recovery.snapshots_found;
        if (recovery.snapshot_seq != 0) continue;
        if (load_snapshot_file(path, sections)) {
          recovery.snapshot_seq = seq;
        } else {
          ++recovery.snapshots_skipped;
        }
      }
      for (SnapshotTenant& section : sections) {
        Tenant& tenant = tenant_slot(st, section.id);
        tenant.key = std::move(section.key);
        tenant.key_persisted = true;
        tenant.slots = std::move(section.slots);
        for (const core::AnalyzedTrace& slot : tenant.slots) {
          tenant.users.insert(slot.user);
        }
        tenant.last_seq = recovery.snapshot_seq;
        recovery.snapshot_bundle_count += tenant.slots.size();
        st.tenant_by_key_.emplace(tenant.key, section.id);
      }
    }
    st.last_seq_ = recovery.snapshot_seq;

    if (st.exists_) shard.segments = sutil::list_numbered(directory, "wal-");
  };
  std::vector<Shard> shards(directories.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    try {
      load(shards[s], directories[s]);
    } catch (...) {
      shards[s].refused = std::current_exception();
    }
  }

  // Every shard's segments decode on one pool.
  std::vector<std::pair<std::size_t, std::size_t>> jobs;  // shard, segment
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].scans.resize(shards[s].segments.size());
    for (std::size_t i = 0; i < shards[s].segments.size(); ++i) {
      jobs.emplace_back(s, i);
    }
  }
  const auto decode_begin = std::chrono::steady_clock::now();
  const auto decode = [&shards, &jobs](std::size_t j) {
    Shard& shard = shards[jobs[j].first];
    const auto& [base, path] = shard.segments[jobs[j].second];
    shard.scans[jobs[j].second] =
        scan_segment(path, base, shard.st.recovery_.snapshot_seq);
  };
  const std::size_t threads =
      common::ThreadPool::resolve_threads(options.recovery_threads);
  if (jobs.size() > 1 && threads > 1) {
    common::ThreadPool(threads).parallel_for(0, jobs.size(), decode);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) decode(j);
  }
  const auto decode_time = std::chrono::steady_clock::now() - decode_begin;

  // Merge shard by shard in index order, so the refusal thrown is the
  // lowest-index shard's however the decode was scheduled.
  std::vector<ShardScan> out;
  for (Shard& shard : shards) {
    if (shard.refused) std::rethrow_exception(shard.refused);
    ShardScan& st = shard.st;
    RecoveryStats& recovery = st.recovery_;
    const auto& segments = shard.segments;
    std::vector<SegmentScan>& scans = shard.scans;
    const auto merge_begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < scans.size(); ++i) {
      if (scans[i].foreign) refuse_old_format(segments[i].second);
    }

    // Sequential merge in base order: fan tenant-tagged records back out to
    // per-tenant tails.  Interning happens here, in replay order, so
    // recovery is byte-identical for any recovery_threads.  The first torn
    // segment or sequence gap ends the global replay.  Only a tear in the
    // active segment is repairable; any other stop leaves the store
    // read-only, since appends after it would never be replayed.
    bool stop_replay = false;
    std::uint64_t covered = recovery.snapshot_seq;
    const auto stop = [&recovery, &stop_replay](const std::string& reason,
                                                bool repairable) {
      stop_replay = true;
      if (!recovery.wal_tail_torn) {
        recovery.wal_tail_torn = true;
        recovery.wal_tail_reason = reason;
      }
      if (!repairable && recovery.read_only_reason.empty()) {
        recovery.read_only_reason = reason;
      }
    };
    for (std::size_t i = 0; i < scans.size(); ++i) {
      SegmentScan& scan = scans[i];
      const bool is_active = i + 1 == scans.size();
      scan.stats.sealed = !is_active;
      ++recovery.segments_scanned;
      recovery.wal_bytes_salvaged += scan.stats.bytes;
      recovery.wal_bytes_dropped += scan.file_size - scan.stats.bytes;
      if (!stop_replay && scan.stats.base_seq > covered + 1) {
        stop("sequence gap: records " + std::to_string(covered + 1) + ".." +
                 std::to_string(scan.stats.base_seq - 1) + " missing before " +
                 scan.stats.file,
             false);
      }
      if (stop_replay) {
        if (!scan.stats.reason.empty()) scan.stats.reason += "; ";
        scan.stats.reason += "not replayed (replay stopped earlier)";
      } else {
        for (ScannedRecord& record : scan.records) {
          if (record.has_key) {
            Tenant& tenant = tenant_slot(st, record.tenant);
            if (tenant.key.empty()) {
              tenant.key = record.key;
              tenant.key_persisted = true;
              st.tenant_by_key_.emplace(tenant.key, record.tenant);
            } else if (tenant.key != record.key) {
              // CRC-valid but semantically impossible — a writer bug or
              // tampering.  Stop the replay like any other bad tail.
              stop("tenant key conflict for tenant id " +
                       std::to_string(record.tenant),
                   false);
              break;
            }
          }
          if (record.seq <= recovery.snapshot_seq) {
            ++recovery.wal_records_obsolete;
          } else {
            if (record.tenant >= st.tenants_.size() ||
                st.tenants_[record.tenant].key.empty()) {
              // A live record for a tenant the snapshot + earlier records
              // never registered: the prefix that carried its registration
              // is gone.  Stop rather than guess.
              stop("record references unregistered tenant id " +
                       std::to_string(record.tenant),
                   false);
              break;
            }
            Tenant& tenant = st.tenants_[record.tenant];
            tenant.tail.push_back(std::make_shared<const trace::TraceBundle>(
                assemble_bundle(std::move(record.parts))));
            tenant.users.insert(tenant.tail.back()->fleet_key());
            tenant.last_seq = record.seq;
            ++recovery.wal_records_replayed;
          }
          st.last_seq_ = std::max(st.last_seq_, record.seq);
        }
        covered = std::max(covered, scan.stats.last_seq);
      }
      // Resolve the per-tenant record counts now that keys are known.
      for (const auto& [id, count] : scan.tenant_counts) {
        const std::string label =
            id < st.tenants_.size() && !st.tenants_[id].key.empty()
                ? st.tenants_[id].key
                : "tenant#" + std::to_string(id);
        scan.stats.tenant_records.emplace_back(label, count);
      }
      if (scan.stats.torn) {
        ++recovery.segments_salvaged;
        stop(scan.stats.reason, is_active);
      }
      scan.records.clear();
    }

    // The active tail is the only segment a repair may cut; sealed segments
    // are immutable.  Without any segment, open() creates the first one.
    if (!scans.empty()) {
      const SegmentScan& active = scans.back();
      st.repair_tail_ = active.stats.torn && recovery.read_only_reason.empty();
      if (st.repair_tail_) {
        recovery.tail_bytes_truncated = active.file_size - active.stats.bytes;
      }
      st.active_base_ = active.stats.base_seq;
      st.active_last_seq_ = active.stats.last_seq;
      st.active_bytes_ = active.stats.bytes;
      st.last_seq_ = std::max(st.last_seq_, st.active_last_seq_);
      for (std::size_t i = 0; i + 1 < scans.size(); ++i) {
        st.sealed_segments_.push_back({scans[i].stats.base_seq,
                                       scans[i].stats.last_seq,
                                       segments[i].second});
      }
    } else {
      st.active_base_ = st.last_seq_ + 1;
      st.active_last_seq_ = st.last_seq_;
    }
    recovery.decode_micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            decode_time + std::chrono::steady_clock::now() - merge_begin)
            .count());
    recovery.tenants_recovered = st.tenant_by_key_.size();

    // Manifest cross-check (advisory; the directory scan is authoritative).
    const std::string man_path = manifest_path(st.directory_);
    if (st.exists_ && fs::exists(man_path)) {
      const std::optional<ManifestContents> manifest =
          sutil::read_manifest(man_path);
      if (!manifest) {
        recovery.manifest_ok = false;
        recovery.manifest_note =
            "corrupt manifest; recovered from directory scan";
      } else {
        // Sealed segments compare by base: a tear lowers a scan's last
        // valid seq below the manifest's, and that is the scan stopping
        // short, not the manifest lagging.
        std::vector<std::uint64_t> listed, found;
        for (const auto& sealed : manifest->sealed) {
          listed.push_back(sealed.first);
        }
        for (const SealedSegment& sealed : st.sealed_segments_) {
          found.push_back(sealed.base_seq);
        }
        const auto torn_sealed = std::find_if(
            scans.begin(), scans.end(), [](const SegmentScan& scan) {
              return scan.stats.sealed && scan.stats.torn;
            });
        if (manifest->snapshot_seq != recovery.snapshot_seq) {
          recovery.manifest_ok = false;
          recovery.manifest_note =
              "manifest snapshot seq disagrees with newest valid snapshot";
        } else if (listed != found ||
                   manifest->active_base != st.active_base_) {
          recovery.manifest_ok = false;
          recovery.manifest_note =
              "manifest is stale (behind the directory scan)";
        } else if (torn_sealed != scans.end()) {
          recovery.manifest_ok = false;
          recovery.manifest_note =
              "the directory scan stopped at torn sealed segment " +
              torn_sealed->stats.file + "; the manifest lists it in full";
        }
      }
    } else if (!segments.empty()) {
      recovery.manifest_ok = false;
      recovery.manifest_note =
          "manifest missing; recovered from directory scan";
    }

    for (SegmentScan& scan : scans) {
      recovery.segments.push_back(std::move(scan.stats));
    }
    out.push_back(std::move(st));
  }
  return out;
}

ShardStore ShardStore::open(ShardScan scan) {
  const std::string& directory = scan.directory_;
  std::error_code ec;
  if (!scan.exists_) fs::create_directories(directory, ec);
  if (ec) {
    throw Error("store: cannot open directory " + directory + ": " +
                ec.message());
  }
  // A read-only scan plans no repair: the store changes no file.
  if (scan.recovery_.read_only_reason.empty()) {
    sutil::remove_stale_temp_files(directory);
    const std::string path = segment_path(directory, scan.active_base_);
    const std::string header = segment_header(scan.active_base_);
    const bool first = scan.recovery_.segments.empty();
    if (first || (scan.repair_tail_ && scan.active_bytes_ < header.size())) {
      // A new store's first segment, or a torn create: just the header.
      const int fd = ::open(path.c_str(),
                            O_WRONLY | O_CREAT | (first ? O_EXCL : O_TRUNC),
                            0644);
      if (fd < 0) throw Error("ShardStore: cannot create " + path);
      write_all(fd, header, path);
      ::close(fd);
    } else if (scan.repair_tail_) {
      fs::resize_file(path, scan.active_bytes_);
    }
    scan.active_bytes_ = std::max(scan.active_bytes_, header.size());
  }
  return ShardStore(std::move(scan));
}

ShardStore::ShardStore(ShardScan&& scan)
    : ShardScan(std::move(scan)),
      snapshot_seq_(recovery_.snapshot_seq),
      durable_seq_(last_seq_),
      written_seq_(last_seq_) {
  // Reopen the active tail for appends and publish a manifest matching
  // recovered reality; a read-only store does neither.
  if (recovery_.read_only_reason.empty()) {
    const std::string path = segment_path(directory_, active_base_);
    active_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (active_fd_ < 0) throw Error("ShardStore: cannot open " + path);
    write_manifest();
  }
  writer_ = std::thread(&ShardStore::writer_loop, this);
}

ShardStore::~ShardStore() {
  try {
    close();
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "ShardStore: error closing %s: %s\n",
                 directory_.c_str(), failure.what());
  } catch (...) {
    std::fprintf(stderr, "ShardStore: unknown error closing %s\n",
                 directory_.c_str());
  }
}

void ShardStore::close() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (closed_) return;
    closed_ = true;
  }
  std::exception_ptr failure;
  try {
    wait_for_compaction();
  } catch (...) {
    failure = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  room_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
  std::exception_ptr writer_failure;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    writer_failure = std::exchange(writer_error_, nullptr);
  }
  // The writer's own failure is the root cause; surface it first.
  if (writer_failure) std::rethrow_exception(writer_failure);
  if (failure) std::rethrow_exception(failure);
}

// ----------------------------------------------------------------------
// Tenants
// ----------------------------------------------------------------------

ShardStore::Tenant& ShardStore::tenant_ref(TenantId id) {
  std::shared_lock<std::shared_mutex> lk(tenant_mutex_);
  return const_cast<Tenant&>(tenant_at(id));
}

TenantId ShardStore::ensure_tenant(const std::string& key) {
  if (key.empty()) {
    throw InvalidArgument("ShardStore: tenant key must not be empty");
  }
  {
    std::shared_lock<std::shared_mutex> lk(tenant_mutex_);
    const auto it = tenant_by_key_.find(key);
    if (it != tenant_by_key_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lk(tenant_mutex_);
  const auto [it, inserted] =
      tenant_by_key_.emplace(key, static_cast<TenantId>(tenants_.size()));
  if (!inserted) return it->second;
  Tenant& tenant = tenants_.emplace_back();
  tenant.key = key;
  return it->second;
}

void ShardStore::require_writable(const char* operation) const {
  if (!recovery_.read_only_reason.empty()) {
    throw Error(std::string("ShardStore: ") + operation + " refused: " +
                directory_ + " is read-only after recovery stopped early (" +
                recovery_.read_only_reason + ")");
  }
}

// ----------------------------------------------------------------------
// Append path / group commit
// ----------------------------------------------------------------------

std::string ShardStore::take_pooled_payload() {
  std::lock_guard<std::mutex> lk(pool_mutex_);
  if (payload_pool_.empty()) return {};
  std::string payload = std::move(payload_pool_.back());
  payload_pool_.pop_back();
  return payload;
}

void ShardStore::recycle_payloads(std::vector<Pending>& batch) {
  std::lock_guard<std::mutex> lk(pool_mutex_);
  for (Pending& pending : batch) {
    if (payload_pool_.size() >= kMaxPooledPayloads) break;
    if (pending.payload.capacity() > kMaxPooledPayloadCapacity) continue;
    pending.payload.clear();
    payload_pool_.push_back(std::move(pending.payload));
  }
}

std::uint64_t ShardStore::enqueue(TenantId id,
                                  const trace::TraceBundle& bundle,
                                  bool durable) {
  require_writable("append");
  Tenant& tenant = tenant_ref(id);  // validates the id
  // All the expensive work — encoding, the one bundle copy — happens
  // outside the lock; the encode buffer comes from the pool the writer
  // refills after each batch.
  std::string payload = take_pooled_payload();
  encode_bundle(bundle, payload);
  auto ref = std::make_shared<const trace::TraceBundle>(bundle);

  std::unique_lock<std::mutex> lk(mutex_);
  if (writer_error_) std::rethrow_exception(writer_error_);
  room_cv_.wait(lk, [this] {
    return queue_bytes_ < kMaxQueueBytes || stop_ ||
           writer_error_ != nullptr;
  });
  if (writer_error_) std::rethrow_exception(writer_error_);
  if (stop_) throw Error("ShardStore: store is closing");

  const std::uint64_t seq = ++last_seq_;
  // A tenant's first record carries its key inline so recovery can
  // rebuild the id->key map from the log itself.
  const std::uint8_t kind =
      tenant.key_persisted ? kRecordKindBundle : kRecordKindKeyed;
  tenant.key_persisted = true;
  tenant.last_seq = seq;
  tenant.users.insert(ref->fleet_key());
  tenant.tail.push_back(std::move(ref));
  queue_bytes_ += payload.size() + sizeof(Pending);
  queue_.push_back(Pending{seq, id, kind, std::move(payload)});
  queue_cv_.notify_one();

  if (durable) {
    durable_cv_.wait(lk, [this, seq] {
      return durable_seq_ >= seq || writer_error_ != nullptr;
    });
    if (writer_error_) std::rethrow_exception(writer_error_);
  }
  return seq;
}

std::uint64_t ShardStore::append(TenantId id,
                                 const trace::TraceBundle& bundle) {
  return enqueue(id, bundle, /*durable=*/true);
}

std::uint64_t ShardStore::append_async(TenantId id,
                                       const trace::TraceBundle& bundle) {
  return enqueue(id, bundle, /*durable=*/false);
}

void ShardStore::flush() {
  std::unique_lock<std::mutex> lk(mutex_);
  if (writer_error_) std::rethrow_exception(writer_error_);
  const std::uint64_t target = last_seq_;
  flush_requested_ = true;
  queue_cv_.notify_all();
  durable_cv_.wait(lk, [this, target] {
    return durable_seq_ >= target || writer_error_ != nullptr;
  });
  if (writer_error_) std::rethrow_exception(writer_error_);
}

void ShardStore::drain_queue_locked(std::vector<Pending>& batch) {
  while (!queue_.empty()) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  queue_bytes_ = 0;
  room_cv_.notify_all();
}

void ShardStore::write_batch(std::vector<Pending>& batch) {
  std::string& buffer = write_buffer_;
  std::size_t i = 0;
  while (i < batch.size()) {
    buffer.clear();
    std::uint64_t last = batch[i].seq;
    // Pack records into one contiguous write until the segment target is
    // reached (always at least one record per write).  A batch touching
    // K tenants still lands in ONE write + ONE sync — the tenant tag
    // lives in the frame, not in the file layout.
    while (i < batch.size() &&
           (buffer.empty() || active_bytes_ + buffer.size() <
                                  options_.segment_target_bytes)) {
      const Pending& pending = batch[i];
      std::string prefix;
      prefix.push_back(static_cast<char>(pending.kind));
      put_varint(prefix, pending.tenant);
      put_varint(prefix, pending.seq);
      if (pending.kind == kRecordKindKeyed) {
        put_string(prefix, tenant_ref(pending.tenant).key);
      }
      put_varint(buffer, prefix.size() + pending.payload.size());
      buffer += prefix;
      buffer += pending.payload;
      put_u32le(buffer, common::crc32c(common::crc32c(0, prefix.data(),
                                                      prefix.size()),
                                       pending.payload.data(),
                                       pending.payload.size()));
      last = pending.seq;
      ++i;
    }
    write_all(active_fd_, buffer, segment_path(directory_, active_base_));
    active_bytes_ += buffer.size();
    active_dirty_ = true;
    active_last_seq_ = last;
    written_seq_ = last;
    if (active_bytes_ >= options_.segment_target_bytes) {
      seal_active_segment(last + 1);
    }
  }
  recycle_payloads(batch);
}

void ShardStore::seal_active_segment(std::uint64_t next_base) {
  // Sealing makes the segment immutable *and* durable (compaction deletes
  // older data on the strength of later snapshots).
  if (::fsync(active_fd_) < 0) {
    throw Error("ShardStore: fsync failed for " +
                segment_path(directory_, active_base_));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  ::close(active_fd_);
  active_fd_ = -1;
  active_dirty_ = false;
  const SealedSegment sealed{active_base_, active_last_seq_,
                             segment_path(directory_, active_base_)};

  const std::string path = segment_path(directory_, next_base);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw Error("ShardStore: cannot create " + path);
  const std::string header = segment_header(next_base);
  write_all(fd, header, path);
  active_fd_ = fd;
  active_bytes_ = header.size();
  active_last_seq_ = next_base - 1;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    sealed_segments_.push_back(sealed);
    active_base_ = next_base;
  }
  write_manifest();
}

void ShardStore::sync_active_segment() {
  if (!active_dirty_ || active_fd_ < 0) return;
#if defined(__APPLE__)
  if (::fsync(active_fd_) < 0) {
#else
  if (::fdatasync(active_fd_) < 0) {
#endif
    throw Error("ShardStore: fdatasync failed for " +
                segment_path(directory_, active_base_));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  active_dirty_ = false;
}

void ShardStore::writer_loop() {
  using clock = std::chrono::steady_clock;
  for (;;) {
    std::vector<Pending> batch;
    bool force_sync = false;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      queue_cv_.wait(lk, [this] {
        return stop_ || !queue_.empty() || flush_requested_;
      });
      if (flush_requested_) {
        force_sync = true;
        flush_requested_ = false;
      }
      drain_queue_locked(batch);
      if (batch.empty() && !force_sync && stop_) break;
    }
    try {
      if (!batch.empty()) write_batch(batch);
      if (options_.fsync_policy == FsyncPolicy::kGroup && !force_sync) {
        const auto deadline =
            clock::now() +
            std::chrono::microseconds(options_.group_window_us);
        for (;;) {
          std::vector<Pending> more;
          bool stopping = false;
          {
            std::unique_lock<std::mutex> lk(mutex_);
            queue_cv_.wait_until(lk, deadline, [this] {
              return stop_ || !queue_.empty() || flush_requested_;
            });
            if (flush_requested_) {
              force_sync = true;
              flush_requested_ = false;
            }
            drain_queue_locked(more);
            stopping = stop_;
          }
          if (!more.empty()) write_batch(more);
          if (force_sync || stopping || clock::now() >= deadline) break;
        }
      }
      if (options_.fsync_policy != FsyncPolicy::kNone) {
        sync_active_segment();
      }
      {
        std::lock_guard<std::mutex> lk(mutex_);
        durable_seq_ = written_seq_;
      }
      durable_cv_.notify_all();
      compact_cv_.notify_all();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(mutex_);
        writer_error_ = std::current_exception();
      }
      durable_cv_.notify_all();
      room_cv_.notify_all();
      compact_cv_.notify_all();
      return;  // the store is wedged; producers see writer_error_
    }
  }
  // Drained and stopping: make whatever was written durable so a clean
  // close never loses async appends (kNone keeps its weaker contract).
  try {
    if (options_.fsync_policy != FsyncPolicy::kNone) sync_active_segment();
  } catch (...) {
    std::lock_guard<std::mutex> lk(mutex_);
    writer_error_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    durable_seq_ = written_seq_;
  }
  durable_cv_.notify_all();
  compact_cv_.notify_all();
}

void ShardStore::write_manifest() {
  ManifestContents contents;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    contents.snapshot_seq = snapshot_seq_;
    contents.sealed.reserve(sealed_segments_.size());
    for (const SealedSegment& sealed : sealed_segments_) {
      contents.sealed.emplace_back(sealed.base_seq, sealed.last_seq);
    }
    contents.active_base = active_base_;
  }
  const std::string bytes = sutil::render_manifest(contents);
  std::lock_guard<std::mutex> lk(manifest_mutex_);
  publish_file(manifest_path(directory_), bytes);
}

// ----------------------------------------------------------------------
// Background compaction
// ----------------------------------------------------------------------

bool ShardStore::compact_async() {
  require_writable("compaction");
  // Lock order everywhere: tenant_mutex_ before mutex_ (enqueue resolves
  // the tenant before taking the queue lock).
  std::shared_lock<std::shared_mutex> tenants_lk(tenant_mutex_);
  std::lock_guard<std::mutex> lk(mutex_);
  if (compaction_running_) return false;
  if (compaction_thread_.joinable()) compaction_thread_.join();  // finished
  if (last_seq_ == snapshot_seq_) return false;  // nothing new to fold
  const std::uint64_t cut = last_seq_;
  // Every tail record has seq <= cut; later appends land behind them.
  std::vector<std::pair<TenantId, std::vector<BundleRef>>> tails;
  tails.reserve(tenant_by_key_.size());
  for (std::size_t id = 0; id < tenants_.size(); ++id) {
    if (tenants_[id].key.empty()) continue;
    // Every registered tenant is captured — even with an empty fleet —
    // so the snapshot preserves the full id->key map.
    tails.emplace_back(static_cast<TenantId>(id), tenants_[id].tail);
  }
  compaction_running_ = true;
  compaction_thread_ = std::thread(&ShardStore::run_compaction, this, cut,
                                   std::move(tails));
  return true;
}

void ShardStore::wait_for_compaction() {
  std::exception_ptr failure;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    compact_cv_.wait(lk, [this] { return !compaction_running_; });
    if (compaction_thread_.joinable()) compaction_thread_.join();
    failure = std::exchange(compaction_error_, nullptr);
  }
  if (failure) std::rethrow_exception(failure);
}

void ShardStore::compact() {
  compact_async();
  wait_for_compaction();
}

void ShardStore::run_compaction(
    std::uint64_t cut,
    std::vector<std::pair<TenantId, std::vector<BundleRef>>> tails) {
  {
    std::unique_lock<std::mutex> lk(mutex_);
    compact_cv_.wait(lk, [this, cut] {
      return durable_seq_ >= cut || writer_error_ != nullptr || stop_;
    });
    if (durable_seq_ < cut) {
      compaction_error_ = std::make_exception_ptr(
          Error("ShardStore: compaction aborted (writer stopped)"));
      compaction_running_ = false;
      lk.unlock();
      compact_cv_.notify_all();
      return;
    }
  }
  try {
    // Step 1 runs for the tail records only.  Each folds into its user's
    // slot: a re-upload replaces it, a new user appends one — the rule
    // FleetAnalyzer applies.  Only this thread and open() write slots.
    std::vector<std::vector<core::AnalyzedTrace>> folded;
    folded.reserve(tails.size());
    std::string payload;
    put_varint(payload, cut);
    put_varint(payload, tails.size());
    for (const auto& [id, tail] : tails) {
      const Tenant& tenant = tenant_ref(id);
      std::vector<core::AnalyzedTrace>& slots =
          folded.emplace_back(tenant.slots);
      std::unordered_map<UserId, std::size_t> slot_of;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        slot_of.emplace(slots[i].user, i);
      }
      for (const BundleRef& bundle : tail) {
        const auto [it, inserted] =
            slot_of.emplace(bundle->fleet_key(), slots.size());
        if (inserted) slots.emplace_back();
        slots[it->second] = core::estimate_event_power(*bundle);
      }

      std::unordered_map<EventId, std::size_t> name_index;
      std::string names;
      std::string body;
      for (const core::AnalyzedTrace& slot : slots) {
        put_zigzag(body, slot.user);
        put_varint(body, slot.events.size());
        TimestampMs begin = 0;
        for (const core::PoweredEvent& event : slot.events) {
          const auto [it, inserted] =
              name_index.emplace(event.id, name_index.size());
          if (inserted) put_string(names, event_name(event.id));
          put_varint(body, it->second);
          put_zigzag(body, event.interval.begin - begin);
          put_zigzag(body, event.interval.length());
          put_f64(body, event.raw_power);
          begin = event.interval.begin;
        }
      }
      put_varint(payload, id);
      put_string(payload, tenant.key);
      put_varint(payload, name_index.size());
      payload += names;
      put_varint(payload, slots.size());
      payload += body;
    }

    publish_file(snapshot_path(directory_, cut),
                 sutil::frame_file(kSnapshotMagic, payload));

    // The snapshot subsumes every record with seq <= cut: delete the
    // sealed segments it fully covers.
    std::vector<std::string> doomed;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      auto keep = sealed_segments_.begin();
      for (auto it = sealed_segments_.begin(); it != sealed_segments_.end();
           ++it) {
        if (it->last_seq <= cut) {
          doomed.push_back(it->path);
        } else {
          *keep++ = std::move(*it);
        }
      }
      sealed_segments_.erase(keep, sealed_segments_.end());
    }
    for (const std::string& path : doomed) fs::remove(path);

    const auto snapshots = sutil::list_numbered(directory_, "snapshot-");
    for (std::size_t i = 0; i + 2 < snapshots.size(); ++i) {
      fs::remove(snapshots[i].second);  // all but the two newest
    }

    {
      std::shared_lock<std::shared_mutex> tenants_lk(tenant_mutex_);
      std::lock_guard<std::mutex> lk(mutex_);
      for (std::size_t t = 0; t < tails.size(); ++t) {
        Tenant& tenant = tenants_[tails[t].first];
        tenant.slots = std::move(folded[t]);
        tenant.tail.erase(tenant.tail.begin(),
                          tenant.tail.begin() + static_cast<std::ptrdiff_t>(
                                                    tails[t].second.size()));
      }
      snapshot_seq_ = cut;
    }
    write_manifest();
  } catch (...) {
    std::lock_guard<std::mutex> lk(mutex_);
    compaction_error_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    compaction_running_ = false;
  }
  compact_cv_.notify_all();
}

}  // namespace edx::store
