#include "store/shard_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <utility>

#include "common/compress.h"
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
using sutil::scan_varint;
using sutil::segment_path;
using sutil::snapshot_path;
using sutil::write_all;
using ManifestContents = sutil::ManifestContents;

namespace {

constexpr std::string_view kSegmentMagic = "EDXWAL03";
constexpr std::string_view kSnapshotMagic = "EDXSNP3";
constexpr std::string_view kLayoutMagic = "EDXLAY01";
// Frame kinds: 1 = bundle record, 2 = block-compressed bundle record;
// +2 (3/4) = same payload, but a `string key` precedes it — the tenant's
// first-ever persisted record registers its key without spending a
// separate sequence number.
constexpr std::uint8_t kRecordKindBundle = 1;
constexpr std::uint8_t kRecordKindCompressed = 2;
constexpr std::uint8_t kRecordKeyFlag = 2;  // kind + kRecordKeyFlag
/// Producers block once this many encoded-but-unwritten bytes are queued.
constexpr std::size_t kMaxQueueBytes = 8u << 20;
/// Sanity cap on a compressed frame's declared uncompressed size.
constexpr std::size_t kMaxRawFrameBytes = std::size_t{1} << 28;
/// Encode-buffer pool bounds: plenty for a full writer queue of typical
/// bundles without letting a burst of huge records pin memory forever.
constexpr std::size_t kMaxPooledPayloads = 1024;
constexpr std::size_t kMaxPooledPayloadCapacity = 1u << 20;

std::string segment_header(std::uint64_t base) {
  std::string header(kSegmentMagic);
  put_varint(header, base);
  return header;
}

std::string layout_path(const std::string& root) {
  return root + "/layout.edx";
}

/// True when `bytes` open with a complete magic of another EDX format
/// version (a torn header that is a prefix of `magic` is not one).
bool foreign_format(std::string_view bytes, std::string_view magic) {
  return bytes.size() >= magic.size() && bytes.starts_with("EDX") &&
         !bytes.starts_with(magic);
}

[[noreturn]] void refuse_old_format(const std::string& path) {
  throw Error("store: " + path +
              " is in an old on-disk format; re-ingest its traces into a "
              "new store root");
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
  bool foreign{false};  ///< header names another format version
};

/// Decodes a tenant-tagged segment up to the first bad byte.  Never
/// throws: damage sets stats.torn, and interning is deferred to the
/// sequential merge.  Records with seq <= skip_upto_seq skip the bundle
/// decode (snapshot-covered) but still surface their tenant tag and key.
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
  std::string decompressed;
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
      const std::uint64_t tenant = reader.varint();
      if (tenant >= kInvalidTenant) {
        throw ParseError("tenant id out of range");
      }
      record.tenant = static_cast<TenantId>(tenant);
      record.seq = reader.varint();
      const std::uint8_t base_kind =
          kind > kRecordKeyFlag ? kind - kRecordKeyFlag : kind;
      if (base_kind != kRecordKindBundle &&
          base_kind != kRecordKindCompressed) {
        throw ParseError("unknown record kind " + std::to_string(kind));
      }
      record.has_key = kind > kRecordKeyFlag;
      if (record.has_key) record.key = std::string(reader.string());
      if (record.seq <= skip_upto_seq) {
        // Snapshot-covered: CRC already vouches for the bytes; leave the
        // parts empty (the key, if any, was still parsed above).
      } else if (base_kind == kRecordKindBundle) {
        record.parts = decode_bundle_parts(reader.bytes(reader.remaining()));
      } else {
        const std::uint64_t raw_len = reader.varint();
        if (raw_len > kMaxRawFrameBytes) {
          throw ParseError("compressed frame declares absurd raw length");
        }
        if (!common::block_decompress(reader.bytes(reader.remaining()),
                                      decompressed,
                                      static_cast<std::size_t>(raw_len)) ||
            decompressed.size() != raw_len) {
          throw ParseError("compressed frame does not decompress");
        }
        record.parts = decode_bundle_parts(decompressed);
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
    Reader file{std::string_view(bytes)};
    if (file.remaining() < kSnapshotMagic.size() ||
        file.bytes(kSnapshotMagic.size()) != kSnapshotMagic) {
      return false;
    }
    const std::uint64_t payload_len = file.varint();
    if (file.remaining() != payload_len + 4) return false;
    const std::string_view payload_bytes =
        file.bytes(static_cast<std::size_t>(payload_len));
    if (file.u32le() != common::crc32c(payload_bytes)) return false;

    Reader payload(payload_bytes);
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
// Partitioned-root layout helpers
// ----------------------------------------------------------------------

std::string shard_dir(const std::string& root, std::size_t index) {
  return root + "/shard-" + std::to_string(index);
}

std::optional<PartitionedLayout> read_layout(const std::string& root) {
  const std::string path = layout_path(root);
  if (!fs::exists(path)) return std::nullopt;
  const std::string bytes = read_file_bytes(path);
  try {
    Reader file{std::string_view(bytes)};
    if (file.remaining() < kLayoutMagic.size() ||
        file.bytes(kLayoutMagic.size()) != kLayoutMagic) {
      throw ParseError("bad magic");
    }
    const std::uint64_t payload_len = file.varint();
    if (file.remaining() != payload_len + 4) throw ParseError("bad length");
    const std::string_view payload_bytes =
        file.bytes(static_cast<std::size_t>(payload_len));
    if (file.u32le() != common::crc32c(payload_bytes)) {
      throw ParseError("CRC32C mismatch");
    }
    Reader payload(payload_bytes);
    PartitionedLayout layout;
    layout.shard_count = static_cast<std::size_t>(payload.varint());
    if (!payload.done() || layout.shard_count == 0) {
      throw ParseError("bad shard count");
    }
    return layout;
  } catch (const ParseError& failure) {
    // The shard count routes tenants; guessing it would silently split
    // tenants across shards, so a corrupt layout file is fatal.
    throw Error("store: corrupt layout file " + path + ": " +
                failure.what());
  }
}

void write_layout(const std::string& root, std::size_t shard_count) {
  std::string payload;
  put_varint(payload, shard_count);
  std::string file;
  file.reserve(payload.size() + 24);
  file.append(kLayoutMagic);
  put_varint(file, payload.size());
  file += payload;
  put_u32le(file, common::crc32c(payload));
  publish_file(layout_path(root), file);
}

RootInfo inspect_root(const std::string& root) {
  RootInfo info;
  if (!fs::exists(root)) return info;  // kMissing
  if (!fs::is_directory(root)) {
    throw Error("store: " + root + " is not a directory");
  }
  const std::optional<PartitionedLayout> layout = read_layout(root);

  const auto is_store_file = [](const fs::directory_entry& entry) {
    const std::string name = entry.path().filename().string();
    return ((name.starts_with("wal-") || name.starts_with("snapshot-")) &&
            name.ends_with(".edx")) ||
           name == "manifest.edx";
  };
  std::size_t max_shard = 0;
  bool saw_shard_dir = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory()) {
      if (is_store_file(entry)) refuse_old_format(root);
      continue;
    }
    std::size_t index = 0;
    const char* const end = name.data() + name.size();
    const bool is_shard = name.starts_with("shard-") && [&] {
      const auto [ptr, ec] = std::from_chars(name.data() + 6, end, index);
      return ec == std::errc() && ptr == end;
    }();
    if (is_shard) {
      saw_shard_dir = true;
      max_shard = std::max(max_shard, index);
      continue;
    }
    std::error_code error;
    for (const fs::directory_entry& inner :
         fs::directory_iterator(entry.path(), error)) {
      if (is_store_file(inner)) refuse_old_format(entry.path().string());
    }
  }

  if (layout) {
    info.kind = RootKind::kPartitioned;
    info.shard_count = layout->shard_count;
  } else if (saw_shard_dir) {
    // Shard directories without a layout file (a crash before
    // write_layout published): the directory scan is the fallback.
    info.kind = RootKind::kPartitioned;
    info.shard_count = max_shard + 1;
  } else {
    info.kind = RootKind::kEmpty;
  }
  return info;
}

// ----------------------------------------------------------------------
// Recovery / open
// ----------------------------------------------------------------------

struct ShardStore::Recovered {
  std::string directory;
  StoreOptions options;
  RecoveryStats recovery;
  std::uint64_t last_seq{0};
  std::deque<Tenant> tenants;
  std::unordered_map<std::string, TenantId> tenant_by_key;
  std::vector<SealedSegment> sealed;
  int active_fd{-1};
  std::uint64_t active_base{1};
  std::uint64_t active_last_seq{0};
  std::size_t active_bytes{0};
};

ShardStore ShardStore::open(const std::string& directory) {
  return open(directory, StoreOptions{});
}

ShardStore ShardStore::open(const std::string& directory,
                            const StoreOptions& options) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec || !fs::is_directory(directory)) {
    throw Error("store: cannot open directory " + directory +
                (ec ? ": " + ec.message() : ""));
  }
  Recovered st;
  st.directory = directory;
  st.options = options;
  if (st.options.segment_target_bytes < 64) {
    st.options.segment_target_bytes = 64;  // floor: header + one frame
  }

  // Ensures a tenant slot exists for `id` (gaps become unregistered
  // placeholders with an empty key; ids on disk are authoritative).
  const auto tenant_slot = [&st](TenantId id) -> Tenant& {
    while (st.tenants.size() <= id) st.tenants.emplace_back();
    return st.tenants[id];
  };

  // Newest valid snapshot wins; corrupt ones are skipped.
  {
    std::vector<SnapshotTenant> sections;
    for (const auto& [seq, path] : sutil::list_snapshots(directory)) {
      ++st.recovery.snapshots_found;
      if (st.recovery.snapshot_seq != 0) continue;
      if (load_snapshot_file(path, sections)) {
        st.recovery.snapshot_seq = seq;
      } else {
        ++st.recovery.snapshots_skipped;
      }
    }
    for (SnapshotTenant& section : sections) {
      Tenant& tenant = tenant_slot(section.id);
      tenant.key = std::move(section.key);
      tenant.key_persisted = true;
      tenant.slots = std::move(section.slots);
      for (const core::AnalyzedTrace& slot : tenant.slots) {
        tenant.users.insert(slot.user);
      }
      tenant.last_seq = st.recovery.snapshot_seq;
      st.recovery.snapshot_bundle_count += tenant.slots.size();
      st.tenant_by_key.emplace(tenant.key, section.id);
    }
  }
  st.last_seq = st.recovery.snapshot_seq;

  const auto segments = sutil::list_segments(directory);
  const auto decode_begin = std::chrono::steady_clock::now();
  std::vector<SegmentScan> scans(segments.size());
  if (segments.size() > 1 &&
      common::ThreadPool::resolve_threads(options.recovery_threads) > 1) {
    common::ThreadPool pool(
        common::ThreadPool::resolve_threads(options.recovery_threads));
    pool.parallel_for(0, segments.size(), [&](std::size_t i) {
      scans[i] = scan_segment(segments[i].second, segments[i].first,
                              st.recovery.snapshot_seq);
    });
  } else {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      scans[i] = scan_segment(segments[i].second, segments[i].first,
                              st.recovery.snapshot_seq);
    }
  }
  // Everything above only read; refuse old formats before any repair.
  for (std::size_t i = 0; i < scans.size(); ++i) {
    if (scans[i].foreign) refuse_old_format(segments[i].second);
  }
  sutil::remove_stale_temp_files(directory);

  // Sequential merge in base order: fan tenant-tagged records back out to
  // per-tenant tails.  Interning happens here, in replay order, so
  // recovery is byte-identical for any recovery_threads.  The first torn
  // segment or sequence gap ends the global replay.  Only a tear in the
  // active segment is repaired; any other stop leaves the store read-only,
  // since appends after it would never be replayed.
  bool stop_replay = false;
  std::uint64_t covered = st.recovery.snapshot_seq;
  const auto stop = [&st, &stop_replay](const std::string& reason,
                                        bool repairable) {
    stop_replay = true;
    if (!st.recovery.wal_tail_torn) {
      st.recovery.wal_tail_torn = true;
      st.recovery.wal_tail_reason = reason;
    }
    if (!repairable && st.recovery.read_only_reason.empty()) {
      st.recovery.read_only_reason = reason;
    }
  };
  for (std::size_t i = 0; i < scans.size(); ++i) {
    SegmentScan& scan = scans[i];
    const bool is_active = i + 1 == scans.size();
    scan.stats.sealed = !is_active;
    ++st.recovery.segments_scanned;
    st.recovery.wal_bytes_salvaged += scan.stats.bytes;
    st.recovery.wal_bytes_dropped += scan.file_size - scan.stats.bytes;
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
          Tenant& tenant = tenant_slot(record.tenant);
          if (tenant.key.empty()) {
            tenant.key = record.key;
            tenant.key_persisted = true;
            st.tenant_by_key.emplace(tenant.key, record.tenant);
          } else if (tenant.key != record.key) {
            // CRC-valid but semantically impossible — a writer bug or
            // tampering.  Stop the replay like any other bad tail.
            stop("tenant key conflict for tenant id " +
                     std::to_string(record.tenant),
                 false);
            break;
          }
        }
        if (record.seq <= st.recovery.snapshot_seq) {
          ++st.recovery.wal_records_obsolete;
        } else {
          if (record.tenant >= st.tenants.size() ||
              st.tenants[record.tenant].key.empty()) {
            // A live record for a tenant the snapshot + earlier records
            // never registered: the prefix that carried its registration
            // is gone.  Stop rather than guess.
            stop("record references unregistered tenant id " +
                     std::to_string(record.tenant),
                 false);
            break;
          }
          Tenant& tenant = st.tenants[record.tenant];
          tenant.tail.push_back(std::make_shared<const trace::TraceBundle>(
              assemble_bundle(std::move(record.parts))));
          tenant.users.insert(tenant.tail.back()->fleet_key());
          tenant.last_seq = record.seq;
          ++st.recovery.wal_records_replayed;
        }
        st.last_seq = std::max(st.last_seq, record.seq);
      }
      covered = std::max(covered, scan.stats.last_seq);
    }
    // Resolve the per-tenant record counts now that keys are known.
    for (const auto& [id, count] : scan.tenant_counts) {
      const std::string label =
          id < st.tenants.size() && !st.tenants[id].key.empty()
              ? st.tenants[id].key
              : "tenant#" + std::to_string(id);
      scan.stats.tenant_records.emplace_back(label, count);
    }
    if (scan.stats.torn) {
      ++st.recovery.segments_salvaged;
      stop(scan.stats.reason, is_active);
    }
    scan.records.clear();
  }

  // Repair the active tail (salvage-and-truncate) of a writable store;
  // sealed segments are immutable and never touched.
  if (!scans.empty()) {
    SegmentScan& active = scans.back();
    const std::string& path = segments.back().second;
    if (active.stats.torn && st.recovery.read_only_reason.empty()) {
      const std::string header = segment_header(active.stats.base_seq);
      if (active.stats.bytes < header.size()) {
        const int fd = ::open(path.c_str(), O_WRONLY | O_TRUNC);
        if (fd < 0) throw Error("ShardStore: cannot repair " + path);
        write_all(fd, header, path);
        ::close(fd);
        active.stats.bytes = header.size();
      } else {
        fs::resize_file(path, active.stats.bytes);
      }
      st.recovery.tail_bytes_truncated =
          active.file_size - active.stats.bytes;
    }
    st.active_base = active.stats.base_seq;
    st.active_last_seq = active.stats.last_seq;
    st.active_bytes = active.stats.bytes;
    st.last_seq = std::max(st.last_seq, st.active_last_seq);
    for (std::size_t i = 0; i + 1 < scans.size(); ++i) {
      st.sealed.push_back({scans[i].stats.base_seq, scans[i].stats.last_seq,
                           segments[i].second});
    }
  } else {
    st.active_base = st.last_seq + 1;
    st.active_last_seq = st.last_seq;
    const std::string path = segment_path(directory, st.active_base);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) throw Error("ShardStore: cannot create " + path);
    const std::string header = segment_header(st.active_base);
    write_all(fd, header, path);
    ::close(fd);
    st.active_bytes = header.size();
  }
  st.recovery.decode_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - decode_begin)
          .count());
  st.recovery.tenants_recovered = st.tenant_by_key.size();

  // Manifest cross-check (advisory; the directory scan is authoritative).
  const std::string man_path = manifest_path(directory);
  if (fs::exists(man_path)) {
    const std::optional<ManifestContents> manifest =
        sutil::read_manifest(man_path);
    if (!manifest) {
      st.recovery.manifest_ok = false;
      st.recovery.manifest_note =
          "corrupt manifest; recovered from directory scan";
    } else {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> actual;
      for (const SealedSegment& sealed : st.sealed) {
        actual.emplace_back(sealed.base_seq, sealed.last_seq);
      }
      if (manifest->snapshot_seq != st.recovery.snapshot_seq) {
        st.recovery.manifest_ok = false;
        st.recovery.manifest_note =
            "manifest snapshot seq disagrees with newest valid snapshot";
      } else if (manifest->sealed != actual ||
                 manifest->active_base != st.active_base) {
        st.recovery.manifest_ok = false;
        st.recovery.manifest_note =
            "manifest is stale (behind the directory scan)";
      }
    }
  } else if (!segments.empty()) {
    st.recovery.manifest_ok = false;
    st.recovery.manifest_note =
        "manifest missing; recovered from directory scan";
  }

  for (std::size_t i = 0; i < scans.size(); ++i) {
    st.recovery.segments.push_back(std::move(scans[i].stats));
  }

  // Reopen the active tail for appends.
  {
    const std::string path = segment_path(directory, st.active_base);
    st.active_fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (st.active_fd < 0) throw Error("ShardStore: cannot open " + path);
  }

  return ShardStore(std::move(st));
}

ShardStore::ShardStore(Recovered&& st)
    : directory_(std::move(st.directory)),
      options_(st.options),
      recovery_(std::move(st.recovery)),
      last_seq_(st.last_seq),
      snapshot_seq_(recovery_.snapshot_seq),
      tenants_(std::move(st.tenants)),
      tenant_by_key_(std::move(st.tenant_by_key)),
      durable_seq_(st.last_seq),
      sealed_segments_(std::move(st.sealed)),
      active_fd_(st.active_fd),
      active_base_(st.active_base),
      active_last_seq_(st.active_last_seq),
      active_bytes_(st.active_bytes),
      written_seq_(st.last_seq) {
  // Publish a manifest matching recovered reality (a read-only store
  // changes no file).
  if (recovery_.read_only_reason.empty()) write_manifest();
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
  if (id >= tenants_.size() || tenants_[id].key.empty()) {
    throw InvalidArgument("ShardStore: unknown tenant id " +
                          std::to_string(id));
  }
  return tenants_[id];
}

const ShardStore::Tenant& ShardStore::tenant_ref(TenantId id) const {
  std::shared_lock<std::shared_mutex> lk(tenant_mutex_);
  if (id >= tenants_.size() || tenants_[id].key.empty()) {
    throw InvalidArgument("ShardStore: unknown tenant id " +
                          std::to_string(id));
  }
  return tenants_[id];
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

std::optional<TenantId> ShardStore::find_tenant(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lk(tenant_mutex_);
  const auto it = tenant_by_key_.find(key);
  if (it == tenant_by_key_.end()) return std::nullopt;
  return it->second;
}

std::size_t ShardStore::tenant_count() const {
  std::shared_lock<std::shared_mutex> lk(tenant_mutex_);
  return tenant_by_key_.size();
}

const std::string& ShardStore::tenant_key(TenantId id) const {
  return tenant_ref(id).key;
}

std::vector<TenantInfo> ShardStore::tenants() const {
  std::shared_lock<std::shared_mutex> lk(tenant_mutex_);
  std::vector<TenantInfo> out;
  out.reserve(tenant_by_key_.size());
  for (std::size_t id = 0; id < tenants_.size(); ++id) {
    const Tenant& tenant = tenants_[id];
    if (tenant.key.empty()) continue;  // unregistered placeholder (gap)
    TenantInfo& info = out.emplace_back();
    info.id = static_cast<TenantId>(id);
    info.key = tenant.key;
    info.fleet_size = tenant.users.size();
    info.tail_size = tenant.tail.size();
    info.last_seq = tenant.last_seq;
  }
  return out;
}

std::vector<core::AnalyzedTrace> ShardStore::snapshot_step1(
    TenantId id) const {
  return tenant_ref(id).slots;
}

const std::vector<BundleRef>& ShardStore::tail_refs(TenantId id) const {
  return tenant_ref(id).tail;
}

std::uint64_t ShardStore::tenant_last_seq(TenantId id) const {
  return tenant_ref(id).last_seq;
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
  // All the expensive work — encoding, optional compression, the one
  // bundle copy — happens outside the lock; the encode buffer comes from
  // the pool the writer refills after each batch.
  std::string payload = take_pooled_payload();
  encode_bundle(bundle, payload);
  auto ref = std::make_shared<const trace::TraceBundle>(bundle);
  std::uint8_t kind = kRecordKindBundle;
  if (options_.compress) {
    std::string packed;
    put_varint(packed, payload.size());
    packed += common::block_compress(payload);
    if (packed.size() < payload.size()) {
      kind = kRecordKindCompressed;
      std::swap(payload, packed);
      // `packed` now holds the raw encode buffer; hand it back.
      std::lock_guard<std::mutex> lk(pool_mutex_);
      if (payload_pool_.size() < kMaxPooledPayloads &&
          packed.capacity() <= kMaxPooledPayloadCapacity) {
        packed.clear();
        payload_pool_.push_back(std::move(packed));
      }
    }
  }

  std::unique_lock<std::mutex> lk(mutex_);
  if (writer_error_) std::rethrow_exception(writer_error_);
  room_cv_.wait(lk, [this] {
    return queue_bytes_ < kMaxQueueBytes || stop_ ||
           writer_error_ != nullptr;
  });
  if (writer_error_) std::rethrow_exception(writer_error_);
  if (stop_) throw Error("ShardStore: store is closing");

  const std::uint64_t seq = ++last_seq_;
  if (!tenant.key_persisted) {
    // First record for this tenant: carry the key inline so recovery can
    // rebuild the id->key map from the log itself.
    kind = static_cast<std::uint8_t>(kind + kRecordKeyFlag);
    tenant.key_persisted = true;
  }
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
      if (pending.kind > kRecordKeyFlag) {
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

bool ShardStore::compaction_running() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return compaction_running_;
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

    std::string file;
    file.reserve(payload.size() + 24);
    file.append(kSnapshotMagic);
    put_varint(file, payload.size());
    file += payload;
    put_u32le(file, common::crc32c(payload));
    publish_file(snapshot_path(directory_, cut), file);

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

    const auto snapshots = sutil::list_snapshots(directory_);
    for (std::size_t i = 2; i < snapshots.size(); ++i) {
      fs::remove(snapshots[i].second);
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
