// File-level plumbing of the WAL-backed store (shard_store.cpp,
// store_root.cpp): path naming, directory scans, small-file framing and
// crash-safe publication, the hand-rolled salvage varint, and the
// advisory manifest codec.  The per-record framing stays with the store.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace edx::store::sutil {

/// The manifest records *which* segments exist, not how their frames are
/// laid out.
inline constexpr std::string_view kManifestMagic = "EDXMAN01";

std::string segment_path(const std::string& directory, std::uint64_t base);
std::string manifest_path(const std::string& directory);
std::string snapshot_path(const std::string& directory, std::uint64_t seq);

/// `<prefix><number>.edx` files in `directory` (wal-<base>.edx,
/// snapshot-<seq>.edx), ascending number; number 0 is never written.
std::vector<std::pair<std::uint64_t, std::string>> list_numbered(
    const std::string& directory, std::string_view prefix);

/// Throws the one-line Error that refuses `path` as an old on-disk format
/// and asks for a re-ingest.
[[noreturn]] void refuse_old_format(const std::string& path);

/// Slurps a file; throws Error when unreadable.
std::string read_file_bytes(const std::string& path);

/// write(2) until done; throws Error naming `what` on failure.
void write_all(int fd, std::string_view bytes, const std::string& what);

/// Crash-safe small-file publication: temp file, fsync, atomic rename.
/// A failed write, fsync or close unlinks the temp file and throws Error
/// naming it; the rename happens only after a successful sync.
void publish_file(const std::string& final_path, std::string_view bytes);

/// Deletes stray .tmp files a crash between temp-write and rename left
/// behind (they were never published, so they are garbage).
void remove_stale_temp_files(const std::string& directory);

/// Parses a varint by hand so a truncated length is a clean end-of-scan
/// instead of an exception; returns false when the buffer ends mid-varint
/// (or the value would exceed 64 bits — corruption, not a valid length).
bool scan_varint(std::string_view data, std::size_t& offset,
                 std::uint64_t& value);

struct ManifestContents {
  std::uint64_t snapshot_seq{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sealed;  // base, last
  std::uint64_t active_base{0};
};

/// Parses manifest.edx; nullopt on any damage (the manifest is advisory,
/// so damage only downgrades manifest_ok, never recovery).
std::optional<ManifestContents> read_manifest(const std::string& path);

/// The framing layout.edx, manifest.edx and snapshots share: `magic` +
/// varint payload_len + payload + u32le crc32c(payload).
std::string frame_file(std::string_view magic, std::string_view payload);

/// frame_file()'s payload inside `bytes`; ParseError when the magic, the
/// length or the CRC is wrong.
std::string_view unframe_file(std::string_view bytes, std::string_view magic);

std::string render_manifest(const ManifestContents& contents);

}  // namespace edx::store::sutil
