// File-level plumbing of the WAL-backed store (shard_store.cpp): path
// naming, directory scans, crash-safe small-file publication, the
// hand-rolled salvage varint, and the advisory manifest codec.  The
// per-record framing (and its magic) stays with the store.
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

/// wal-<base>.edx files in `directory`, ascending base order.
std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& directory);

/// snapshot-<seq>.edx files in `directory`, newest seq first.
std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& directory);

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

std::string render_manifest(const ManifestContents& contents);

}  // namespace edx::store::sutil
