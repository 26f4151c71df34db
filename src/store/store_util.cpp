#include "store/store_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"
#include "common/error.h"
#include "store/codec.h"

namespace edx::store::sutil {

namespace fs = std::filesystem;

std::string segment_path(const std::string& directory, std::uint64_t base) {
  return directory + "/wal-" + std::to_string(base) + ".edx";
}

std::string manifest_path(const std::string& directory) {
  return directory + "/manifest.edx";
}

std::string snapshot_path(const std::string& directory, std::uint64_t seq) {
  return directory + "/snapshot-" + std::to_string(seq) + ".edx";
}

std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("wal-") || !name.ends_with(".edx")) continue;
    const std::string_view digits(name.data() + 4, name.size() - 8);
    std::uint64_t base = 0;
    const auto [ptr, ec] = std::from_chars(digits.begin(), digits.end(), base);
    if (ec != std::errc() || ptr != digits.end() || base == 0) continue;
    found.emplace_back(base, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::vector<std::pair<std::uint64_t, std::string>> list_snapshots(
    const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("snapshot-") || !name.ends_with(".edx")) continue;
    const std::string_view digits(name.data() + 9, name.size() - 13);
    std::uint64_t seq = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.begin(), digits.end(), seq);
    if (ec != std::errc() || ptr != digits.end()) continue;
    found.emplace_back(seq, entry.path().string());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return found;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("store: cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_all(int fd, std::string_view bytes, const std::string& what) {
  while (!bytes.empty()) {
    const ssize_t written = ::write(fd, bytes.data(), bytes.size());
    if (written < 0) throw Error("store: write failed for " + what);
    bytes.remove_prefix(static_cast<std::size_t>(written));
  }
}

void publish_file(const std::string& final_path, std::string_view bytes) {
  const std::string temp_path = final_path + ".tmp";
  const int fd =
      ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw Error("store: cannot create " + temp_path);
  try {
    write_all(fd, bytes, temp_path);
  } catch (...) {
    ::close(fd);
    ::unlink(temp_path.c_str());
    throw;
  }
  const bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(temp_path.c_str());
    throw Error("store: cannot sync " + temp_path);
  }
  fs::rename(temp_path, final_path);
}

void remove_stale_temp_files(const std::string& directory) {
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".tmp")) fs::remove(entry.path());
  }
}

bool scan_varint(std::string_view data, std::size_t& offset,
                 std::uint64_t& value) {
  value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (offset >= data.size()) return false;
    const auto byte = static_cast<unsigned char>(data[offset++]);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // > 64 bits: treat as corruption, not a valid length
}

std::optional<ManifestContents> read_manifest(const std::string& path) {
  std::string bytes;
  try {
    bytes = read_file_bytes(path);
  } catch (const Error&) {
    return std::nullopt;
  }
  ManifestContents contents;
  try {
    Reader file{std::string_view(bytes)};
    if (file.remaining() < kManifestMagic.size() ||
        file.bytes(kManifestMagic.size()) != kManifestMagic) {
      return std::nullopt;
    }
    const std::uint64_t payload_len = file.varint();
    if (file.remaining() != payload_len + 4) return std::nullopt;
    const std::string_view payload_bytes =
        file.bytes(static_cast<std::size_t>(payload_len));
    if (file.u32le() != common::crc32c(payload_bytes)) return std::nullopt;
    Reader payload(payload_bytes);
    contents.snapshot_seq = payload.varint();
    const std::uint64_t sealed_count = payload.varint();
    if (sealed_count > payload.remaining()) return std::nullopt;
    contents.sealed.reserve(static_cast<std::size_t>(sealed_count));
    for (std::uint64_t i = 0; i < sealed_count; ++i) {
      const std::uint64_t base = payload.varint();
      const std::uint64_t last = payload.varint();
      contents.sealed.emplace_back(base, last);
    }
    contents.active_base = payload.varint();
    if (!payload.done()) return std::nullopt;
  } catch (const ParseError&) {
    return std::nullopt;
  }
  return contents;
}

std::string render_manifest(const ManifestContents& contents) {
  std::string payload;
  put_varint(payload, contents.snapshot_seq);
  put_varint(payload, contents.sealed.size());
  for (const auto& [base, last] : contents.sealed) {
    put_varint(payload, base);
    put_varint(payload, last);
  }
  put_varint(payload, contents.active_base);
  std::string file;
  file.reserve(payload.size() + 24);
  file.append(kManifestMagic);
  put_varint(file, payload.size());
  file += payload;
  put_u32le(file, common::crc32c(payload));
  return file;
}

}  // namespace edx::store::sutil
