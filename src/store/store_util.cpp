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

std::vector<std::pair<std::uint64_t, std::string>> list_numbered(
    const std::string& directory, std::string_view prefix) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(prefix) || !name.ends_with(".edx")) continue;
    const std::string_view digits(name.data() + prefix.size(),
                                  name.size() - prefix.size() - 4);
    std::uint64_t number = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.begin(), digits.end(), number);
    if (ec != std::errc() || ptr != digits.end() || number == 0) continue;
    found.emplace_back(number, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

void refuse_old_format(const std::string& path) {
  throw Error("store: " + path +
              " is in an old on-disk format; re-ingest its traces into a "
              "new store root");
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
    Reader payload(unframe_file(bytes, kManifestMagic));
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
  return frame_file(kManifestMagic, payload);
}

std::string frame_file(std::string_view magic, std::string_view payload) {
  std::string file(magic);
  put_varint(file, payload.size());
  file += payload;
  put_u32le(file, common::crc32c(payload));
  return file;
}

std::string_view unframe_file(std::string_view bytes, std::string_view magic) {
  Reader file(bytes);
  if (file.remaining() < magic.size() || file.bytes(magic.size()) != magic) {
    throw ParseError("bad magic");
  }
  const std::uint64_t payload_len = file.varint();
  if (file.remaining() != payload_len + 4) throw ParseError("bad length");
  const std::string_view payload =
      file.bytes(static_cast<std::size_t>(payload_len));
  if (file.u32le() != common::crc32c(payload)) {
    throw ParseError("CRC32C mismatch");
  }
  return payload;
}

}  // namespace edx::store::sutil
