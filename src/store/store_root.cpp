#include "store/store_root.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>

#include "common/error.h"
#include "store/codec.h"
#include "store/store_util.h"

namespace edx::store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kLayoutMagic = "EDXLAY01";

/// root/layout.edx's shard count; nullopt when the file is missing.  A
/// corrupt file throws: guessing the count would split tenants.
std::optional<std::size_t> read_layout(const std::string& root) {
  const std::string path = root + "/layout.edx";
  if (!fs::exists(path)) return std::nullopt;
  const std::string bytes = sutil::read_file_bytes(path);
  try {
    Reader payload(sutil::unframe_file(bytes, kLayoutMagic));
    const auto shard_count = static_cast<std::size_t>(payload.varint());
    if (!payload.done() || shard_count == 0) {
      throw ParseError("bad shard count");
    }
    return shard_count;
  } catch (const ParseError& failure) {
    throw Error("store: corrupt layout file " + path + ": " + failure.what());
  }
}

void write_layout(const std::string& root, std::size_t shard_count) {
  std::string payload;
  put_varint(payload, shard_count);
  sutil::publish_file(root + "/layout.edx",
                      sutil::frame_file(kLayoutMagic, payload));
}

/// The shard count `root` pins (0 for none), after the root-level
/// refusals StoreRoot::scan lists.
std::size_t pinned_shard_count(const std::string& root, bool& has_layout) {
  if (!fs::exists(root)) return 0;
  if (!fs::is_directory(root)) {
    throw Error("store: " + root + " is not a directory");
  }
  const std::optional<std::size_t> layout = read_layout(root);
  has_layout = layout.has_value();

  const auto is_store_file = [](const fs::directory_entry& entry) {
    const std::string name = entry.path().filename().string();
    return ((name.starts_with("wal-") || name.starts_with("snapshot-")) &&
            name.ends_with(".edx")) ||
           name == "manifest.edx";
  };
  std::size_t shard_dirs = 0;  // one past the largest shard-<i> index
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory()) {
      // The retired single-store layout kept its files at the top.
      if (is_store_file(entry)) sutil::refuse_old_format(root);
      continue;
    }
    std::size_t index = 0;
    const char* const end = name.data() + name.size();
    const bool is_shard = name.starts_with("shard-") && [&] {
      const auto [ptr, ec] = std::from_chars(name.data() + 6, end, index);
      return ec == std::errc() && ptr == end;
    }();
    if (is_shard) {
      shard_dirs = std::max(shard_dirs, index + 1);
      continue;
    }
    // The retired per-tenant layout: a store directory per tenant.
    std::error_code error;
    for (const fs::directory_entry& inner :
         fs::directory_iterator(entry.path(), error)) {
      if (is_store_file(inner)) {
        sutil::refuse_old_format(entry.path().string());
      }
    }
  }
  // Without a layout file (a crash before open() published it) the
  // directories are the fallback.
  return layout ? *layout : shard_dirs;
}

}  // namespace

std::size_t home_shard(std::string_view key, std::size_t shards) {
  require(shards > 0, "home_shard: need at least one shard");
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : key) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  return static_cast<std::size_t>(hash % shards);
}

StoreRoot StoreRoot::scan(const std::string& path, const StoreOptions& options,
                          std::size_t requested, std::size_t fresh) {
  StoreRoot root;
  root.path_ = path;
  std::size_t count = pinned_shard_count(path, root.has_layout_);
  if (count != 0 && requested != 0 && requested != count) {
    throw InvalidArgument("store: root '" + path + "' is partitioned for " +
                          std::to_string(count) + " shard(s), not " +
                          std::to_string(requested) +
                          "; reopen it with its own count");
  }
  if (count == 0) count = requested != 0 ? requested : fresh;

  std::vector<std::string> directories;
  for (std::size_t s = 0; s < count; ++s) {
    directories.push_back(shard_dir(path, s));
  }
  root.shards_ = ShardStore::scan_each(directories, options);
  return root;
}

std::string StoreRoot::misplaced() const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (const TenantInfo& tenant : shards_[s].tenants()) {
      const std::size_t home = home_shard(tenant.key, shards_.size());
      if (home != s) {
        return "tenant '" + tenant.key + "' on shard-" + std::to_string(s) +
               ", but its home shard is shard-" + std::to_string(home);
      }
    }
  }
  return {};
}

void StoreRoot::check() const {
  // Replay runs shard by shard, so an older re-upload on a later shard
  // would replace a newer one: such a tenant cannot be merged safely.
  const std::string problem = misplaced();
  if (!problem.empty()) {
    throw Error("store: root '" + path_ + "' holds records of " + problem +
                "; re-ingest the tenant's uploads into a new root");
  }
}

std::vector<std::unique_ptr<ShardStore>> StoreRoot::open() && {
  check();
  // Every shard directory exists before any store opens, and layout.edx
  // is published last: a crash in between leaves directories whose count
  // the next scan infers, and a refused open never pins a count.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    fs::create_directories(shard_dir(path_, s));
  }
  std::vector<std::unique_ptr<ShardStore>> stores;
  for (ShardScan& scan : shards_) {
    stores.push_back(std::unique_ptr<ShardStore>(
        new ShardStore(ShardStore::open(std::move(scan)))));
  }
  if (!has_layout_) write_layout(path_, shards_.size());
  return stores;
}

}  // namespace edx::store
