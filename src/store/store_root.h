// A store root: layout.edx (the pinned shard count) plus one ShardStore
// directory per shard, shard-<i>/ (store/shard_store.h).  Every command
// opens a root the one way below: scan() reads only — it resolves the
// shard count (layout.edx, else the shard-<i>/ directories, else the
// caller's) and scans every shard in parallel; check() refuses a tenant
// with records off its home shard; open() is for writers.  Every refusal
// throws an Error before any file changes, so store-info and analyze
// --store, which never open, repair nothing.
//
// layout.edx := "EDXLAY01" + varint payload_len + payload(varint
// shard_count) + u32le crc32c(payload).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/shard_store.h"

namespace edx::store {

/// The shard every record of tenant `key` goes to: FNV-1a 64 over the key
/// bytes, mod `shards`.  layout.edx pins the shard count because records
/// route by this hash, so the function must never change.  Throws
/// InvalidArgument when shards is 0.
std::size_t home_shard(std::string_view key, std::size_t shards);

class StoreRoot {
 public:
  /// Refuses a corrupt layout.edx, store files outside shard-<i>/
  /// (retired layouts), a `requested` count other than the root's (0
  /// adopts it) and any shard ShardStore::scan_each refuses.  A root
  /// without a count gets `requested`, else `fresh`.
  static StoreRoot scan(const std::string& path,
                        const StoreOptions& options = {},
                        std::size_t requested = 0, std::size_t fresh = 0);

  /// 0 when the root holds no store and the caller gave no count.
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// False when layout.edx is missing: the count came from the shard-<i>/
  /// directories or the caller, and open() publishes it.
  [[nodiscard]] bool has_layout() const { return has_layout_; }
  [[nodiscard]] const ShardScan& shard(std::size_t index) const {
    return shards_.at(index);
  }

  /// "tenant 'k' on shard-1, but its home shard is shard-0" for the first
  /// such tenant in shard order; empty when every tenant is home.
  [[nodiscard]] std::string misplaced() const;
  /// Throws an Error naming misplaced() and asking for a re-ingest.
  void check() const;

  /// For a writer: check(), create every shard directory, apply every
  /// shard's repair plan (ShardStore::open), then publish a missing
  /// layout.edx.  The opened stores, in shard order.
  std::vector<std::unique_ptr<ShardStore>> open() &&;

 private:
  std::string path_;
  bool has_layout_{false};
  std::vector<ShardScan> shards_;
};

}  // namespace edx::store
