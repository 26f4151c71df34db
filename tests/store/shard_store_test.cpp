// ShardStore's durability contract: many tenants share one tenant-tagged
// WAL, a drained batch touching K tenants costs ONE fdatasync (not K),
// and recovery fans the tagged records back out to byte-identical
// per-tenant fleets for any decoder thread count.  Any prefix of appends
// survives a restart byte-identically; a torn or corrupt active tail is
// truncated to the salvaged prefix (never read past the first bad CRC)
// while sealed segments are never modified, and any other early stop
// (a torn sealed segment, a sequence gap) leaves the store read-only; the
// snapshot's Step-1 slots, folded from the tail at each compaction,
// warm-start the analyzer to the exact bytes of a never-restarted run;
// and files in an old on-disk format are refused untouched.  Plus the
// partitioned-root helpers (layout pinning, root inspection) the service
// builds on, and (suite FleetStoreTest) the single-fleet store that the
// CLI's --store commands keep.  See store/shard_store.h and DESIGN.md
// §13 and §16.
#include "store/shard_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/error.h"
#include "core/event_power.h"
#include "core/fleet_analyzer.h"
#include "core/pipeline.h"
#include "core/report_io.h"
#include "power/tracker.h"
#include "store/codec.h"
#include "trace/recorder.h"

namespace edx::store {
namespace {

namespace fs = std::filesystem;

std::string temp_store(const std::string& leaf) {
  const std::string path = ::testing::TempDir() + "/edx_shard_" + leaf;
  fs::remove_all(path);
  return path;
}

power::UtilizationSample sample(TimestampMs timestamp, double power) {
  power::UtilizationSample s;
  s.timestamp = timestamp;
  s.estimated_app_power_mw = power;
  return s;
}

/// Same Fig.-6 fixture as fleet_analyzer_test.cpp: 12 alternating events,
/// optional ABD step at event 6, `variant` perturbs powers so re-uploads
/// are distinguishable.
trace::TraceBundle make_trace(UserId user, bool with_abd, int variant = 0) {
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  const int events = 12;
  const int triangle_at = with_abd ? 6 : -1;
  for (int i = 0; i < events; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    std::string name = (i % 2 == 0) ? "circle" : "square";
    if (i == triangle_at) name = "triangle";
    bundle.events.add_instance(name, {t + 10, t + 40});

    double power = (i % 2 == 0) ? 100.0 : 400.0;
    if (i == triangle_at) power = 150.0;
    if (with_abd && i >= triangle_at) power += 500.0;
    power += 3.0 * ((user * 7 + i * 13 + variant * 17) % 5);
    samples.push_back(sample(t + 500, power));
    samples.push_back(sample(t + 1000, power));
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

std::vector<trace::TraceBundle> make_fleet(int users, int variant = 0) {
  std::vector<trace::TraceBundle> bundles;
  for (UserId user = 0; user < users; ++user) {
    bundles.push_back(make_trace(user, /*with_abd=*/user % 3 == 1, variant));
  }
  return bundles;
}

core::AnalysisConfig make_config(std::size_t num_threads) {
  core::AnalysisConfig config;
  config.reporting.window_size = 2;
  config.reporting.developer_reported_fraction = 0.25;
  config.num_threads = num_threads;
  return config;
}

std::string render(const core::AnalysisResult& result) {
  core::ReportRenderOptions options;
  options.developer_reported_fraction = 0.25;
  return core::report_to_text(result.report, /*code_map=*/nullptr, options) +
         core::report_to_json(result.report, /*code_map=*/nullptr, options);
}

/// Each user's latest bundle among `refs`, in first-arrival slot order:
/// the fleet a store with no snapshot holds (replace-not-duplicate).
std::vector<trace::TraceBundle> latest_by_user(
    const std::vector<BundleRef>& refs) {
  std::vector<trace::TraceBundle> fleet;
  std::map<UserId, std::size_t> slot_of;
  for (const BundleRef& ref : refs) {
    const auto [it, inserted] = slot_of.emplace(ref->user, fleet.size());
    if (inserted) fleet.emplace_back();
    fleet[it->second] = *ref;
  }
  return fleet;
}

/// The fleet of a store that holds a snapshot, as Step-1 images:
/// snapshot_step1()'s slots with each tail bundle's Step 1 folded in by
/// user (a re-upload replaces its user's slot, a new user appends one).
std::vector<core::AnalyzedTrace> fleet_step1(const ShardStore& store,
                                             TenantId id) {
  std::vector<core::AnalyzedTrace> fleet = store.snapshot_step1(id);
  for (const BundleRef& ref : store.tail_refs(id)) {
    const auto slot = std::find_if(
        fleet.begin(), fleet.end(),
        [&ref](const core::AnalyzedTrace& trace) {
          return trace.user == ref->user;
        });
    if (slot == fleet.end()) {
      fleet.push_back(core::estimate_event_power(*ref));
    } else {
      *slot = core::estimate_event_power(*ref);
    }
  }
  return fleet;
}

/// Step-1 images against Step 1 of the bundles they must describe, slot
/// by slot and bitwise: user, event id, interval and raw power.
void expect_step1_equals(const std::vector<core::AnalyzedTrace>& got,
                         const std::vector<trace::TraceBundle>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    const core::AnalyzedTrace direct = core::estimate_event_power(want[t]);
    EXPECT_EQ(got[t].user, direct.user);
    ASSERT_EQ(got[t].events.size(), direct.events.size());
    for (std::size_t i = 0; i < got[t].events.size(); ++i) {
      EXPECT_EQ(got[t].events[i].id, direct.events[i].id);
      EXPECT_EQ(got[t].events[i].interval, direct.events[i].interval);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].events[i].raw_power),
                std::bit_cast<std::uint64_t>(direct.events[i].raw_power));
    }
  }
}

void expect_fleet_equals(const std::vector<trace::TraceBundle>& got,
                         const std::vector<trace::TraceBundle>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    EXPECT_EQ(got[i].user, want[i].user);
    EXPECT_EQ(got[i].to_text(), want[i].to_text());
    // to_text goes through decimal formatting; the samples must also be
    // bit-identical (the codec ships raw IEEE-754 bits).
    EXPECT_EQ(got[i].utilization.samples(), want[i].utilization.samples());
  }
}

/// All wal-<base>.edx segments in `dir`, ascending base order.
std::vector<std::string> segment_paths(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".edx")) {
      found.emplace_back(std::stoull(name.substr(4)), entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  for (auto& [base, path] : found) paths.push_back(std::move(path));
  return paths;
}

/// The active tail: the wal-<base>.edx with the largest base.
std::string active_wal(const std::string& dir) {
  const std::vector<std::string> segments = segment_paths(dir);
  EXPECT_FALSE(segments.empty()) << "no WAL segments in " << dir;
  return segments.empty() ? "" : segments.back();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Small segments so a handful of ~1.7 KB records spans several files.
StoreOptions tiny_segments(std::size_t target_bytes = 4'000) {
  StoreOptions options;
  options.segment_target_bytes = target_bytes;
  return options;
}

/// Every file under `dir` (recursively), keyed by path: the before/after
/// image the refusal tests compare byte for byte.
std::map<std::string, std::string> tree_bytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().string()] = read_file(entry.path().string());
    }
  }
  return files;
}

/// A segment in the retired single-tenant format: "EDXWAL02" + varint
/// base, then frames of u8 kind | varint seq | bundle record.
std::string old_format_segment() {
  std::string file = "EDXWAL02";
  put_varint(file, 1);
  std::string frame(1, '\1');
  put_varint(frame, 1);
  frame += encode_bundle(make_trace(0, true));
  put_varint(file, frame.size());
  file += frame;
  put_u32le(file, common::crc32c(frame));
  return file;
}

/// A snapshot in the retired single-tenant format ("EDXSNAP1" + u32le
/// version + varint payload_len + payload + u32le crc32c).
std::string old_format_snapshot() {
  std::string payload;
  put_varint(payload, 1);  // seq
  put_varint(payload, 1);  // bundle_count
  put_string(payload, encode_bundle(make_trace(0, true)));
  put_varint(payload, 0);  // name_count
  put_varint(payload, 0);  // slot_count
  std::string file = "EDXSNAP1";
  put_u32le(file, 1);
  put_varint(file, payload.size());
  file += payload;
  put_u32le(file, common::crc32c(payload));
  return file;
}

/// A snapshot in the retired EDXSNP2 format, which stored every fleet
/// bundle whole next to Step 1's per-event power lists ("EDXSNP2" + u32le
/// version + varint payload_len + payload + u32le crc32c).
std::string v2_format_snapshot() {
  std::string payload;
  put_varint(payload, 1);  // seq
  put_varint(payload, 1);  // tenant_count
  put_varint(payload, 0);  // tenant id
  put_string(payload, "alpha");
  put_varint(payload, 1);  // bundle_count
  put_string(payload, encode_bundle(make_trace(0, true)));
  put_varint(payload, 0);  // name_count
  put_varint(payload, 0);  // slot_count
  std::string file = "EDXSNP2";
  put_u32le(file, 1);
  put_varint(file, payload.size());
  file += payload;
  put_u32le(file, common::crc32c(payload));
  return file;
}

/// Runs `open`, which must throw the one-line re-ingest Error naming
/// `path`, and checks that no file under `dir` changed.
template <typename Open>
void expect_refused_untouched(const std::string& dir, const std::string& path,
                              Open&& open) {
  const std::map<std::string, std::string> before = tree_bytes(dir);
  try {
    open();
    ADD_FAILURE() << "old format under " << dir << " was not refused";
  } catch (const Error& refusal) {
    const std::string message = refusal.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("re-ingest"), std::string::npos) << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
  EXPECT_EQ(tree_bytes(dir), before) << "refusal changed files under " << dir;
}

// ---------------------------------------------------------------------
// Partitioned-root helpers
// ---------------------------------------------------------------------

TEST(ShardRootTest, LayoutRoundTripsAndRejectsCorruption) {
  const std::string root = temp_store("layout");
  EXPECT_FALSE(read_layout(root).has_value());
  fs::create_directories(root);
  EXPECT_FALSE(read_layout(root).has_value());

  write_layout(root, 3);
  const std::optional<PartitionedLayout> layout = read_layout(root);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->shard_count, 3u);

  // A corrupt layout file throws rather than guessing a shard count —
  // reopening with the wrong count would silently split tenants.
  std::string bytes = read_file(root + "/layout.edx");
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
  write_file(root + "/layout.edx", bytes);
  EXPECT_THROW(static_cast<void>(read_layout(root)), Error);
}

TEST(ShardRootTest, InspectRootClassifiesEveryKind) {
  const std::string missing = temp_store("inspect_missing");
  EXPECT_EQ(inspect_root(missing).kind, RootKind::kMissing);

  const std::string empty = temp_store("inspect_empty");
  fs::create_directories(empty);
  EXPECT_EQ(inspect_root(empty).kind, RootKind::kEmpty);

  // A layout file alone makes the root partitioned.
  const std::string pinned = temp_store("inspect_pinned");
  fs::create_directories(pinned);
  write_layout(pinned, 4);
  {
    const RootInfo info = inspect_root(pinned);
    EXPECT_EQ(info.kind, RootKind::kPartitioned);
    EXPECT_EQ(info.shard_count, 4u);
  }

  // shard-<i>/ directories alone do too (count inferred from the max).
  const std::string bare = temp_store("inspect_bare");
  fs::create_directories(shard_dir(bare, 0));
  fs::create_directories(shard_dir(bare, 2));
  {
    const RootInfo info = inspect_root(bare);
    EXPECT_EQ(info.kind, RootKind::kPartitioned);
    EXPECT_EQ(info.shard_count, 3u);
  }

  // Unrelated subdirectories and files do not make a store.
  const std::string notes = temp_store("inspect_notes");
  fs::create_directories(notes + "/docs");
  write_file(notes + "/docs/readme.txt", "not a store");
  EXPECT_EQ(inspect_root(notes).kind, RootKind::kEmpty);

  // Store files at the top level are the retired single-store layout:
  // refused with a re-ingest error, never opened or repaired.
  const std::string single = temp_store("inspect_single");
  fs::create_directories(single);
  write_file(single + "/wal-1.edx", old_format_segment());
  write_file(single + "/manifest.edx", "EDXMAN01");
  expect_refused_untouched(single, single,
                           [&] { static_cast<void>(inspect_root(single)); });

  // Store directories not named shard-<i> are the retired per-tenant
  // layout — refused too, with or without a layout file beside them.
  const std::string legacy = temp_store("inspect_legacy");
  fs::create_directories(legacy + "/alpha");
  write_file(legacy + "/alpha/wal-1.edx", old_format_segment());
  write_file(legacy + "/alpha/snapshot-1.edx", old_format_snapshot());
  expect_refused_untouched(legacy, legacy + "/alpha",
                           [&] { static_cast<void>(inspect_root(legacy)); });
  write_layout(legacy, 2);
  expect_refused_untouched(legacy, legacy + "/alpha",
                           [&] { static_cast<void>(inspect_root(legacy)); });
}

// publish_file (layout, manifests, snapshots) renames only after a
// successful fsync.  fsync(2) on /dev/null fails with EINVAL, so a temp
// path planted as a symlink to it must fail the publish cleanly.
TEST(ShardRootTest, LayoutPublishFailsWhenFsyncFails) {
  const std::string root = temp_store("layout_fsync");
  fs::create_directories(root);
  fs::create_symlink("/dev/null", root + "/layout.edx.tmp");
  EXPECT_THROW(write_layout(root, 3), Error);
  EXPECT_FALSE(fs::exists(fs::symlink_status(root + "/layout.edx")));
  EXPECT_FALSE(fs::exists(fs::symlink_status(root + "/layout.edx.tmp")));
  EXPECT_FALSE(read_layout(root).has_value());
}

// ---------------------------------------------------------------------
// ShardStore basics
// ---------------------------------------------------------------------

TEST(ShardStoreTest, OpenCreatesEmptyStore) {
  const std::string dir = temp_store("create");
  const ShardStore store = ShardStore::open(dir);
  EXPECT_EQ(store.tenant_count(), 0u);
  EXPECT_EQ(store.last_seq(), 0u);
  EXPECT_EQ(store.snapshot_seq(), 0u);
  EXPECT_FALSE(store.recovery().wal_tail_torn);
  EXPECT_TRUE(store.recovery().manifest_ok);
  EXPECT_TRUE(fs::exists(dir + "/wal-1.edx"));
  EXPECT_TRUE(fs::exists(dir + "/manifest.edx"));
  // The first segment starts as just its header: magic + varint base.
  EXPECT_EQ(fs::file_size(dir + "/wal-1.edx"), 9u);
}

TEST(ShardStoreTest, EnsureTenantIsIdempotentAndLeavesNoDiskTrace) {
  const std::string dir = temp_store("ensure");
  {
    ShardStore store = ShardStore::open(dir);
    const TenantId alpha = store.ensure_tenant("alpha");
    const TenantId beta = store.ensure_tenant("beta");
    EXPECT_NE(alpha, beta);
    EXPECT_EQ(store.ensure_tenant("alpha"), alpha);
    EXPECT_EQ(store.tenant_count(), 2u);
    EXPECT_EQ(store.tenant_key(alpha), "alpha");
    EXPECT_EQ(store.find_tenant("beta"), std::optional<TenantId>(beta));
    EXPECT_FALSE(store.find_tenant("gamma").has_value());
    EXPECT_THROW(static_cast<void>(store.tenant_key(57)), Error);
  }
  // Registration without an append writes nothing: the reopened store
  // has never heard of either tenant.
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.tenant_count(), 0u);
  EXPECT_EQ(recovered.last_seq(), 0u);
}

TEST(ShardStoreTest, InterleavedTenantsRoundTripAcrossReopen) {
  const std::string dir = temp_store("roundtrip");
  const std::vector<trace::TraceBundle> alpha_fleet = make_fleet(3);
  const std::vector<trace::TraceBundle> beta_fleet = make_fleet(2, 5);
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    // Interleave so the shared log carries alternating tenant tags.
    store.append(alpha, alpha_fleet[0]);
    store.append(beta, beta_fleet[0]);
    store.append(alpha, alpha_fleet[1]);
    store.append(beta, beta_fleet[1]);
    store.append(alpha, alpha_fleet[2]);
    EXPECT_EQ(store.last_seq(), 5u);  // one shared sequence space
    EXPECT_EQ(store.tenant_last_seq(alpha), 5u);
    EXPECT_EQ(store.tenant_last_seq(beta), 4u);
    expect_fleet_equals(latest_by_user(store.tail_refs(alpha)), alpha_fleet);
    expect_fleet_equals(latest_by_user(store.tail_refs(beta)), beta_fleet);
  }
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 5u);
  EXPECT_EQ(recovered.recovery().tenants_recovered, 2u);
  EXPECT_EQ(recovered.last_seq(), 5u);
  // Ids are permanent: recovery reassigns the same ones in first-record
  // order.
  ASSERT_EQ(recovered.tenant_count(), 2u);
  EXPECT_EQ(recovered.find_tenant("alpha"), std::optional<TenantId>(alpha));
  EXPECT_EQ(recovered.find_tenant("beta"), std::optional<TenantId>(beta));
  expect_fleet_equals(latest_by_user(recovered.tail_refs(alpha)), alpha_fleet);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(beta)), beta_fleet);

  // The per-segment report names both tenants with their record counts.
  ASSERT_EQ(recovered.recovery().segments.size(), 1u);
  const SegmentStats& seg = recovered.recovery().segments[0];
  ASSERT_EQ(seg.tenant_records.size(), 2u);
  EXPECT_EQ(seg.tenant_records[0],
            (std::pair<std::string, std::size_t>{"alpha", 3u}));
  EXPECT_EQ(seg.tenant_records[1],
            (std::pair<std::string, std::size_t>{"beta", 2u}));

  // tenants() reports ascending ids with the right shapes.
  const std::vector<TenantInfo> infos = recovered.tenants();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].key, "alpha");
  EXPECT_EQ(infos[0].fleet_size, 3u);
  EXPECT_EQ(infos[0].last_seq, 5u);
  EXPECT_EQ(infos[1].key, "beta");
  EXPECT_EQ(infos[1].fleet_size, 2u);
  EXPECT_EQ(infos[1].last_seq, 4u);
}

TEST(ShardStoreTest, ReuploadReplacesSlotWithinItsTenantOnly) {
  const std::string dir = temp_store("reupload");
  // Both tenants hold user 1; replacing it in one fleet must not leak
  // into the other (same UserId, different tenant tag).
  const std::vector<trace::TraceBundle> base = make_fleet(3);
  const trace::TraceBundle reupload = make_trace(1, /*with_abd=*/false,
                                                 /*variant=*/2);
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    for (const trace::TraceBundle& bundle : base) {
      store.append(alpha, bundle);
      store.append(beta, bundle);
    }
    store.append(alpha, reupload);
    EXPECT_EQ(latest_by_user(store.tail_refs(alpha)).size(), 3u);
    EXPECT_EQ(latest_by_user(store.tail_refs(beta)).size(), 3u);
    EXPECT_EQ(store.last_seq(), 7u);
  }
  std::vector<trace::TraceBundle> latest = base;
  latest[1] = reupload;
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 7u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(alpha)), latest);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(beta)), base);
}

TEST(ShardStoreTest, BatchAcrossManyTenantsCostsOneFsync) {
  const std::string dir = temp_store("groupcommit");
  StoreOptions options;
  options.fsync_policy = FsyncPolicy::kGroup;
  // A window far longer than the test: the only sync trigger is flush().
  options.group_window_us = 60'000'000;
  ShardStore store = ShardStore::open(dir, options);
  const std::uint64_t before = store.fsync_count();
  const trace::TraceBundle bundle = make_trace(0, true);
  for (int tenant = 0; tenant < 12; ++tenant) {
    store.append_async(store.ensure_tenant("t" + std::to_string(tenant)),
                       bundle);
  }
  store.flush();
  // The group-commit receipt: 12 tenants, ONE fdatasync.
  EXPECT_EQ(store.fsync_count(), before + 1);
  EXPECT_EQ(store.last_seq(), 12u);
  store.close();

  const ShardStore recovered = ShardStore::open(dir, options);
  EXPECT_EQ(recovered.recovery().tenants_recovered, 12u);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 12u);
}

TEST(ShardStoreTest, FsyncPoliciesRoundTrip) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kNone, FsyncPolicy::kAlways}) {
    SCOPED_TRACE(policy == FsyncPolicy::kNone ? "kNone" : "kAlways");
    const std::string dir = temp_store(
        policy == FsyncPolicy::kNone ? "nosync" : "alwayssync");
    StoreOptions options;
    options.fsync_policy = policy;
    const std::vector<trace::TraceBundle> bundles = make_fleet(3);
    TenantId id = kInvalidTenant;
    {
      ShardStore store = ShardStore::open(dir, options);
      id = store.ensure_tenant("alpha");
      for (const trace::TraceBundle& bundle : bundles) {
        store.append(id, bundle);
      }
      if (policy == FsyncPolicy::kAlways) {
        EXPECT_GE(store.fsync_count(), 1u);
      } else {
        EXPECT_EQ(store.fsync_count(), 0u);
      }
    }
    const ShardStore recovered = ShardStore::open(dir, options);
    EXPECT_EQ(recovered.recovery().wal_records_replayed, 3u);
    expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), bundles);
  }
}

TEST(ShardStoreTest, CompressedStoreRoundTripsAndShrinksTheWal) {
  const std::string plain_dir = temp_store("nocompress");
  const std::string packed_dir = temp_store("compress");
  const std::vector<trace::TraceBundle> bundles = make_fleet(4);
  StoreOptions packed_options;
  packed_options.compress = true;
  TenantId id = kInvalidTenant;
  {
    ShardStore plain = ShardStore::open(plain_dir);
    ShardStore packed = ShardStore::open(packed_dir, packed_options);
    id = plain.ensure_tenant("alpha");
    ASSERT_EQ(packed.ensure_tenant("alpha"), id);
    for (const trace::TraceBundle& bundle : bundles) {
      plain.append(id, bundle);
      packed.append(id, bundle);
    }
  }
  EXPECT_LT(fs::file_size(active_wal(packed_dir)),
            fs::file_size(active_wal(plain_dir)));
  const ShardStore recovered = ShardStore::open(packed_dir, packed_options);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, bundles.size());
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), bundles);
}

TEST(ShardStoreTest, OpenRejectsUnreadableDirectory) {
  const std::string file_path = ::testing::TempDir() + "/edx_shard_notadir";
  write_file(file_path, "not a directory");
  EXPECT_THROW(static_cast<void>(ShardStore::open(file_path)), Error);
}

// ---------------------------------------------------------------------
// Crash repair on the tenant-tagged log
// ---------------------------------------------------------------------

// The crash-safety satellite: interleave two tenants, truncate the WAL
// at every byte offset of the final (mixed-tenant-tail) record, and
// verify open() salvages exactly the prefix — the other tenant's fleet
// is complete, the torn tenant keeps only its earlier record, and the
// salvage/drop byte accounting is exact.
TEST(ShardStoreTest, TruncationAtEveryByteOfMixedTenantTailSalvagesPrefix) {
  const std::string dir = temp_store("truncate_src");
  const std::vector<trace::TraceBundle> alpha_fleet = make_fleet(2);
  const std::vector<trace::TraceBundle> beta_fleet = make_fleet(2, 7);
  std::uintmax_t boundary = 0;  // WAL size before the final record
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    store.append(alpha, alpha_fleet[0]);
    store.append(beta, beta_fleet[0]);
    store.append(alpha, alpha_fleet[1]);
    boundary = fs::file_size(active_wal(dir));
    store.append(beta, beta_fleet[1]);
  }
  const std::string wal_name = fs::path(active_wal(dir)).filename().string();
  const std::string wal_bytes = read_file(active_wal(dir));
  ASSERT_GT(wal_bytes.size(), boundary);

  const std::vector<trace::TraceBundle> beta_prefix{beta_fleet[0]};
  const std::string victim = temp_store("truncate_victim");
  for (std::uintmax_t cut = boundary; cut < wal_bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " +
                 std::to_string(wal_bytes.size()));
    fs::remove_all(victim);
    fs::create_directories(victim);
    write_file(victim + "/" + wal_name, wal_bytes.substr(0, cut));

    const ShardStore store = ShardStore::open(victim);
    ASSERT_EQ(store.recovery().wal_records_replayed, 3u);
    ASSERT_EQ(store.recovery().tenants_recovered, 2u);
    EXPECT_EQ(store.recovery().wal_bytes_salvaged, boundary);
    EXPECT_EQ(store.recovery().wal_bytes_dropped, cut - boundary);
    // Exactly at the record boundary the log is merely short, not torn.
    EXPECT_EQ(store.recovery().wal_tail_torn, cut != boundary);
    EXPECT_EQ(store.recovery().tail_bytes_truncated, cut - boundary);
    // Tearing beta's second record never disturbs alpha's fleet, and
    // beta keeps exactly its salvaged prefix.
    expect_fleet_equals(latest_by_user(store.tail_refs(alpha)), alpha_fleet);
    expect_fleet_equals(latest_by_user(store.tail_refs(beta)), beta_prefix);
    EXPECT_EQ(store.tenant_last_seq(alpha), 3u);
    EXPECT_EQ(store.tenant_last_seq(beta), 2u);
  }
}

TEST(ShardStoreTest, TornSealedSegmentStopsReplayWithoutModifyingIt) {
  const std::string dir = temp_store("sealtear");
  const std::vector<trace::TraceBundle> bundles = make_fleet(9);
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    for (std::size_t i = 0; i < bundles.size(); ++i) {
      store.append(i % 2 == 0 ? alpha : beta, bundles[i]);
    }
  }
  const std::vector<std::string> segments = segment_paths(dir);
  ASSERT_GE(segments.size(), 3u) << "fixture should roll";

  // Flip a payload bit inside the SECOND sealed segment: replay must
  // stop at the first bad CRC and never apply later records, but the
  // segment file itself stays byte-identical (only active tails are
  // repaired in place).
  const std::string victim = segments[1];
  const std::string pristine = read_file(victim);
  std::string mangled = pristine;
  mangled[mangled.size() / 2] =
      static_cast<char>(mangled[mangled.size() / 2] ^ 0x08);
  write_file(victim, mangled);

  const ShardStore store = ShardStore::open(dir, tiny_segments());
  EXPECT_TRUE(store.recovery().wal_tail_torn);
  EXPECT_LT(store.recovery().wal_records_replayed, bundles.size());
  EXPECT_GT(store.recovery().wal_bytes_dropped, 0u);
  EXPECT_EQ(read_file(victim), mangled) << "sealed segment was rewritten";
  // The replayed prefix is exact: fleets match a replay of the first
  // `replayed` interleaved appends.
  const std::size_t replayed = store.recovery().wal_records_replayed;
  std::vector<trace::TraceBundle> alpha_want;
  std::vector<trace::TraceBundle> beta_want;
  for (std::size_t i = 0; i < replayed; ++i) {
    (i % 2 == 0 ? alpha_want : beta_want).push_back(bundles[i]);
  }
  expect_fleet_equals(latest_by_user(store.tail_refs(alpha)), alpha_want);
  expect_fleet_equals(latest_by_user(store.tail_refs(beta)), beta_want);
}

TEST(ShardStoreTest, RepairedMixedTailAcceptsNewAppends) {
  const std::string dir = temp_store("repair");
  const std::vector<trace::TraceBundle> bundles = make_fleet(3);
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    store.append(alpha, bundles[0]);
    store.append(beta, bundles[1]);
    store.append(beta, bundles[2]);
  }
  // Tear the last record mid-frame.
  const std::string wal = active_wal(dir);
  const std::string wal_bytes = read_file(wal);
  write_file(wal, wal_bytes.substr(0, wal_bytes.size() - 25));

  const trace::TraceBundle replacement = make_trace(2, /*with_abd=*/true,
                                                    /*variant=*/1);
  {
    ShardStore store = ShardStore::open(dir);
    EXPECT_TRUE(store.recovery().wal_tail_torn);
    EXPECT_EQ(store.last_seq(), 2u);
    store.append(beta, replacement);
  }
  // After repair + append the log is clean again and holds 3 records.
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_FALSE(recovered.recovery().wal_tail_torn);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 3u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(alpha)), {bundles[0]});
  expect_fleet_equals(latest_by_user(recovered.tail_refs(beta)),
                      {bundles[1], replacement});
}

/// Expects every write entry point of `store` to throw an Error naming
/// the read-only state and `reason`.
void expect_read_only(ShardStore& store, TenantId id,
                      const std::string& reason) {
  const trace::TraceBundle bundle = make_trace(40, true);
  const auto expect_refused = [&](const auto& write) {
    try {
      write();
      ADD_FAILURE() << "a read-only store accepted a write";
    } catch (const Error& refusal) {
      const std::string message = refusal.what();
      EXPECT_NE(message.find("read-only"), std::string::npos) << message;
      EXPECT_NE(message.find(reason), std::string::npos) << message;
    }
  };
  expect_refused([&] { store.append(id, bundle); });
  expect_refused([&] { store.append_async(id, bundle); });
  expect_refused([&] { store.compact_async(); });
  expect_refused([&] { store.compact(); });
}

// A torn SEALED segment stops replay short of the log's end.  Appends
// after that stop would be acknowledged and then never replayed, and a
// compaction would write the short fleet as a snapshot and delete the
// torn segment — so the store opens read-only and changes no file.
TEST(ShardStoreTest, TornSealedSegmentLeavesStoreReadOnly) {
  const std::string dir = temp_store("sealtear_readonly");
  StoreOptions options = tiny_segments();
  options.fsync_policy = FsyncPolicy::kAlways;
  const std::vector<trace::TraceBundle> bundles = make_fleet(9);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, options);
    id = store.ensure_tenant("alpha");
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
  }
  const std::vector<std::string> segments = segment_paths(dir);
  ASSERT_GE(segments.size(), 3u) << "fixture should roll";
  std::string mangled = read_file(segments[1]);
  mangled[mangled.size() / 2] =
      static_cast<char>(mangled[mangled.size() / 2] ^ 0x08);
  write_file(segments[1], mangled);
  const std::map<std::string, std::string> before = tree_bytes(dir);

  std::size_t replayed = 0;
  for (int reopen = 0; reopen < 2; ++reopen) {
    SCOPED_TRACE("reopen " + std::to_string(reopen));
    ShardStore store = ShardStore::open(dir, options);
    EXPECT_TRUE(store.recovery().wal_tail_torn);
    if (reopen == 0) replayed = store.recovery().wal_records_replayed;
    ASSERT_LT(replayed, bundles.size());
    // The next open replays exactly what this one did.
    EXPECT_EQ(store.recovery().wal_records_replayed, replayed);
    // Reads keep working and show the replayed prefix.
    expect_fleet_equals(
        latest_by_user(store.tail_refs(id)),
        std::vector<trace::TraceBundle>(
            bundles.begin(),
            bundles.begin() + static_cast<std::ptrdiff_t>(replayed)));
    ASSERT_EQ(store.tenants().size(), 1u);
    EXPECT_EQ(store.tenants()[0].fleet_size, replayed);
    expect_read_only(store, id, store.recovery().wal_tail_reason);
    store.close();
    EXPECT_EQ(tree_bytes(dir), before) << "a read-only open changed files";
  }
}

// Falling back to an older snapshot when the sealed segments that held
// the records between the two snapshots are gone is a sequence gap:
// replay stops there, names the missing range, and the store is
// read-only instead of reporting a clean recovery of a shorter fleet.
TEST(ShardStoreTest, SnapshotFallbackGapStopsReplayAndLeavesStoreReadOnly) {
  const std::string dir = temp_store("snapgap");
  StoreOptions options = tiny_segments();
  options.fsync_policy = FsyncPolicy::kAlways;
  const std::vector<trace::TraceBundle> bundles = make_fleet(14);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, options);
    id = store.ensure_tenant("alpha");
    for (std::size_t i = 0; i < 3; ++i) store.append(id, bundles[i]);
    store.compact();  // snapshot-3.edx
    for (std::size_t i = 3; i < bundles.size(); ++i) {
      store.append(id, bundles[i]);
    }
    store.compact();  // snapshot-14.edx; deletes every sealed segment
  }
  ASSERT_TRUE(fs::exists(dir + "/snapshot-3.edx"));
  const std::vector<std::string> segments = segment_paths(dir);
  ASSERT_EQ(segments.size(), 1u);
  const std::uint64_t base =
      std::stoull(fs::path(segments[0]).filename().string().substr(4));
  ASSERT_GT(base, 4u) << "records 4.. must be gone with the sealed segments";
  std::string snap = read_file(dir + "/snapshot-14.edx");
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x01);
  write_file(dir + "/snapshot-14.edx", snap);
  const std::map<std::string, std::string> before = tree_bytes(dir);

  ShardStore store = ShardStore::open(dir, options);
  EXPECT_EQ(store.recovery().snapshots_skipped, 1u);
  EXPECT_EQ(store.snapshot_seq(), 3u);
  EXPECT_EQ(store.recovery().wal_records_replayed, 0u);
  EXPECT_TRUE(store.recovery().wal_tail_torn);
  const std::string missing =
      "records 4.." + std::to_string(base - 1) + " missing";
  EXPECT_NE(store.recovery().wal_tail_reason.find(missing), std::string::npos)
      << store.recovery().wal_tail_reason;
  expect_step1_equals(store.snapshot_step1(id),
                      {bundles[0], bundles[1], bundles[2]});
  expect_read_only(store, id, missing);
  store.close();
  EXPECT_EQ(tree_bytes(dir), before) << "a read-only open changed files";
}

// ---------------------------------------------------------------------
// Old formats are refused
// ---------------------------------------------------------------------

// A shard directory holding a segment of the retired EDXWAL02 format:
// open() must throw before it removes a temp file, repairs the tail, or
// writes a manifest — the header scan is not a torn create to truncate.
TEST(ShardStoreTest, OldFormatSegmentIsRefusedUntouched) {
  const std::string dir = temp_store("oldwal");
  fs::create_directories(dir);
  write_file(dir + "/wal-1.edx", old_format_segment());
  write_file(dir + "/manifest.edx.tmp", "left by a crash");
  expect_refused_untouched(dir, dir + "/wal-1.edx", [&] {
    static_cast<void>(ShardStore::open(dir));
  });
}

// Same for a snapshot of the retired EDXSNAP1 or EDXSNP2 format beside a
// current log: it is refused, not skipped as corrupt and replayed around.
TEST(ShardStoreTest, OldFormatSnapshotIsRefusedUntouched) {
  for (const bool v2 : {false, true}) {
    SCOPED_TRACE(v2 ? "EDXSNP2" : "EDXSNAP1");
    const std::string dir = temp_store(v2 ? "oldsnap2" : "oldsnap");
    {
      ShardStore store = ShardStore::open(dir);
      store.append(store.ensure_tenant("alpha"), make_trace(0, true));
    }
    write_file(dir + "/snapshot-1.edx",
               v2 ? v2_format_snapshot() : old_format_snapshot());
    expect_refused_untouched(dir, dir + "/snapshot-1.edx", [&] {
      static_cast<void>(ShardStore::open(dir));
    });
  }
}

// ---------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------

TEST(ShardStoreTest, CompactionFoldsEveryTenantAndKeepsIdMap) {
  const std::string dir = temp_store("compact");
  const std::vector<trace::TraceBundle> alpha_fleet = make_fleet(3);
  const std::vector<trace::TraceBundle> beta_fleet = make_fleet(2, 4);
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  TenantId ghost = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    for (const trace::TraceBundle& bundle : alpha_fleet) {
      store.append(alpha, bundle);
    }
    for (const trace::TraceBundle& bundle : beta_fleet) {
      store.append(beta, bundle);
    }
    ASSERT_GT(segment_paths(dir).size(), 1u) << "fixture should roll";
    // Registered but never appended: the snapshot must still carry the
    // id->key mapping so the id is not reassigned after the sealed
    // segments (and their inline-key records) are deleted.
    ghost = store.ensure_tenant("ghost");
    store.compact();
    EXPECT_EQ(store.snapshot_seq(), 5u);
    EXPECT_FALSE(store.compact_async());  // nothing new: no-op
    store.wait_for_compaction();
  }
  EXPECT_TRUE(fs::exists(dir + "/snapshot-5.edx"));
  ASSERT_EQ(segment_paths(dir).size(), 1u) << "sealed segments subsumed";

  const ShardStore recovered = ShardStore::open(dir, tiny_segments());
  EXPECT_EQ(recovered.snapshot_seq(), 5u);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 0u);
  EXPECT_EQ(recovered.recovery().tenants_recovered, 3u);
  EXPECT_EQ(recovered.find_tenant("alpha"), std::optional<TenantId>(alpha));
  EXPECT_EQ(recovered.find_tenant("beta"), std::optional<TenantId>(beta));
  EXPECT_EQ(recovered.find_tenant("ghost"), std::optional<TenantId>(ghost));
  EXPECT_TRUE(fleet_step1(recovered, ghost).empty());
  expect_step1_equals(fleet_step1(recovered, alpha), alpha_fleet);
  expect_step1_equals(fleet_step1(recovered, beta), beta_fleet);
  expect_step1_equals(recovered.snapshot_step1(alpha), alpha_fleet);
  EXPECT_TRUE(recovered.tail_refs(alpha).empty());
}

TEST(ShardStoreTest, BackgroundCompactionKeepsMultiTenantAppendsFlowing) {
  const std::string dir = temp_store("bgcompact");
  const std::vector<trace::TraceBundle> bundles = make_fleet(7);
  TenantId alpha = kInvalidTenant;
  TenantId beta = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    alpha = store.ensure_tenant("alpha");
    beta = store.ensure_tenant("beta");
    for (int i = 0; i < 4; ++i) {
      store.append(i % 2 == 0 ? alpha : beta,
                   bundles[static_cast<std::size_t>(i)]);
    }
    ASSERT_TRUE(store.compact_async());
    // Appends keep landing while the compaction folds seqs 1..4.
    for (std::size_t i = 4; i < bundles.size(); ++i) {
      store.append(i % 2 == 0 ? alpha : beta, bundles[i]);
    }
    store.wait_for_compaction();
    EXPECT_EQ(store.snapshot_seq(), 4u);
    EXPECT_EQ(store.last_seq(), 7u);
  }
  const ShardStore recovered = ShardStore::open(dir, tiny_segments());
  EXPECT_EQ(recovered.snapshot_seq(), 4u);
  std::vector<trace::TraceBundle> alpha_want;
  std::vector<trace::TraceBundle> beta_want;
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    (i % 2 == 0 ? alpha_want : beta_want).push_back(bundles[i]);
  }
  expect_step1_equals(fleet_step1(recovered, alpha), alpha_want);
  expect_step1_equals(fleet_step1(recovered, beta), beta_want);
}

TEST(ShardStoreTest, SnapshotStep1IsBitIdenticalToEventPower) {
  const std::string dir = temp_store("warmstep1");
  const std::vector<trace::TraceBundle> bundles = make_fleet(5);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant("alpha");
    for (const trace::TraceBundle& bundle : bundles) {
      store.append(id, bundle);
    }
    store.compact();
  }
  const ShardStore recovered = ShardStore::open(dir);
  const std::vector<core::AnalyzedTrace> warm = recovered.snapshot_step1(id);
  ASSERT_EQ(warm.size(), bundles.size());
  for (std::size_t t = 0; t < warm.size(); ++t) {
    const core::AnalyzedTrace direct = core::estimate_event_power(bundles[t]);
    SCOPED_TRACE("slot " + std::to_string(t));
    EXPECT_EQ(warm[t].user, direct.user);
    ASSERT_EQ(warm[t].events.size(), direct.events.size());
    for (std::size_t i = 0; i < warm[t].events.size(); ++i) {
      EXPECT_EQ(warm[t].events[i].id, direct.events[i].id);
      EXPECT_EQ(warm[t].events[i].interval, direct.events[i].interval);
      // Exact double equality: the snapshot stores the raw bits.
      EXPECT_EQ(warm[t].events[i].raw_power, direct.events[i].raw_power);
    }
  }
}

// Compaction runs Step 1 on the tail only and folds it into the stored
// slots.  Across compact -> reopen -> re-uploads and new users ->
// compact -> reopen, the slots must equal Step 1 of each user's latest
// bundle in first-arrival order, bitwise, and warm-start the batch report.
TEST(ShardStoreTest, TailFoldMatchesStep1OfLatestBundles) {
  const std::string dir = temp_store("tailfold");
  const std::vector<std::string> keys = {"alpha", "beta"};
  std::vector<std::vector<trace::TraceBundle>> latest = {make_fleet(4),
                                                         make_fleet(2, 5)};
  {
    ShardStore store = ShardStore::open(dir);
    for (std::size_t t = 0; t < keys.size(); ++t) {
      const TenantId id = store.ensure_tenant(keys[t]);
      for (const trace::TraceBundle& bundle : latest[t]) {
        store.append(id, bundle);
      }
    }
    store.compact();
  }
  // Re-uploads of snapshotted users, new users, and a re-upload of a new
  // user before the next cut, interleaved across the two tenants.
  const std::vector<std::pair<std::size_t, trace::TraceBundle>> arrivals = {
      {0, make_trace(1, false, 2)}, {1, make_trace(0, true, 6)},
      {0, make_trace(4, true)},     {1, make_trace(7, false)},
      {0, make_trace(5, false)},    {0, make_trace(4, false, 1)},
      {0, make_trace(3, true, 3)},  {1, make_trace(7, true, 4)}};
  {
    ShardStore store = ShardStore::open(dir);
    for (std::size_t t = 0; t < keys.size(); ++t) {
      expect_step1_equals(store.snapshot_step1(*store.find_tenant(keys[t])),
                          latest[t]);
    }
    for (const auto& [t, bundle] : arrivals) {
      store.append(*store.find_tenant(keys[t]), bundle);
      std::vector<trace::TraceBundle>& fleet = latest[t];
      const auto slot = std::find_if(
          fleet.begin(), fleet.end(),
          [&](const trace::TraceBundle& b) { return b.user == bundle.user; });
      if (slot == fleet.end()) {
        fleet.push_back(bundle);
      } else {
        *slot = bundle;
      }
    }
    store.compact();
  }
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.snapshot_seq(), 6u + arrivals.size());
  const core::ManifestationAnalyzer batch(make_config(1));
  for (std::size_t t = 0; t < keys.size(); ++t) {
    SCOPED_TRACE(keys[t]);
    const TenantId id = *recovered.find_tenant(keys[t]);
    EXPECT_TRUE(recovered.tail_refs(id).empty());
    expect_step1_equals(recovered.snapshot_step1(id), latest[t]);
    core::FleetAnalyzer warm(make_config(1));
    for (core::AnalyzedTrace& analyzed : recovered.snapshot_step1(id)) {
      warm.add_analyzed(std::move(analyzed));
    }
    EXPECT_EQ(render(warm.snapshot()), render(batch.run(latest[t])));
  }
}

// ---------------------------------------------------------------------
// Parallel recovery determinism
// ---------------------------------------------------------------------

TEST(ShardStoreTest, MultiSegmentRecoveryIsIdenticalForAnyThreadCount) {
  const std::string dir = temp_store("parallelrecover");
  const std::vector<trace::TraceBundle> bundles = make_fleet(9);
  const std::vector<std::string> keys = {"alpha", "beta", "gamma"};
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    std::vector<TenantId> ids;
    for (const std::string& key : keys) {
      ids.push_back(store.ensure_tenant(key));
    }
    for (std::size_t i = 0; i < bundles.size(); ++i) {
      store.append(ids[i % ids.size()], bundles[i]);
    }
  }
  ASSERT_GE(segment_paths(dir).size(), 3u) << "fixture should roll";

  std::string reference;
  const core::ManifestationAnalyzer analyzer(make_config(1));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("recovery_threads=" + std::to_string(threads));
    StoreOptions options = tiny_segments();
    options.recovery_threads = threads;
    const ShardStore store = ShardStore::open(dir, options);
    EXPECT_EQ(store.recovery().wal_records_replayed, bundles.size());
    EXPECT_EQ(store.recovery().tenants_recovered, keys.size());
    // Byte-identical per-tenant reports no matter how many decoder
    // threads ran: the merge (and event interning) is sequential.
    std::string report;
    for (std::size_t t = 0; t < keys.size(); ++t) {
      const std::optional<TenantId> id = store.find_tenant(keys[t]);
      ASSERT_TRUE(id.has_value());
      report += render(analyzer.run(latest_by_user(store.tail_refs(*id))));
    }
    if (reference.empty()) {
      reference = report;
    } else {
      EXPECT_EQ(report, reference);
    }
  }
}

// ---------------------------------------------------------------------
// Writer-error surfacing
// ---------------------------------------------------------------------

TEST(ShardStoreTest, CloseRethrowsWriterThreadFailure) {
  const std::string dir = temp_store("writererr");
  const trace::TraceBundle bundle = make_trace(0, true);
  // By-value open + deleted moves: heap placement relies on guaranteed
  // elision, exactly as the service does.
  std::unique_ptr<ShardStore> store(
      new ShardStore(ShardStore::open(dir, tiny_segments(2'000))));
  const TenantId id = store->ensure_tenant("alpha");
  store->append(id, bundle);
  // Pull the directory out from under the writer: the open fd keeps
  // absorbing writes, but sealing (creating the next segment) fails.
  fs::remove_all(dir);
  EXPECT_THROW(
      {
        for (int i = 0; i < 32; ++i) store->append_async(id, bundle);
        store->flush();
      },
      Error);
  // The failure is also surfaced (once) from close() — the shutdown
  // path never swallows a writer error — and close() is idempotent
  // afterwards.
  EXPECT_THROW(store->close(), Error);
  store->close();
}

// ---------------------------------------------------------------------
// One fleet per store (FleetStoreTest)
// ---------------------------------------------------------------------

// `ingest --store` and `analyze --store` keep a single fleet, tenant
// "default", in its home shard directory.  These cases pin that use:
// prefix durability, crash repair, snapshots and compaction, and warm
// restart, with no second tenant in the log.

/// The tenant the CLI's --store commands write and read.
constexpr char kFleet[] = "default";

TEST(FleetStoreTest, OpenCreatesEmptyStore) {
  // The first ingest into a new root opens a home shard directory whose
  // parents do not exist yet.
  const std::string dir = shard_dir(temp_store("fleet_create"), 0);
  const ShardStore store = ShardStore::open(dir);
  EXPECT_FALSE(store.find_tenant(kFleet).has_value());
  EXPECT_EQ(store.last_seq(), 0u);
  EXPECT_EQ(store.snapshot_seq(), 0u);
  EXPECT_FALSE(store.recovery().wal_tail_torn);
  EXPECT_TRUE(store.recovery().manifest_ok);
  EXPECT_TRUE(fs::exists(dir + "/wal-1.edx"));
  EXPECT_TRUE(fs::exists(dir + "/manifest.edx"));
  // The first segment starts as just its header: magic + varint base.
  EXPECT_EQ(fs::file_size(dir + "/wal-1.edx"), 9u);
}

TEST(FleetStoreTest, AppendThenReopenRecoversFleetExactly) {
  const std::string dir = temp_store("fleet_roundtrip");
  const std::vector<trace::TraceBundle> bundles = make_fleet(5);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    EXPECT_EQ(store.last_seq(), 5u);
    expect_fleet_equals(latest_by_user(store.tail_refs(id)), bundles);
  }
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 5u);
  EXPECT_EQ(recovered.recovery().wal_bytes_dropped, 0u);
  EXPECT_FALSE(recovered.recovery().wal_tail_torn);
  EXPECT_TRUE(recovered.recovery().manifest_ok);
  EXPECT_EQ(recovered.recovery().segments_scanned, 1u);
  ASSERT_EQ(recovered.recovery().segments.size(), 1u);
  const SegmentStats& seg = recovered.recovery().segments[0];
  EXPECT_EQ(seg.records, 5u);
  EXPECT_FALSE(seg.sealed);
  ASSERT_EQ(seg.tenant_records.size(), 1u);
  EXPECT_EQ(seg.tenant_records[0],
            (std::pair<std::string, std::size_t>{kFleet, 5u}));
  EXPECT_EQ(recovered.find_tenant(kFleet), std::optional<TenantId>(id));
  EXPECT_EQ(recovered.last_seq(), 5u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), bundles);
  // No snapshot yet: everything is tail.
  EXPECT_TRUE(recovered.snapshot_step1(id).empty());
  EXPECT_EQ(recovered.tail_refs(id).size(), 5u);
}

TEST(FleetStoreTest, AsyncAppendsAreDurableAfterFlush) {
  const std::string dir = temp_store("fleet_asyncflush");
  const std::vector<trace::TraceBundle> bundles = make_fleet(6);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (std::size_t i = 0; i < bundles.size(); ++i) {
      // Sequence numbers are assigned at enqueue, not at sync.
      EXPECT_EQ(store.append_async(id, bundles[i]), i + 1);
    }
    EXPECT_EQ(store.last_seq(), 6u);
    store.flush();
  }
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 6u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), bundles);
}

TEST(FleetStoreTest, ReuploadReplacesSlotNotDuplicates) {
  const std::string dir = temp_store("fleet_reupload");
  const std::vector<trace::TraceBundle> bundles = make_fleet(3);
  const trace::TraceBundle reupload = make_trace(1, /*with_abd=*/false,
                                                 /*variant=*/2);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    store.append(id, reupload);
    EXPECT_EQ(latest_by_user(store.tail_refs(id)).size(), 3u);
    EXPECT_EQ(store.last_seq(), 4u);
  }
  // The replacement persists across restart, in user 1's original slot.
  std::vector<trace::TraceBundle> latest = bundles;
  latest[1] = reupload;
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 4u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), latest);
}

// A fleet ingested with `--fsync-policy none` survives a clean close and
// reopens under the default policy, as `analyze --store` opens it.
TEST(FleetStoreTest, FsyncPolicyNoneStillSurvivesCleanClose) {
  const std::string dir = temp_store("fleet_nosync");
  StoreOptions options;
  options.fsync_policy = FsyncPolicy::kNone;
  const std::vector<trace::TraceBundle> bundles = make_fleet(3);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, options);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    EXPECT_EQ(store.fsync_count(), 0u);
  }
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 3u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), bundles);
}

// Under `always` every durable append is its own sync.
TEST(FleetStoreTest, FsyncPolicyAlwaysRoundTrips) {
  const std::string dir = temp_store("fleet_alwayssync");
  StoreOptions options;
  options.fsync_policy = FsyncPolicy::kAlways;
  const std::vector<trace::TraceBundle> bundles = make_fleet(3);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, options);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    EXPECT_EQ(store.fsync_count(), bundles.size());
  }
  const ShardStore recovered = ShardStore::open(dir, options);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 3u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)), bundles);
}

TEST(FleetStoreTest, CompressedStoreRoundTripsAndShrinksTheWal) {
  const std::string plain_dir = temp_store("fleet_nocompress");
  const std::string packed_dir = temp_store("fleet_compress");
  const std::vector<trace::TraceBundle> bundles = make_fleet(5);
  StoreOptions packed_options;
  packed_options.compress = true;
  TenantId id = kInvalidTenant;
  {
    ShardStore plain = ShardStore::open(plain_dir);
    ShardStore packed = ShardStore::open(packed_dir, packed_options);
    id = plain.ensure_tenant(kFleet);
    ASSERT_EQ(packed.ensure_tenant(kFleet), id);
    for (const trace::TraceBundle& bundle : bundles) {
      plain.append(id, bundle);
      packed.append(id, bundle);
    }
  }
  EXPECT_LT(fs::file_size(active_wal(packed_dir)),
            fs::file_size(active_wal(plain_dir)));

  // Compressed frames decode to the exact same fleet — and the analyzer
  // output matches bit for bit.
  const ShardStore recovered = ShardStore::open(packed_dir, packed_options);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, bundles.size());
  const std::vector<trace::TraceBundle> packed_fleet =
      latest_by_user(recovered.tail_refs(id));
  expect_fleet_equals(packed_fleet, bundles);
  const core::ManifestationAnalyzer analyzer(make_config(1));
  const ShardStore plain_recovered = ShardStore::open(plain_dir);
  EXPECT_EQ(render(analyzer.run(packed_fleet)),
            render(analyzer.run(
                latest_by_user(plain_recovered.tail_refs(id)))));
}

TEST(FleetStoreTest, OpenRejectsUnreadableDirectory) {
  // A root that exists as a *file* cannot hold a home shard directory.
  const std::string root = ::testing::TempDir() + "/edx_shard_fleet_notadir";
  write_file(root, "not a directory");
  EXPECT_THROW(static_cast<void>(ShardStore::open(shard_dir(root, 0))),
               Error);
}

TEST(FleetStoreTest, TruncationAtEveryByteOfFinalRecordSalvagesPrefix) {
  const std::string dir = temp_store("fleet_truncate_src");
  const std::vector<trace::TraceBundle> bundles = make_fleet(4);
  std::uintmax_t boundary = 0;  // WAL size before the final record
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (std::size_t i = 0; i + 1 < bundles.size(); ++i) {
      store.append(id, bundles[i]);
    }
    boundary = fs::file_size(active_wal(dir));
    store.append(id, bundles.back());
  }
  const std::string wal_name = fs::path(active_wal(dir)).filename().string();
  const std::string wal_bytes = read_file(active_wal(dir));
  ASSERT_GT(wal_bytes.size(), boundary);

  const std::vector<trace::TraceBundle> prefix(bundles.begin(),
                                               bundles.end() - 1);
  const core::ManifestationAnalyzer analyzer(make_config(1));
  const std::string want = render(analyzer.run(prefix));

  const std::string victim = temp_store("fleet_truncate_victim");
  for (std::uintmax_t cut = boundary; cut < wal_bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " +
                 std::to_string(wal_bytes.size()));
    fs::remove_all(victim);
    fs::create_directories(victim);
    write_file(victim + "/" + wal_name, wal_bytes.substr(0, cut));

    const ShardStore store = ShardStore::open(victim);
    ASSERT_EQ(store.recovery().wal_records_replayed, prefix.size());
    const std::vector<trace::TraceBundle> fleet =
        latest_by_user(store.tail_refs(id));
    ASSERT_EQ(fleet.size(), prefix.size());
    EXPECT_EQ(store.recovery().wal_bytes_salvaged, boundary);
    EXPECT_EQ(store.recovery().wal_bytes_dropped, cut - boundary);
    // Exactly at the record boundary the log is merely short, not torn.
    EXPECT_EQ(store.recovery().wal_tail_torn, cut != boundary);
    EXPECT_EQ(store.recovery().tail_bytes_truncated, cut - boundary);
    expect_fleet_equals(fleet, prefix);
    EXPECT_EQ(render(analyzer.run(fleet)), want);
  }
}

// Multi-segment variant: tearing the *active* tail at every byte never
// touches the sealed segments (bitwise identical before and after), and
// recovery replays everything sealed plus the salvaged tail prefix.
TEST(FleetStoreTest, ActiveTailTruncationLeavesSealedSegmentsUntouched) {
  const std::string dir = temp_store("fleet_multitear_src");
  const std::vector<trace::TraceBundle> bundles = make_fleet(11);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
  }
  const std::vector<std::string> segments = segment_paths(dir);
  ASSERT_GE(segments.size(), 3u) << "fixture should roll";
  std::vector<std::string> sealed_bytes;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    sealed_bytes.push_back(read_file(segments[i]));
  }
  const std::string tail_path = segments.back();
  const std::string tail_bytes = read_file(tail_path);
  // How many records live in the sealed segments (the tail holds the rest).
  const std::size_t sealed_records = [&] {
    const ShardStore probe = ShardStore::open(dir, tiny_segments());
    std::size_t count = 0;
    const auto& per_segment = probe.recovery().segments;
    for (std::size_t i = 0; i + 1 < per_segment.size(); ++i) {
      count += per_segment[i].records;
    }
    return count;
  }();

  const std::size_t header_size = 8 + 2;  // magic + 2-byte varint base <= 16383
  for (std::uintmax_t cut = tail_bytes.size(); cut + 1 > 0;) {
    --cut;
    if (cut < header_size && cut > 0) continue;  // header rebuild case below
    SCOPED_TRACE("tail cut at byte " + std::to_string(cut));
    write_file(tail_path, tail_bytes.substr(0, static_cast<size_t>(cut)));

    const ShardStore store = ShardStore::open(dir, tiny_segments());
    EXPECT_GE(store.recovery().wal_records_replayed, sealed_records);
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      EXPECT_EQ(read_file(segments[i]), sealed_bytes[i])
          << "sealed segment " << segments[i] << " was modified";
      EXPECT_TRUE(store.recovery().segments[i].sealed);
      EXPECT_FALSE(store.recovery().segments[i].torn);
    }
    // The replayed prefix of the fleet matches the original bundles.
    const std::size_t have = store.recovery().wal_records_replayed;
    expect_fleet_equals(latest_by_user(store.tail_refs(id)),
                        std::vector<trace::TraceBundle>(
                            bundles.begin(),
                            bundles.begin() + static_cast<long>(have)));
  }
}

TEST(FleetStoreTest, CorruptionMidWalStopsAtFirstBadRecord) {
  const std::string dir = temp_store("fleet_midcorrupt");
  const std::vector<trace::TraceBundle> bundles = make_fleet(5);
  std::uintmax_t first_boundary = 0;
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    store.append(id, bundles[0]);
    first_boundary = fs::file_size(active_wal(dir));
    for (std::size_t i = 1; i < bundles.size(); ++i) {
      store.append(id, bundles[i]);
    }
  }
  // Flip one bit inside record 2.  Records 3..5 are fully intact, but the
  // scan must stop at the first bad CRC and never look at them.
  const std::string wal = active_wal(dir);
  std::string wal_bytes = read_file(wal);
  const std::size_t victim_byte = static_cast<std::size_t>(first_boundary) + 40;
  ASSERT_LT(victim_byte, wal_bytes.size());
  wal_bytes[victim_byte] = static_cast<char>(wal_bytes[victim_byte] ^ 0x10);
  write_file(wal, wal_bytes);

  const ShardStore store = ShardStore::open(dir);
  EXPECT_EQ(store.recovery().wal_records_replayed, 1u);
  EXPECT_TRUE(store.recovery().wal_tail_torn);
  EXPECT_EQ(store.recovery().wal_bytes_salvaged, first_boundary);
  EXPECT_EQ(store.recovery().wal_bytes_dropped,
            wal_bytes.size() - first_boundary);
  expect_fleet_equals(latest_by_user(store.tail_refs(id)), {bundles[0]});
}

TEST(FleetStoreTest, RepairedTailAcceptsNewAppends) {
  const std::string dir = temp_store("fleet_repair");
  const std::vector<trace::TraceBundle> bundles = make_fleet(3);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
  }
  // Tear the last record mid-frame.
  const std::string wal = active_wal(dir);
  const std::string wal_bytes = read_file(wal);
  write_file(wal, wal_bytes.substr(0, wal_bytes.size() - 25));

  const trace::TraceBundle replacement = make_trace(2, /*with_abd=*/true,
                                                    /*variant=*/1);
  {
    ShardStore store = ShardStore::open(dir);
    EXPECT_TRUE(store.recovery().wal_tail_torn);
    EXPECT_EQ(latest_by_user(store.tail_refs(id)).size(), 2u);
    EXPECT_EQ(store.last_seq(), 2u);
    store.append(id, replacement);
  }
  // After repair + append the log is clean again and holds 3 records.
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_FALSE(recovered.recovery().wal_tail_torn);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 3u);
  expect_fleet_equals(latest_by_user(recovered.tail_refs(id)),
                      {bundles[0], bundles[1], replacement});
}

TEST(FleetStoreTest, TruncationBelowHeaderRebuildsWal) {
  const std::string dir = temp_store("fleet_headerless");
  {
    ShardStore store = ShardStore::open(dir);
    store.append(store.ensure_tenant(kFleet), make_trace(0, false));
  }
  // Simulate a crash that left only 3 bytes of the header: a prefix of
  // the current magic is a torn create, not an old format.
  const std::string wal = active_wal(dir);
  const std::string wal_bytes = read_file(wal);
  write_file(wal, wal_bytes.substr(0, 3));

  {
    ShardStore store = ShardStore::open(dir);
    EXPECT_TRUE(store.recovery().wal_tail_torn);
    EXPECT_EQ(store.tenant_count(), 0u);
    store.append(store.ensure_tenant(kFleet), make_trace(7, true));
  }
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_FALSE(recovered.recovery().wal_tail_torn);
  const std::optional<TenantId> id = recovered.find_tenant(kFleet);
  ASSERT_TRUE(id.has_value());
  const std::vector<trace::TraceBundle> fleet =
      latest_by_user(recovered.tail_refs(*id));
  ASSERT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet[0].user, 7);
}

TEST(FleetStoreTest, ManifestCorruptionFallsBackToDirectoryScan) {
  const std::string dir = temp_store("fleet_manifest");
  const std::vector<trace::TraceBundle> bundles = make_fleet(6);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
  }
  ASSERT_GE(segment_paths(dir).size(), 3u);

  // Flip a payload bit: the CRC catches it, the directory scan recovers
  // everything anyway, and the note says what happened.
  std::string manifest = read_file(dir + "/manifest.edx");
  manifest[manifest.size() / 2] =
      static_cast<char>(manifest[manifest.size() / 2] ^ 0x04);
  write_file(dir + "/manifest.edx", manifest);
  {
    const ShardStore store = ShardStore::open(dir, tiny_segments());
    EXPECT_FALSE(store.recovery().manifest_ok);
    EXPECT_NE(store.recovery().manifest_note.find("corrupt"),
              std::string::npos);
    EXPECT_EQ(store.recovery().wal_records_replayed, bundles.size());
    expect_fleet_equals(latest_by_user(store.tail_refs(id)), bundles);
  }
  // That open rewrote a correct manifest; the next open is clean again.
  {
    const ShardStore store = ShardStore::open(dir, tiny_segments());
    EXPECT_TRUE(store.recovery().manifest_ok);
  }
  // A deleted manifest is reported too — and still recovers everything.
  fs::remove(dir + "/manifest.edx");
  {
    const ShardStore store = ShardStore::open(dir, tiny_segments());
    EXPECT_FALSE(store.recovery().manifest_ok);
    EXPECT_NE(store.recovery().manifest_note.find("missing"),
              std::string::npos);
    expect_fleet_equals(latest_by_user(store.tail_refs(id)), bundles);
  }
}

TEST(FleetStoreTest, CompactWritesSnapshotAndObsoletesWalRecords) {
  const std::string dir = temp_store("fleet_compact");
  const std::vector<trace::TraceBundle> bundles = make_fleet(4);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    store.compact();
    EXPECT_EQ(store.snapshot_seq(), 4u);
    // Compacting again with nothing new is a no-op.
    EXPECT_FALSE(store.compact_async());
    store.wait_for_compaction();
  }
  EXPECT_TRUE(fs::exists(dir + "/snapshot-4.edx"));

  // The records the snapshot covers still sit in the (unsealed) active
  // segment; recovery counts them as obsolete and replays nothing.
  const ShardStore recovered = ShardStore::open(dir);
  EXPECT_EQ(recovered.snapshot_seq(), 4u);
  EXPECT_EQ(recovered.recovery().snapshot_bundle_count, 4u);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 0u);
  EXPECT_EQ(recovered.recovery().wal_records_obsolete, 4u);
  EXPECT_EQ(recovered.last_seq(), 4u);
  expect_step1_equals(fleet_step1(recovered, id), bundles);
  expect_step1_equals(recovered.snapshot_step1(id), bundles);
  EXPECT_TRUE(recovered.tail_refs(id).empty());
}

TEST(FleetStoreTest, CompactionDeletesSealedSegmentsItSubsumes) {
  const std::string dir = temp_store("fleet_compactseal");
  const std::vector<trace::TraceBundle> bundles = make_fleet(8);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    ASSERT_GT(segment_paths(dir).size(), 2u) << "fixture should roll";
    store.compact();
  }
  // Every sealed segment held only records <= the snapshot cut, so all
  // of them are gone; only the active tail remains.
  ASSERT_EQ(segment_paths(dir).size(), 1u);

  const ShardStore recovered = ShardStore::open(dir, tiny_segments());
  EXPECT_EQ(recovered.snapshot_seq(), 8u);
  EXPECT_EQ(recovered.recovery().wal_records_replayed, 0u);
  expect_step1_equals(fleet_step1(recovered, id), bundles);
}

TEST(FleetStoreTest, BackgroundCompactionKeepsAppendsFlowing) {
  const std::string dir = temp_store("fleet_bgcompact");
  const std::vector<trace::TraceBundle> bundles = make_fleet(7);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    id = store.ensure_tenant(kFleet);
    for (int i = 0; i < 4; ++i) {
      store.append(id, bundles[static_cast<std::size_t>(i)]);
    }
    ASSERT_TRUE(store.compact_async());
    // Appends keep landing while the compaction folds seqs 1..4.
    for (std::size_t i = 4; i < bundles.size(); ++i) {
      store.append(id, bundles[i]);
    }
    store.wait_for_compaction();
    EXPECT_EQ(store.snapshot_seq(), 4u);
    EXPECT_EQ(store.last_seq(), 7u);
    EXPECT_EQ(store.tail_refs(id).size(), 3u);
    expect_step1_equals(fleet_step1(store, id), bundles);
  }
  const ShardStore recovered = ShardStore::open(dir, tiny_segments());
  EXPECT_EQ(recovered.snapshot_seq(), 4u);
  EXPECT_EQ(recovered.tail_refs(id).size(), 3u);
  expect_step1_equals(fleet_step1(recovered, id), bundles);
}

TEST(FleetStoreTest, PrunesAllButTwoNewestSnapshots) {
  const std::string dir = temp_store("fleet_prune");
  ShardStore store = ShardStore::open(dir);
  const TenantId id = store.ensure_tenant(kFleet);
  for (int round = 0; round < 4; ++round) {
    store.append(id, make_trace(round, round % 2 == 0));
    store.compact();
  }
  std::size_t snapshots = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snapshot-")) ++snapshots;
  }
  EXPECT_EQ(snapshots, 2u);
  EXPECT_TRUE(fs::exists(dir + "/snapshot-4.edx"));
}

TEST(FleetStoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  const std::string dir = temp_store("fleet_snapfallback");
  const std::vector<trace::TraceBundle> bundles = make_fleet(5);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (int i = 0; i < 3; ++i) {
      store.append(id, bundles[static_cast<size_t>(i)]);
    }
    store.compact();  // snapshot-3.edx
    store.append(id, bundles[3]);
    store.append(id, bundles[4]);
    store.compact();  // snapshot-5.edx
  }
  ASSERT_TRUE(fs::exists(dir + "/snapshot-3.edx"));
  ASSERT_TRUE(fs::exists(dir + "/snapshot-5.edx"));
  // Corrupt the newest snapshot's payload.
  std::string snap = read_file(dir + "/snapshot-5.edx");
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x01);
  write_file(dir + "/snapshot-5.edx", snap);

  const ShardStore store = ShardStore::open(dir);
  EXPECT_EQ(store.recovery().snapshots_found, 2u);
  EXPECT_EQ(store.recovery().snapshots_skipped, 1u);
  EXPECT_EQ(store.snapshot_seq(), 3u);
  // Records 4 and 5 still sit in the active segment (compaction only
  // deletes *sealed* segments), so falling back to the older snapshot
  // replays them and no upload is lost.
  EXPECT_EQ(store.recovery().wal_records_obsolete, 3u);
  EXPECT_EQ(store.recovery().wal_records_replayed, 2u);
  expect_step1_equals(fleet_step1(store, id), bundles);
}

TEST(FleetStoreTest, CompressedStoreSurvivesRestartAndCompaction) {
  const std::string dir = temp_store("fleet_compress_compact");
  StoreOptions options = tiny_segments();
  options.compress = true;
  const std::vector<trace::TraceBundle> bundles = make_fleet(7);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, options);
    id = store.ensure_tenant(kFleet);
    for (int i = 0; i < 4; ++i) {
      store.append(id, bundles[static_cast<size_t>(i)]);
    }
    store.compact();
    for (std::size_t i = 4; i < bundles.size(); ++i) {
      store.append(id, bundles[i]);
    }
  }
  const ShardStore recovered = ShardStore::open(dir, options);
  EXPECT_EQ(recovered.snapshot_seq(), 4u);
  EXPECT_EQ(recovered.tail_refs(id).size(), 3u);
  expect_step1_equals(fleet_step1(recovered, id), bundles);
}

TEST(FleetStoreTest, MultiSegmentRecoveryIsIdenticalForAnyThreadCount) {
  const std::string dir = temp_store("fleet_parallelrecover");
  const std::vector<trace::TraceBundle> bundles = make_fleet(9);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir, tiny_segments());
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
  }
  ASSERT_GE(segment_paths(dir).size(), 3u) << "fixture should roll";

  std::string reference;
  const core::ManifestationAnalyzer analyzer(make_config(1));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("recovery_threads=" + std::to_string(threads));
    StoreOptions options = tiny_segments();
    options.recovery_threads = threads;
    const ShardStore store = ShardStore::open(dir, options);
    EXPECT_EQ(store.recovery().wal_records_replayed, bundles.size());
    EXPECT_GE(store.recovery().segments_scanned, 3u);
    const std::vector<trace::TraceBundle> fleet =
        latest_by_user(store.tail_refs(id));
    expect_fleet_equals(fleet, bundles);
    // Byte-identical report no matter how many decoder threads ran: the
    // merge (and therefore event interning) is sequential by design.
    const std::string report = render(analyzer.run(fleet));
    if (reference.empty()) {
      reference = report;
    } else {
      EXPECT_EQ(report, reference);
    }
  }
}

TEST(FleetStoreTest, SnapshotStep1IsBitIdenticalToEventPower) {
  const std::string dir = temp_store("fleet_warmstep1");
  std::vector<trace::TraceBundle> bundles = make_fleet(6);
  const trace::TraceBundle reupload = make_trace(4, /*with_abd=*/true,
                                                 /*variant=*/1);
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (const trace::TraceBundle& bundle : bundles) store.append(id, bundle);
    // A re-upload before the cut: the snapshot's Step-1 state must
    // describe the replacement in user 4's slot, not the original.
    store.append(id, reupload);
    store.compact();
  }
  bundles[4] = reupload;
  const ShardStore recovered = ShardStore::open(dir);
  expect_step1_equals(recovered.snapshot_step1(id), bundles);
  const std::vector<core::AnalyzedTrace> warm = recovered.snapshot_step1(id);
  ASSERT_EQ(warm.size(), bundles.size());
  for (std::size_t t = 0; t < warm.size(); ++t) {
    const core::AnalyzedTrace direct = core::estimate_event_power(bundles[t]);
    SCOPED_TRACE("slot " + std::to_string(t));
    EXPECT_EQ(warm[t].user, direct.user);
    ASSERT_EQ(warm[t].events.size(), direct.events.size());
    for (std::size_t i = 0; i < warm[t].events.size(); ++i) {
      EXPECT_EQ(warm[t].events[i].id, direct.events[i].id);
      EXPECT_EQ(warm[t].events[i].interval, direct.events[i].interval);
      // Exact double equality: the snapshot stores the raw bits.
      EXPECT_EQ(warm[t].events[i].raw_power, direct.events[i].raw_power);
    }
  }
}

TEST(FleetStoreTest, WarmRestartMatchesNeverRestartedRun) {
  const std::string dir = temp_store("fleet_warmrestart");
  std::vector<trace::TraceBundle> arrivals = make_fleet(7);
  arrivals.push_back(make_trace(2, /*with_abd=*/true, /*variant=*/3));

  // Session 1: five uploads, compact, three more uploads, crash
  // (destructor).
  TenantId id = kInvalidTenant;
  {
    ShardStore store = ShardStore::open(dir);
    id = store.ensure_tenant(kFleet);
    for (int i = 0; i < 5; ++i) {
      store.append(id, arrivals[static_cast<size_t>(i)]);
    }
    store.compact();
    for (std::size_t i = 5; i < arrivals.size(); ++i) {
      store.append(id, arrivals[i]);
    }
  }

  for (std::size_t num_threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    // Never-restarted reference: one analyzer fed every arrival in order.
    core::FleetAnalyzer reference(make_config(num_threads));
    for (const trace::TraceBundle& bundle : arrivals) {
      reference.add_bundle(bundle);
    }
    const std::string want = render(reference.snapshot());

    // Restarted run: snapshot slots warm-start via add_analyzed (no power
    // join), the WAL tail goes through add_bundle.
    StoreOptions options;
    options.recovery_threads = num_threads;
    const ShardStore recovered = ShardStore::open(dir, options);
    EXPECT_EQ(recovered.snapshot_seq(), 5u);
    EXPECT_EQ(recovered.tail_refs(id).size(), 3u);
    core::FleetAnalyzer warm(make_config(num_threads));
    for (core::AnalyzedTrace& analyzed : recovered.snapshot_step1(id)) {
      warm.add_analyzed(std::move(analyzed));
    }
    for (const BundleRef& bundle : recovered.tail_refs(id)) {
      warm.add_bundle(*bundle);
    }
    EXPECT_EQ(render(warm.snapshot()), want);

    // The recovered fleet is each user's latest arrival, and the batch
    // path over those bundles agrees too.
    std::vector<trace::TraceBundle> latest(arrivals.begin(),
                                           arrivals.end() - 1);
    latest[2] = arrivals.back();
    expect_step1_equals(fleet_step1(recovered, id), latest);
    const core::ManifestationAnalyzer batch(make_config(num_threads));
    EXPECT_EQ(render(batch.run(latest)), want);
  }
}

}  // namespace
}  // namespace edx::store
