// Shard routing: home_shard() is a pure function of the app key, pinned
// bit for bit (store roots on disk depend on it), and every upload of a
// tenant lands on that one shard whatever its fleet key.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "service/fleet_service.h"
#include "store/shard_store.h"
#include "support/temp_root.h"

namespace edx::service {
namespace {

/// A four-event upload from `user`.
trace::TraceBundle upload(UserId user) {
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  for (int i = 0; i < 4; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    bundle.events.add_instance(i % 2 == 0 ? "circle" : "square",
                               {t + 10, t + 40});
    power::UtilizationSample sample;
    sample.timestamp = t + 500;
    sample.estimated_app_power_mw = 100.0 + 300.0 * (i % 2) + user % 5;
    samples.push_back(sample);
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

TEST(ShardRouterTest, HomeShardIsDeterministicAndInRange) {
  EXPECT_THROW(home_shard("app-1", 0), edx::InvalidArgument);
  for (const std::string app : {"app-1", "app-2", "com.example.mail", ""}) {
    const std::size_t home = home_shard(app, 5);
    EXPECT_LT(home, 5u);
    // Pure function of the key: stable across calls.
    EXPECT_EQ(home, home_shard(app, 5));
  }
  EXPECT_EQ(home_shard("app-1", 1), 0u);
}

TEST(ShardRouterTest, HomeShardIsPinnedForFixedKeys) {
  // Values of FNV-1a 64 mod {1, 2, 4, 8}, as every existing root was
  // written.  A change here strands stored tenants off their home shard.
  struct Pin {
    const char* key;
    std::size_t home[4];
  };
  const std::vector<Pin> pins = {
      {"default", {0, 0, 0, 4}},  {"app-0", {0, 1, 3, 3}},
      {"app-1", {0, 0, 0, 0}},    {"app-2", {0, 1, 1, 1}},
      {"app-3", {0, 0, 2, 6}},    {"app-5", {0, 0, 0, 4}},
      {"app-7", {0, 0, 2, 2}},    {"app-18", {0, 0, 0, 0}},
      {"mail", {0, 0, 0, 4}},     {"maps", {0, 0, 0, 0}},
      {"podcast", {0, 1, 1, 1}},  {"com.example.mail", {0, 1, 1, 5}},
      {"", {0, 1, 3, 3}},
  };
  const std::size_t shard_counts[4] = {1, 2, 4, 8};
  for (const Pin& pin : pins) {
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(home_shard(pin.key, shard_counts[i]), pin.home[i])
          << "key '" << pin.key << "', " << shard_counts[i] << " shards";
    }
  }
}

TEST(ShardRouterTest, ColdRouteIgnoresFleetKey) {
  // 64 users of one app and 8 of another, through a 4-shard durable
  // service: each tenant's records sit on its home shard and nowhere
  // else.
  namespace fs = std::filesystem;
  const std::string root = edx::test::temp_root() + "/edx_router_home";
  fs::remove_all(root);
  ServiceOptions options;
  options.num_shards = 4;
  options.store_root = root;
  {
    FleetService service(options);
    for (UserId user = 0; user < 64; ++user) {
      service.submit("app-7", upload(user));
      if (user < 8) service.submit("app-3", upload(user));
    }
    service.close();
  }
  std::set<std::string> seen;
  for (std::size_t s = 0; s < 4; ++s) {
    const store::ShardStore shard =
        store::ShardStore::open(store::shard_dir(root, s));
    for (const store::TenantInfo& tenant : shard.tenants()) {
      EXPECT_EQ(home_shard(tenant.key, 4), s) << tenant.key;
      EXPECT_TRUE(seen.insert(tenant.key).second) << tenant.key;
    }
  }
  EXPECT_EQ(seen, (std::set<std::string>{"app-3", "app-7"}));
}

TEST(ShardRouterTest, HomeShardsSpreadAcrossShards) {
  std::set<std::size_t> used;
  for (int app = 0; app < 64; ++app) {
    used.insert(home_shard("app-" + std::to_string(app), 8));
  }
  // 64 FNV-hashed keys over 8 shards: every shard should host someone.
  EXPECT_EQ(used.size(), 8u);
}

}  // namespace
}  // namespace edx::service
