// Thread-safety of the group-commit store: concurrent producers spread
// over several tenants, mixing blocking and async appends, with a
// background compaction racing them, must never lose a record, corrupt a
// fleet, or trip TSan (the CI TSan job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/event_power.h"
#include "power/tracker.h"
#include "store/shard_store.h"
#include "support/temp_root.h"
#include "trace/recorder.h"

namespace edx::store {
namespace {

namespace fs = std::filesystem;

std::string temp_store(const std::string& leaf) {
  const std::string path = edx::test::temp_root() + "/edx_storec_" + leaf;
  fs::remove_all(path);
  return path;
}

trace::TraceBundle make_trace(UserId user, int variant) {
  trace::TraceBundle bundle;
  bundle.user = user;
  bundle.device_name = "Nexus 6";
  std::vector<power::UtilizationSample> samples;
  for (int i = 0; i < 6; ++i) {
    const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
    bundle.events.add_instance(i % 2 == 0 ? "circle" : "square",
                               {t + 10, t + 40});
    power::UtilizationSample sample;
    sample.timestamp = t + 500;
    sample.estimated_app_power_mw =
        100.0 + 10.0 * ((user + i + variant) % 7);
    samples.push_back(sample);
  }
  bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
  return bundle;
}

/// Every tenant's fleet as Step-1 images, slot order, keyed by tenant:
/// snapshot_step1()'s slots with each tail bundle's Step 1 folded in by
/// user, one line per slot, raw powers as exact bits.
std::vector<std::vector<std::string>> fleet_texts(
    const ShardStore& store, const std::vector<std::string>& keys) {
  std::vector<std::vector<std::string>> texts;
  for (const std::string& key : keys) {
    const std::optional<TenantInfo> tenant = store.tenant(key);
    EXPECT_TRUE(tenant.has_value()) << key;
    std::vector<std::string>& fleet = texts.emplace_back();
    if (!tenant.has_value()) continue;
    std::vector<core::AnalyzedTrace> slots = store.snapshot_step1(tenant->id);
    for (const BundleRef& bundle : store.tail_refs(tenant->id)) {
      const auto slot = std::find_if(
          slots.begin(), slots.end(), [&](const core::AnalyzedTrace& trace) {
            return trace.user == bundle->user;
          });
      if (slot == slots.end()) {
        slots.push_back(core::estimate_event_power(*bundle));
      } else {
        *slot = core::estimate_event_power(*bundle);
      }
    }
    for (const core::AnalyzedTrace& slot : slots) {
      std::string text = std::to_string(slot.user);
      for (const core::PoweredEvent& event : slot.events) {
        text += " " + event.name() + "@" +
                std::to_string(event.interval.begin) + "-" +
                std::to_string(event.interval.end) + "=" +
                std::to_string(std::bit_cast<std::uint64_t>(event.raw_power));
      }
      fleet.push_back(std::move(text));
    }
  }
  return texts;
}

/// N producer threads over two tenants (each tenant gets one blocking and
/// one async producer, registering it concurrently) race appends against
/// periodic background compactions; afterwards every fleet must hold all
/// of its users and a reopen must agree with it exactly.
TEST(StoreConcurrencyTest, ConcurrentAppendsCompactionAndReopenAgree) {
  const std::string dir = temp_store("race");
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  const std::vector<std::string> keys = {"alpha", "beta"};
  StoreOptions options;
  options.fsync_policy = FsyncPolicy::kNone;  // keep the race fast
  options.segment_target_bytes = 4'000;       // force segment rolls mid-race
  std::vector<std::vector<std::string>> fleets;
  {
    ShardStore store = ShardStore::open(dir, options);
    std::atomic<bool> done{false};
    std::thread compactor([&store, &done] {
      while (!done.load()) {
        store.compact_async();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&store, &keys, p] {
        const TenantId id =
            store.ensure_tenant(keys[static_cast<std::size_t>(p / 2)]);
        for (int i = 0; i < kPerProducer; ++i) {
          const UserId user =
              static_cast<UserId>(p * kPerProducer + i);
          if (p % 2 == 0) {
            store.append(id, make_trace(user, i));
          } else {
            store.append_async(id, make_trace(user, i));
          }
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    done.store(true);
    compactor.join();
    store.flush();
    store.wait_for_compaction();

    EXPECT_EQ(store.last_seq(),
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    fleets = fleet_texts(store, keys);
    for (const std::vector<std::string>& fleet : fleets) {
      EXPECT_EQ(fleet.size(), static_cast<std::size_t>(2 * kPerProducer));
    }
  }

  // A fresh recovery (snapshot + surviving segments) reproduces every
  // pre-close fleet byte for byte, in the same slot order.
  const ShardStore recovered = ShardStore::open(dir, options);
  EXPECT_EQ(fleet_texts(recovered, keys), fleets);
}

/// Re-uploads from many threads, each writing to both tenants: every
/// fleet must end with one slot per user regardless of interleaving (the
/// WAL decides which upload won).
TEST(StoreConcurrencyTest, ConcurrentReuploadsKeepOneSlotPerUser) {
  const std::string dir = temp_store("reupload");
  constexpr int kUsers = 8;
  constexpr int kRounds = 10;
  const std::vector<std::string> keys = {"alpha", "beta"};
  StoreOptions options;
  options.fsync_policy = FsyncPolicy::kNone;
  {
    ShardStore store = ShardStore::open(dir, options);
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&store, &keys, p] {
        for (int round = 0; round < kRounds; ++round) {
          for (UserId user = 0; user < kUsers; ++user) {
            const TenantId id = store.ensure_tenant(
                keys[static_cast<std::size_t>(user) % keys.size()]);
            store.append_async(id, make_trace(user, p * kRounds + round));
          }
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    store.flush();
    for (const std::vector<std::string>& fleet : fleet_texts(store, keys)) {
      EXPECT_EQ(fleet.size(), static_cast<std::size_t>(kUsers / 2));
    }
  }
  const ShardStore recovered = ShardStore::open(dir, options);
  for (const std::vector<std::string>& fleet : fleet_texts(recovered, keys)) {
    EXPECT_EQ(fleet.size(), static_cast<std::size_t>(kUsers / 2));
  }
  EXPECT_EQ(recovered.last_seq(),
            static_cast<std::uint64_t>(3 * kRounds * kUsers));
}

}  // namespace
}  // namespace edx::store
