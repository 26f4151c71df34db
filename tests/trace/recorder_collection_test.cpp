#include <gtest/gtest.h>

#include "android/apk_builder.h"
#include "android/instrumenter.h"
#include "android/runtime.h"
#include "common/error.h"
#include "trace/collection.h"
#include "trace/recorder.h"

namespace edx::trace {
namespace {

using namespace edx::android;

AppSpec tiny_app() {
  AppSpec app;
  app.package_name = "com.example.rec";
  app.display_name = "Rec";
  ComponentSpec main;
  main.class_name = make_class_name(app.package_name, "ui", "Main");
  main.simple_name = "Main";
  main.kind = ClassKind::kActivity;
  main.set_callback({"onClick:btnGo", 10, {lift(cpu_work(60, 0.6))}});
  app.components = {main};
  app.main_activity = main.class_name;
  app.ensure_lifecycle_callbacks();
  return app;
}

TraceBundle record_run(const power::Device& device) {
  const AppSpec app = tiny_app();
  static const Apk apk = Instrumenter().instrument(build_apk(app));
  power::UtilizationTimeline timeline;
  AppRuntime runtime(app, &apk, timeline, 1);
  const RunResult run = runtime.run(
      {launch(), interact("onClick:btnGo"), background_app(), idle(10'000)},
      0);
  power::TrackerConfig config;
  config.estimation_noise = 0.0;
  TraceRecorder recorder(device, config, Rng(5));
  return recorder.record(run, timeline, /*user=*/3, /*tracker_pid=*/900);
}

TEST(RecorderTest, BundleHasBothTraces) {
  const TraceBundle bundle = record_run(power::nexus6());
  EXPECT_EQ(bundle.user, 3);
  EXPECT_EQ(bundle.device_name, "Nexus 6");
  EXPECT_FALSE(bundle.events.empty());
  EXPECT_FALSE(bundle.utilization.empty());
  // Every logged instance pairs.
  EXPECT_NO_THROW(bundle.events.instances());
}

TEST(RecorderTest, BundleTextRoundTrip) {
  const TraceBundle bundle = record_run(power::nexus6());
  const TraceBundle parsed = TraceBundle::from_text(bundle.to_text());
  EXPECT_EQ(parsed.user, bundle.user);
  EXPECT_EQ(parsed.device_name, bundle.device_name);
  EXPECT_EQ(parsed.events, bundle.events);
  EXPECT_EQ(parsed.utilization.samples().size(),
            bundle.utilization.samples().size());
}

TEST(RecorderTest, FromTextRejectsGarbage) {
  EXPECT_THROW(TraceBundle::from_text("nope"), ParseError);

  // The user field must be one whole decimal UserId: a numeric prefix
  // ("0abc") is not user 0, and a non-number is a parse error, not a
  // stray std::invalid_argument.
  const std::string text = record_run(power::nexus6()).to_text();
  const std::string prefix = "BUNDLE user=3 ";
  ASSERT_EQ(text.rfind(prefix, 0), 0u);
  const std::string body = text.substr(prefix.size());
  EXPECT_EQ(TraceBundle::from_text("BUNDLE user=-7 " + body).user, -7);
  for (const char* user : {"0abc", "x", "", "+3", "4294967296"}) {
    SCOPED_TRACE(user);
    EXPECT_THROW(
        TraceBundle::from_text("BUNDLE user=" + std::string(user) + " " + body),
        ParseError);
  }
}

TEST(CollectionTest, UploadPolicyRequiresChargingAndWifi) {
  CollectionServer server(power::nexus6(), power::builtin_devices());
  const TraceBundle bundle = record_run(power::nexus6());

  EXPECT_EQ(server.upload(bundle, {.charging = false, .on_wifi = true}),
            UploadStatus::kDeferredNotCharging);
  EXPECT_EQ(server.upload(bundle, {.charging = true, .on_wifi = false}),
            UploadStatus::kDeferredNoWifi);
  EXPECT_EQ(server.accepted_count(), 0u);
  EXPECT_EQ(server.deferred_count(), 2u);

  EXPECT_EQ(server.upload(bundle, {.charging = true, .on_wifi = true}),
            UploadStatus::kAccepted);
  EXPECT_EQ(server.accepted_count(), 1u);
}

TEST(CollectionTest, ScalesForeignDevicesToReference) {
  CollectionServer server(power::nexus6(), power::builtin_devices());
  const TraceBundle from_moto = record_run(power::moto_g());
  server.upload(from_moto, {.charging = true, .on_wifi = true});

  const power::PowerModelScaler scaler(power::nexus6());
  const double factor = scaler.scale_factor(power::moto_g());
  ASSERT_GT(factor, 1.0);
  const auto& stored = server.bundles().front();
  for (std::size_t i = 0; i < stored.utilization.samples().size(); ++i) {
    EXPECT_NEAR(stored.utilization.samples()[i].estimated_app_power_mw,
                from_moto.utilization.samples()[i].estimated_app_power_mw *
                    factor,
                1e-9);
  }
}

TEST(CollectionTest, ReferenceDeviceUnscaled) {
  CollectionServer server(power::nexus6(), power::builtin_devices());
  const TraceBundle bundle = record_run(power::nexus6());
  server.upload(bundle, {.charging = true, .on_wifi = true});
  EXPECT_EQ(server.bundles().front().utilization.samples()[0]
                .estimated_app_power_mw,
            bundle.utilization.samples()[0].estimated_app_power_mw);
}

TEST(CollectionTest, RejectsUnknownDevice) {
  CollectionServer server(power::nexus6(), {power::nexus6()});
  TraceBundle bundle = record_run(power::nexus6());
  bundle.device_name = "Mystery Phone";
  EXPECT_THROW(server.upload(bundle, {.charging = true, .on_wifi = true}),
               InvalidArgument);
}

TEST(CollectionTest, AnonymizesStoredEvents) {
  CollectionServer server(power::nexus6(), power::builtin_devices());
  TraceBundle bundle = record_run(power::nexus6());
  bundle.events.add_instance("Lapp/X;.onClick:dial_5551234567", {50'000,
                                                                 50'010});
  server.upload(bundle, {.charging = true, .on_wifi = true});
  for (const EventRecord& record : server.bundles().front().events.records()) {
    EXPECT_FALSE(contains_identifier(event_name(record.event)))
        << event_name(record.event);
  }
}

}  // namespace
}  // namespace edx::trace
