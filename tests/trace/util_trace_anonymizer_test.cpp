#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "trace/anonymizer.h"
#include "trace/util_trace.h"

namespace edx::trace {
namespace {

power::UtilizationSample make_sample(TimestampMs timestamp, double power) {
  power::UtilizationSample sample;
  sample.timestamp = timestamp;
  sample.estimated_app_power_mw = power;
  sample.utilization.set(power::Component::kCpu, power / 1000.0);
  return sample;
}

TEST(UtilTraceTest, AveragePowerWeightsOverlap) {
  UtilizationTrace trace("Nexus 6", {make_sample(500, 100.0),
                                     make_sample(1000, 300.0)});
  // Fully inside the first window.
  EXPECT_DOUBLE_EQ(trace.average_power({0, 500}), 100.0);
  // Straddles both equally.
  EXPECT_DOUBLE_EQ(trace.average_power({250, 750}), 200.0);
  // Outside everything.
  EXPECT_DOUBLE_EQ(trace.average_power({5000, 6000}), 0.0);
  // Empty interval.
  EXPECT_DOUBLE_EQ(trace.average_power({100, 100}), 0.0);
}

TEST(UtilTraceTest, ShortIntervalUsesEnclosingSample) {
  UtilizationTrace trace("Nexus 6", {make_sample(500, 100.0),
                                     make_sample(1000, 300.0)});
  EXPECT_DOUBLE_EQ(trace.average_power({600, 610}), 300.0);
}

TEST(UtilTraceTest, ScalePowerMultiplies) {
  UtilizationTrace trace("Moto G", {make_sample(500, 100.0)});
  trace.scale_power(1.5);
  EXPECT_DOUBLE_EQ(trace.samples()[0].estimated_app_power_mw, 150.0);
  EXPECT_THROW(trace.scale_power(0.0), InvalidArgument);
}

TEST(UtilTraceTest, TextRoundTrip) {
  UtilizationTrace trace("Galaxy S5",
                         {make_sample(500, 123.4567), make_sample(1000, 7.5)});
  const UtilizationTrace parsed = UtilizationTrace::from_text(trace.to_text());
  EXPECT_EQ(parsed.device_name(), "Galaxy S5");
  ASSERT_EQ(parsed.samples().size(), 2u);
  EXPECT_NEAR(parsed.samples()[0].estimated_app_power_mw, 123.4567, 1e-4);
  EXPECT_NEAR(parsed.samples()[0].utilization.get(power::Component::kCpu),
              0.1234567, 1e-4);
}

TEST(UtilTraceTest, FromTextRejectsMalformed) {
  EXPECT_THROW(UtilizationTrace::from_text("no header"), ParseError);
  EXPECT_THROW(UtilizationTrace::from_text("DEVICE X\n1 2 3"), ParseError);

  // std::from_chars reads these spellings; a non-finite power estimate
  // would poison every event power averaged over it.
  for (const char* power : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(power);
    EXPECT_THROW(UtilizationTrace::from_text(
                     std::string("DEVICE X\n500 100 0 0 0 0 0 0 0\n1000 ") +
                     power + " 0 0 0 0 0 0 0\n"),
                 ParseError);
  }
  // The same gate guards construction and scaling.
  EXPECT_THROW(UtilizationTrace("X", {make_sample(500, std::nan(""))}),
               ParseError);
  UtilizationTrace huge("X", {make_sample(500, 1e300)});
  EXPECT_THROW(huge.scale_power(1e10), ParseError);
}

TEST(AnonymizerTest, ScrubsPhoneNumbers) {
  EXPECT_EQ(anonymize_text("call +1-555-123-4567 now"),
            "call <phone> now");
  EXPECT_EQ(anonymize_text("id 5551234567"), "id <phone>");
  // Short digit runs survive (timestamps, versions).
  EXPECT_EQ(anonymize_text("version 4.4 build 123"), "version 4.4 build 123");
}

TEST(AnonymizerTest, ScrubsIpAddresses) {
  EXPECT_EQ(anonymize_text("connect to 192.168.1.100:8080"),
            "connect to <ip>:8080");
}

TEST(AnonymizerTest, ScrubsEmails) {
  EXPECT_EQ(anonymize_text("user alice.smith+test@example.org logged in"),
            "user <email> logged in");
}

TEST(AnonymizerTest, CleanTextUntouched) {
  const std::string clean = "Lcom/fsck/k9/activity/MessageList;.onResume";
  EXPECT_EQ(anonymize_text(clean), clean);
  EXPECT_FALSE(contains_identifier(clean));
  EXPECT_TRUE(contains_identifier("ping 10.0.0.1"));
}

TEST(AnonymizerTest, ScrubsEventTraces) {
  EventTrace trace;
  trace.add_instance("Lapp/Deep;.onClick:open_mailto_bob@corp.com", {0, 10});
  const EventTrace scrubbed = anonymize(trace);
  for (const EventRecord& record : scrubbed.records()) {
    const EventName& name = event_name(record.event);
    EXPECT_FALSE(contains_identifier(name)) << name;
    EXPECT_NE(name.find("<email>"), std::string::npos);
  }
}

TEST(AnonymizerTest, Idempotent) {
  const std::string once = anonymize_text("mail bob@x.io from 10.1.2.3");
  EXPECT_EQ(anonymize_text(once), once);
}

}  // namespace
}  // namespace edx::trace
