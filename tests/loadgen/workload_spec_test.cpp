// loadgen/workload_spec.h — grammar, validation, canonical round-trip,
// the shipped example specs, and the factory's built-in mixes.
#include "loadgen/workload_spec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "loadgen/workload_factory.h"
#include "support/temp_root.h"
#include "workload/cli.h"

namespace edx::loadgen {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(WorkloadSpec, ParsesEveryDirective) {
  const WorkloadSpec spec = WorkloadSpec::parse(
      "# a comment line\n"
      "workload demo\n"
      "apps 3\n"
      "users 120   # trailing comment\n"
      "streams 8\n"
      "seed 7\n"
      "ops 500\n"
      "events 12\n"
      "hot-apps 1 0.5\n"
      "user-skew 1.5\n"
      "mix ingest=0.4 reupload=0.25 snapshot=0.25 report=0.1\n"
      "arrival open poisson 2000\n"
      "phase warmup 500 rate=0.5 fleet=0.25\n"
      "phase steady 1500\n"
      "slo ingest p99 50\n"
      "slo throughput 1000\n");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.apps, 3u);
  EXPECT_EQ(spec.users, 120u);
  EXPECT_EQ(spec.streams, 8u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.ops_per_stream, 500u);
  EXPECT_EQ(spec.events_per_bundle, 12);
  EXPECT_EQ(spec.hot_apps, 1u);
  EXPECT_DOUBLE_EQ(spec.hot_fraction, 0.5);
  EXPECT_DOUBLE_EQ(spec.user_skew, 1.5);
  EXPECT_DOUBLE_EQ(spec.mix[0], 0.4);
  EXPECT_DOUBLE_EQ(spec.mix[3], 0.1);
  EXPECT_EQ(spec.arrival, ArrivalMode::kOpenPoisson);
  EXPECT_DOUBLE_EQ(spec.rate, 2000.0);
  ASSERT_EQ(spec.phases.size(), 2u);
  EXPECT_EQ(spec.phases[0].name, "warmup");
  EXPECT_EQ(spec.phases[0].duration_ms, 500u);
  EXPECT_DOUBLE_EQ(spec.phases[0].rate_scale, 0.5);
  EXPECT_DOUBLE_EQ(spec.phases[0].fleet_scale, 0.25);
  EXPECT_DOUBLE_EQ(spec.phases[1].rate_scale, 1.0);
  ASSERT_TRUE(spec.slo_p99_ms[0].has_value());
  EXPECT_DOUBLE_EQ(*spec.slo_p99_ms[0], 50.0);
  ASSERT_TRUE(spec.slo_throughput.has_value());
  EXPECT_DOUBLE_EQ(*spec.slo_throughput, 1000.0);
}

TEST(WorkloadSpec, RoundTripIsExact) {
  WorkloadSpec spec;
  spec.name = "rt";
  spec.apps = 5;
  spec.users = 321;
  spec.streams = 7;
  spec.seed = 123456789;
  spec.ops_per_stream = 42;
  spec.events_per_bundle = 9;
  spec.hot_apps = 2;
  spec.hot_fraction = 0.1;  // not exactly representable; must survive
  spec.user_skew = 1.0 / 3.0;
  spec.mix = {0.4, 0.0, 0.3, 0.3};
  spec.arrival = ArrivalMode::kOpenUniform;
  spec.rate = 1234.5678;
  spec.phases.push_back({"warmup", 250, 0.5, 0.25});
  spec.phases.push_back({"steady", 1000, 1.0, 1.0});
  spec.slo_p99_ms[1] = 12.5;
  spec.slo_throughput = 999.25;

  const WorkloadSpec reparsed = WorkloadSpec::parse(spec.to_text());
  EXPECT_EQ(reparsed, spec);
  // And the canonical form is a fixed point.
  EXPECT_EQ(reparsed.to_text(), spec.to_text());
}

TEST(WorkloadSpec, ShippedExamplesParseAndRoundTrip) {
  for (const std::string name :
       {"steady_mixed.workload", "ramp_saturation.workload",
        "many_tenants.workload"}) {
    const std::string path =
        std::string(EDX_SOURCE_DIR) + "/examples/" + name;
    const std::string text = read_file(path);
    const WorkloadSpec spec = WorkloadSpec::parse(text, path);
    EXPECT_FALSE(spec.phases.empty() && spec.slo_p99_ms[0] == std::nullopt &&
                 !spec.slo_throughput.has_value())
        << name << " should declare phases or SLOs";
    const WorkloadSpec reparsed = WorkloadSpec::parse(spec.to_text());
    EXPECT_EQ(reparsed, spec) << name;
  }
}

TEST(WorkloadSpec, ParseErrorsCiteSourceAndLine) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      WorkloadSpec::parse(text, "bad.workload");
      FAIL() << "expected ParseError for: " << text;
    } catch (const ParseError& error) {
      EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
          << "message '" << error.what() << "' lacks '" << needle << "'";
    }
  };
  expect_error("workload ok\nbogus 1\n", "bad.workload:2");
  expect_error("bogus 1\n", "unknown directive");
  expect_error("apps -3\n", "non-negative");
  expect_error("apps\n", "missing");
  expect_error("apps 2 extra\n", "trailing");
  expect_error("mix ingest=zero\n", "number");
  expect_error("mix walk=1\n", "unknown mix op");
  expect_error("mix\n", "at least one");
  expect_error("arrival sideways\n", "closed or open");
  expect_error("arrival open poisson 0\n", "rate must be > 0");
  expect_error("phase p 0\n", "duration must be > 0");
  expect_error("phase p 100 fleet=2\n", "(0, 1]");
  expect_error("slo ingest p50 10\n", "p99");
  expect_error("hot-apps 1 1.5\n", "[0, 1]");
  // Cross-field validation failures are ParseErrors too, citing the
  // last directive line.
  expect_error("workload ok\napps 2\nhot-apps 3 0.5\n", "bad.workload:3");
  expect_error("apps 0\n", "at least one app");
}

TEST(WorkloadSpec, MalformedSpecFileExitsThree) {
  // The CLI contract from ISSUE 9: every spec parse error is exit 3.
  const std::string dir = edx::test::temp_root();
  const std::string path = dir + "/broken.workload";
  {
    std::ofstream out(path);
    out << "workload broken\nstreams zero\n";
  }
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(workload::cli::run({"loadgen", "--spec", path}, out, err), 3);
  EXPECT_NE(err.str().find(path + ":2"), std::string::npos) << err.str();

  // Usage errors stay exit 2: --workload and --spec are exclusive.
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(workload::cli::run(
                {"loadgen", "--workload", "mixed", "--spec", path}, out2,
                err2),
            2);
}

TEST(WorkloadFactory, BuiltInsBuildValidSpecs) {
  WorkloadFactory& factory = WorkloadFactory::instance();
  const std::vector<std::string> names = factory.names();
  for (const std::string expected :
       {"ingest-heavy", "mixed", "read-heavy", "reupload-churn"}) {
    EXPECT_TRUE(factory.contains(expected)) << expected;
  }
  for (const std::string& name : names) {
    const WorkloadSpec spec = factory.create(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_NO_THROW(spec.validate());
    EXPECT_GT(spec.ops_per_stream, 0u) << name << " must be CI-runnable";
    // Every built-in round-trips through the text grammar.
    EXPECT_EQ(WorkloadSpec::parse(spec.to_text()), spec) << name;
  }
  EXPECT_THROW(factory.create("no-such-mix"), InvalidArgument);
}

TEST(WorkloadFactory, RegisterReplacesAndCreatesFresh) {
  WorkloadFactory& factory = WorkloadFactory::instance();
  factory.register_workload("spec-test-temp", [] {
    WorkloadSpec spec;
    spec.name = "spec-test-temp";
    spec.ops_per_stream = 1;
    return spec;
  });
  EXPECT_TRUE(factory.contains("spec-test-temp"));
  WorkloadSpec first = factory.create("spec-test-temp");
  first.seed = 999;  // mutating a created spec must not leak back
  EXPECT_EQ(factory.create("spec-test-temp").seed, WorkloadSpec{}.seed);
}

TEST(OpKindNames, RoundTrip) {
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const auto back = op_kind_from_name(op_kind_name(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(op_kind_from_name("walk").has_value());
}

}  // namespace
}  // namespace edx::loadgen
