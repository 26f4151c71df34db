// Bitwise-equivalence properties of the one-pass shared-run amplitude
// scan (core/detection.cpp) against the per-index reference walk it
// replaced (detail::amplitude_at_reference) — all three Step-4 lanes must
// match the reference bit for bit at every index, for every config, on
// every lane shape.  The generators lean on the scan's decision points:
// long monotone ramps (where the reference is quadratic), exact plateaus
// (flat steps are free), dips sitting exactly on the `next == start` and
// `current - next == run_dip_fraction * (run_peak - start)` boundaries,
// and adversarial staircases up to 100k instances.  See DESIGN.md §12.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detection.h"

namespace edx::core {
namespace {

struct Lanes {
  std::vector<double> amp;
  std::vector<std::uint32_t> peak;
  std::vector<double> peak_power;
};

Lanes reference_lanes(const std::vector<double>& norms,
                      const DetectionConfig& config) {
  const std::size_t count = norms.size();
  Lanes lanes;
  lanes.amp.resize(count);
  lanes.peak.resize(count);
  lanes.peak_power.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    detail::amplitude_at_reference(norms.data(), count, i, config,
                                   lanes.amp.data(), lanes.peak.data(),
                                   lanes.peak_power.data());
  }
  return lanes;
}

AnalyzedTrace trace_from(const std::vector<double>& norms) {
  AnalyzedTrace trace;
  trace.events.resize(norms.size());
  for (std::size_t i = 0; i < norms.size(); ++i) {
    trace.events[i].id = intern_event("Lx/Scan;.p");
    const TimestampMs t = static_cast<TimestampMs>(i) * 500;
    trace.events[i].interval = {t, t + 10};
  }
  trace.normalized_power = norms;
  return trace;
}

void expect_scan_matches_reference(const std::vector<double>& norms,
                                   const DetectionConfig& config) {
  AnalyzedTrace trace = trace_from(norms);
  attribute_variation_amplitude(trace, config);
  const Lanes ref = reference_lanes(norms, config);
  ASSERT_EQ(trace.variation_amplitude, ref.amp);
  ASSERT_EQ(trace.run_peak_index, ref.peak);
  ASSERT_EQ(trace.run_peak_power, ref.peak_power);
  // The peak-power lane is by definition the normalized power at the
  // peak index — the dense mirror the fence decision loop reads.
  for (std::size_t i = 0; i < norms.size(); ++i) {
    ASSERT_EQ(trace.run_peak_power[i], norms[trace.run_peak_index[i]]) << i;
  }
}

std::vector<DetectionConfig> config_matrix() {
  std::vector<DetectionConfig> configs;
  configs.push_back({});  // the defaults (tolerance 2, fraction 0.35)
  DetectionConfig strict;
  strict.run_dip_tolerance = 0;
  configs.push_back(strict);
  DetectionConfig one;
  one.run_dip_tolerance = 1;
  one.run_dip_fraction = 0.25;
  configs.push_back(one);
  DetectionConfig deep;
  deep.run_dip_tolerance = 5;
  deep.run_dip_fraction = 0.9;
  configs.push_back(deep);
  DetectionConfig zero_fraction;
  zero_fraction.run_dip_fraction = 0.0;
  configs.push_back(zero_fraction);
  DetectionConfig single_step;
  single_step.extend_monotone_runs = false;
  configs.push_back(single_step);
  return configs;
}

TEST(AmplitudeScanPropertyTest, HandcraftedShapesMatchReference) {
  const std::vector<std::vector<double>> shapes = {
      {},
      {3.0},
      {1.0, 2.0},
      {2.0, 1.0},
      {1.0, 1.0, 1.0},
      {1.0, 2.0, 3.0, 6.0, 6.0},
      {2.0, 1.0, 6.0},
      {1.0, 2.0, 1.9, 1.9, 8.0},
      {1.0, 5.0, 4.9, 4.8, 4.7, 9.0},
      {1.0, 2.0, 2.0, 2.0, 2.0, 9.0},
      // Plateau at the very peak: first attainment must win.
      {1.0, 3.0, 5.0, 5.0, 5.0, 4.0, 5.0},
      // A later segment re-attains (but does not exceed) an earlier peak.
      {1.0, 6.0, 5.0, 6.0, 6.0, 2.0},
      // Dip landing exactly on the run's start (`next == start`).
      {2.0, 2.5, 2.0, 6.0},
      // ... and one ULP-ish below it.
      {2.0, 2.5, 1.9999999999999998, 6.0},
      // Dip exactly on the fraction boundary: rise 4.0, fraction 0.25
      // (configured below) allows a dip of exactly 1.0.
      {1.0, 5.0, 4.0, 6.0},
      {1.0, 5.0, 3.9999999999999996, 6.0},
      // Wobble that must not bridge (fraction guard).
      {1.0, 1.05, 1.0, 1.05, 1.0, 1.05, 9.0, 9.0},
      // Descending staircase: every amplitude is a negative single step.
      {9.0, 7.0, 5.0, 3.0, 1.0},
  };
  for (const DetectionConfig& config : config_matrix()) {
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      SCOPED_TRACE("shape=" + std::to_string(s) + " tol=" +
                   std::to_string(config.run_dip_tolerance));
      expect_scan_matches_reference(shapes[s], config);
    }
  }
}

TEST(AmplitudeScanPropertyTest, RandomizedLanesMatchReference) {
  const std::vector<DetectionConfig> configs = config_matrix();
  Rng seeder(0x5CA7);
  for (int round = 0; round < 120; ++round) {
    Rng rng(seeder.next_u64());
    const std::size_t count =
        static_cast<std::size_t>(rng.uniform_int(1, 400));
    std::vector<double> norms(count);
    const bool quantized = rng.bernoulli(0.5);
    double level = 4.0;
    for (std::size_t i = 0; i < count; ++i) {
      if (quantized) {
        // Values on a 0.25 grid: plenty of exact flats, exact re-attained
        // peaks and exactly representable dips/rises.
        level += 0.25 * static_cast<double>(rng.uniform_int(-3, 4));
        level = std::max(level, 0.25);
      } else {
        level += rng.uniform(-1.0, 1.3);
        level = std::max(level, 0.1);
      }
      norms[i] = level;
    }
    const DetectionConfig& config =
        configs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(configs.size()) - 1))];
    SCOPED_TRACE("round=" + std::to_string(round));
    expect_scan_matches_reference(norms, config);
  }
}

TEST(AmplitudeScanPropertyTest, AdversarialStaircasesMatchReference) {
  // Monotone up-ramps of bounded length separated by dips — every index
  // inside a ramp extends to (and past) the ramp's end, so the reference
  // walk costs O(segment) per index while the one-pass scan must stay
  // O(1) amortized.  Segments are kept short enough that the reference
  // side of the comparison stays affordable at 100k instances.
  Rng rng(0xAD5Au);
  std::vector<double> norms;
  norms.reserve(100'000);
  double level = 10.0;
  while (norms.size() < 100'000) {
    const std::size_t ramp = static_cast<std::size_t>(rng.uniform_int(2, 60));
    for (std::size_t k = 0; k < ramp && norms.size() < 100'000; ++k) {
      level += rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 2.0);
      norms.push_back(level);
    }
    // A dip: sometimes shallow (bridgeable), sometimes a cliff.
    level -= rng.bernoulli(0.5) ? rng.uniform(0.05, 0.5)
                                : rng.uniform(5.0, level * 0.5);
    level = std::max(level, 1.0);
    norms.push_back(level);
  }
  expect_scan_matches_reference(norms, DetectionConfig{});
  DetectionConfig deep;
  deep.run_dip_tolerance = 5;
  expect_scan_matches_reference(norms, deep);
}

TEST(AmplitudeScanPropertyTest, LongMonotoneRampMatchesClosedForm) {
  // The reference is O(n^2) on a single 100k ramp, so pin the scan
  // against the closed form instead: every index measures to the global
  // peak at the last instance.
  const std::size_t count = 100'000;
  std::vector<double> norms(count);
  for (std::size_t i = 0; i < count; ++i) {
    norms[i] = 1.0 + static_cast<double>(i) * 0.001;
  }
  AnalyzedTrace trace = trace_from(norms);
  attribute_variation_amplitude(trace, DetectionConfig{});
  const std::uint32_t last = static_cast<std::uint32_t>(count - 1);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    ASSERT_EQ(trace.variation_amplitude[i], norms[count - 1] - norms[i]) << i;
    ASSERT_EQ(trace.run_peak_index[i], last) << i;
    ASSERT_EQ(trace.run_peak_power[i], norms[count - 1]) << i;
  }
  EXPECT_EQ(trace.variation_amplitude[count - 1], 0.0);
  EXPECT_EQ(trace.run_peak_index[count - 1], last);
}

}  // namespace
}  // namespace edx::core
