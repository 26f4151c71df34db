// Descriptive statistics used by the manifestation analysis.
//
// The paper's Step 3 normalizes to the 10th percentile of an event's power
// distribution and Step 4 detects outliers above the Tukey *upper outer
// fence* Q3 + 3*IQR; both primitives live here so every module (core
// analysis, baselines, benches) computes them identically.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace edx::stats {

/// Arithmetic mean.  Requires a non-empty range.
double mean(std::span<const double> values);

/// Sample variance (n-1 denominator).  Requires size >= 2.
double variance(std::span<const double> values);

/// Sample standard deviation.  Requires size >= 2.
double stddev(std::span<const double> values);

/// Smallest / largest element.  Require a non-empty range.
double min(std::span<const double> values);
double max(std::span<const double> values);

/// Percentile with linear interpolation between closest ranks
/// (the "exclusive" R-7 definition used by numpy.percentile's default).
/// `p` is in [0, 100].  Requires a non-empty range; the input need not be
/// sorted.
double percentile(std::span<const double> values, double p);

/// percentile() for callers that already hold the values in ascending
/// order (e.g. a cached sorted distribution): O(1), no copy, no sort.
double percentile_sorted(std::span<const double> sorted_values, double p);

/// Median == percentile(values, 50).
double median(std::span<const double> values);

/// Tukey quartile summary of a data set.
struct Quartiles {
  double q1{0};  ///< 25th percentile
  double q2{0};  ///< median
  double q3{0};  ///< 75th percentile

  [[nodiscard]] double iqr() const { return q3 - q1; }
  /// Q3 + 1.5*IQR — the classic whisker bound.
  [[nodiscard]] double upper_inner_fence() const { return q3 + 1.5 * iqr(); }
  /// Q3 + 3*IQR — the paper's manifestation-point threshold (Step 4).
  [[nodiscard]] double upper_outer_fence() const { return q3 + 3.0 * iqr(); }
  [[nodiscard]] double lower_outer_fence() const { return q1 - 3.0 * iqr(); }
};

/// Computes Q1/median/Q3 of `values`.  Requires a non-empty range.
Quartiles quartiles(std::span<const double> values);

/// quartiles() for values already in ascending order: three O(1)
/// interpolations, no copy, no sort.
Quartiles quartiles_sorted(std::span<const double> sorted_values);

/// quartiles() via radix selection: resolves the six order statistics
/// behind Q1/Q2/Q3 with branch-free MSB-radix counting passes over the
/// doubles' order-preserving key images, and returns the same Q1/Q2/Q3 a
/// full sort would, bit for bit — order statistics are multiset values,
/// independent of how they are brought to their rank.  O(n) worst case
/// (at most 8 counting passes), with per-element cost flat in both input
/// size and data shape — unlike comparison selection, whose partition
/// branches mispredict once the input outgrows the branch predictor.
/// The Step-4 batch decision phase uses it so detection cost stays linear
/// in trace length (core/detection.cpp).  Inputs below a few hundred
/// elements instead take a plain sort — cheaper than the radix pass's
/// fixed costs, and too small to mispredict superlinearly — which yields
/// the same bits.  The input must be NaN-free.  Requires a non-empty
/// range.
Quartiles quartiles_select(std::span<const double> values);

/// One point of an empirical CDF.
struct CdfPoint {
  double value{0};
  double cumulative_probability{0};  ///< P(X <= value)
};

/// Empirical CDF of `values` (sorted ascending, one point per distinct
/// value).  Requires a non-empty range.
std::vector<CdfPoint> empirical_cdf(std::span<const double> values);

/// Indices of elements strictly above `threshold`, in input order.
std::vector<std::size_t> indices_above(std::span<const double> values,
                                       double threshold);

/// Competition ranks ("1224" style): rank[i] is 1 + the number of elements
/// strictly smaller than values[i]; ties share a rank.  Used by Step 2 of
/// the analysis to rank instances of the same event across traces.
std::vector<std::size_t> competition_ranks(std::span<const double> values);

}  // namespace edx::stats
