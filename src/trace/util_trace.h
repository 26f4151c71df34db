// Utilization/power traces.
//
// The tracker produces one UtilizationSample per 500 ms window; a
// UtilizationTrace bundles the samples with the device they came from so
// the collection server can scale heterogeneous traces onto a common power
// scale before the analysis.
//
// Samples are kept sorted by timestamp (the constructor and the parser
// sort when needed) and indexed with prefix sums of power·overlap terms,
// so average_power() answers in O(log n) instead of scanning the whole
// sample vector once per event instance — the Step-1 hot path when the
// collection server joins millions of event instances with their samples.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/types.h"
#include "power/tracker.h"

namespace edx::trace {

class AveragePowerCursor;

/// Power/utilization samples of one run on one device.
class UtilizationTrace {
 public:
  UtilizationTrace() = default;
  /// Throws ParseError when a sample's power estimate is NaN or infinite
  /// (as do from_text and scale_power): such a value would poison every
  /// event power averaged over it.
  UtilizationTrace(std::string device_name,
                   std::vector<power::UtilizationSample> samples);

  [[nodiscard]] const std::string& device_name() const { return device_name_; }
  [[nodiscard]] const std::vector<power::UtilizationSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Average estimated app power over [begin, end), weighting each sample
  /// window by its overlap with the interval.  Returns 0 when nothing
  /// overlaps.  `period_ms` is inferred from sample spacing.
  [[nodiscard]] PowerMw average_power(TimeInterval interval) const;

  /// Width of one sample window, inferred as the *median* inter-sample gap
  /// (robust to dropped or irregularly-spaced samples); 500 ms — the
  /// tracker default — when fewer than two samples or when every gap is
  /// zero/negative.  Sample i covers (timestamp_i - sample_period(),
  /// timestamp_i].
  [[nodiscard]] DurationMs sample_period() const { return period_; }

  /// Multiplies every sample's power estimate by `factor` (model scaling).
  void scale_power(double factor);

  /// Plain-text serialization: one "timestamp power util0..util6" line per
  /// sample, preceded by a DEVICE header.
  [[nodiscard]] std::string to_text() const;
  static UtilizationTrace from_text(const std::string& text);

 private:
  friend class AveragePowerCursor;

  /// Rejects a NaN or infinite power estimate (ParseError), sorts samples
  /// by timestamp when needed, infers the period, and builds the
  /// prefix-sum index.  Must be called whenever samples_ changes.
  void build_index();

  /// Shared tail of the interval-average computation: three prefix-sum
  /// segment differences over [lo, hi) split at the clipping breakpoints,
  /// plus the enclosing-sample fallback when nothing overlaps.  The five
  /// indices are upper_bound(b), lower_bound(e + period),
  /// upper_bound(min/max of b + period and e), and lower_bound(e).
  [[nodiscard]] PowerMw average_from_bounds(TimestampMs b, TimestampMs e,
                                            std::size_t lo, std::size_t hi,
                                            std::size_t u_left,
                                            std::size_t u_right,
                                            std::size_t fallback) const;

  std::string device_name_;
  std::vector<power::UtilizationSample> samples_;

  // --- index over samples_, rebuilt by build_index() -------------------
  DurationMs period_{500};
  /// When every inter-sample gap is the same positive value the timestamps
  /// form an exact arithmetic progression and every bound below is plain
  /// integer arithmetic instead of a binary search (the tracker emits
  /// samples on a fixed cadence, so this is the common case).  0 when the
  /// spacing is irregular.
  DurationMs uniform_gap_{0};
  std::vector<TimestampMs> timestamps_;  ///< samples_[i].timestamp
  /// prefix_power_[i]  = sum of estimated_app_power_mw over samples_[0..i)
  /// prefix_pt_[i]     = sum of power·timestamp over samples_[0..i)
  /// prefix_time_[i]   = sum of timestamps over samples_[0..i)
  std::vector<double> prefix_power_;
  std::vector<double> prefix_pt_;
  std::vector<std::int64_t> prefix_time_;
};

/// Amortized-O(1) interval averages for chronologically ordered queries —
/// Step 1 walks each bundle's event instances in time order, so the five
/// bound cursors only ever advance.  Results are bit-identical to
/// UtilizationTrace::average_power for ANY query sequence: an out-of-order
/// query just rewinds the cursors and pays a fresh forward scan.  Holds a
/// reference to the trace; do not mutate the trace while a cursor is live.
class AveragePowerCursor {
 public:
  explicit AveragePowerCursor(const UtilizationTrace& trace)
      : trace_(&trace) {}

  /// Equivalent to trace.average_power(interval).
  [[nodiscard]] PowerMw average_power(TimeInterval interval);

 private:
  const UtilizationTrace* trace_;
  TimestampMs prev_begin_{std::numeric_limits<TimestampMs>::min()};
  TimestampMs prev_end_{std::numeric_limits<TimestampMs>::min()};
  std::size_t upper_b_{0};         ///< upper_bound(begin)
  std::size_t upper_b_period_{0};  ///< upper_bound(begin + period)
  std::size_t upper_e_{0};         ///< upper_bound(end)
  std::size_t lower_e_{0};         ///< lower_bound(end)
  std::size_t lower_e_period_{0};  ///< lower_bound(end + period)
};

}  // namespace edx::trace
