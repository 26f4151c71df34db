// The benchmark's own arithmetic: order statistics under the
// "ten samples beyond" rule, open-loop schedules and the latency taken
// from them, coverage-based visibility, and the stage residual.  Pure
// functions over plain numbers, so bench_math_test.cpp can pin them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// A percentile is only reported when at least this many samples lie
/// strictly beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank index (1-based) of percentile `p` in (0, 100] over `n`
/// samples: the smallest rank r with r / n >= p / 100.
inline std::size_t percentile_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 99 / 100 * 1000 landing a hair above 990.
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank percentile `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - percentile_rank(n, p);
}

/// Whether `n` samples support reporting percentile `p`.
inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinBeyond;
}

/// The highest percentile of `ladder` that `n` samples support, or 0 when
/// none does.
inline double highest_supported_percentile(std::size_t n,
                                           std::span<const double> ladder) {
  double best = 0.0;
  for (const double p : ladder) {
    if (p > best && percentile_supported(n, p)) best = p;
  }
  return best;
}

/// Nearest-rank percentile of `samples` (copied and sorted); 0 when empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = percentile_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The smallest sample count that supports percentile `p`.
inline std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (!percentile_supported(n, p)) ++n;
  return n;
}

inline double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

/// Median as the average of the two middle values for an even count.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Robust percentile of a run: `samples` (in time order) are cut into
/// consecutive windows of `window` samples, the last absorbing the
/// remainder, and the result is the median over windows of each window's
/// percentile `p`.  A burst of outside interference inflates the windows
/// it falls in, not the median across them.  Fewer than `window` samples
/// make one window.
inline double windowed_percentile(std::span<const double> samples, double p,
                                  std::size_t window) {
  if (samples.empty() || window == 0) return 0.0;
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / window);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin =
        samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? samples.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(percentile(std::vector<double>(begin, end), p));
  }
  return median(std::move(per_window));
}

/// Open-loop latency: an op is timed from when it was due, not from when
/// the generator got round to calling, so a stall that delays later sends
/// is charged to them.
inline double scheduled_latency(double scheduled, double completed) {
  return completed - scheduled;
}

/// How late the generator issued an op (never negative: an early wake-up
/// waits for the due time).
inline double generator_lateness(double scheduled, double started) {
  return std::max(0.0, started - scheduled);
}

/// Poisson arrival times in [0, seconds) at `rate` per second.
inline std::vector<double> poisson_schedule(double rate, double seconds,
                                            edx::Rng& rng) {
  std::vector<double> times;
  if (rate <= 0.0) return times;
  double t = rng.exponential(1.0 / rate);
  while (t < seconds) {
    times.push_back(t);
    t += rng.exponential(1.0 / rate);
  }
  return times;
}

/// Turns coverage observations into visibility latencies for one tenant.
/// Upload k (1-based position in the tenant's arrival order) is visible
/// from the first observation whose covered-arrival count reaches k; its
/// latency runs from its scheduled send time to that observation.
class VisibilityTracker {
 public:
  /// `first_position` is the position of scheduled[0]; earlier positions
  /// (the prefill) are already covered.
  VisibilityTracker(std::uint64_t first_position,
                    std::vector<double> scheduled)
      : first_(first_position), scheduled_(std::move(scheduled)) {}

  /// Records that at time `now` the published snapshot covered `covered`
  /// arrivals; appends the latency of every upload it newly covers.
  void observe(double now, std::uint64_t covered,
               std::vector<double>& latencies) {
    while (next_ < scheduled_.size() && first_ + next_ <= covered) {
      latencies.push_back(scheduled_latency(scheduled_[next_], now));
      ++next_;
    }
  }

  [[nodiscard]] bool done() const { return next_ == scheduled_.size(); }
  [[nodiscard]] std::size_t pending() const {
    return scheduled_.size() - next_;
  }

 private:
  std::uint64_t first_;
  std::vector<double> scheduled_;
  std::size_t next_{0};
};

/// The part of an end-to-end mean the replayed stages do not explain:
/// queue wait and hand-off time an outside benchmark cannot see.  By
/// construction the stage means plus this residual equal the mean.
inline double residual(double end_to_end_mean,
                       std::span<const double> stage_means) {
  return end_to_end_mean -
         std::accumulate(stage_means.begin(), stage_means.end(), 0.0);
}

}  // namespace perfbench
