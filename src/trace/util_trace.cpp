#include "trace/util_trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/strings.h"

namespace edx::trace {

UtilizationTrace::UtilizationTrace(
    std::string device_name, std::vector<power::UtilizationSample> samples)
    : device_name_(std::move(device_name)), samples_(std::move(samples)) {
  build_index();
}

void UtilizationTrace::build_index() {
  // Every construction path lands here, so this is the one gate against
  // non-finite power: std::from_chars accepts "nan" and "inf", and a NaN
  // averaged into an event's raw power compares false against everything
  // — it silently reorders the ranking's sorted caches and the report.
  for (const power::UtilizationSample& sample : samples_) {
    if (!std::isfinite(sample.estimated_app_power_mw)) {
      throw ParseError(
          "UtilizationTrace: non-finite estimated_app_power_mw at t=" +
          std::to_string(sample.timestamp));
    }
  }
  const auto by_time = [](const power::UtilizationSample& a,
                          const power::UtilizationSample& b) {
    return a.timestamp < b.timestamp;
  };
  if (!std::is_sorted(samples_.begin(), samples_.end(), by_time)) {
    std::stable_sort(samples_.begin(), samples_.end(), by_time);
  }

  // Infer the window width as the median inter-sample gap: robust both to
  // a single dropped sample (which would double a naive first-gap guess)
  // and to duplicate timestamps (whose zero gap would collapse every
  // window to nothing and silently drop all overlap weight).
  period_ = 500;  // the tracker default
  if (samples_.size() >= 2) {
    std::vector<DurationMs> gaps;
    gaps.reserve(samples_.size() - 1);
    for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
      gaps.push_back(samples_[i + 1].timestamp - samples_[i].timestamp);
    }
    const std::size_t mid = (gaps.size() - 1) / 2;
    std::nth_element(gaps.begin(), gaps.begin() + static_cast<std::ptrdiff_t>(mid),
                     gaps.end());
    DurationMs inferred = gaps[mid];
    if (inferred <= 0) {
      // More than half the gaps are degenerate (bursts of duplicated
      // timestamps); fall back to the smallest real gap.
      inferred = 0;
      for (DurationMs gap : gaps) {
        if (gap > 0 && (inferred == 0 || gap < inferred)) inferred = gap;
      }
    }
    if (inferred > 0) period_ = inferred;
  }

  const std::size_t n = samples_.size();
  uniform_gap_ = n <= 1 ? period_ : samples_[1].timestamp - samples_[0].timestamp;
  for (std::size_t i = 1; i + 1 < n && uniform_gap_ > 0; ++i) {
    if (samples_[i + 1].timestamp - samples_[i].timestamp != uniform_gap_) {
      uniform_gap_ = 0;
    }
  }
  if (uniform_gap_ < 0) uniform_gap_ = 0;
  timestamps_.resize(n);
  prefix_power_.assign(n + 1, 0.0);
  prefix_pt_.assign(n + 1, 0.0);
  prefix_time_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const power::UtilizationSample& sample = samples_[i];
    timestamps_[i] = sample.timestamp;
    prefix_power_[i + 1] = prefix_power_[i] + sample.estimated_app_power_mw;
    prefix_pt_[i + 1] =
        prefix_pt_[i] +
        sample.estimated_app_power_mw * static_cast<double>(sample.timestamp);
    prefix_time_[i + 1] = prefix_time_[i] + sample.timestamp;
  }
}

PowerMw UtilizationTrace::average_power(TimeInterval interval) const {
  if (samples_.empty() || interval.empty()) return 0.0;
  const DurationMs period = period_;
  const TimestampMs b = interval.begin;
  const TimestampMs e = interval.end;

  // Sample i's window (t_i - period, t_i] intersects [b, e) iff
  // b < t_i < e + period; with timestamps sorted the contributing samples
  // form one contiguous range.  Within it the overlap is a piecewise-
  // linear function of t_i with breakpoints at b + period (where the
  // window stops being clipped on the left) and e (where it starts being
  // clipped on the right), so three prefix-sum differences reproduce the
  // naive per-sample scan exactly.
  const auto ts_begin = timestamps_.begin();
  const auto ts_end = timestamps_.end();
  const std::size_t n = timestamps_.size();
  const TimestampMs left_break = b + period;
  const TimestampMs right_break = e;

  // The five bounds the decomposition needs: lo = upper_bound(b),
  // hi = lower_bound(e + period), the two break indices, and (for the
  // covered == 0 fallback) lower_bound(e).
  std::size_t lo, hi, u_left, u_right, fallback;
  if (uniform_gap_ > 0) {
    // Uniform grid t_i = t_0 + i·gap (and then period == gap, since the
    // period is the median gap): every bound is integer arithmetic on two
    // floor divisions.  upper_bound(v) counts timestamps <= v, i.e.
    // clamp(fdiv(v - t_0) + 1); adding `gap` to v shifts fdiv by exactly
    // one, and lower_bound(v) = upper_bound(v - 1) splits on whether v
    // lands exactly on the grid.
    const TimestampMs g = uniform_gap_;
    const auto fdiv = [g](TimestampMs a) -> TimestampMs {
      return a >= 0 ? a / g : -((-a + g - 1) / g);
    };
    const auto clamp_idx = [n](TimestampMs i) -> std::size_t {
      return static_cast<std::size_t>(
          std::clamp<TimestampMs>(i, 0, static_cast<TimestampMs>(n)));
    };
    const TimestampMs t0 = timestamps_.front();
    const TimestampMs db = fdiv(b - t0);
    const TimestampMs de = fdiv(e - t0);
    const TimestampMs remainder_e = (e - t0) - de * g;  // in [0, g)
    lo = clamp_idx(db + 1);                      // upper_bound(b)
    const std::size_t u_b_period = clamp_idx(db + 2);  // upper_bound(b + g)
    const std::size_t u_e = clamp_idx(de + 1);         // upper_bound(e)
    hi = clamp_idx(de + 1 + (remainder_e != 0 ? 1 : 0));  // lower_bound(e + g)
    fallback = clamp_idx(de + (remainder_e != 0 ? 1 : 0));  // lower_bound(e)
    u_left = left_break <= right_break ? u_b_period : u_e;
    u_right = left_break <= right_break ? u_e : u_b_period;
  } else {
    lo = static_cast<std::size_t>(std::upper_bound(ts_begin, ts_end, b) -
                                  ts_begin);
    hi = static_cast<std::size_t>(
        std::lower_bound(ts_begin, ts_end, e + period) - ts_begin);
    u_left = static_cast<std::size_t>(
        std::upper_bound(ts_begin, ts_end,
                         std::min(left_break, right_break)) -
        ts_begin);
    u_right = static_cast<std::size_t>(
        std::upper_bound(ts_begin, ts_end,
                         std::max(left_break, right_break)) -
        ts_begin);
    fallback = static_cast<std::size_t>(
        std::lower_bound(ts_begin, ts_end, e) - ts_begin);
  }

  return average_from_bounds(b, e, lo, hi, u_left, u_right, fallback);
}

PowerMw UtilizationTrace::average_from_bounds(TimestampMs b, TimestampMs e,
                                              std::size_t lo, std::size_t hi,
                                              std::size_t u_left,
                                              std::size_t u_right,
                                              std::size_t fallback) const {
  const DurationMs period = period_;
  const TimestampMs left_break = b + period;
  const TimestampMs right_break = e;

  double weighted = 0.0;
  DurationMs covered = 0;
  if (lo < hi) {
    const std::size_t m1 = std::clamp(u_left, lo, hi);
    const std::size_t m2 = std::clamp(u_right, m1, hi);

    const auto power_sum = [&](std::size_t i, std::size_t j) {
      return prefix_power_[j] - prefix_power_[i];
    };
    const auto pt_sum = [&](std::size_t i, std::size_t j) {
      return prefix_pt_[j] - prefix_pt_[i];
    };
    const auto time_sum = [&](std::size_t i, std::size_t j) {
      return prefix_time_[j] - prefix_time_[i];
    };
    const auto count = [&](std::size_t i, std::size_t j) {
      return static_cast<std::int64_t>(j - i);
    };

    // t_i in (b, min(breaks)]: left-clipped, overlap = t_i - b.
    weighted += pt_sum(lo, m1) - static_cast<double>(b) * power_sum(lo, m1);
    covered += time_sum(lo, m1) - b * count(lo, m1);
    // t_i between the breaks: either fully inside (overlap = period) or
    // the window encloses the whole interval (overlap = e - b).
    const DurationMs middle_overlap =
        left_break < right_break ? period : e - b;
    weighted += static_cast<double>(middle_overlap) * power_sum(m1, m2);
    covered += middle_overlap * count(m1, m2);
    // t_i in (max(breaks), e + period): right-clipped,
    // overlap = (e + period) - t_i.
    weighted +=
        static_cast<double>(e + period) * power_sum(m2, hi) - pt_sum(m2, hi);
    covered += (e + period) * count(m2, hi) - time_sum(m2, hi);
  }

  if (covered == 0) {
    // Interval shorter than a sample window and between timestamps: take
    // the enclosing sample if any.  The first candidate in timestamp order
    // is the first sample with t_i >= end; later ones start even later and
    // cannot enclose begin.
    if (fallback < timestamps_.size() &&
        samples_[fallback].timestamp - period <= b) {
      return samples_[fallback].estimated_app_power_mw;
    }
    return 0.0;
  }
  return weighted / static_cast<double>(covered);
}

PowerMw AveragePowerCursor::average_power(TimeInterval interval) {
  const UtilizationTrace& trace = *trace_;
  if (trace.samples_.empty() || interval.empty()) return 0.0;
  const TimestampMs b = interval.begin;
  const TimestampMs e = interval.end;
  if (b < prev_begin_ || e < prev_end_) {
    // Out-of-order query: rewind.  Correctness never depends on the
    // chronological assumption, only the amortized cost does.
    upper_b_ = upper_b_period_ = upper_e_ = lower_e_ = lower_e_period_ = 0;
  }
  prev_begin_ = b;
  prev_end_ = e;

  const std::vector<TimestampMs>& ts = trace.timestamps_;
  const std::size_t n = ts.size();
  const DurationMs period = trace.period_;
  // Each cursor only ever moves forward; since its query point is
  // non-decreasing across calls, the resting position is exactly the
  // upper_bound/lower_bound index average_power() would compute.
  const auto advance_upper = [&](std::size_t& cursor, TimestampMs v) {
    while (cursor < n && ts[cursor] <= v) ++cursor;
    return cursor;
  };
  const auto advance_lower = [&](std::size_t& cursor, TimestampMs v) {
    while (cursor < n && ts[cursor] < v) ++cursor;
    return cursor;
  };
  const std::size_t lo = advance_upper(upper_b_, b);
  const std::size_t hi = advance_lower(lower_e_period_, e + period);
  const std::size_t u_b_period = advance_upper(upper_b_period_, b + period);
  const std::size_t u_e = advance_upper(upper_e_, e);
  const std::size_t fallback = advance_lower(lower_e_, e);
  const bool left_break_first = b + period <= e;
  return trace.average_from_bounds(b, e, lo, hi,
                                   left_break_first ? u_b_period : u_e,
                                   left_break_first ? u_e : u_b_period,
                                   fallback);
}

void UtilizationTrace::scale_power(double factor) {
  require(factor > 0.0, "UtilizationTrace::scale_power: factor must be > 0");
  for (power::UtilizationSample& sample : samples_) {
    sample.estimated_app_power_mw *= factor;
  }
  build_index();
}

std::string UtilizationTrace::to_text() const {
  std::ostringstream out;
  out << "DEVICE " << device_name_ << '\n';
  for (const power::UtilizationSample& sample : samples_) {
    out << sample.timestamp << ' '
        << strings::format_double(sample.estimated_app_power_mw, 4);
    for (power::Component component : power::kAllComponents) {
      out << ' '
          << strings::format_double(sample.utilization.get(component), 4);
    }
    out << '\n';
  }
  return out.str();
}

UtilizationTrace UtilizationTrace::from_text(const std::string& text) {
  std::string_view remaining(text);
  std::string_view header = strings::next_line(remaining);
  if (!strings::starts_with(header, "DEVICE ")) {
    throw ParseError("UtilizationTrace::from_text: missing DEVICE header");
  }
  UtilizationTrace trace;
  trace.device_name_ = strings::trim(header.substr(7));
  while (!remaining.empty()) {
    std::string_view line = strings::next_line(remaining);
    std::string_view fields = strings::trim_view(line);
    if (fields.empty()) continue;
    power::UtilizationSample sample;
    if (!strings::consume_int64(fields, sample.timestamp) ||
        !strings::consume_double(fields, sample.estimated_app_power_mw)) {
      throw ParseError("UtilizationTrace::from_text: malformed line '" +
                       std::string(strings::trim_view(line)) + "'");
    }
    for (power::Component component : power::kAllComponents) {
      double value = 0.0;
      if (!strings::consume_double(fields, value)) {
        throw ParseError(
            "UtilizationTrace::from_text: missing utilization in '" +
            std::string(strings::trim_view(line)) + "'");
      }
      sample.utilization.set(component, value);
    }
    trace.samples_.push_back(sample);
  }
  trace.build_index();
  return trace;
}

}  // namespace edx::trace
