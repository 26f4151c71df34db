#include "core/detection.h"

#include <algorithm>

#include "common/error.h"
#include "common/stats.h"

namespace edx::core {

namespace detail {

void amplitude_at_reference(const double* norm, std::size_t count,
                            std::size_t i, const DetectionConfig& config,
                            double* amp, std::uint32_t* peak,
                            double* peak_power) {
  if (i + 1 >= count) {
    amp[i] = 0.0;
    peak[i] = static_cast<std::uint32_t>(i);
    peak_power[i] = norm[i];
    return;
  }
  const double single_step = norm[i + 1] - norm[i];
  if (!config.extend_monotone_runs || single_step <= 0.0) {
    // "If the normalized power keeps increasing from the i-th instance":
    // the run must rise from instance i itself, otherwise V_i is the
    // plain single-step difference.
    amp[i] = single_step;
    peak[i] = static_cast<std::uint32_t>(i + 1);
    peak_power[i] = norm[i + 1];
    return;
  }
  // Walk forward while normalized power keeps increasing, bridging at
  // most `run_dip_tolerance` flat/dipping steps (sampling staircase),
  // provided power stays at or above the run's start.  The amplitude is
  // measured to the highest point of the run.
  const double start = norm[i];
  std::size_t end = i + 1;
  double run_peak = norm[end];
  std::size_t peak_index = end;
  std::size_t dips = 0;
  while (end + 1 < count) {
    const double current = norm[end];
    const double next = norm[end + 1];
    if (next > current) {
      ++end;
      if (next > run_peak) {
        run_peak = next;
        peak_index = end;
      }
    } else if (next == current) {
      // Events in the same sample window read identical power; bridging
      // them costs nothing.
      ++end;
    } else if (dips < config.run_dip_tolerance && next >= start &&
               current - next <= config.run_dip_fraction * (run_peak - start)) {
      ++end;
      ++dips;
    } else {
      break;
    }
  }
  amp[i] = run_peak - start;
  peak[i] = static_cast<std::uint32_t>(peak_index);
  peak_power[i] = run_peak;
}

}  // namespace detail

namespace {

/// Step-4 attribution: fills all three amplitude lanes (and the dense
/// begin_ms timestamp lane) for every instance, in O(n) total.
///
/// The per-index reference walk (detail::amplitude_at_reference) costs
/// O(run window) per instance.  On real traces windows are short — the
/// normalized lane wobbles, runs end within a step or two — so the walk
/// is effectively linear, with the leanest loop body possible (a
/// handful of compares per position).  It only turns quadratic when
/// long runs overlap: a monotone ramp, where every window stretches to
/// the ramp's end.  So the pass *meters* the walk — every inner step
/// spends one unit of a ~4n budget — and on exhaustion (provably inside
/// the quadratic regime) hands every remaining index to the
/// shared-structure scan below, which costs O(n) outright.  Walked
/// steps are capped at the budget and the scan is linear, so the whole
/// pass is O(n) for any input; on the common short-window shape the
/// budget never trips and the pass *is* the lean walk.
///
/// The scan's structural fact:
/// up-steps and exactly-flat steps are accepted *unconditionally*, so a
/// run only ever decides anything at strictly-decreasing steps.  Between
/// two consecutive down-steps the normalized lane is non-decreasing, and
/// a run consumes the whole segment in O(1):
///   - the segment's running maximum is its last element norm[m],
///   - the reference's first-attainment peak index is the start of the
///     final plateau of the segment (the DownStep's plateau field; a
///     segment begins right after a strict decrease or a strict
///     increase, so the plateau never reaches back past the segment),
///   - the next decision point is the next down-step — the *next entry*
///     of the sparse, position-ordered down-step list, because every
///     segment ends at a down-step (or the trace edge, the list's
///     sentinel).
/// Each bridged down-step spends one unit of the per-run dip budget and
/// each run terminates at its first unbridgeable down-step, so a run
/// visits at most run_dip_tolerance + 2 consecutive list entries.  The
/// list is discovered *lazily*: a monotone frontier examines each step
/// once, on demand, appending down-steps as it meets them, and every
/// run peeks at consecutive entries from a forward-only cursor.  When
/// runs overlap (a long ramp — exactly the walk's quadratic case) later
/// runs reuse the entries the first run discovered; when they don't, a
/// run start past the frontier resets the list, so it only ever holds
/// the current overlap cluster and stays cache-resident.  Each position
/// is examined by the frontier at most once and each entry is skipped
/// by the cursor at most once, so the pass is
/// O(n * (run_dip_tolerance + 1)) — O(n) for any fixed config — with
/// the same touch pattern as the plain walk on short-run traces (no
/// separate sweep pass over the trace).  Every
/// bridge decision evaluates the reference's exact expressions on the
/// exact same doubles, so all lanes are bitwise identical to the
/// reference (pinned by tests/core/amplitude_scan_property_test.cpp).
void scan_amplitudes(AnalyzedTrace& trace, const DetectionConfig& config,
                     DetectionScratch& scratch) {
  const std::size_t count = trace.events.size();
  trace.variation_amplitude.resize(count);
  trace.run_peak_index.resize(count);
  trace.run_peak_power.resize(count);
  trace.begin_ms.resize(count);
  if (count == 0) return;
  const PoweredEvent* events = trace.events.data();
  TimestampMs* begin = trace.begin_ms.data();

  const double* norm = trace.normalized_power.data();
  double* amp = trace.variation_amplitude.data();
  std::uint32_t* peak = trace.run_peak_index.data();
  double* peak_power = trace.run_peak_power.data();

  const auto emit = [&](std::size_t i, double value, std::size_t peak_index,
                        double peak_value) {
    amp[i] = value;
    peak[i] = static_cast<std::uint32_t>(peak_index);
    peak_power[i] = peak_value;
  };

  const std::size_t last = count - 1;
  emit(last, 0.0, last, norm[last]);
  if (!config.extend_monotone_runs) {
    for (std::size_t i = 0; i < count; ++i) {
      begin[i] = events[i].interval.begin;
    }
    for (std::size_t i = 0; i < last; ++i) {
      emit(i, norm[i + 1] - norm[i], i + 1, norm[i + 1]);
    }
    return;
  }

  const std::size_t tolerance = config.run_dip_tolerance;
  const double fraction = config.run_dip_fraction;

  // Metered reference walk (the fast path; see the function comment).
  // The loop body restates detail::amplitude_at_reference's exact
  // expressions — the property suite pins the equality at every index.
  std::size_t i = 0;
  {
    std::size_t budget = 4 * count + 16;
    for (; i < last; ++i) {
      begin[i] = events[i].interval.begin;
      const double single_step = norm[i + 1] - norm[i];
      if (single_step <= 0.0) {
        emit(i, single_step, i + 1, norm[i + 1]);
        continue;
      }
      const double start = norm[i];
      std::size_t end = i + 1;
      double run_peak = norm[end];
      std::size_t peak_index = end;
      std::size_t dips = 0;
      while (end + 1 < count) {
        const double current = norm[end];
        const double next = norm[end + 1];
        if (next > current) {
          ++end;
          if (next > run_peak) {
            run_peak = next;
            peak_index = end;
          }
        } else if (next == current) {
          ++end;
        } else if (dips < tolerance && next >= start &&
                   current - next <= fraction * (run_peak - start)) {
          ++end;
          ++dips;
        } else {
          break;
        }
      }
      emit(i, run_peak - start, peak_index, run_peak);
      const std::size_t walked = end - i;
      if (walked >= budget) {
        ++i;  // this index is done; the scan takes over from the next
        break;
      }
      budget -= walked;
    }
  }

  // Lazily discovered down-step list.  Invariants: every step p -> p+1
  // with frontier0 <= p < frontier has been examined exactly once and
  // its down-steps (in ascending pos order) appended; fplateau is the
  // first position of the plateau ending at `frontier`.  A run start
  // past the frontier resets the list — everything in it is behind
  // every future query.
  std::vector<DetectionScratch::DownStep>& downs = scratch.downs;
  downs.clear();
  std::size_t frontier = i;
  std::size_t fplateau = i;
  const auto advance_frontier = [&] {  // requires frontier < last
    const double a = norm[frontier];
    const double b = norm[frontier + 1];
    if (b < a) {
      downs.push_back({static_cast<std::uint32_t>(frontier),
                       static_cast<std::uint32_t>(fplateau)});
    }
    ++frontier;
    if (b != a) fplateau = frontier;
  };

  std::size_t cursor = 0;  // first list entry not yet behind a run start
  for (; i < last; ++i) {
    begin[i] = events[i].interval.begin;
    const double single_step = norm[i + 1] - norm[i];
    if (single_step <= 0.0) {
      emit(i, single_step, i + 1, norm[i + 1]);
      continue;
    }
    // The run's first decision point is the first down-step at or past
    // i + 1 (i itself steps up).  If discovery never reached i + 1, the
    // stale entries can simply be dropped, and the plateau ending at
    // i + 1 starts there (norm[i + 1] > norm[i]).
    if (frontier < i + 1) {
      frontier = i + 1;
      fplateau = i + 1;
      downs.clear();
      cursor = 0;
    } else {
      while (cursor < downs.size() && downs[cursor].pos < i + 1) ++cursor;
    }
    const double start = norm[i];
    double run_peak = norm[i + 1];
    std::size_t peak_index = i + 1;
    std::size_t dips = 0;
    std::size_t k = cursor;
    for (;;) {
      while (k >= downs.size() && frontier < last) advance_frontier();
      if (k >= downs.size()) {
        // Non-decreasing through the trace edge (the frontier examined
        // every step and found no further down): the run ends on the
        // last instance, its peak on the final plateau.
        if (norm[last] > run_peak) {
          run_peak = norm[last];
          peak_index = fplateau;
        }
        emit(i, run_peak - start, peak_index, run_peak);
        break;
      }
      const std::uint32_t m = downs[k].pos;
      // The segment ending at m is non-decreasing: its maximum is
      // norm[m], first attained at the plateau's start.  A strict update
      // mirrors the reference's first-attainment rule when an earlier
      // segment already reached the same level.
      if (norm[m] > run_peak) {
        run_peak = norm[m];
        peak_index = downs[k].plateau;
      }
      // The down-step m -> m+1 is the run's next decision, judged by the
      // reference's exact expressions on the exact same values (run_peak
      // here equals the reference's running peak at this step: both are
      // max(norm[i+1 .. m])).  Bridging it lands the run in the next
      // segment, whose end is simply the next list entry.
      if (dips < tolerance && norm[m + 1] >= start &&
          norm[m] - norm[m + 1] <= fraction * (run_peak - start)) {
        ++dips;
        ++k;
        continue;
      }
      emit(i, run_peak - start, peak_index, run_peak);
      break;
    }
  }
  begin[last] = events[last].interval.begin;
}

/// The fence decision loop over the dense Step-4 lanes.  Fence and
/// quartiles must already sit on the trace.  The pre-filter reads two
/// contiguous double lanes — run_peak_power mirrors norm[peak[i]]
/// densely, so there is no gather — and short-circuits: a fence worth
/// its name rejects nearly every instance at the first compare, which
/// makes that branch nearly-always-false and perfectly predicted, so
/// the second lane is rarely even loaded.  The strided time-window
/// sustain walk runs only on the fence survivors.  (Two "optimized"
/// variants measured slower here and were dropped: a branch-free `&`
/// predicate — pointless against a predictable branch, and it forces
/// the second lane's load on every instance — and staging the predicate
/// through a byte lane, which GCC 12 refuses to vectorize at -O2/-O3,
/// leaving pure extra traffic.  DESIGN.md §12.)
void decide_outliers(AnalyzedTrace& trace, const DetectionConfig& config) {
  const std::size_t count = trace.events.size();
  const double* norm = trace.normalized_power.data();
  const double* amp = trace.variation_amplitude.data();
  const std::uint32_t* peak = trace.run_peak_index.data();
  const double* peak_power = trace.run_peak_power.data();
  const TimestampMs* begin = trace.begin_ms.data();

  const auto is_sustained = [&](std::size_t i) {
    if (!config.require_sustained) return true;
    const std::size_t peak_index = peak[i];
    if (peak_index + 1 >= count) {
      // The run peaks on the final instance: collection stopped at (or
      // clipped) the manifestation — the upload happened mid-anomaly —
      // so no post-transition observation exists to confirm or refute
      // that power stayed high.  The sustain guard exists to reject
      // spikes that demonstrably fall back; a truncated trace
      // demonstrates nothing, so the point is kept
      // (DetectionGuardsTest.RunPeakingOnFinalInstanceIsSustained pins
      // both sides of this edge).
      return true;
    }
    const double midpoint = norm[i] + 0.5 * amp[i];
    const TimestampMs window_end = begin[peak_index] + config.sustain_window_ms;
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t j = peak_index; j < count; ++j) {
      if (begin[j] > window_end) break;
      total += norm[j];
      ++counted;
    }
    if (counted <= 1) {
      // Nothing else begins inside the window (the app went quiet).
      // Judge by the next recorded observation alone — averaging it with
      // the peak would always land exactly on the midpoint and never
      // reject.
      return norm[peak_index + 1] >= midpoint;
    }
    return total / static_cast<double>(counted) >= midpoint;
  };

  const double fence = trace.outlier_fence;
  const double min_peak = config.min_peak_level;
  std::vector<std::size_t>& out = trace.manifestation_indices;
  out.clear();
  for (std::size_t i = 0; i < count; ++i) {
    if (amp[i] > fence && peak_power[i] >= min_peak && is_sustained(i)) {
      out.push_back(i);
    }
  }
}

/// Fence from quartiles, then the decision loop.
void detect_with_quartiles(AnalyzedTrace& trace, const DetectionConfig& config,
                           const stats::Quartiles& quartiles) {
  trace.amplitude_quartiles = quartiles;
  const double iqr_fence =
      trace.amplitude_quartiles.q3 +
      config.fence_iqr_multiplier * trace.amplitude_quartiles.iqr();
  trace.outlier_fence = std::max(iqr_fence, config.min_amplitude);
  decide_outliers(trace, config);
}

void require_normalized(const AnalyzedTrace& trace, const char* who) {
  if (trace.normalized_power.size() != trace.events.size()) {
    throw AnalysisError(std::string(who) +
                        ": normalized_power lane not filled (run Step 3 "
                        "before Step 4)");
  }
}

bool clear_if_empty(AnalyzedTrace& trace, const DetectionConfig& config) {
  if (!trace.events.empty()) return false;
  trace.manifestation_indices.clear();
  trace.amplitude_quartiles = {};
  trace.outlier_fence = config.min_amplitude;
  return true;
}

DetectionScratch& local_scratch() {
  thread_local DetectionScratch scratch;
  return scratch;
}

}  // namespace

void attribute_variation_amplitude(AnalyzedTrace& trace,
                                   const DetectionConfig& config) {
  attribute_variation_amplitude(trace, config, local_scratch());
}

void attribute_variation_amplitude(AnalyzedTrace& trace,
                                   const DetectionConfig& config,
                                   DetectionScratch& scratch) {
  require_normalized(trace, "attribute_variation_amplitude");
  scan_amplitudes(trace, config, scratch);
}

void detect_manifestation_points(AnalyzedTrace& trace,
                                 const DetectionConfig& config) {
  if (clear_if_empty(trace, config)) return;
  // Quartiles by selection straight off the amplitude lane: O(n), no
  // copy, no full sort, bitwise equal to the sorted path (order
  // statistics are multiset values).
  detect_with_quartiles(trace, config,
                        stats::quartiles_select(trace.variation_amplitude));
}

void redetect_manifestation_points(AnalyzedTrace& trace,
                                   const DetectionConfig& config,
                                   std::span<const double> sorted_amplitudes) {
  if (clear_if_empty(trace, config)) return;
  detect_with_quartiles(trace, config,
                        stats::quartiles_sorted(sorted_amplitudes));
}

void detect_trace(AnalyzedTrace& trace, const DetectionConfig& config) {
  detect_trace(trace, config, local_scratch());
}

void detect_trace(AnalyzedTrace& trace, const DetectionConfig& config,
                  DetectionScratch& scratch) {
  attribute_variation_amplitude(trace, config, scratch);
  detect_manifestation_points(trace, config);
}

void detect_all(std::vector<AnalyzedTrace>& traces,
                const DetectionConfig& config,
                common::ThreadPool* pool) {
  require(config.fence_iqr_multiplier >= 0.0,
          "detect_all: fence multiplier must be non-negative");
  if (pool == nullptr || pool->size() <= 1 || traces.size() <= 1) {
    // One scratch hoisted across the whole fleet: no per-trace allocation
    // and no per-trace thread_local lookup (the latter cost ~7% of
    // BM_Step4Detection on small traces; see BENCH_pipeline.json).
    DetectionScratch scratch;
    for (AnalyzedTrace& trace : traces) detect_trace(trace, config, scratch);
  } else {
    pool->parallel_for(0, traces.size(),
                       [&](std::size_t i) { detect_trace(traces[i], config); });
  }
}

}  // namespace edx::core
