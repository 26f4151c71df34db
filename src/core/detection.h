// Step 4 — Manifestation Point Detection.
//
// Variation amplitude of the i-th instance:
//   V_i = p_norm[i+1] - p_norm[i],
// extended across monotone increases: if the normalized power keeps rising
// from i through i+n, V_i = p_norm[i+n] - p_norm[i].  The extension credits
// the *start* of a gradual ramp with the full rise — real ABDs often heat
// up over several events rather than in one jump.
//
// Manifestation points are then the Tukey outliers: instances whose
// amplitude exceeds the upper outer fence Q3 + k*IQR (the paper fixes
// k = 3) of the trace's amplitude distribution.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/analysis_types.h"

namespace edx::core {

struct DetectionConfig {
  /// Fence multiplier; 3.0 is the paper's outer fence, 1.5 the inner one.
  double fence_iqr_multiplier{3.0};
  /// Extend V_i across monotone increasing runs (the paper's definition);
  /// disabling this is the single-step ablation.
  bool extend_monotone_runs{true};
  /// Tolerated strictly-decreasing steps inside a monotone run (a per-run
  /// *total*, not consecutive — a budget that reset on every up-step would
  /// let a run bridge arbitrarily far through alternating wobble).  The
  /// 500 ms sampling quantizes a power ramp into a staircase whose treads
  /// would end a strictly-increasing run; a run may bridge up to this many
  /// dipping steps as long as power stays above the run's start.  Exactly
  /// flat steps (events sharing one sample window) are free.
  /// 0 restores the (nearly) literal strict definition.
  std::size_t run_dip_tolerance{2};
  /// A bridged dip must also be *small relative to the run's rise so far*:
  /// |dip| <= run_dip_fraction * (peak - start).  Without this, alternating
  /// up/down wobble (e.g. interleaved cheap/expensive events) re-arms the
  /// dip counter at every up-step and runs bridge across the whole trace.
  double run_dip_fraction{0.35};
  /// Absolute floor on a manifestation amplitude, in normalized units
  /// (1.0 == one base-power step).  Guards the degenerate all-flat trace
  /// whose IQR collapses to ~0.  The paper tunes the equivalent
  /// "parameters of the algorithm ... through experiments".
  double min_amplitude{1.2};
  /// An ABD keeps the power high after the transition ("transits from
  /// normal (low) to abnormal (high) and keeps at a higher level", §IV-C);
  /// a one-sample spike from a concurrent radio burst does not.  When set,
  /// an outlier is accepted only if the mean normalized power of the
  /// events beginning within `sustain_window_ms` of the run's peak stays
  /// above the midpoint of the rise.  The window is time-based because a
  /// burst can blanket a whole 5-callback navigation cluster dispatched
  /// within milliseconds.
  /// The horizon matters: legitimate heavy use (a tracking session the
  /// user properly stops) stays high for a few seconds and then ends,
  /// while a real ABD persists; 20 s separates the two in practice.
  bool require_sustained{true};
  DurationMs sustain_window_ms{20'000};
  /// A manifestation must end *above* the app's typical power, not merely
  /// rise back to it: the run's peak must reach at least this normalized
  /// level.  Guards against V being inflated by a context-depressed start
  /// (e.g. the one backgrounding onPause whose sample window straddles
  /// display-off).
  double min_peak_level{2.0};
};

/// Reusable working memory for the Step-4 amplitude scan: the shared-run
/// segment lanes.  Callers that process many traces hoist one instance
/// (or one per thread) so long-trace passes stop churning the allocator;
/// the convenience overloads below fall back to a thread_local one.
struct DetectionScratch {
  /// One strictly-decreasing step m -> m+1 of the normalized lane —
  /// every decision point of every monotone run.  `plateau` is the first
  /// position of the maximal constant stretch ending at `pos`: the
  /// first-attainment peak index of a non-decreasing segment whose
  /// maximum sits at `pos`.
  struct DownStep {
    std::uint32_t pos;
    std::uint32_t plateau;
  };
  /// The down-steps of the scan's current overlap cluster, ascending by
  /// position, discovered lazily by a monotone frontier (DESIGN.md §12.1).
  /// Sparse on purpose: runs consume *consecutive* entries, so this list
  /// replaces two dense per-position lanes (and their extra pass over the
  /// trace), and a run start past the frontier resets it, keeping it
  /// cache-resident.
  std::vector<DownStep> downs;
};

/// Fills the `variation_amplitude`, `run_peak_index` and `run_peak_power`
/// lanes (and the dense `begin_ms` timestamp lane) for every instance of
/// `trace` in one O(n * (run_dip_tolerance + 1)) pass — O(n) for any
/// fixed config; see the scan in detection.cpp and DESIGN.md §12.
/// Bitwise identical, lane for lane, to running
/// detail::amplitude_at_reference at every index.  Requires Step 3's
/// `normalized_power` lane (throws AnalysisError otherwise).
void attribute_variation_amplitude(AnalyzedTrace& trace,
                                   const DetectionConfig& config = {});
/// Same, reusing caller-owned scratch across traces.
void attribute_variation_amplitude(AnalyzedTrace& trace,
                                   const DetectionConfig& config,
                                   DetectionScratch& scratch);

/// Runs outlier detection on the amplitudes, filling
/// `manifestation_indices`, `amplitude_quartiles` and `outlier_fence`.
/// Requires attribute_variation_amplitude() to have run.  The quartiles
/// come from selection (stats::quartiles_select) rather than a full sort,
/// so the whole decision phase is O(n) — and bitwise identical to the
/// sorted path, because order statistics are multiset values.
void detect_manifestation_points(AnalyzedTrace& trace,
                                 const DetectionConfig& config = {});

/// Incremental Step 4, decision phase: quartiles, fence and the outlier
/// scan from an already-sorted amplitude multiset (the fleet engine keeps
/// one per trace; core/fleet_analyzer.h).  Because the ascending order of
/// a multiset is unique, the quartiles — and therefore the fence and the
/// detected points — are bitwise identical to the full detect path.
void redetect_manifestation_points(AnalyzedTrace& trace,
                                   const DetectionConfig& config,
                                   std::span<const double> sorted_amplitudes);

/// Both phases for one trace — the per-trace unit of work detect_all
/// shards.  A trace's detection depends only on its own normalized
/// powers, so a fleet engine re-detects exactly the traces whose
/// normalization changed.
void detect_trace(AnalyzedTrace& trace, const DetectionConfig& config = {});
/// Same, with caller-owned scratch (see attribute_variation_amplitude).
void detect_trace(AnalyzedTrace& trace, const DetectionConfig& config,
                  DetectionScratch& scratch);

/// Convenience: both phases over a whole collection.  Detection is
/// per-trace, so with a pool the traces run in parallel (one task per
/// trace slot), identical to the sequential loop for any pool size.
void detect_all(std::vector<AnalyzedTrace>& traces,
                const DetectionConfig& config = {},
                common::ThreadPool* pool = nullptr);

namespace detail {

/// The original per-index forward walk over the dip-tolerance bridging
/// rules: recomputes instance `i`'s amplitude/peak/peak-power from the
/// normalized lane in O(run window).  This is the *semantic definition*
/// of the three lanes: the one-pass shared-run scan behind
/// attribute_variation_amplitude must (and does) reproduce it bit for
/// bit, which the randomized property suite
/// (tests/core/amplitude_scan_property_test.cpp) pins at every index.
/// Only tests call it; production always runs the one-pass scan.
void amplitude_at_reference(const double* norm, std::size_t count,
                            std::size_t i, const DetectionConfig& config,
                            double* amp, std::uint32_t* peak,
                            double* peak_power);

}  // namespace detail

}  // namespace edx::core
