// Step 3 — Event Normalization.
//
// Each instance's power is divided by its event's *base power* — the 10th
// percentile of the event's power across all traces.  The base represents
// the event's "typical" cost, so the normalized value says "how many times
// its normal self is this instance?".  Instances untouched by the ABD land
// near 1.0 regardless of how expensive the event intrinsically is;
// instances inflated by a concurrent ABD stand well above.  The 10th
// percentile (rather than the minimum) absorbs downward estimation noise
// from the tracker.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/analysis_types.h"
#include "core/ranking.h"

namespace edx::core {

struct NormalizationConfig {
  /// Percentile of an event's power distribution used as base.  The paper
  /// uses 10 and notes "this value can be adjusted for different training
  /// sets".  Our default is 25, bracketed by two failure modes the sweep
  /// in bench_ablation_normbase quantifies:
  ///  - too low (5-10): under 500 ms sampling, the instances of lifecycle
  ///    events that immediately precede a backgrounding share their sample
  ///    window with display-off time; those context-skewed low instances
  ///    capture the low percentiles and inflate every ordinary instance's
  ///    normalized power (false manifestation points);
  ///  - too high (50+): when the ABD impacts a large share of an event's
  ///    instances (high trigger fraction, or several bugs at once), the
  ///    base absorbs the anomaly and normalizes it away (missed points).
  double base_percentile{25.0};
  /// Floor on the base so near-zero-power events (an idle marker before
  /// anything is leaking) do not blow up the ratio.
  PowerMw min_base_power_mw{1.0};
};

/// Fills `normalized_power` on every instance of every trace, in place.
/// The per-event bases are computed once up front into a flat id-indexed
/// vector; with a pool the traces are then normalized in parallel (each
/// trace touched by exactly one task, reading the shared base vector),
/// identical to the sequential loop.
void normalize_events(std::vector<AnalyzedTrace>& traces,
                      const EventRanking& ranking,
                      const NormalizationConfig& config = {},
                      common::ThreadPool* pool = nullptr);

/// Incremental entry points (core/fleet_analyzer.h): the two halves of
/// normalize_events, so a caller holding pre-built state can recompute
/// just the bases that changed and renormalize just the traces that
/// contain them.
///
/// The flat id-indexed base-power table: slot `id` holds the event's base
/// under `config`, 0.0 marks an event with no recorded instances.
/// Validates `config` (throws InvalidArgument when out of range).
std::vector<double> event_base_powers(const EventRanking& ranking,
                                      const NormalizationConfig& config = {});
/// Recomputes the base of a single distribution (0.0 when empty) — what
/// event_base_powers() puts in the event's slot, for one event.
double base_power_of(const EventPowerDistribution& distribution,
                     const NormalizationConfig& config = {});
/// Fills the trace's `normalized_power` lane from a pre-built base table
/// in one fused gather-divide pass.  Throws AnalysisError on an instance
/// whose event has no base (slot missing or 0.0).
void normalize_trace(AnalyzedTrace& trace, std::span<const double> bases);

/// Base power used for the event with id `id` under `config`.
double base_power(const EventRanking& ranking, EventId id,
                  const NormalizationConfig& config = {});
/// Convenience: resolves `name` through the global symbol table first.
double base_power(const EventRanking& ranking, std::string_view name,
                  const NormalizationConfig& config = {});

}  // namespace edx::core
