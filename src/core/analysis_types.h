// Data types flowing through the 5-step manifestation analysis.
//
// Each step enriches the same per-trace event sequence: Step 1 fills
// raw_power, Step 3 fills the normalized_power lane, Step 4 fills the
// variation_amplitude/run lanes and the detected manifestation indices.
// Keeping the whole enriched sequence around is what lets the benches
// print the paper's per-step figures (7a/7b/7c, 9, 12, 15).
//
// The Step-3/4 annotations are structure-of-arrays lanes on AnalyzedTrace
// rather than fields on PoweredEvent: the normalize/amplitude/fence hot
// loops read and write contiguous arrays at unit stride instead of
// striding through padded structs, and the incremental fleet engine
// (core/fleet_analyzer.h) refreshes a trace by re-running those loops
// over its lanes in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/event_symbols.h"
#include "common/stats.h"
#include "common/types.h"

namespace edx::core {

/// One event instance: identity plus Step 1's power estimate.  Identity is
/// the interned EventId; the name string lives once in the symbol table
/// and is resolved only when rendering (reports, benches).  The Step-3/4
/// per-instance annotations live in AnalyzedTrace's lanes.
struct PoweredEvent {
  EventId id{kInvalidEventId};
  TimeInterval interval;
  PowerMw raw_power{0.0};  ///< Step 1

  /// The event's name, resolved from the global symbol table.
  [[nodiscard]] const EventName& name() const { return event_name(id); }
};

/// One user's trace as it moves through the pipeline.  The lanes are
/// index-aligned with `events` once their step has run (empty before).
struct AnalyzedTrace {
  UserId user{0};
  std::vector<PoweredEvent> events;  ///< chronological

  /// Step 3: raw_power / event base power, per instance.
  std::vector<double> normalized_power;

  // Step 4 lanes, per instance.
  /// Variation amplitude V_i (run peak minus run start).
  std::vector<double> variation_amplitude;
  /// Index of the monotone run's peak the amplitude measures to (== i + 1
  /// for a plain single-step difference, == i for the last instance);
  /// instance i's run spans [i, run_peak_index[i]].
  std::vector<std::uint32_t> run_peak_index;
  /// Normalized power at the run's peak —
  /// normalized_power[run_peak_index[i]], bitwise — so the fence decision
  /// loop tests the peak-level guard on a dense lane instead of a gather.
  std::vector<double> run_peak_power;
  /// Dense copy of events[i].interval.begin, refreshed by
  /// attribute_variation_amplitude, so the Step-4 sustain-window walk
  /// reads timestamps at unit stride.
  std::vector<TimestampMs> begin_ms;

  // Step 4 results.
  std::vector<std::size_t> manifestation_indices;
  stats::Quartiles amplitude_quartiles;
  double outlier_fence{0.0};
};

}  // namespace edx::core
