// Step 5 — Reporting Problematic Events.
//
// All instances within the *manifestation window* (± window_size events
// around each detected point) are candidates.  Candidates are then ranked
// by how close the fraction of traces they impact is to the fraction of
// users the developer believes are affected (from forum reports or
// app-level tools like eDoctor): the bug's trigger shows up in exactly the
// affected users' traces, while incidental normal events show up in a very
// different share.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/analysis_types.h"

namespace edx::core {

struct ReportingConfig {
  /// Events on each side of a manifestation point included in its window.
  std::size_t window_size{3};
  /// Developer-estimated fraction of users impacted by the ABD, in [0, 1].
  double developer_reported_fraction{0.15};
  /// Candidates whose |impacted - reported| is within this tolerance form
  /// the diagnosis set whose code the developer actually reads...
  double diagnosis_tolerance{0.05};
  /// ...and the closest `min_top_k` candidates are always included — the
  /// paper's tables hand the developer "the first six events whose
  /// percentages are closest to the value provided" regardless of how
  /// close the runner-ups are.
  std::size_t min_top_k{6};
};

/// One candidate event in the final report.
struct ReportedEvent {
  EventName name;
  double impacted_fraction{0.0};  ///< share of traces with it in a window
  std::size_t impacted_traces{0};
  /// Mean distance (in events) from a window's manifestation point across
  /// this event's window occurrences; breaks ties between events with the
  /// same impacted fraction — closer to the point means more related.
  double mean_point_distance{0.0};
};

/// The final artifact handed to the developer.
struct DiagnosisReport {
  /// Every event seen in any manifestation window, sorted by closeness of
  /// impacted_fraction to the developer-reported fraction (ties: higher
  /// impact first, then name).
  std::vector<ReportedEvent> ranked_events;
  /// The events the developer is asked to inspect (tolerance rule).
  std::vector<EventName> diagnosis_events;
  std::size_t total_traces{0};
  std::size_t traces_with_manifestation{0};
};

/// Builds the report from detected traces.  Takes a span so callers
/// holding pre-built state (core/fleet_analyzer.h), deques or subranges
/// can report without copying into a vector.
DiagnosisReport report_problematic_events(
    std::span<const AnalyzedTrace> traces, const ReportingConfig& config = {});

/// The impacted-user fraction estimated from detection alone: the share of
/// `traces` with at least one manifestation point (0 when empty).  Steps
/// 1-4 do not depend on the reported fraction, so a caller without one
/// runs them once, then builds the Step-5 report around this estimate.
double self_estimated_fraction(std::span<const AnalyzedTrace> traces);

}  // namespace edx::core
