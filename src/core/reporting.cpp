#include "core/reporting.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.h"
#include "common/event_symbols.h"

namespace edx::core {

DiagnosisReport report_problematic_events(
    std::span<const AnalyzedTrace> traces, const ReportingConfig& config) {
  require(config.developer_reported_fraction >= 0.0 &&
              config.developer_reported_fraction <= 1.0,
          "report_problematic_events: reported fraction must be in [0,1]");

  DiagnosisReport report;
  report.total_traces = traces.size();

  // Event -> set of users whose trace has it inside a manifestation window,
  // plus the distances from the window's point (for tie-breaking).  The
  // accumulators are a flat id-indexed vector (every id in `traces` is
  // below the global table's current size); `touched` records which slots
  // are live so the output loop skips the untouched majority.
  struct Accumulator {
    std::set<UserId> users;
    double distance_total{0.0};
    std::size_t occurrences{0};
  };
  std::vector<Accumulator> impacted_by(EventSymbolTable::global().size());
  std::vector<EventId> touched;
  for (const AnalyzedTrace& trace : traces) {
    if (!trace.manifestation_indices.empty()) {
      ++report.traces_with_manifestation;
    }
    for (std::size_t point : trace.manifestation_indices) {
      const std::size_t lo =
          point >= config.window_size ? point - config.window_size : 0;
      const std::size_t hi =
          std::min(trace.events.size(), point + config.window_size + 1);
      for (std::size_t i = lo; i < hi; ++i) {
        Accumulator& accumulator = impacted_by[trace.events[i].id];
        if (accumulator.occurrences == 0) {
          touched.push_back(trace.events[i].id);
        }
        accumulator.users.insert(trace.user);
        accumulator.distance_total +=
            static_cast<double>(i > point ? i - point : point - i);
        ++accumulator.occurrences;
      }
    }
  }

  report.ranked_events.reserve(touched.size());
  for (EventId id : touched) {
    const Accumulator& accumulator = impacted_by[id];
    ReportedEvent event;
    event.name = event_name(id);
    event.impacted_traces = accumulator.users.size();
    event.impacted_fraction =
        traces.empty() ? 0.0
                       : static_cast<double>(accumulator.users.size()) /
                             static_cast<double>(traces.size());
    event.mean_point_distance =
        accumulator.occurrences == 0
            ? 0.0
            : accumulator.distance_total /
                  static_cast<double>(accumulator.occurrences);
    report.ranked_events.push_back(std::move(event));
  }

  // The comparator ends in a name comparison and names are unique, so the
  // order is total: the sorted output is independent of the (id-order vs
  // name-order) accumulation order above.
  const double target = config.developer_reported_fraction;
  std::sort(report.ranked_events.begin(), report.ranked_events.end(),
            [&](const ReportedEvent& a, const ReportedEvent& b) {
              const double da = std::abs(a.impacted_fraction - target);
              const double db = std::abs(b.impacted_fraction - target);
              if (da != db) return da < db;
              if (a.mean_point_distance != b.mean_point_distance) {
                return a.mean_point_distance < b.mean_point_distance;
              }
              if (a.impacted_fraction != b.impacted_fraction) {
                return a.impacted_fraction > b.impacted_fraction;
              }
              return a.name < b.name;
            });

  for (std::size_t i = 0; i < report.ranked_events.size(); ++i) {
    const ReportedEvent& event = report.ranked_events[i];
    if (i < config.min_top_k ||
        std::abs(event.impacted_fraction - target) <=
            config.diagnosis_tolerance) {
      report.diagnosis_events.push_back(event.name);
    }
  }
  return report;
}

double self_estimated_fraction(std::span<const AnalyzedTrace> traces) {
  if (traces.empty()) return 0.0;
  const auto with_points = std::count_if(
      traces.begin(), traces.end(), [](const AnalyzedTrace& trace) {
        return !trace.manifestation_indices.empty();
      });
  return static_cast<double>(with_points) /
         static_cast<double>(traces.size());
}

}  // namespace edx::core
