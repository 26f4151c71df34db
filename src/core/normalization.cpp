#include "core/normalization.h"

#include <algorithm>

#include "common/error.h"

namespace edx::core {

double base_power(const EventRanking& ranking, EventId id,
                  const NormalizationConfig& config) {
  const double base = ranking.distribution(id).percentile(
      config.base_percentile);
  return std::max(base, config.min_base_power_mw);
}

double base_power(const EventRanking& ranking, std::string_view name,
                  const NormalizationConfig& config) {
  return base_power(ranking, ranking.distribution(name).id(), config);
}

double base_power_of(const EventPowerDistribution& distribution,
                     const NormalizationConfig& config) {
  if (distribution.instance_count() == 0) return 0.0;
  return std::max(distribution.percentile(config.base_percentile),
                  config.min_base_power_mw);
}

std::vector<double> event_base_powers(const EventRanking& ranking,
                                      const NormalizationConfig& config) {
  require(config.base_percentile >= 0.0 && config.base_percentile <= 100.0,
          "normalize_events: base percentile out of range");
  require(config.min_base_power_mw > 0.0,
          "normalize_events: min base power must be positive");
  // Compute each event's base once, not once per instance, into a flat
  // id-indexed vector: the per-instance lookup in normalize_trace is a
  // plain array index.  Ids without a distribution keep base 0 as an
  // "absent" marker.
  std::vector<double> bases(ranking.all().size(), 0.0);
  for (const EventPowerDistribution& distribution : ranking.all()) {
    if (distribution.instance_count() == 0) continue;
    bases[distribution.id()] = base_power_of(distribution, config);
  }
  return bases;
}

void normalize_trace(AnalyzedTrace& trace, std::span<const double> bases) {
  const std::size_t count = trace.events.size();
  trace.normalized_power.resize(count);
  const PoweredEvent* events = trace.events.data();
  double* norm = trace.normalized_power.data();
  // One fused pass: gather the instance's base, divide, store.  The
  // missing-base check leaves the hot path as a running minimum — a base
  // is invalid exactly when it is <= 0, so a positive minimum clears the
  // whole trace at once and the offender is located on the (throwing)
  // slow path only.  A split gather-then-divide structure (dense,
  // vectorizable divide lane) measured *slower* here: the strided gather
  // dominates, and the split doubles the lane traffic (DESIGN.md §12).
  double min_base = 1.0;
  const std::size_t id_bound = bases.size();
  for (std::size_t i = 0; i < count; ++i) {
    const double base = events[i].id < id_bound ? bases[events[i].id] : 0.0;
    min_base = std::min(min_base, base);
    norm[i] = events[i].raw_power / base;
  }
  if (min_base <= 0.0) {
    for (std::size_t i = 0; i < count; ++i) {
      const double base = events[i].id < id_bound ? bases[events[i].id] : 0.0;
      if (base <= 0.0) {
        throw AnalysisError("normalize_events: no distribution for event '" +
                            events[i].name() + "'");
      }
    }
  }
}

void normalize_events(std::vector<AnalyzedTrace>& traces,
                      const EventRanking& ranking,
                      const NormalizationConfig& config,
                      common::ThreadPool* pool) {
  const std::vector<double> bases = event_base_powers(ranking, config);
  if (pool == nullptr || pool->size() <= 1 || traces.size() <= 1) {
    for (AnalyzedTrace& trace : traces) normalize_trace(trace, bases);
  } else {
    pool->parallel_for(0, traces.size(), [&](std::size_t i) {
      normalize_trace(traces[i], bases);
    });
  }
}

}  // namespace edx::core
