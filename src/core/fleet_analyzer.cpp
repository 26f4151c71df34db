#include "core/fleet_analyzer.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "core/detection.h"
#include "core/event_power.h"
#include "core/normalization.h"
#include "core/reporting.h"

namespace edx::core {

FleetAnalyzer::FleetAnalyzer(AnalysisConfig config) : config_(config) {
  // Mirror the batch pipeline's config validation up front, so a bad
  // config fails at construction instead of on the Nth arrival.
  require(config_.normalization.base_percentile >= 0.0 &&
              config_.normalization.base_percentile <= 100.0,
          "normalize_events: base percentile out of range");
  require(config_.normalization.min_base_power_mw > 0.0,
          "normalize_events: min base power must be positive");
  require(config_.detection.fence_iqr_multiplier >= 0.0,
          "detect_all: fence multiplier must be non-negative");
}

void FleetAnalyzer::TraceCache::rebuild_index(
    const AnalyzedTrace& trace, std::vector<std::uint64_t>& key_scratch) {
  const std::size_t count = trace.events.size();
  // (id, position) packed into one word: an in-place introsort of the
  // packed keys is stable in effect (the position breaks ties), keeping
  // each event's instances ascending within its group — the trace order
  // a re-upload splices in — without std::stable_sort's per-call
  // temporary buffer.  The caller-owned key arena is reused
  // across arrivals, so indexing a long trace allocates nothing once
  // warm.
  key_scratch.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    key_scratch[i] = (static_cast<std::uint64_t>(trace.events[i].id) << 32) |
                     static_cast<std::uint64_t>(i);
  }
  std::sort(key_scratch.begin(), key_scratch.end());
  positions.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    positions[i] = static_cast<std::uint32_t>(key_scratch[i]);
  }
  groups.clear();
  std::size_t i = 0;
  while (i < count) {
    const EventId id = static_cast<EventId>(key_scratch[i] >> 32);
    std::size_t j = i + 1;
    while (j < count && static_cast<EventId>(key_scratch[j] >> 32) == id) ++j;
    groups.push_back({id, static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(j - i)});
    i = j;
  }
}

void FleetAnalyzer::TraceCache::rebuild_amplitude_cache(
    const AnalyzedTrace& trace) {
  const std::size_t count = trace.variation_amplitude.size();
  const double* amp = trace.variation_amplitude.data();
  sorted_order.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    sorted_order[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(sorted_order.begin(), sorted_order.end(),
            [amp](std::uint32_t a, std::uint32_t b) { return amp[a] < amp[b]; });
  sorted_amplitudes.resize(count);
  for (std::size_t p = 0; p < count; ++p) {
    sorted_amplitudes[p] = amp[sorted_order[p]];
  }
}

void FleetAnalyzer::sync_id_bound() {
  // Every id seen by the fleet was interned at ingestion, so the global
  // table's current size bounds them all (same sizing rule as the batch
  // EventRanking::build).  The table is append-only: existing slots never
  // move, growth only appends empty ones.
  const std::size_t id_bound = EventSymbolTable::global().size();
  if (bases_.size() >= id_bound) return;
  result_.ranking.ensure_event_slots(id_bound);
  bases_.resize(id_bound, 0.0);
  event_dirty_.resize(id_bound, 0);
  traces_with_event_.resize(id_bound);
}

void FleetAnalyzer::mark_event_dirty(EventId id) {
  if (event_dirty_[id] == 0) {
    event_dirty_[id] = 1;
    dirty_events_.push_back(id);
  }
}

void FleetAnalyzer::add_bundle(const trace::TraceBundle& bundle) {
  apply_arrival(estimate_event_power(bundle));  // Step 1, this bundle only
}

void FleetAnalyzer::add_analyzed(AnalyzedTrace analyzed) {
  apply_arrival(std::move(analyzed));
}

void FleetAnalyzer::apply_arrival(AnalyzedTrace analyzed) {
  sync_id_bound();
  ++arrivals_;
  const auto slot_it = index_by_user_.find(analyzed.user);
  if (slot_it != index_by_user_.end()) {
    replace_trace(slot_it->second, std::move(analyzed));
    return;
  }

  // New user: append a fleet slot.  The arriving trace is last in
  // arrival order, so appending its instances to the per-event
  // distributions preserves the batch build's sequential traversal
  // order exactly.  The position index doubles as the distinct-id list
  // and carries per-event instance counts, which pre-size the
  // distributions so append_trace never reallocates mid-arrival.
  const std::size_t slot = result_.traces.size();
  index_by_user_.emplace(analyzed.user, slot);
  TraceCache cache;
  cache.rebuild_index(analyzed, index_key_scratch_);
  for (const TraceCache::Group& group : cache.groups) {
    traces_with_event_[group.id].push_back(
        {static_cast<std::uint32_t>(slot), group.count});
    mark_event_dirty(group.id);
    result_.ranking.reserve_event_extra(group.id, group.count);
  }
  result_.ranking.append_trace(analyzed);
  result_.traces.push_back(std::move(analyzed));
  cache_.push_back(std::move(cache));
  trace_dirty_.push_back(1);
}

void FleetAnalyzer::replace_trace(std::size_t slot, AnalyzedTrace analyzed) {
  // Re-upload: replace the user's trace in its original fleet slot.  Each
  // distribution holds the fleet's instances in slot order (the batch
  // traversal order), so this slot's instances of one event are one
  // contiguous run, offset by the counts of the slots before it.  The
  // events of old ∪ new come from a merge of the two id-sorted position
  // indexes; each one's run is spliced from the old trace's powers to the
  // new one's, so nothing outside the touched distributions is read.
  TraceCache& cache = cache_[slot];
  old_groups_.swap(cache.groups);
  cache.rebuild_index(analyzed, index_key_scratch_);
  const auto slot_key = static_cast<std::uint32_t>(slot);
  auto old_group = old_groups_.cbegin();
  auto new_group = cache.groups.cbegin();
  while (old_group != old_groups_.cend() || new_group != cache.groups.cend()) {
    const EventId old_id =
        old_group != old_groups_.cend() ? old_group->id : kInvalidEventId;
    const EventId new_id =
        new_group != cache.groups.cend() ? new_group->id : kInvalidEventId;
    const EventId id = std::min(old_id, new_id);
    const std::uint32_t old_count = old_id == id ? (old_group++)->count : 0;
    splice_powers_.clear();
    if (new_id == id) {
      for (std::uint32_t i = 0; i < new_group->count; ++i) {
        const std::uint32_t position = cache.positions[new_group->begin + i];
        splice_powers_.push_back(analyzed.events[position].raw_power);
      }
      ++new_group;
    }
    const auto new_count = static_cast<std::uint32_t>(splice_powers_.size());

    std::vector<SlotCount>& holders = traces_with_event_[id];
    const auto entry = std::lower_bound(
        holders.begin(), holders.end(), slot_key,
        [](const SlotCount& holder, std::uint32_t key) {
          return holder.slot < key;
        });
    std::size_t offset = 0;
    for (auto it = holders.begin(); it != entry; ++it) offset += it->count;
    result_.ranking.splice_event(id, offset, old_count, splice_powers_);
    if (new_count == 0) {
      holders.erase(entry);
    } else if (old_count == 0) {
      holders.insert(entry, {slot_key, new_count});
    } else {
      entry->count = new_count;
    }
    mark_event_dirty(id);
  }
  result_.traces[slot] = std::move(analyzed);
  trace_dirty_[slot] = 1;
}

void FleetAnalyzer::TraceCache::repair_sorted(const AnalyzedTrace& trace) {
  // Order-statistic quartile maintenance.  Gather the refreshed lane
  // through the previous snapshot's permutation: rebased values land
  // near their old rank, so the gathered array is already almost
  // ascending and one adaptive insertion pass — remove each displaced
  // value, re-insert it at its ordered slot — restores order in
  // O(n + inversions) instead of the O(n log n) a per-snapshot re-sort
  // would pay (the dominant cost of dense snapshots; see
  // BENCH_pipeline.json).  Ascending order of a multiset is unique, so
  // the result is bitwise equal to a fresh sort of the lane, and Q1/Q3
  // and the fence stay bitwise identical to the batch sort-and-detect
  // path.  A move budget bounds the pathological case (the new bases
  // reshuffled most ranks): past it, fall back to one argsort.
  const double* amp = trace.variation_amplitude.data();
  const std::size_t count = sorted_amplitudes.size();
  double* sorted = sorted_amplitudes.data();
  std::uint32_t* order = sorted_order.data();
  for (std::size_t p = 0; p < count; ++p) sorted[p] = amp[order[p]];
  std::size_t moves = 0;
  const std::size_t budget = 2 * count + 32;
  for (std::size_t i = 1; i < count; ++i) {
    if (sorted[i - 1] <= sorted[i]) continue;
    const double value = sorted[i];
    const std::uint32_t index = order[i];
    std::size_t j = i;
    do {
      sorted[j] = sorted[j - 1];
      order[j] = order[j - 1];
      --j;
      ++moves;
    } while (j > 0 && sorted[j - 1] > value);
    sorted[j] = value;
    order[j] = index;
    if (moves > budget) {
      rebuild_amplitude_cache(trace);
      return;
    }
  }
}

void FleetAnalyzer::refresh_slot(std::size_t slot, bool replaced) {
  // Both kernels recompute every position from the trace's raw powers and
  // the base table, so the lanes equal a batch pass bit for bit whether
  // the trace is new or only its bases moved.  The Step-4 scratch is
  // per-thread and reused across slots and snapshots, so long-trace
  // refreshes stop churning the allocator.
  thread_local DetectionScratch det_scratch;
  AnalyzedTrace& trace = result_.traces[slot];
  TraceCache& cache = cache_[slot];
  normalize_trace(trace, bases_);
  attribute_variation_amplitude(trace, config_.detection, det_scratch);
  if (replaced) {
    cache.rebuild_amplitude_cache(trace);
  } else {
    cache.repair_sorted(trace);
  }
  redetect_manifestation_points(trace, config_.detection,
                                cache.sorted_amplitudes);
}

void FleetAnalyzer::refresh() {
  if (result_.traces.empty()) {
    throw AnalysisError("FleetAnalyzer::snapshot: no traces collected");
  }
  sync_id_bound();

  // Step 2+3 (incremental): re-derive the base power of dirty events
  // only; untouched events keep their cached base.  Only events whose
  // base actually moved bitwise create downstream work.
  moved_events_.clear();
  for (EventId id : dirty_events_) {
    event_dirty_[id] = 0;
    const double base =
        base_power_of(result_.ranking.all()[id], config_.normalization);
    if (base == bases_[id]) continue;
    bases_[id] = base;
    moved_events_.push_back(id);
  }
  dirty_events_.clear();

  // Work-list: the new or replaced slots, then each clean slot holding a
  // moved-base event, once (trace_dirty_ marks the slots already listed).
  refresh_slots_.clear();
  for (std::size_t s = 0; s < trace_dirty_.size(); ++s) {
    if (trace_dirty_[s] != 0) {
      refresh_slots_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  const std::size_t replaced = refresh_slots_.size();
  for (EventId id : moved_events_) {
    for (const SlotCount& holder : traces_with_event_[id]) {
      if (trace_dirty_[holder.slot] != 0) continue;
      trace_dirty_[holder.slot] = 1;
      refresh_slots_.push_back(holder.slot);
    }
  }

  // Steps 3+4 on the perturbed traces only.
  for (std::size_t i = 0; i < refresh_slots_.size(); ++i) {
    refresh_slot(refresh_slots_[i], i < replaced);
  }
  for (std::uint32_t slot : refresh_slots_) trace_dirty_[slot] = 0;
}

const AnalysisResult& FleetAnalyzer::snapshot() {
  refresh();
  // Step 5 is O(manifestations), cheap enough to rebuild outright.
  result_.report =
      report_problematic_events(result_.traces, config_.reporting);
  return result_;
}

std::shared_ptr<const FleetAnalyzer::SnapshotImage> FleetAnalyzer::publish(
    bool self_estimate_fraction) {
  refresh();
  // Steps 1-4 do not depend on the reported fraction, so the refreshed
  // traces feed the self-estimate and the one Step-5 pass alike — the
  // batch two-pass result, byte for byte.
  ReportingConfig reporting = config_.reporting;
  if (self_estimate_fraction) {
    reporting.developer_reported_fraction =
        self_estimated_fraction(result_.traces);
  }
  auto image = std::make_shared<SnapshotImage>();
  image->arrivals = arrivals_;
  image->fleet_size = result_.traces.size();
  image->reported_fraction = reporting.developer_reported_fraction;
  image->report = report_problematic_events(result_.traces, reporting);
  image->traces_with_manifestation = image->report.traces_with_manifestation;
  return image;
}

}  // namespace edx::core
