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
  if (common::ThreadPool::resolve_threads(config_.num_threads) > 1) {
    pool_ = &pool_storage_.emplace(config_.num_threads);
  }
}

void FleetAnalyzer::TraceCache::rebuild_index(
    const AnalyzedTrace& trace, std::vector<std::uint64_t>& key_scratch) {
  const std::size_t count = trace.events.size();
  // (id, position) packed into one word: an in-place introsort of the
  // packed keys is stable in effect (the position breaks ties), keeping
  // each event's instances ascending within its group — what
  // renormalize_instances/repair expect — without std::stable_sort's
  // per-call temporary buffer.  The caller-owned key arena is reused
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

std::span<const std::uint32_t> FleetAnalyzer::TraceCache::positions_of(
    EventId id) const {
  const auto it = std::lower_bound(
      groups.begin(), groups.end(), id,
      [](const Group& group, EventId key) { return group.id < key; });
  if (it == groups.end() || it->id != id) return {};
  return {positions.data() + it->begin, it->count};
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

void FleetAnalyzer::add_bundles(std::span<const trace::TraceBundle> bundles) {
  // Step 1 is independent per bundle: join the whole batch on the pool,
  // then commit in `bundles` order so the fleet state is exactly the
  // add_bundle()-per-arrival state.
  std::vector<AnalyzedTrace> analyzed = estimate_event_power(bundles, pool_);
  for (AnalyzedTrace& trace : analyzed) {
    apply_arrival(std::move(trace));
  }
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
  slot_moved_events_.emplace_back();
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

void FleetAnalyzer::full_refresh(std::size_t slot) {
  // Cold path (new or replaced trace): full SoA kernels, and one argsort
  // seeds the slot's order-statistic amplitude cache — values *and*
  // permutation — for later delta snapshots.  The Step-4 scratch is
  // per-thread and reused across slots and snapshots, so long-trace
  // refreshes stop churning the allocator.
  thread_local DetectionScratch det_scratch;
  AnalyzedTrace& trace = result_.traces[slot];
  normalize_trace(trace, bases_);
  attribute_variation_amplitude(trace, config_.detection, det_scratch);
  cache_[slot].rebuild_amplitude_cache(trace);
  redetect_manifestation_points(trace, config_.detection,
                                cache_[slot].sorted_amplitudes);
}

void FleetAnalyzer::TraceCache::repair_sorted(const AnalyzedTrace& trace) {
  // Order-statistic quartile maintenance.  Gather the repaired lane
  // through the previous snapshot's permutation: repaired values land
  // near their old rank, so the gathered array is already almost
  // ascending and one adaptive insertion pass — remove each displaced
  // value, re-insert it at its ordered slot — restores order in
  // O(n + inversions) instead of the O(n log n) a per-snapshot re-sort
  // would pay (the dominant cost of dense snapshots; see
  // BENCH_pipeline.json).  Ascending order of a multiset is unique, so
  // the result is bitwise equal to a fresh sort of the lane, and Q1/Q3
  // and the fence stay bitwise identical to the batch sort-and-detect
  // path.  A move budget bounds the pathological case (repair reshuffled
  // most ranks): past it, fall back to one argsort.
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

void FleetAnalyzer::delta_refresh(std::size_t slot) {
  thread_local DetectionScratch det_scratch;
  AnalyzedTrace& trace = result_.traces[slot];
  TraceCache& cache = cache_[slot];
  std::vector<EventId>& moved = slot_moved_events_[slot];

  // Density cutover: when the moved bases cover a sizable share of the
  // trace's instances, the scattered machinery below (indirect
  // renormalization, changed-set merge, windowed repair) costs more than
  // the two linear kernels it exists to avoid — so re-run Steps 3+4
  // outright and keep only the permutation-maintained quartiles.  Both
  // kernels recompute every position from the same inputs with the same
  // expressions, so unchanged positions reproduce their old values
  // bitwise and the lanes match the scatter path exactly.
  std::size_t touched = 0;
  for (EventId id : moved) touched += cache.positions_of(id).size();
  if (touched * 4 >= trace.events.size()) {
    moved.clear();
    normalize_trace(trace, bases_);
    attribute_variation_amplitude(trace, config_.detection, det_scratch);
    cache.repair_sorted(trace);
    redetect_manifestation_points(trace, config_.detection,
                                  cache.sorted_amplitudes);
    return;
  }

  // Scatter renormalization: rewrite only the moved-base events'
  // instances; everything else in the trace keeps its (still-valid)
  // normalized power.  `changed` collects the instance positions whose
  // value actually moved.
  thread_local std::vector<std::uint32_t> changed;
  thread_local std::vector<AmplitudeChange> amp_changes;
  changed.clear();
  amp_changes.clear();
  const bool multiple_events = moved.size() > 1;
  for (EventId id : moved) {
    renormalize_instances(trace, cache.positions_of(id), bases_[id], changed);
  }
  moved.clear();
  if (changed.empty()) return;  // every quotient landed on the same double
  // Each event's positions arrive ascending; a multi-event scatter needs
  // one merge into global instance order for the repair's two-pointer.
  // When most of the trace moved (the dense regime), a counting pass over
  // the instance range is far cheaper than a comparison sort.
  if (multiple_events) {
    if (changed.size() * 8 >= trace.events.size()) {
      thread_local std::vector<std::uint8_t> flags;
      thread_local std::vector<std::uint32_t> merged;
      flags.assign(trace.events.size(), 0);
      for (std::uint32_t position : changed) flags[position] = 1;
      merged.clear();
      for (std::uint32_t i = 0; i < trace.events.size(); ++i) {
        if (flags[i] != 0) merged.push_back(i);
      }
      changed.swap(merged);
    } else {
      std::sort(changed.begin(), changed.end());
    }
  }

  // Local amplitude repair: only run windows containing a changed
  // instance are recomputed; each repaired amplitude reports its
  // before/after pair for the quartile cache.
  repair_variation_amplitudes(trace, changed, config_.detection, amp_changes);

  // Quartile maintenance only when some amplitude actually moved; the
  // cache stays valid otherwise.
  if (!amp_changes.empty()) cache.repair_sorted(trace);

  // Decision phase always re-runs when any normalized power moved: the
  // peak-level and sustain guards read normalized values directly, so
  // points can flip even when every amplitude kept its value.
  redetect_manifestation_points(trace, config_.detection,
                                cache.sorted_amplitudes);
}

const AnalysisResult& FleetAnalyzer::snapshot() {
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

  // Work-list: cold slots (new or replaced traces) re-run the full
  // kernels; clean slots containing a moved-base event take the delta
  // path, each carrying its own list of moved events.
  delta_slots_.clear();
  for (EventId id : moved_events_) {
    for (const SlotCount& holder : traces_with_event_[id]) {
      if (trace_dirty_[holder.slot] != 0) continue;
      std::vector<EventId>& moved = slot_moved_events_[holder.slot];
      if (moved.empty()) delta_slots_.push_back(holder.slot);
      moved.push_back(id);
    }
  }
  cold_slots_.clear();
  for (std::size_t s = 0; s < trace_dirty_.size(); ++s) {
    if (trace_dirty_[s] != 0) {
      cold_slots_.push_back(static_cast<std::uint32_t>(s));
      trace_dirty_[s] = 0;
    }
  }

  // Steps 3+4 on the perturbed slice only.  Each task owns one trace slot
  // and reads the shared base table, so the parallel path is identical to
  // the sequential one for any pool size (same argument as detect_all).
  const std::size_t cold_count = cold_slots_.size();
  const std::size_t total = cold_count + delta_slots_.size();
  const auto refresh = [this, cold_count](std::size_t i) {
    if (i < cold_count) {
      full_refresh(cold_slots_[i]);
    } else {
      delta_refresh(delta_slots_[i - cold_count]);
    }
  };
  if (pool_ == nullptr || pool_->size() <= 1 || total <= 1) {
    for (std::size_t i = 0; i < total; ++i) refresh(i);
  } else {
    pool_->parallel_for(0, total, refresh);
  }

  // Step 5 is O(manifestations), cheap enough to rebuild outright.
  result_.report =
      report_problematic_events(result_.traces, config_.reporting);
  return result_;
}

std::shared_ptr<const FleetAnalyzer::SnapshotImage> FleetAnalyzer::publish(
    bool self_estimate_fraction) {
  const AnalysisResult& result = snapshot();
  auto image = std::make_shared<SnapshotImage>();
  image->arrivals = arrivals_;
  image->fleet_size = result.traces.size();
  image->traces_with_manifestation = result.report.traces_with_manifestation;
  if (self_estimate_fraction) {
    // The CLI's two-pass rule (workload/cli.cpp render_fleet_report):
    // estimate the impacted-user fraction from the detection pass, then
    // rebuild the cheap Step-5 report around it.  Detection (Steps 1-4)
    // does not depend on the fraction, so one snapshot feeds both
    // passes and the result matches the batch two-pass byte for byte.
    const double fraction =
        result.report.total_traces == 0
            ? 0.0
            : static_cast<double>(result.report.traces_with_manifestation) /
                  static_cast<double>(result.report.total_traces);
    ReportingConfig reporting = config_.reporting;
    reporting.developer_reported_fraction = fraction;
    image->reported_fraction = fraction;
    image->report = report_problematic_events(result.traces, reporting);
  } else {
    image->reported_fraction = config_.reporting.developer_reported_fraction;
    image->report = result.report;
  }
  return image;
}

}  // namespace edx::core
