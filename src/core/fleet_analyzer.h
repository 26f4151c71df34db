// FleetAnalyzer — the incremental fleet analysis engine.
//
// The paper's deployment model is continuous: instrumented phones upload
// their trace bundles one at a time ("when the phone is charging on
// WiFi") and the server re-diagnoses the growing fleet after each
// arrival.  Re-running the batch ManifestationAnalyzer per arrival costs
// a full O(fleet) pass over Steps 1-5 every time; this engine makes an
// arrival cost O(arriving trace) plus the traces the arrival perturbed:
//
//   add_bundle   runs Step 1 (the power-join, the expensive per-trace
//                work) for the arriving bundle only and appends its
//                instances into the id-indexed EventRanking, marking the
//                touched EventIds dirty.  A re-upload splices its
//                instances over the replaced trace's, in place, in each
//                touched event's distribution: an exact inverted index
//                (EventId -> slot-sorted {slot, instance count}) gives
//                the splice offset, so the cost is the touched
//                distributions, never a walk over the fleet;
//   snapshot     re-runs Steps 2-5 incrementally — recomputes base
//                powers for dirty events only, then refreshes every slot
//                that needs it one way: the linear Step-3/4 kernels
//                (normalize_trace, attribute_variation_amplitude) and a
//                re-detect from the slot's ascending amplitude cache.
//                The slots are the new and replaced traces plus the
//                clean traces holding an event whose base moved.  The
//                cache is one argsort for a new or replaced trace and an
//                adaptive re-sort through the previous permutation for a
//                rebased one.  See DESIGN.md §11.
//
// Equivalence contract: after any sequence of add_bundle() calls,
// snapshot() is byte-identical — rendered text and JSON reports and every
// per-instance intermediate — to ManifestationAnalyzer::run over the same
// bundles in arrival order, for any AnalysisConfig::num_threads.  The
// engine itself runs on its caller's thread (it starts no threads and
// ignores num_threads); a service parallelizes across tenants instead.
// Re-adding a user (same TraceBundle::fleet_key()) replaces their earlier
// bundle in its original fleet slot, matching a batch input whose slot
// holds the latest upload; it never duplicates the user.
// See DESIGN.md §9 and §11.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "trace/recorder.h"

namespace edx::core {

class FleetAnalyzer {
 public:
  explicit FleetAnalyzer(AnalysisConfig config = {});

  [[nodiscard]] const AnalysisConfig& config() const { return config_; }
  /// Number of distinct users currently in the fleet.
  [[nodiscard]] std::size_t fleet_size() const {
    return result_.traces.size();
  }
  [[nodiscard]] bool contains_user(UserId user) const {
    return index_by_user_.contains(user);
  }

  /// Ingests one upload: runs Step 1 for this bundle only and marks the
  /// events it touches dirty.  A bundle whose fleet_key() is already in
  /// the fleet replaces that user's earlier trace in place (idempotent
  /// re-upload); a new key appends a fleet slot in arrival order.
  void add_bundle(const trace::TraceBundle& bundle);

  /// Ingests an arrival whose Step 1 already ran elsewhere — e.g. the
  /// exact per-instance powers recovered from a durable-store snapshot
  /// (store/shard_store.h).  `analyzed` must equal
  /// estimate_event_power(bundle) for the arriving bundle, with every
  /// event id interned in the global symbol table; the fleet state then
  /// matches add_bundle(bundle) bit for bit, at none of the power-join
  /// cost.
  void add_analyzed(AnalyzedTrace analyzed);

  /// Re-runs Steps 2-4 on the perturbed traces, rebuilds Step 5 and
  /// returns the full result — byte-identical to a batch
  /// ManifestationAnalyzer::run over the current fleet (see the contract
  /// above).  The reference stays valid until the next add_bundle or
  /// add_analyzed call.  Throws AnalysisError when the fleet is empty.
  const AnalysisResult& snapshot();

  /// Arrivals applied so far (add_bundle/add_analyzed calls, re-uploads
  /// included).  Identifies the arrival prefix a published
  /// SnapshotImage covers.
  [[nodiscard]] std::uint64_t arrivals() const { return arrivals_; }

  /// The immutable, self-contained publication image of one snapshot —
  /// what a long-running service hands to concurrent readers.  Unlike
  /// the AnalysisResult reference snapshot() returns (mutable
  /// accumulation state, invalidated by the next arrival), a
  /// SnapshotImage owns its report outright and never changes after
  /// publish() returns, so readers may render it lock-free for as long
  /// as they hold the shared_ptr.  See DESIGN.md §14.
  struct SnapshotImage {
    /// Arrival count this image covers: the report equals a batch run
    /// over the first `arrivals` uploads (in applied order).
    std::uint64_t arrivals{0};
    std::size_t fleet_size{0};
    std::size_t traces_with_manifestation{0};
    /// The developer-reported fraction the report was built with (the
    /// self-estimate when `self_estimate_fraction` was set).
    double reported_fraction{0.0};
    DiagnosisReport report;
  };

  /// Re-runs Steps 2-4 as snapshot() does, then builds the Step-5 report
  /// once, into an immutable SnapshotImage.  With
  /// `self_estimate_fraction`, the reported fraction is
  /// self_estimated_fraction() of the refreshed traces (core/reporting.h)
  /// — the CLI's self-estimate rule, byte-identical to the batch two-pass
  /// path over the same uploads; otherwise it is the configured one.
  /// Throws AnalysisError when the fleet is empty.
  [[nodiscard]] std::shared_ptr<const SnapshotImage> publish(
      bool self_estimate_fraction);

 private:
  /// Per-slot refresh state, index-aligned with result_.traces.
  struct TraceCache {
    /// One contiguous run of `positions` holding every instance of one
    /// event, ascending; groups sorted by event id.
    struct Group {
      EventId id{kInvalidEventId};
      std::uint32_t begin{0};
      std::uint32_t count{0};
    };
    /// Instance positions of the slot's trace, grouped by event.  Rebuilt
    /// whenever the slot's trace changes (new upload or replacement); the
    /// groups list the trace's distinct events with their instance
    /// counts, and a re-upload's splice reads each event's incoming
    /// powers through them.
    std::vector<Group> groups;
    std::vector<std::uint32_t> positions;
    /// The trace's variation amplitudes in ascending order — the
    /// order-statistic multiset backing Q1/Q3/fence — plus the
    /// permutation behind it (sorted_order[p] = instance whose amplitude
    /// occupies rank p).  Seeded by one argsort when the slot's trace is
    /// new or replaced; when only its bases moved, re-sorted by
    /// gathering the refreshed lane through the stale permutation
    /// (already almost ascending) and re-inserting each displaced value
    /// at its ordered slot — an adaptive O(n + inversions) pass, with a
    /// full argsort fallback under a move budget so a pathological
    /// reshuffle never exceeds sort cost.  The ascending order of a
    /// multiset is unique, so the array stays bitwise equal to a fresh
    /// sort of the lane (no NaNs and no -0.0 can appear; see DESIGN.md
    /// §11).  Valid after the slot's first snapshot.
    std::vector<double> sorted_amplitudes;
    std::vector<std::uint32_t> sorted_order;

    /// Rebuilds sorted_order/sorted_amplitudes from the amplitude lane
    /// with one argsort (new or replaced trace, and repair_sorted's
    /// fallback).
    void rebuild_amplitude_cache(const AnalyzedTrace& trace);
    /// Re-synchronizes the order-statistic cache with the refreshed
    /// amplitude lane: gather through the stale permutation, then the
    /// budgeted adaptive insertion pass described above.
    void repair_sorted(const AnalyzedTrace& trace);

    /// Rebuilds groups/positions from the trace by sorting packed
    /// (id, position) keys in the caller-owned arena — stable in effect,
    /// no per-call allocation once the arena is warm.
    void rebuild_index(const AnalyzedTrace& trace,
                       std::vector<std::uint64_t>& key_scratch);
  };

  /// Commits one Step-1 result into the fleet state (append or replace).
  void apply_arrival(AnalyzedTrace analyzed);
  /// Re-upload path of apply_arrival: splices `analyzed` over the trace
  /// in `slot`, event by event.
  void replace_trace(std::size_t slot, AnalyzedTrace analyzed);
  /// Flags `id` for a base re-derive at the next snapshot.
  void mark_event_dirty(EventId id);
  /// Grows every id-indexed side table to the symbol table's current size.
  void sync_id_bound();
  /// Steps 2-4 on the perturbed traces: re-derives the dirty events'
  /// bases and refreshes every slot that is new, replaced or holds a
  /// moved-base event.  Throws AnalysisError when the fleet is empty.
  void refresh();
  /// Steps 3-4 for one slot: renormalize, attribute amplitudes, bring the
  /// amplitude cache up to date (an argsort when `replaced`, the
  /// adaptive re-sort otherwise) and re-detect.
  void refresh_slot(std::size_t slot, bool replaced);

  AnalysisConfig config_;

  /// traces (arrival order) + incrementally maintained ranking + the
  /// report of the last snapshot; handed out by snapshot() by reference.
  AnalysisResult result_;
  std::uint64_t arrivals_{0};
  std::unordered_map<UserId, std::size_t> index_by_user_;
  std::vector<TraceCache> cache_;

  /// Cached Step-3 base power per EventId (0.0 = absent), valid for every
  /// event not in dirty_events_.
  std::vector<double> bases_;
  /// EventIds whose distribution changed since the last snapshot, as a
  /// dense flag vector plus the list of set flags.
  std::vector<std::uint8_t> event_dirty_;
  std::vector<EventId> dirty_events_;
  /// Fleet slots whose trace is new or replaced since the last snapshot;
  /// during a refresh, also the clean slots already on its work-list.
  std::vector<std::uint8_t> trace_dirty_;
  /// One fleet slot holding an event, with its number of instances of it.
  struct SlotCount {
    std::uint32_t slot{0};
    std::uint32_t count{0};
  };
  /// EventId -> exactly the fleet slots whose current trace contains that
  /// event, ascending by slot.  A distribution's powers are the slots'
  /// instances concatenated in slot order, so the counts before a slot
  /// are its offset in the distribution.  A new user appends its entries;
  /// a re-upload inserts, updates or erases only its own slot's entry.
  std::vector<std::vector<SlotCount>> traces_with_event_;
  /// Per-arrival scratch: the packed-key arena rebuild_index sorts in, so
  /// indexing a long arriving trace allocates nothing once warm.
  std::vector<std::uint64_t> index_key_scratch_;
  /// Per-re-upload scratch: the replaced trace's position groups, and one
  /// event's incoming powers in trace order.
  std::vector<TraceCache::Group> old_groups_;
  std::vector<double> splice_powers_;

  // Snapshot scratch, reused across snapshots.
  /// Events whose base moved bitwise this snapshot.
  std::vector<EventId> moved_events_;
  /// The slots to refresh this snapshot: the new or replaced ones first,
  /// then the rebased ones.
  std::vector<std::uint32_t> refresh_slots_;
};

}  // namespace edx::core
