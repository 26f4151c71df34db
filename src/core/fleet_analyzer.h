// FleetAnalyzer — the incremental fleet analysis engine.
//
// The paper's deployment model is continuous: instrumented phones upload
// their trace bundles one at a time ("when the phone is charging on
// WiFi") and the server re-diagnoses the growing fleet after each
// arrival.  Re-running the batch ManifestationAnalyzer per arrival costs
// a full O(fleet) pass over Steps 1-5 every time; this engine makes an
// arrival cost O(arriving trace) plus O(Δ) — the slice of Steps 2-5 the
// arrival actually perturbed:
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
//                powers for dirty events only, then repairs the traces a
//                moved base touched at sub-trace granularity: scatter
//                renormalization rewrites only the moved events'
//                instances, amplitude repair recomputes only the monotone
//                run windows those instances perturb, and each trace's
//                amplitude quartiles are maintained in an ordered
//                multiset by remove/insert instead of a per-snapshot
//                re-sort.  New and replaced traces take the cold
//                (full-kernel) path.  See DESIGN.md §11.
//
// Equivalence contract: after any sequence of add_bundle() calls,
// snapshot() is byte-identical — rendered text and JSON reports and every
// per-instance intermediate — to ManifestationAnalyzer::run over the same
// bundles in arrival order, for any AnalysisConfig::num_threads.
// Re-adding a user (same TraceBundle::fleet_key()) replaces their earlier
// bundle in its original fleet slot, matching a batch input whose slot
// holds the latest upload; it never duplicates the user.
// See DESIGN.md §9 and §11.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
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
  /// Batch ingestion: Step 1 for the arriving bundles runs in parallel on
  /// the pool; the results are applied in `bundles` order, so the fleet
  /// state equals calling add_bundle() for each in order.
  void add_bundles(std::span<const trace::TraceBundle> bundles);

  /// Ingests an arrival whose Step 1 already ran elsewhere — e.g. the
  /// exact per-instance powers recovered from a durable-store snapshot
  /// (store/shard_store.h).  `analyzed` must equal
  /// estimate_event_power(bundle) for the arriving bundle, with every
  /// event id interned in the global symbol table; the fleet state then
  /// matches add_bundle(bundle) bit for bit, at none of the power-join
  /// cost.
  void add_analyzed(AnalyzedTrace analyzed);

  /// Re-runs Steps 2-5 on the perturbed slice and returns the full
  /// result — byte-identical to a batch ManifestationAnalyzer::run over
  /// the current fleet (see the contract above).  The reference stays
  /// valid until the next add_bundle/add_bundles call.  Throws
  /// AnalysisError when the fleet is empty.
  const AnalysisResult& snapshot();

  /// Arrivals applied so far (add_bundle/add_bundles/add_analyzed calls,
  /// re-uploads included).  Identifies the arrival prefix a published
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

  /// Runs snapshot() and freezes the result into an immutable
  /// SnapshotImage.  With `self_estimate_fraction`, applies the CLI's
  /// two-pass rule: re-derive the reported fraction as
  /// traces_with_manifestation / total_traces and rebuild the (cheap)
  /// Step-5 report around it — byte-identical to the batch two-pass
  /// path over the same uploads.  Throws AnalysisError when the fleet
  /// is empty.
  [[nodiscard]] std::shared_ptr<const SnapshotImage> publish(
      bool self_estimate_fraction);

 private:
  /// Per-slot delta-repair state, index-aligned with result_.traces.
  struct TraceCache {
    /// One contiguous run of `positions` holding every instance of one
    /// event, ascending; groups sorted by event id for binary lookup.
    struct Group {
      EventId id{kInvalidEventId};
      std::uint32_t begin{0};
      std::uint32_t count{0};
    };
    /// Instance positions of the slot's trace, grouped by event.  Rebuilt
    /// whenever the slot's trace changes (new upload or replacement);
    /// lets the scatter step find exactly the instances of a moved-base
    /// event without walking the trace.
    std::vector<Group> groups;
    std::vector<std::uint32_t> positions;
    /// The trace's variation amplitudes in ascending order — the
    /// order-statistic multiset backing Q1/Q3/fence — plus the
    /// permutation behind it (sorted_order[p] = instance whose amplitude
    /// occupies rank p).  Seeded by the cold path's one argsort;
    /// maintained on the delta path by gathering the repaired lane
    /// through the stale permutation (already almost ascending) and
    /// re-inserting each displaced value at its ordered slot — an
    /// adaptive O(n + inversions) pass, with a full argsort fallback
    /// under a move budget so a pathological repair never exceeds sort
    /// cost.  The ascending order of a multiset is unique, so the array
    /// stays bitwise equal to a fresh sort of the lane (no NaNs and no
    /// -0.0 can appear; see DESIGN.md §11).  Valid after the slot's
    /// first snapshot.
    std::vector<double> sorted_amplitudes;
    std::vector<std::uint32_t> sorted_order;

    /// Rebuilds sorted_order/sorted_amplitudes from the amplitude lane
    /// with one argsort (cold path, and the delta path's fallback).
    void rebuild_amplitude_cache(const AnalyzedTrace& trace);
    /// Re-synchronizes the order-statistic cache with the (repaired)
    /// amplitude lane: gather through the stale permutation, then the
    /// budgeted adaptive insertion pass described above.
    void repair_sorted(const AnalyzedTrace& trace);

    /// Rebuilds groups/positions from the trace by sorting packed
    /// (id, position) keys in the caller-owned arena — stable in effect,
    /// no per-call allocation once the arena is warm.
    void rebuild_index(const AnalyzedTrace& trace,
                       std::vector<std::uint64_t>& key_scratch);
    [[nodiscard]] std::span<const std::uint32_t> positions_of(
        EventId id) const;
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
  /// Cold path: full renormalize + detect for a new/replaced slot.
  void full_refresh(std::size_t slot);
  /// Delta path: scatter renorm + run-window amplitude repair + ordered
  /// quartile maintenance for a clean slot with moved-base events.
  void delta_refresh(std::size_t slot);

  AnalysisConfig config_;
  std::optional<common::ThreadPool> pool_storage_;
  common::ThreadPool* pool_{nullptr};  ///< null = sequential path

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
  /// Fleet slots that must take the cold path at the next snapshot (new
  /// or replaced arrivals).
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
  /// Per-slot list of moved-base events present in that slot (delta
  /// work-list payload); always left empty between snapshots.
  std::vector<std::vector<EventId>> slot_moved_events_;
  /// Slots taking the delta path / the cold path this snapshot.
  std::vector<std::uint32_t> delta_slots_;
  std::vector<std::uint32_t> cold_slots_;
};

}  // namespace edx::core
