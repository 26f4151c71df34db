// Step 2 — Event Ranking.
//
// Different events have legitimately different raw power (a mail refresh
// costs more than a keystroke), so raw transition points between events are
// misleading.  Step 2 collects, for each event *id*, every instance's
// power across all traces and ranks them.  The per-event distributions feed
// Step 3's normalization; the ranks themselves reveal which instances sit
// unusually high within their own event's distribution.
//
// The ranking is a flat std::vector<EventPowerDistribution> indexed by the
// interned EventId (common/event_symbols.h): the per-instance hot paths of
// Steps 2-4 are array indexing, with no string hash or O(len) compare
// anywhere.  Each distribution caches its powers in sorted order, so
// percentile() is O(1) and rank_of() a binary search after the one-time
// sort.  The two incremental mutations keep a live cache live: add_power()
// (a new user's instances, appended) with one ordered insert, and
// splice() (a re-upload's instances, replaced mid-list) with a block-move
// merge — which is what makes repeated fleet snapshots
// (core/fleet_analyzer.h) cheap.
// The lazy rebuild is double-check-locked, so concurrent readers may
// trigger it safely.
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "core/analysis_types.h"

namespace edx::core {

/// Power distribution of one event across the whole collection.
class EventPowerDistribution {
 public:
  EventPowerDistribution() = default;
  explicit EventPowerDistribution(EventId id) : id_(id) {}
  EventPowerDistribution(const EventPowerDistribution& other);
  EventPowerDistribution(EventPowerDistribution&& other) noexcept;
  EventPowerDistribution& operator=(const EventPowerDistribution& other);
  EventPowerDistribution& operator=(EventPowerDistribution&& other) noexcept;

  [[nodiscard]] EventId id() const { return id_; }
  /// The event's name, resolved from the global symbol table.
  [[nodiscard]] const EventName& name() const { return event_name(id_); }
  /// Every instance's raw power, in input (trace-traversal) order.
  [[nodiscard]] const std::vector<double>& powers() const { return powers_; }
  [[nodiscard]] std::size_t instance_count() const { return powers_.size(); }

  /// Records one instance's power.  A valid sorted cache is maintained in
  /// place (one ordered insert); an invalid one stays invalid.
  void add_power(double power);
  /// Guarantees capacity for `additional` more add_power() calls without
  /// reallocation, in both the input-order list and a live sorted cache.
  /// Grows geometrically past the exact need so per-arrival reservations
  /// (core/fleet_analyzer.h) don't degenerate into one realloc per upload.
  void reserve_extra(std::size_t additional);
  /// Replaces the whole distribution; invalidates the sorted cache.
  void set_powers(std::vector<double> powers);
  /// Appends a block of powers (preserving their order); invalidates the
  /// sorted cache.  Steals the vector when the distribution is empty.
  void append_powers(std::vector<double>&& powers);
  /// Replaces powers()[offset, offset + count) with `replacement`, in
  /// order; the sizes may differ.  A valid sorted cache stays valid and
  /// bitwise equal to a fresh sort: the replaced values are dropped from
  /// it and the new ones merged in, with block moves (the ascending order
  /// of a NaN-free multiset is unique).  An invalid cache stays invalid.
  /// Throws InvalidArgument when the range is out of bounds.
  void splice(std::size_t offset, std::size_t count,
              std::span<const double> replacement);

  /// The powers in ascending order, sorted once and cached.  The first
  /// rebuild after an invalidation is guarded (double-checked lock), so
  /// any number of threads may call this concurrently; mutation
  /// (add_power &c.) must still not race with readers.
  [[nodiscard]] const std::vector<double>& sorted_powers() const;

  /// Competition ranks aligned with `powers`.
  [[nodiscard]] std::vector<std::size_t> ranks() const;
  /// p-th percentile of the distribution.  Builds (or reuses) the sorted
  /// cache; the value equals the selection-path value bit for bit.
  [[nodiscard]] double percentile(double p) const;
  /// Rank (1-based) of `power` within the distribution: 1 + number of
  /// recorded instances strictly cheaper.  Binary search on the sorted
  /// cache when one exists, otherwise a mutation-free linear count.
  [[nodiscard]] std::size_t rank_of(double power) const;

 private:
  EventId id_{kInvalidEventId};
  std::vector<double> powers_;  ///< input order
  mutable std::mutex sort_mutex_;
  mutable std::vector<double> sorted_;
  mutable std::atomic<bool> sorted_valid_{false};
};

/// All per-event distributions, indexed by EventId.
class EventRanking {
 public:
  /// Builds distributions from every instance in `traces`.  With a pool,
  /// contiguous chunks of traces build partial id-indexed tables in
  /// parallel, merged in chunk order — every distribution ends up with its
  /// powers in exactly the sequential traversal order, so results are
  /// identical to the sequential build for any pool size.
  static EventRanking build(const std::vector<AnalyzedTrace>& traces,
                            common::ThreadPool* pool = nullptr);

  /// Distribution for the event with id `id`; throws AnalysisError when
  /// the event never occurs in the collection.
  [[nodiscard]] const EventPowerDistribution& distribution(EventId id) const;
  /// Convenience: resolves `name` through the global symbol table first.
  [[nodiscard]] const EventPowerDistribution& distribution(
      std::string_view name) const;

  /// Incremental entry points (core/fleet_analyzer.h): mutate the table
  /// in place instead of rebuilding it from scratch.
  ///
  /// Grows the id-indexed table to at least `id_bound` slots (new slots
  /// are empty distributions owning their id).  Never shrinks.
  void ensure_event_slots(std::size_t id_bound);
  /// Appends every instance of `trace` to its event's distribution, in
  /// the trace's own (chronological) order — appending arriving traces in
  /// arrival order therefore reproduces exactly the sequential traversal
  /// order of build() over the same traces.
  void append_trace(const AnalyzedTrace& trace);
  /// Replaces the `count` instances of event `id` starting at `offset` of
  /// its distribution with `replacement` (EventPowerDistribution::splice).
  /// A re-uploaded trace's instances of one event form one such run,
  /// because powers are kept in fleet-slot order.
  void splice_event(EventId id, std::size_t offset, std::size_t count,
                    std::span<const double> replacement);
  /// Pre-reserves capacity for `additional` upcoming instances of event
  /// `id`, killing reallocation churn when an arriving bundle's instance
  /// counts are known up front (see EventPowerDistribution::reserve_extra).
  void reserve_event_extra(EventId id, std::size_t additional);

  [[nodiscard]] bool contains(EventId id) const;
  [[nodiscard]] bool contains(std::string_view name) const;
  /// Number of events with at least one recorded instance.
  [[nodiscard]] std::size_t event_count() const { return event_count_; }
  /// The flat id-indexed table.  Slot `id` belongs to the event with that
  /// id; slots of events absent from the collection are empty
  /// (instance_count() == 0).
  [[nodiscard]] const std::vector<EventPowerDistribution>& all() const {
    return by_id_;
  }

  /// Rank (1-based) of a given power value within event `id`'s
  /// distribution: 1 + number of recorded instances strictly cheaper.
  [[nodiscard]] std::size_t rank_of(EventId id, double power) const;
  [[nodiscard]] std::size_t rank_of(std::string_view name, double power) const;

 private:
  std::vector<EventPowerDistribution> by_id_;
  std::size_t event_count_{0};
};

}  // namespace edx::core
