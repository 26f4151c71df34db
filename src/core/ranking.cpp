#include "core/ranking.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/stats.h"

namespace edx::core {

// Copies and moves transfer the cache (under the source's lock, in case a
// concurrent reader is rebuilding it) but never the mutex itself.
EventPowerDistribution::EventPowerDistribution(
    const EventPowerDistribution& other) {
  std::lock_guard lock(other.sort_mutex_);
  id_ = other.id_;
  powers_ = other.powers_;
  sorted_ = other.sorted_;
  sorted_valid_.store(other.sorted_valid_.load(std::memory_order_acquire),
                      std::memory_order_release);
}

EventPowerDistribution::EventPowerDistribution(
    EventPowerDistribution&& other) noexcept {
  std::lock_guard lock(other.sort_mutex_);
  id_ = other.id_;
  powers_ = std::move(other.powers_);
  sorted_ = std::move(other.sorted_);
  sorted_valid_.store(other.sorted_valid_.load(std::memory_order_acquire),
                      std::memory_order_release);
}

EventPowerDistribution& EventPowerDistribution::operator=(
    const EventPowerDistribution& other) {
  if (this == &other) return *this;
  EventPowerDistribution copy(other);
  return *this = std::move(copy);
}

EventPowerDistribution& EventPowerDistribution::operator=(
    EventPowerDistribution&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(sort_mutex_, other.sort_mutex_);
  id_ = other.id_;
  powers_ = std::move(other.powers_);
  sorted_ = std::move(other.sorted_);
  sorted_valid_.store(other.sorted_valid_.load(std::memory_order_acquire),
                      std::memory_order_release);
  return *this;
}

void EventPowerDistribution::add_power(double power) {
  powers_.push_back(power);
  if (sorted_valid_.load(std::memory_order_acquire)) {
    // Keep a live cache live: one ordered insert is far cheaper than the
    // full re-sort the next percentile()/rank_of() would otherwise pay.
    // The incremental fleet engine appends a handful of powers per event
    // per arrival and reads a percentile per snapshot, so without this
    // the cache would thrash invalid on every single arrival.
    std::lock_guard lock(sort_mutex_);
    sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), power),
                   power);
  }
}

void EventPowerDistribution::reserve_extra(std::size_t additional) {
  const auto grow = [additional](std::vector<double>& vector) {
    const std::size_t need = vector.size() + additional;
    if (need <= vector.capacity()) return;
    // Exact-fit reserve would make the *next* arrival reallocate again;
    // keep the usual amortized growth by never reserving below 1.5x.
    vector.reserve(std::max(need, vector.size() + vector.size() / 2));
  };
  grow(powers_);
  if (sorted_valid_.load(std::memory_order_acquire)) {
    std::lock_guard lock(sort_mutex_);
    grow(sorted_);
  }
}

void EventPowerDistribution::set_powers(std::vector<double> powers) {
  powers_ = std::move(powers);
  sorted_valid_.store(false, std::memory_order_release);
}

void EventPowerDistribution::append_powers(std::vector<double>&& powers) {
  if (powers_.empty()) {
    powers_ = std::move(powers);
  } else {
    powers_.insert(powers_.end(), powers.begin(), powers.end());
  }
  sorted_valid_.store(false, std::memory_order_release);
}

namespace {

/// Replaces values[offset, offset + count) with `with`: overwrites the
/// common prefix in place and shifts the tail once when the sizes differ.
void replace_range(std::vector<double>& values, std::size_t offset,
                   std::size_t count, std::span<const double> with) {
  const std::size_t common = std::min(count, with.size());
  const auto first = values.begin() + static_cast<std::ptrdiff_t>(offset);
  std::copy_n(with.begin(), common, first);
  if (with.size() < count) {
    values.erase(first + static_cast<std::ptrdiff_t>(common),
                 first + static_cast<std::ptrdiff_t>(count));
  } else {
    values.insert(first + static_cast<std::ptrdiff_t>(common),
                  with.begin() + static_cast<std::ptrdiff_t>(common),
                  with.end());
  }
}

/// Removes the ascending `removed` values from the ascending `sorted`,
/// then inserts the ascending `added` values, with block moves only: the
/// gaps close left to right, the new slots open right to left, so each
/// pass shifts an element at most once.  Returns false, leaving `sorted`
/// unspecified, when a removed value is absent.
bool splice_sorted(std::vector<double>& sorted,
                   std::span<const double> removed,
                   std::span<const double> added) {
  if (!removed.empty()) {
    auto read = std::lower_bound(sorted.begin(), sorted.end(), removed[0]);
    auto write = read;
    for (const double value : removed) {
      const auto hit = std::lower_bound(read, sorted.end(), value);
      if (hit == sorted.end() || *hit != value) return false;
      write = std::move(read, hit, write);
      read = hit + 1;
    }
    sorted.erase(std::move(read, sorted.end(), write), sorted.end());
  }
  const std::size_t kept = sorted.size();
  sorted.resize(kept + added.size());
  auto unmoved_end = sorted.begin() + static_cast<std::ptrdiff_t>(kept);
  auto slot = sorted.end();
  for (auto value = added.rbegin(); value != added.rend(); ++value) {
    const auto at = std::upper_bound(sorted.begin(), unmoved_end, *value);
    slot = std::move_backward(at, unmoved_end, slot);
    *--slot = *value;
    unmoved_end = at;
  }
  return true;
}

}  // namespace

void EventPowerDistribution::splice(std::size_t offset, std::size_t count,
                                    std::span<const double> replacement) {
  if (offset > powers_.size() || count > powers_.size() - offset) {
    throw InvalidArgument(
        "EventPowerDistribution::splice: range out of bounds");
  }
  if (sorted_valid_.load(std::memory_order_acquire)) {
    // Keep a live cache live (see add_power): drop the sorted outgoing
    // values, then merge in the sorted incoming ones.  UtilizationTrace
    // rejects NaN samples, so values compare exactly and the result is
    // the unique ascending order of the new multiset — bitwise what a
    // fresh sort would build.  A NaN can still come out of Step 1 when
    // finite samples overflow its prefix sums; it matches no cache entry,
    // so the cache is then dropped and re-sorted on the next read.
    thread_local std::vector<double> removed;
    thread_local std::vector<double> added;
    const auto first = powers_.begin() + static_cast<std::ptrdiff_t>(offset);
    removed.assign(first, first + static_cast<std::ptrdiff_t>(count));
    added.assign(replacement.begin(), replacement.end());
    std::sort(removed.begin(), removed.end());
    std::sort(added.begin(), added.end());
    std::lock_guard lock(sort_mutex_);
    if (!splice_sorted(sorted_, removed, added)) {
      sorted_valid_.store(false, std::memory_order_release);
    }
  }
  replace_range(powers_, offset, count, replacement);
}

const std::vector<double>& EventPowerDistribution::sorted_powers() const {
  // Double-checked locking: readers that find a valid cache share it with
  // no lock at all; the first reader after an invalidation builds it under
  // the mutex while latecomers wait, then everyone reads the same vector.
  if (!sorted_valid_.load(std::memory_order_acquire)) {
    std::lock_guard lock(sort_mutex_);
    if (!sorted_valid_.load(std::memory_order_relaxed)) {
      sorted_ = powers_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_.store(true, std::memory_order_release);
    }
  }
  return sorted_;
}

std::vector<std::size_t> EventPowerDistribution::ranks() const {
  // With the sorted cache, a competition rank ("1224") is just the number
  // of strictly-smaller elements + 1 — one binary search per instance,
  // and ties share the lowest rank of their run automatically.
  const std::vector<double>& sorted = sorted_powers();
  std::vector<std::size_t> ranks;
  ranks.reserve(powers_.size());
  for (double power : powers_) {
    ranks.push_back(1 + static_cast<std::size_t>(std::lower_bound(
                            sorted.begin(), sorted.end(), power) -
                        sorted.begin()));
  }
  return ranks;
}

double EventPowerDistribution::percentile(double p) const {
  require(!powers_.empty(),
          "EventPowerDistribution::percentile: empty distribution");
  // Builds (or reuses) the sorted cache: selection would be cheaper for a
  // strictly one-off query, but every consumer of percentiles — Step 3's
  // base powers, Step 5's ranks, repeated fleet snapshots — comes back for
  // more, and add_power() keeps the cache alive once it exists.  The value
  // is identical to the selection-path value (see stats::percentile_*).
  return stats::percentile_sorted(sorted_powers(), p);
}

std::size_t EventPowerDistribution::rank_of(double power) const {
  if (!sorted_valid_.load(std::memory_order_acquire)) {
    // Mutation-free O(n) path (see percentile()).
    return 1 + static_cast<std::size_t>(
                   std::count_if(powers_.begin(), powers_.end(),
                                 [power](double x) { return x < power; }));
  }
  return 1 + static_cast<std::size_t>(
                 std::lower_bound(sorted_.begin(), sorted_.end(), power) -
                 sorted_.begin());
}

namespace {

/// Chunk-local accumulation buffer, indexed by EventId: the per-instance
/// hot path is one array index, no hashing and no string compare at all.
using PartialDistributions = std::vector<std::vector<double>>;

/// Appends every instance of traces[begin, end) to `into`, preserving the
/// sequential traversal order within the chunk.
void accumulate_chunk(const std::vector<AnalyzedTrace>& traces,
                      std::size_t begin, std::size_t end,
                      PartialDistributions& into) {
  for (std::size_t t = begin; t < end; ++t) {
    for (const PoweredEvent& event : traces[t].events) {
      into[event.id].push_back(event.raw_power);
    }
  }
}

}  // namespace

EventRanking EventRanking::build(const std::vector<AnalyzedTrace>& traces,
                                 common::ThreadPool* pool) {
  // Every id in `traces` was interned at ingestion, so the global table's
  // current size bounds them all; the table is append-only, so a
  // concurrent intern elsewhere can only add ids this collection does not
  // use.
  const std::size_t id_bound = EventSymbolTable::global().size();
  EventRanking ranking;
  // Per-thread partial id-indexed tables over contiguous chunks of traces,
  // merged in chunk order: concatenating chunk-local power lists in
  // ascending chunk order yields exactly the sequential traversal order,
  // so the result is identical to the sequential build (chunks == 1)
  // regardless of pool size or scheduling.  Chunk boundaries depend only
  // on (traces.size(), chunk count).
  const bool sequential =
      pool == nullptr || pool->size() <= 1 || traces.size() <= 1;
  const std::size_t chunks =
      sequential ? 1 : std::min(pool->size(), traces.size());
  std::vector<PartialDistributions> partials(
      chunks, PartialDistributions(id_bound));
  if (sequential) {
    accumulate_chunk(traces, 0, traces.size(), partials[0]);
  } else {
    std::vector<std::size_t> bounds(chunks + 1, 0);
    const std::size_t base = traces.size() / chunks;
    const std::size_t extra = traces.size() % chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
      bounds[c + 1] = bounds[c] + base + (c < extra ? 1 : 0);
    }
    pool->parallel_for(0, chunks, [&](std::size_t c) {
      accumulate_chunk(traces, bounds[c], bounds[c + 1], partials[c]);
    });
  }
  ranking.by_id_.reserve(id_bound);
  for (EventId id = 0; id < id_bound; ++id) {
    ranking.by_id_.emplace_back(id);
  }
  for (PartialDistributions& partial : partials) {
    for (EventId id = 0; id < id_bound; ++id) {
      if (partial[id].empty()) continue;
      ranking.by_id_[id].append_powers(std::move(partial[id]));
    }
  }
  for (const EventPowerDistribution& distribution : ranking.by_id_) {
    if (distribution.instance_count() > 0) ++ranking.event_count_;
  }

  // The sorted caches stay lazy: single-query paths fall back to
  // mutation-free O(n) selection, and a concurrent first rebuild is safe
  // because sorted_powers() double-check-locks it.
  return ranking;
}

void EventRanking::ensure_event_slots(std::size_t id_bound) {
  if (by_id_.size() >= id_bound) return;
  by_id_.reserve(id_bound);
  while (by_id_.size() < id_bound) {
    by_id_.emplace_back(static_cast<EventId>(by_id_.size()));
  }
}

void EventRanking::append_trace(const AnalyzedTrace& trace) {
  ensure_event_slots(EventSymbolTable::global().size());
  for (const PoweredEvent& event : trace.events) {
    EventPowerDistribution& distribution = by_id_[event.id];
    if (distribution.instance_count() == 0) ++event_count_;
    distribution.add_power(event.raw_power);
  }
}

void EventRanking::splice_event(EventId id, std::size_t offset,
                                std::size_t count,
                                std::span<const double> replacement) {
  ensure_event_slots(static_cast<std::size_t>(id) + 1);
  EventPowerDistribution& distribution = by_id_[id];
  const bool was_live = distribution.instance_count() > 0;
  distribution.splice(offset, count, replacement);
  const bool now_live = distribution.instance_count() > 0;
  if (was_live && !now_live) --event_count_;
  if (!was_live && now_live) ++event_count_;
}

void EventRanking::reserve_event_extra(EventId id, std::size_t additional) {
  ensure_event_slots(static_cast<std::size_t>(id) + 1);
  by_id_[id].reserve_extra(additional);
}

const EventPowerDistribution& EventRanking::distribution(EventId id) const {
  if (id >= by_id_.size() || by_id_[id].instance_count() == 0) {
    throw AnalysisError(
        "EventRanking: no distribution for event '" +
        (id < EventSymbolTable::global().size() ? event_name(id)
                                                : "#" + std::to_string(id)) +
        "'");
  }
  return by_id_[id];
}

const EventPowerDistribution& EventRanking::distribution(
    std::string_view name) const {
  const EventId id = find_event(name);
  if (id == kInvalidEventId) {
    throw AnalysisError("EventRanking: no distribution for event '" +
                        std::string(name) + "'");
  }
  return distribution(id);
}

bool EventRanking::contains(EventId id) const {
  return id < by_id_.size() && by_id_[id].instance_count() > 0;
}

bool EventRanking::contains(std::string_view name) const {
  const EventId id = find_event(name);
  return id != kInvalidEventId && contains(id);
}

std::size_t EventRanking::rank_of(EventId id, double power) const {
  return distribution(id).rank_of(power);
}

std::size_t EventRanking::rank_of(std::string_view name, double power) const {
  return distribution(name).rank_of(power);
}

}  // namespace edx::core
