#include "common/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/error.h"

namespace edx::stats {

double mean(std::span<const double> values) {
  require(!values.empty(), "stats::mean: empty input");
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  require(values.size() >= 2, "stats::variance: need at least 2 values");
  const double m = mean(values);
  double accum = 0.0;
  for (double v : values) accum += (v - m) * (v - m);
  return accum / static_cast<double>(values.size() - 1);
}

double stddev(std::span<const double> values) {
  return std::sqrt(variance(values));
}

double min(std::span<const double> values) {
  require(!values.empty(), "stats::min: empty input");
  return *std::min_element(values.begin(), values.end());
}

double max(std::span<const double> values) {
  require(!values.empty(), "stats::max: empty input");
  return *std::max_element(values.begin(), values.end());
}

double percentile(std::span<const double> values, double p) {
  require(!values.empty(), "stats::percentile: empty input");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted_values, double p) {
  require(!sorted_values.empty(), "stats::percentile: empty input");
  require(p >= 0.0 && p <= 100.0, "stats::percentile: p must be in [0,100]");
  if (sorted_values.size() == 1) return sorted_values.front();
  // R-7 / numpy 'linear': h = (n-1) * p/100, interpolate between floor/ceil.
  const double h = static_cast<double>(sorted_values.size() - 1) * (p / 100.0);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double fraction = h - static_cast<double>(lo);
  return sorted_values[lo] +
         fraction * (sorted_values[hi] - sorted_values[lo]);
}

double median(std::span<const double> values) {
  return percentile(values, 50.0);
}

Quartiles quartiles(std::span<const double> values) {
  // Sort once and interpolate three times (percentile() would copy and
  // sort the input per call).
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quartiles_sorted(sorted);
}

Quartiles quartiles_sorted(std::span<const double> sorted_values) {
  Quartiles q;
  q.q1 = percentile_sorted(sorted_values, 25.0);
  q.q2 = percentile_sorted(sorted_values, 50.0);
  q.q3 = percentile_sorted(sorted_values, 75.0);
  return q;
}

namespace {

/// Order-preserving key image of a double: key(a) < key(b) iff a < b for
/// every non-NaN double (the IEEE total order on the sign-magnitude bit
/// pattern — positives get the sign bit set, negatives are complemented).
/// Exactly invertible, so a selected key converts back to the original
/// double bit for bit.
inline std::uint64_t order_key(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  constexpr std::uint64_t kSign = 0x8000'0000'0000'0000ull;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

inline double key_value(std::uint64_t key) {
  constexpr std::uint64_t kSign = 0x8000'0000'0000'0000ull;
  const std::uint64_t bits = (key & kSign) != 0 ? key & ~kSign : ~key;
  double value;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

/// One order statistic to resolve: the `rank`-th smallest key (0-based,
/// relative to the pool currently being refined) goes to out[slot].
struct SelectTarget {
  std::size_t rank;
  std::size_t slot;
};

/// Per-thread refinement arenas, one per radix level, so repeated
/// selections (one per trace per snapshot) allocate nothing once warm.
std::array<std::vector<std::uint64_t>, 9>& select_pools() {
  thread_local std::array<std::vector<std::uint64_t>, 9> pools;
  return pools;
}

/// Resolves every target's order statistic within `pool` by MSB-first
/// radix refinement: one branch-free counting pass per level, then each
/// target group descends into its digit's (much smaller) bucket.  The
/// level's digit position comes from the pool's min/max keys — the byte
/// holding the highest bit of min^max — so shared prefixes (one
/// sign/exponent cluster, the common shape for same-magnitude amplitudes)
/// are skipped wholesale and every histogram is guaranteed to split the
/// pool.  Unlike comparison selection (nth_element), the per-element work
/// is a fixed shift/increment with no data-dependent branches, so the
/// cost per element is flat in both the input size and the data —
/// introselect's partition branches mispredict on real amplitude data the
/// moment the trace outgrows what the branch predictor memorizes across
/// benchmark iterations (DESIGN.md §12).  Each level consumes one byte of
/// key, so the recursion is at most 8 levels deep and O(n) per level over
/// geometrically shrinking pools.
void select_keys(std::vector<std::uint64_t>& pool, std::uint64_t min_key,
                 std::uint64_t max_key, int depth,
                 std::vector<SelectTarget>& targets, std::uint64_t* out,
                 std::size_t target_begin, std::size_t target_end) {
  if (min_key == max_key) {
    for (std::size_t t = target_begin; t < target_end; ++t) {
      out[targets[t].slot] = min_key;
    }
    return;
  }
  if (pool.size() <= 32) {
    std::sort(pool.begin(), pool.end());
    for (std::size_t t = target_begin; t < target_end; ++t) {
      out[targets[t].slot] = pool[targets[t].rank];
    }
    return;
  }
  const int shift = 8 * ((63 - std::countl_zero(min_key ^ max_key)) / 8);
  std::uint32_t hist[256] = {};
  for (const std::uint64_t key : pool) ++hist[(key >> shift) & 0xFFu];
  // Targets are rank-ascending, so each digit's targets are contiguous;
  // rebase their ranks into the bucket and descend per digit group.
  std::size_t before = 0;  // keys in buckets below the current digit
  std::size_t t = target_begin;
  for (std::size_t digit = 0; digit < 256 && t < target_end; ++digit) {
    if (hist[digit] == 0) continue;
    const std::size_t group_begin = t;
    while (t < target_end && targets[t].rank < before + hist[digit]) {
      targets[t].rank -= before;
      ++t;
    }
    if (t > group_begin) {
      std::vector<std::uint64_t>& bucket = select_pools()[depth];
      bucket.clear();
      std::uint64_t bucket_min = ~std::uint64_t{0};
      std::uint64_t bucket_max = 0;
      for (const std::uint64_t key : pool) {
        if (((key >> shift) & 0xFFu) == digit) {
          bucket.push_back(key);
          bucket_min = std::min(bucket_min, key);
          bucket_max = std::max(bucket_max, key);
        }
      }
      select_keys(bucket, bucket_min, bucket_max, depth + 1, targets, out,
                  group_begin, t);
    }
    before += hist[digit];
  }
}

}  // namespace

Quartiles quartiles_select(std::span<const double> values) {
  require(!values.empty(), "stats::quartiles: empty input");
  const std::size_t n = values.size();
  if (n == 1) return {values.front(), values.front(), values.front()};
  // Below this size the radix machinery's fixed costs (key transform,
  // 1 KiB histogram clears, per-target bucket extraction) exceed simple
  // comparison selection, and an input this small cannot mispredict its
  // way to superlinear cost.  A full sort resolves every rank at once
  // (measured faster at this size than chained per-rank nth_element,
  // whose repeated partitions revisit the suffix once per distinct
  // rank), and then quartiles_sorted *is* the reference path — no rank
  // arithmetic of our own, so not even setup cost.  Either path resolves
  // the same multiset values, so the returned bits are identical and the
  // crossover is purely a tuning constant.
  constexpr std::size_t kRadixMinN = 256;
  if (n < kRadixMinN) {
    thread_local std::vector<double> buf;
    buf.resize(n);
    std::memcpy(buf.data(), values.data(), n * sizeof(double));
    std::sort(buf.begin(), buf.end());
    return quartiles_sorted(buf);
  }
  // The six order statistics behind Q1/Q2/Q3 under R-7 rank arithmetic
  // (floor and ceil of each h; ceil == floor when h is integral),
  // deduplicated into ascending distinct ranks.
  double h[3];
  std::size_t need[6];
  for (int k = 0; k < 3; ++k) {
    h[k] = static_cast<double>(n - 1) * (static_cast<double>(k + 1) * 0.25);
    need[2 * k] = static_cast<std::size_t>(std::floor(h[k]));
    need[2 * k + 1] = static_cast<std::size_t>(std::ceil(h[k]));
  }
  std::size_t uniq[6];
  std::copy(need, need + 6, uniq);
  std::sort(uniq, uniq + 6);
  std::size_t* uniq_end = std::unique(uniq, uniq + 6);
  const auto num_ranks = static_cast<std::size_t>(uniq_end - uniq);

  double at[6];
  // One radix multi-select resolves every distinct rank: each target
  // group descends into its digit's bucket, sharing counting passes.
  std::vector<SelectTarget> targets;
  targets.reserve(num_ranks);
  for (std::size_t t = 0; t < num_ranks; ++t) targets.push_back({uniq[t], t});
  std::uint64_t resolved[6];
  std::vector<std::uint64_t>& pool = select_pools()[8];
  pool.resize(n);
  std::uint64_t min_key = ~std::uint64_t{0};
  std::uint64_t max_key = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = order_key(values[i]);
    pool[i] = key;
    min_key = std::min(min_key, key);
    max_key = std::max(max_key, key);
  }
  select_keys(pool, min_key, max_key, 0, targets, resolved, 0, targets.size());
  for (std::size_t s = 0; s < 6; ++s) {
    const std::size_t* rank = std::find(uniq, uniq_end, need[s]);
    at[s] = key_value(resolved[static_cast<std::size_t>(rank - uniq)]);
  }
  // The exact percentile_sorted interpolation expression on the resolved
  // order statistics — bit-identical to sorting first.
  Quartiles q;
  q.q1 = at[0] + (h[0] - std::floor(h[0])) * (at[1] - at[0]);
  q.q2 = at[2] + (h[1] - std::floor(h[1])) * (at[3] - at[2]);
  q.q3 = at[4] + (h[2] - std::floor(h[2])) * (at[5] - at[4]);
  return q;
}

std::vector<CdfPoint> empirical_cdf(std::span<const double> values) {
  require(!values.empty(), "stats::empirical_cdf: empty input");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CdfPoint> cdf;
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const bool last_of_run =
        i + 1 == sorted.size() || sorted[i + 1] != sorted[i];
    if (last_of_run) {
      cdf.push_back({sorted[i], static_cast<double>(i + 1) / n});
    }
  }
  return cdf;
}

std::vector<std::size_t> indices_above(std::span<const double> values,
                                       double threshold) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] > threshold) result.push_back(i);
  }
  return result;
}

std::vector<std::size_t> competition_ranks(std::span<const double> values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<std::size_t> ranks(values.size(), 0);
  std::size_t position = 0;
  while (position < order.size()) {
    std::size_t run_end = position;
    while (run_end + 1 < order.size() &&
           values[order[run_end + 1]] == values[order[position]]) {
      ++run_end;
    }
    for (std::size_t i = position; i <= run_end; ++i) {
      ranks[order[i]] = position + 1;  // ties share the lowest rank of the run
    }
    position = run_end + 1;
  }
  return ranks;
}

}  // namespace edx::stats
