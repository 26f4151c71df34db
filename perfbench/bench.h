// Shared pieces of the upload-path benchmark: run options, metrics, the
// span log, generated inputs, and the output checks every workload uses.
// Each workload drives service::FleetService from outside, exactly as a
// client would; the traced run (replay.cpp) times calls into the core,
// store and service public functions from this directory's code only.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench_math.h"
#include "service/fleet_service.h"
#include "trace/recorder.h"
#include "workload/catalog.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRuns = 5;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Scratch directory (inside the checkout) for store roots and spans.
  std::string work_dir;

  /// Length of one timed phase.  A traced run times an untraced and a
  /// traced phase (their difference is the tracing overhead), each half
  /// as long, so it holds no more uploads in memory than an untraced run.
  [[nodiscard]] double phase_seconds() const {
    return trace ? seconds / 2 : seconds;
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
  /// Samples behind the value (0 for a count or a ratio).
  std::size_t samples{0};
  /// The percentile the value is, or 0 when it is not one.
  double percentile{0};
  /// Samples per window of a windowed percentile (windowed_percentile).
  std::size_t window{0};
  /// What the metric is on this workload, for the printed table.
  std::string what;
};

/// Percentile `p` of one kind of op, from its samples in time order,
/// windowed by the smallest sample count that supports the op's reported
/// tail percentile `tail_p` (so each window supports every percentile
/// reported for the op).
inline Metric percentile_metric(std::string name, std::string unit,
                                const std::vector<double>& samples, double p,
                                double tail_p, std::string what) {
  const std::size_t window = min_samples_for(tail_p);
  return {std::move(name),
          std::move(unit),
          windowed_percentile(samples, p, window),
          samples.size(),
          p,
          std::min(window, samples.size()),
          std::move(what)};
}

/// Everything a workload hands back to main().
struct WorkloadReport {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Lines of the printed table that are not metrics (stage breakdown,
  /// counters read in the untraced run).
  std::vector<std::string> notes;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// One line per failed check; any entry makes the run incorrect.
  std::vector<std::string> problems;
};

WorkloadReport run_gateway_ack(const RunOptions& options);
WorkloadReport run_dashboard_live(const RunOptions& options);
WorkloadReport run_restart(const RunOptions& options);

// ---------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------

/// One timed call: name, start, end, the span that caused it (0 = none)
/// and the upload it belongs to (0 = none).  Ids are 1-based indices into
/// the owning SpanLog.
struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint32_t parent{0};
  std::uint64_t upload{0};
};

/// Spans of one thread, kept in memory until the run writes them out.
/// A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint64_t upload = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, now_ns(), 0, parent, upload});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  /// Mean duration in microseconds of the spans called `name`, and how
  /// many there were.
  [[nodiscard]] std::pair<double, std::size_t> mean_us(
      std::string_view name) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Times one call into `log` for the enclosing scope.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint32_t parent = 0,
            std::uint64_t upload = 0)
      : log_(log), id_(log.begin(name, parent, upload)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { log_.end(id_); }
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Merges per-thread logs (renumbering ids) and writes one JSON line per
/// span to `path`.  Returns the number of spans written.
std::size_t write_spans(const std::string& path,
                        std::span<const SpanLog* const> logs);

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// One tenant's generated uploads: `variants[v][u]` is user u's bundle in
/// campaign v.  Every campaign simulates the same users (same fleet keys)
/// with its own seed, so a re-upload from another campaign replaces the
/// user's earlier trace with a different one.
struct TenantInputs {
  edx::service::AppKey key;
  std::vector<std::vector<edx::trace::TraceBundle>> variants;

  [[nodiscard]] std::size_t users() const { return variants.front().size(); }
};

/// Runs the paper's population simulator (workload::collect_traces) for
/// each app: `campaigns` campaigns of `users` users with
/// `sessions_per_user` chained sessions, all seeded from `seed`.
std::vector<TenantInputs> generate_tenants(
    std::span<const edx::workload::AppCase> apps, int users,
    int sessions_per_user, int campaigns, std::uint64_t seed);

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// The text report a batch core::ManifestationAnalyzer::run gives over
/// `applied` (latest upload per user, in applied order), rendered with the
/// service's self-estimated reported fraction.  What report(app) must
/// byte-equal.
std::string reference_report(
    std::span<const edx::trace::TraceBundle* const> applied);

/// Maps service submission ids to the bundles submitted under them.
class SubmissionLog {
 public:
  void record(std::uint64_t id, const edx::trace::TraceBundle* bundle);
  void merge(const SubmissionLog& other);
  /// nullptr for an id never recorded.
  [[nodiscard]] const edx::trace::TraceBundle* find(std::uint64_t id) const;

 private:
  std::vector<const edx::trace::TraceBundle*> by_id_;
};

/// Submits campaign 0 of every tenant's fleet (one submit_batch each),
/// records the ids in `log`, and drains.
void prefill(edx::service::FleetService& service,
             std::span<const TenantInputs> tenants, SubmissionLog& log);

/// Publications so far, summed over every tenant (Σ epoch).
std::uint64_t epoch_sum(const edx::service::ServiceStats& stats);

/// Checks every tenant's report(app) against reference_report over its
/// applied_log; appends a problem line per mismatch and returns the
/// number of tenants checked.
std::size_t check_reports(const edx::service::FleetService& service,
                          std::span<const TenantInputs> tenants,
                          const SubmissionLog& log,
                          std::vector<std::string>& problems);

// ---------------------------------------------------------------------
// Process and files
// ---------------------------------------------------------------------

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Total size of the files in `root` (recursively) whose names start with
/// `prefix`.
std::uint64_t file_bytes(const std::string& root, std::string_view prefix);

/// Copies the directory tree `from` to `to` (replacing it) and fsyncs
/// every copied file, so a timed open of the copy does not pay for the
/// copy's own writeback.
void copy_tree_durably(const std::string& from, const std::string& to);

/// A fresh empty directory at `path` (removed first if present).
void reset_dir(const std::string& path);

/// "setup runs (s): ..." — every repetition behind setup_s.
std::string setup_note(const std::vector<double>& setup_s);

/// Formats a double with enough digits to round-trip.
std::string format_number(double value);

}  // namespace perfbench
