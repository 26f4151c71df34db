// The traced layer replay: re-runs a workload's generated uploads through
// the core and store public functions the service calls on the upload
// path, one span per call, batched the way the untraced run was.  Gives
// per-call means of the stages an outside benchmark cannot time inside
// FleetService.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct ReplayUpload {
  std::size_t tenant{0};
  const edx::trace::TraceBundle* bundle{nullptr};
  std::uint64_t id{0};  ///< submission id in the measured run
};

struct ReplayInput {
  std::span<const TenantInputs> tenants;
  /// Per tenant: uploads applied (untimed) before the replay, so the
  /// analyzers start from the fleets the measured run started from.
  std::vector<std::vector<const edx::trace::TraceBundle*>> prefill;
  /// Timed uploads in send order.
  std::vector<ReplayUpload> uploads;
  /// Uploads per service batch in the measured run (submitted / batches).
  double uploads_per_batch{1.0};
  /// Tenant index of each report read the measured run made.
  std::vector<std::size_t> reads;
  /// Scratch ShardStore directory for the store stages.
  std::string store_dir;
};

/// ReplayInput::prefill for workloads prefilled with campaign 0.
std::vector<std::vector<const edx::trace::TraceBundle*>> first_campaign(
    std::span<const TenantInputs> tenants);

/// Per-call means, in microseconds unless the name says otherwise.
struct ReplayStats {
  double step1_us{0}, apply_us{0}, publish_us{0}, render_us{0};
  double encode_us{0}, append_us{0}, flush_us{0};
  double open_ms{0}, decode_us{0};
  double instances_per_upload{0};
  double wal_bytes_per_upload{0};
  std::size_t uploads{0}, store_uploads{0}, batches{0}, publishes{0};
  std::size_t renders{0}, opens{0};
};

/// Replays `input` into fresh per-tenant FleetAnalyzers and one scratch
/// ShardStore (FsyncPolicy::kAlways), recording spans into `log`.
ReplayStats replay_layers(const ReplayInput& input, SpanLog& log);

/// The per-layer numbers that come from the measured service run rather
/// than from the replay.
struct ServiceLayer {
  double submit_us{0};
  double snapshot_us{0};
  double uploads_per_batch{0};
  double publishes_per_upload{0};
  double staleness_p99{0};
  double fsyncs_per_batch{0};
  double gen_late_p99_ms{0};
  double trace_overhead_ms{0};
  double residual_ms{0};
};

/// Every per-layer metric, in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const ReplayStats& replay,
                                  const ServiceLayer& service);

/// One blocking stage of an end-to-end op: its share of the op's mean.
struct Stage {
  std::string name;
  double calls_per_op{0};
  double per_call_us{0};
};

/// residual() over `stages`, with one printed line per stage appended to
/// `notes` so the breakdown can be checked by hand.
double stage_residual_ms(double end_to_end_mean_ms,
                         std::span<const Stage> stages,
                         std::vector<std::string>& notes);

}  // namespace perfbench
