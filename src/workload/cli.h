// The `energydx` command-line tool's commands, as library functions so the
// test suite can drive them against temp directories.
//
//   energydx catalog
//   energydx instrument <in.apk.txt> <out.apk.txt>
//   energydx simulate <app-id> <out-dir> [--users N] [--seed S]
//   energydx analyze (<trace-dir> | --store DIR) [--app ID]
//                    [--reported-fraction F] [--json] [--threads N]
//                    [--incremental] [--report-every K]
//   energydx ingest --store DIR [<bundle.txt-or-dir> ...]
//                   [--app ID --users N --seed S] [--compact]
//                   [--tenant KEY] [--shards N]
//                   [--fsync-policy always|group|group:<us>|none]
//                   [--segment-bytes N] [--compress]
//   energydx store-info --store DIR
//   energydx verify <app-id> [--users N] [--seed S]
//   energydx gen-training <builtin-device> <out.csv> [--levels N] [--noise F]
//   energydx calibrate <samples.csv> <device-name>
//   energydx serve --apps ID[,ID,...] [--users N] [--seed S] [--shards N]
//                  [--writers N] [--threads N] [--hot-fanout N]
//                  [--store-root DIR]
//                  [--fsync-policy always|group|group:<us>|none]
//                  [--segment-bytes N] [--compress]
//                  [--reported-fraction F] [--json]
//   energydx loadgen (--workload NAME | --spec FILE) [--rate R]
//                    [--duration MS] [--threads N] [--seed S]
//                    [--shards N] [--store-root DIR] [--out FILE]
//
// Every subcommand shares one flag parser (`--name value` or
// `--name=value`); repeating a named flag is a usage error (exit 2), not
// a silent last-wins.  The pre-redesign positional option forms —
// `simulate <app-id> <dir> [users] [seed]`, `verify <app-id> [users]
// [seed]`, `gen-training <device> <out.csv> [levels] [noise]`, `analyze
// <dir> [app-id] [reported-fraction]` — were deprecated (warning-only)
// in PR 3 and are REMOVED as of PR 8: passing one is now a usage error
// (exit 2) whose message names the --flag spelling to migrate to.
//
// `serve` runs the multi-tenant service/fleet_service.h end to end:
// one simulated population per catalog app in --apps, submitted through
// --writers concurrent threads onto --shards ingest shards, then (after
// a drain barrier) one diagnosis report per app.  The report body is
// byte-identical to `analyze` over the same population — the service's
// equivalence contract.  --hot-fanout > 1 marks every app hot (fleet-key
// range fan-out); --store-root makes the service durable over a
// PARTITIONED store — one tenant-tagged ShardStore per ingest shard at
// <root>/shard-<i> (shard count pinned by <root>/layout.edx), so a
// multi-tenant ingest batch costs one fsync per shard, not one per
// tenant; --fsync-policy/--segment-bytes/--compress tune those stores
// exactly as they tune ingest's.
//
// `loadgen` is the declarative SLO harness (src/loadgen/): a
// WorkloadSpec — a built-in mix from the WorkloadFactory (--workload
// ingest-heavy | read-heavy | reupload-churn | mixed) or a spec file
// (--spec examples/steady_mixed.workload; malformed specs exit 3 with
// the offending line) — drives the FleetService through per-stream
// deterministic op sequences and reports per-op latency percentiles,
// achieved vs offered rate, snapshot staleness, and one PASS/FAIL per
// SLO the spec declares.  --rate retargets an open-loop spec (and
// converts a closed-loop one to open-poisson); --duration switches to
// (or rescales) a timed run; --seed and --threads override the spec's
// master seed and the driver thread count; --out additionally writes
// the machine-readable results JSON perf_smoke.py gates.  Exits 1 when
// any SLO fails.
//
// The durable store (store/shard_store.h) has one on-disk format: a
// partitioned root, layout.edx (the pinned shard count) plus one
// tenant-tagged shard store per shard-<i>/ subdirectory — the same root
// `serve --store-root` recovers.  `ingest` appends bundles into it as
// tenant --tenant (default "default"), on that tenant's home shard —
// from bundle files / trace directories given as operands, and/or a
// simulated population (--app) — under a chosen group-commit fsync
// policy, optionally with per-frame compression, optionally compacting
// afterwards (the compaction runs on the store's background thread;
// ingest waits for it before reporting).  --shards N sets the shard
// count of a new root.  `analyze --store DIR` recovers tenant "default"
// (newest valid snapshot + WAL segments, --threads segment decoders,
// tolerating a torn tail): the snapshotted bundles warm-start
// core::FleetAnalyzer from the stored Step-1 state, and the report is
// byte-identical to a never-restarted run over the same uploads.
// `store-info` prints one block per shard: its tenants, snapshot
// coverage, WAL replay counts, per-segment recovery diagnostics with
// per-tenant record counts, manifest status, tail state, and compaction
// state.  A torn-but-salvaged tail is a diagnostic, not an error.  A
// root holding store files outside shard-<i>/ directories, or files in
// an older format version, is refused with an error that asks for a
// re-ingest; old formats are never migrated or repaired.
//
// Exit codes — run() maps exceptions to error classes via exit_code_for():
//   0  success
//   1  any other error (I/O failures, internal errors)
//   2  usage error / edx::InvalidArgument (unknown command or flag,
//      missing operand, out-of-range value)
//   3  edx::ParseError (malformed trace bundle, APK blob or CSV input)
//   4  edx::AnalysisError (the traces cannot support the requested
//      analysis, e.g. an empty fleet snapshot)
//   5  `verify` ran cleanly but could not confirm the fix (a domain
//      verdict, not an error)
//
// APKs are the packed textual artifacts of android/apk.h; trace
// directories hold one `bundle_<user>.txt` per phone (trace/recorder.h
// format).  `analyze` runs the 5-step pipeline over every bundle found;
// with `--incremental` it feeds them to core::FleetAnalyzer in filename
// (arrival) order instead, emitting an intermediate report every
// `--report-every K` arrivals and the final report last — byte-identical
// to the batch report over the same bundles.  Calibration samples are CSV
// rows "cpu,display,wifi,cellular,gps,audio,sensor,power_mw".
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace edx::workload::cli {

/// Exit code for a failure `run()` caught: 2 for InvalidArgument, 3 for
/// ParseError, 4 for AnalysisError, 1 for anything else (see the table
/// above).  The single place main's exception-to-exit-code policy lives.
int exit_code_for(const std::exception& failure);

/// Prints the Table III catalog (id, name, root cause, size).
int cmd_catalog(std::ostream& out);

/// Instruments a packed APK file.  Returns 0 on success.
int cmd_instrument(const std::string& in_path, const std::string& out_path,
                   std::ostream& out);

/// Simulates a population for catalog app `app_id` and writes one bundle
/// file per user into `out_dir` (created if missing).
int cmd_simulate(int app_id, const std::string& out_dir, int users,
                 std::uint64_t seed, std::ostream& out);

/// How `cmd_analyze` should run; defaults mirror `energydx analyze <dir>`
/// with no flags.
struct AnalyzeOptions {
  /// Catalog app for code lines + reduction in the report.
  std::optional<int> app_id;
  /// Developer-reported impacted-user fraction.  Absent = self-estimate
  /// (the share of traces with a detected manifestation point).
  std::optional<double> reported_fraction;
  bool as_json{false};
  /// Worker threads (0 = hardware concurrency, 1 = sequential); with
  /// --store, also the parallel segment-decode width during recovery.
  /// The report is identical either way.
  std::size_t num_threads{0};
  /// Feed bundles one at a time to the incremental FleetAnalyzer instead
  /// of one batch ManifestationAnalyzer::run.  The final report is
  /// byte-identical to the batch report.
  bool incremental{false};
  /// With `incremental`: also emit an intermediate fleet report after
  /// every K arrivals (0 = final report only).
  std::size_t report_every{0};
  /// Analyze tenant kDefaultTenant of a durable store root instead of a
  /// directory of bundle_*.txt files.  Mutually exclusive with a
  /// trace-dir operand and with report_every (the store replays the
  /// deduplicated fleet, not the original arrival sequence).
  std::optional<std::string> store_dir;
};

/// The tenant `ingest --store` appends as without --tenant, and the one
/// `analyze --store` reads.
inline constexpr char kDefaultTenant[] = "default";

/// Analyzes every bundle_*.txt in `trace_dir` (sorted filename order ==
/// arrival order), or — when `options.store_dir` is set and `trace_dir`
/// empty — the fleet recovered from that durable store root.
int cmd_analyze(const std::string& trace_dir, const AnalyzeOptions& options,
                std::ostream& out);

/// How `cmd_ingest` fills a durable store.
struct IngestOptions {
  /// A partitioned store root (layout.edx + shard-<i>/ subdirectories),
  /// created when missing.
  std::string store_dir;
  /// Ingest as this tenant: bundles are routed to the tenant's shard
  /// exactly as a serving FleetService would, so `serve --store-root`
  /// recovers them.
  std::string tenant{kDefaultTenant};
  /// Shard count when ingest creates a fresh root (0 = 1 shard).  An
  /// existing layout.edx pins the count; contradicting it is an error.
  std::size_t shards{0};
  /// Bundle files (trace/recorder.h text format) and/or directories of
  /// bundle_*.txt, appended in the given order (directories in sorted
  /// filename order).
  std::vector<std::string> sources;
  /// When set, additionally simulates a population for this catalog app
  /// and appends its bundles (after `sources`).
  std::optional<int> app_id;
  int users{30};
  std::uint64_t seed{42};
  /// Fold the WAL into a fresh snapshot after ingesting (runs on the
  /// store's background compaction thread; cmd_ingest waits for it).
  bool compact{false};
  /// WAL durability: "always", "group", "group:<microseconds>", "none".
  std::string fsync_policy{"group"};
  /// Segment roll size in bytes (0 = the store default, 8 MiB).
  std::size_t segment_bytes{0};
  /// Write compressed WAL frames when compression actually shrinks them.
  bool compress{false};
};

/// Appends bundles into the store at `options.store_dir` (created if
/// missing), honoring replace-not-duplicate fleet keys.
int cmd_ingest(const IngestOptions& options, std::ostream& out);

/// Prints, for each shard of the store root at `store_dir`, its tenants,
/// record counts, snapshot seq, and salvage diagnostics.
int cmd_store_info(const std::string& store_dir, std::ostream& out);

/// Writes a component-sweep calibration workload for one built-in device
/// ("Nexus 6", "Moto G", ...) as CSV, with optional measurement noise.
int cmd_gen_training(const std::string& device_name,
                     const std::string& out_path, std::size_t levels,
                     double noise, std::ostream& out);

/// Fits a power model to a calibration CSV and prints the profile.
int cmd_calibrate(const std::string& csv_path, const std::string& device_name,
                  std::ostream& out);

/// Post-fix validation for a catalog app: re-runs the same population on
/// the buggy and fixed builds and reports whether the manifestation is
/// gone and the power dropped.  Returns 0 when the fix is confirmed, 5
/// when it is not.
int cmd_verify(int app_id, int users, std::uint64_t seed, std::ostream& out);

/// How `cmd_serve` drives the multi-tenant FleetService.
struct ServeOptions {
  /// Catalog app ids; each becomes one tenant keyed "app-<id>".
  std::vector<int> app_ids;
  int users{30};
  std::uint64_t seed{42};
  /// Ingest shards (0 = auto: one per hardware thread, capped at 4).
  std::size_t shards{0};
  /// Concurrent writer threads splitting the interleaved arrival stream.
  std::size_t writers{1};
  /// > 1 marks every app hot and fans its fleet keys over this many
  /// consecutive shards.
  std::size_t hot_fanout{1};
  /// Per-shard Step-1 pool width (1 = join inline on the worker).
  std::size_t step1_threads{1};
  /// Fixed developer-reported fraction; absent = self-estimate (the
  /// analyze default).
  std::optional<double> reported_fraction;
  bool as_json{false};
  /// Non-empty: a durable partitioned store — one tenant-tagged
  /// ShardStore per ingest shard under <store_root>/shard-<i>, one
  /// group-commit fsync per shard per ingest batch.  A root in an old
  /// on-disk format is refused.
  std::string store_root;
  /// WAL durability for the shard stores: "always", "group",
  /// "group:<microseconds>", "none".
  std::string fsync_policy{"group"};
  /// Segment roll size in bytes (0 = the store default, 8 MiB).
  std::size_t segment_bytes{0};
  /// Write compressed WAL frames when compression actually shrinks them.
  bool compress{false};
};

/// Simulates one population per app, serves the interleaved arrivals
/// through the FleetService, drains, and prints each tenant's report
/// (byte-identical to `analyze` over the same population) plus service
/// counters.
int cmd_serve(const ServeOptions& options, std::ostream& out);

/// How `cmd_loadgen` resolves and runs a workload (src/loadgen/).
struct LoadgenOptions {
  /// Exactly one of workload (a WorkloadFactory name) or spec_path (an
  /// examples/*.workload file) must be set.
  std::string workload;
  std::string spec_path;
  /// Override the spec's open-loop target rate (ops/s); a closed-loop
  /// spec becomes open-poisson at this rate.
  std::optional<double> rate;
  /// Run timed for this long (ms) instead of the spec's fixed op
  /// budget; with spec phases, rescales their total to this duration.
  std::optional<std::uint64_t> duration_ms;
  /// Driver threads (0 = one per stream, capped at hardware threads).
  std::size_t threads{0};
  /// Override the spec's master seed.
  std::optional<std::uint64_t> seed;
  /// Ingest shards for the FleetService under test (0 = auto).
  std::size_t shards{0};
  /// Non-empty: the service runs store-backed — a partitioned store at
  /// this root, one ShardStore per shard (the durable-ingest variant of
  /// the workload).
  std::string store_root;
  /// Non-empty: also write the results JSON here (the document
  /// tools/perf_smoke.py --loadgen-results gates).
  std::string out_path;
};

/// Runs the workload against a fresh FleetService and prints the
/// summary (per-op percentiles, achieved vs offered rate, SLO
/// verdicts).  Returns 0 when every declared SLO passed, 1 otherwise.
int cmd_loadgen(const LoadgenOptions& options, std::ostream& out);

/// Dispatch from argv (excluding the program name).  Returns the exit code.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace edx::workload::cli
