#include "workload/cli.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "android/apk.h"
#include "android/instrumenter.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/fleet_analyzer.h"
#include "core/pipeline.h"
#include "core/report_io.h"
#include "loadgen/driver.h"
#include "loadgen/workload_factory.h"
#include "loadgen/workload_spec.h"
#include "power/calibration.h"
#include "service/fleet_service.h"
#include "service/shard_router.h"
#include "store/shard_store.h"
#include "workload/catalog.h"
#include "workload/experiment.h"
#include "workload/session.h"

namespace edx::workload::cli {

namespace fs = std::filesystem;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path);
  out << content;
}

/// The one flag parser every subcommand shares.  Splits the args after
/// the command word into named flags (`--name value` or `--name=value`)
/// and positional operands; unknown flags are usage errors.  Positional
/// operands past the required ones — the pre-redesign argument forms,
/// deprecated-with-a-warning since PR 3 — are now usage errors (exit 2)
/// carrying the named-flag migration hint.
class FlagSet {
 public:
  FlagSet(std::string command, const std::vector<std::string>& args,
          std::initializer_list<std::string_view> value_flags,
          std::initializer_list<std::string_view> switch_flags)
      : command_(std::move(command)) {
    const auto known = [](std::initializer_list<std::string_view> flags,
                          std::string_view name) {
      return std::find(flags.begin(), flags.end(), name) != flags.end();
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (!arg.starts_with("--")) {
        positionals_.push_back(arg);
        continue;
      }
      std::string name = arg;
      std::optional<std::string> inline_value;
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        name = arg.substr(0, eq);
        inline_value = arg.substr(eq + 1);
      }
      if (known(switch_flags, name)) {
        if (inline_value.has_value()) {
          throw InvalidArgument(command_ + ": " + name + " takes no value");
        }
        if (!switches_.insert(name).second) {
          throw InvalidArgument(command_ + ": duplicate flag '" + name +
                                "'");
        }
      } else if (known(value_flags, name)) {
        if (!inline_value.has_value()) {
          if (i + 1 >= args.size()) {
            throw InvalidArgument(command_ + ": " + name + " needs a value");
          }
          inline_value = args[++i];
        }
        if (!values_.emplace(name, *inline_value).second) {
          throw InvalidArgument(command_ + ": duplicate flag '" + name +
                                "' (it was already given)");
        }
      } else {
        throw InvalidArgument(command_ + ": unknown flag '" + name + "'");
      }
    }
  }

  [[nodiscard]] bool has_switch(const std::string& name) const {
    return switches_.contains(name);
  }
  [[nodiscard]] std::optional<std::string> value(
      const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::size_t positional_count() const {
    return positionals_.size();
  }
  /// Operand at `index`, or a usage error mentioning `what`.
  [[nodiscard]] const std::string& required_positional(
      std::size_t index, const std::string& what) const {
    if (index >= positionals_.size()) {
      throw InvalidArgument(command_ + " needs " + what);
    }
    return positionals_[index];
  }
  /// Rejects operands past the `allowed` required ones.  These were the
  /// pre-redesign positional option forms (PR 3 demoted them to a
  /// deprecation warning); a command that still passes one exits 2 with
  /// the named-flag migration `hint`.
  void reject_extra_positionals(std::size_t allowed,
                                const std::string& hint) const {
    if (positionals_.size() > allowed) {
      throw InvalidArgument(command_ +
                            ": positional option arguments were removed; "
                            "use " +
                            hint + " (energydx help)");
    }
  }

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> values_;
  std::set<std::string> switches_;
};

/// Integer flag/operand parsing with range validation; failures are usage
/// errors (exit code 2), not std::invalid_argument aborts.
std::int64_t to_int(const std::string& text, const std::string& what,
                    std::int64_t lo, std::int64_t hi) {
  std::int64_t parsed = 0;
  std::string_view view(text);
  if (!strings::consume_int64(view, parsed) || !view.empty() || parsed < lo ||
      parsed > hi) {
    throw InvalidArgument(what + " needs an integer in [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "], got '" + text + "'");
  }
  return parsed;
}

double to_double(const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw InvalidArgument(what + " needs a number, got '" + text + "'");
  }
}

}  // namespace

int exit_code_for(const std::exception& failure) {
  // Ordered by specificity: ParseError / AnalysisError / InvalidArgument
  // are sibling subclasses of edx::Error, anything else is "other".
  if (dynamic_cast<const ParseError*>(&failure) != nullptr) return 3;
  if (dynamic_cast<const AnalysisError*>(&failure) != nullptr) return 4;
  if (dynamic_cast<const InvalidArgument*>(&failure) != nullptr) return 2;
  return 1;
}

int cmd_catalog(std::ostream& out) {
  out << "id  name               root-cause     lines\n";
  for (const AppCase& app : full_catalog()) {
    out << app.id << (app.id < 10 ? "   " : "  ") << app.display_name;
    for (std::size_t i = app.display_name.size(); i < 19; ++i) out << ' ';
    std::string kind(abd_kind_name(app.kind));
    out << kind;
    for (std::size_t i = kind.size(); i < 15; ++i) out << ' ';
    out << app.buggy.total_loc() << "\n";
  }
  return 0;
}

int cmd_instrument(const std::string& in_path, const std::string& out_path,
                   std::ostream& out) {
  const android::Instrumenter instrumenter;
  write_file(out_path, instrumenter.instrument_packed(read_file(in_path)));
  out << "instrumented " << instrumenter.last_report().methods_instrumented
      << "/" << instrumenter.last_report().methods_seen << " methods ("
      << instrumenter.last_report().log_points_injected
      << " log points) -> " << out_path << "\n";
  return 0;
}

int cmd_simulate(int app_id, const std::string& out_dir, int users,
                 std::uint64_t seed, std::ostream& out) {
  const std::vector<AppCase> catalog = full_catalog();
  const AppCase& app = catalog_app(catalog, app_id);

  PopulationConfig population;
  population.num_users = users;
  population.seed = seed;
  const CollectedTraces traces =
      collect_traces(app, app.buggy, /*instrumented=*/true, population);

  fs::create_directories(out_dir);
  for (const trace::TraceBundle& bundle : traces.bundles) {
    write_file(out_dir + "/bundle_" + std::to_string(bundle.user) + ".txt",
               bundle.to_text());
  }
  out << "wrote " << traces.bundles.size() << " trace bundles for '"
      << app.display_name << "' to " << out_dir << " (trigger fraction "
      << traces.trigger_fraction_actual << ")\n";
  return 0;
}

namespace {

/// bundle_*.txt paths in sorted filename order — the fleet's arrival
/// order.  Throws InvalidArgument when there are none.
std::vector<std::string> bundle_paths(const std::string& trace_dir) {
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(trace_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("bundle_") && name.ends_with(".txt")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    throw InvalidArgument("no bundle_*.txt files in " + trace_dir);
  }
  return paths;
}

/// Renders one diagnosis report exactly like the batch path does.
void render_report(const core::DiagnosisReport& report,
                   const AnalyzeOptions& options, double reported_fraction,
                   std::ostream& out) {
  std::optional<core::CodeMap> code_map;
  core::ReportRenderOptions render;
  render.developer_reported_fraction = reported_fraction;
  if (options.app_id.has_value()) {
    const std::vector<AppCase> catalog = full_catalog();
    const AppCase& app = catalog_app(catalog, *options.app_id);
    code_map = core::CodeMap::from_app(app.buggy);
    render.app_name = app.display_name;
  }
  const core::CodeMap* map = code_map ? &*code_map : nullptr;
  out << (options.as_json ? core::report_to_json(report, map, render)
                          : core::report_to_text(report, map, render));
}

/// The analysis config an analyze invocation starts from.
core::AnalysisConfig analysis_config(const AnalyzeOptions& options) {
  core::AnalysisConfig config;
  config.num_threads = options.num_threads;
  if (options.reported_fraction.has_value()) {
    config.reporting.developer_reported_fraction = *options.reported_fraction;
  }
  return config;
}

int analyze_batch_bundles(std::span<const trace::TraceBundle> bundles,
                          const AnalyzeOptions& options, std::ostream& out) {
  const core::AnalysisConfig config = analysis_config(options);
  const core::ManifestationAnalyzer analyzer(config);
  const core::AnalysisResult result = analyzer.run(bundles);
  if (options.reported_fraction.has_value()) {
    render_report(result.report, options,
                  config.reporting.developer_reported_fraction, out);
    return 0;
  }
  // Self-estimate: Steps 1-4 do not depend on the reported fraction, so
  // only the Step-5 report is rebuilt around the estimate.
  core::ReportingConfig reporting = config.reporting;
  reporting.developer_reported_fraction =
      core::self_estimated_fraction(result.traces);
  render_report(core::report_problematic_events(result.traces, reporting),
                options, reporting.developer_reported_fraction, out);
  return 0;
}

/// One fleet report from the analyzer's current state — the shared tail
/// of every incremental path (periodic, final, and store-recovered).
/// Applies the same fraction rule as the batch path: without a given
/// fraction, the report is built around the self-estimate.
void render_fleet_report(core::FleetAnalyzer& fleet,
                         const AnalyzeOptions& options, std::ostream& out) {
  const auto image = fleet.publish(!options.reported_fraction.has_value());
  render_report(image->report, options, image->reported_fraction, out);
}

int analyze_batch(const std::vector<std::string>& paths,
                  const AnalyzeOptions& options, std::ostream& out) {
  std::vector<trace::TraceBundle> bundles;
  bundles.reserve(paths.size());
  for (const std::string& path : paths) {
    bundles.push_back(trace::TraceBundle::from_text(read_file(path)));
  }
  return analyze_batch_bundles(bundles, options, out);
}

int analyze_incremental(const std::vector<std::string>& paths,
                        const AnalyzeOptions& options, std::ostream& out) {
  core::FleetAnalyzer fleet(analysis_config(options));
  for (std::size_t i = 0; i < paths.size(); ++i) {
    fleet.add_bundle(trace::TraceBundle::from_text(read_file(paths[i])));
    const std::size_t arrivals = i + 1;
    const bool last = arrivals == paths.size();
    const bool periodic =
        options.report_every > 0 && arrivals % options.report_every == 0;
    if (!last && !periodic) continue;
    if (!last) {
      out << "== fleet report after " << arrivals << " of " << paths.size()
          << " bundles ==\n";
    }
    render_fleet_report(fleet, options, out);
  }
  return 0;
}

/// Parses the --fsync-policy spelling shared by ingest and the docs.
store::FsyncPolicy parse_fsync_policy(const std::string& text,
                                      std::uint32_t& group_window_us) {
  if (text == "always") return store::FsyncPolicy::kAlways;
  if (text == "none") return store::FsyncPolicy::kNone;
  if (text == "group") return store::FsyncPolicy::kGroup;
  if (text.starts_with("group:")) {
    group_window_us = static_cast<std::uint32_t>(
        to_int(text.substr(6), "--fsync-policy group:<us>", 0, 10'000'000));
    return store::FsyncPolicy::kGroup;
  }
  throw InvalidArgument(
      "--fsync-policy must be always, group, group:<us>, or none (got '" +
      text + "')");
}

/// The shard a non-hot tenant's uploads all land on, as a serving
/// FleetService routes them.
std::size_t home_shard(const std::string& tenant, std::size_t shard_count) {
  return service::ShardRouter(shard_count, 1)
      .route(tenant, /*fleet_key=*/0, false);
}

/// `key`'s row of the store's tenants(); a default row when it has none.
store::TenantInfo stored_tenant(const store::ShardStore& shard_store,
                                const std::string& key) {
  for (const store::TenantInfo& info : shard_store.tenants()) {
    if (info.key == key) return info;
  }
  return {};
}

int analyze_store(const std::string& root, const AnalyzeOptions& options,
                  std::ostream& out) {
  const store::RootInfo info = store::inspect_root(root);
  const std::string home =
      info.kind == store::RootKind::kPartitioned
          ? store::shard_dir(root, home_shard(kDefaultTenant, info.shard_count))
          : std::string();
  if (home.empty() || !fs::is_directory(home)) {
    throw AnalysisError("store at " + root + " holds no bundles");
  }
  store::StoreOptions store_options;
  store_options.recovery_threads = options.num_threads;
  const store::ShardStore recovered =
      store::ShardStore::open(home, store_options);
  const store::TenantInfo stored = stored_tenant(recovered, kDefaultTenant);
  if (stored.fleet_size == 0) {
    throw AnalysisError("store at " + root + " holds no bundles for tenant '" +
                        std::string(kDefaultTenant) + "'");
  }
  // Warm restart: the snapshotted slots re-enter the analyzer through
  // their stored Step-1 state (no power join), the WAL tail through the
  // normal arrival path — the final report is byte-identical to a
  // never-restarted incremental run over the same uploads, and (by the
  // FleetAnalyzer equivalence contract) to a batch run over each user's
  // latest bundle, so --incremental and the default share this one path
  // and byte-identical output.
  core::FleetAnalyzer fleet(analysis_config(options));
  for (core::AnalyzedTrace& analyzed : recovered.snapshot_step1(stored.id)) {
    fleet.add_analyzed(std::move(analyzed));
  }
  for (const store::BundleRef& bundle : recovered.tail_refs(stored.id)) {
    fleet.add_bundle(*bundle);
  }
  render_fleet_report(fleet, options, out);
  return 0;
}

}  // namespace

int cmd_analyze(const std::string& trace_dir, const AnalyzeOptions& options,
                std::ostream& out) {
  if (options.store_dir.has_value()) {
    require(trace_dir.empty(),
            "analyze takes either <trace-dir> or --store, not both");
    require(options.report_every == 0,
            "analyze: --report-every needs a trace directory (a store "
            "replays the deduplicated fleet, not every original arrival)");
    return analyze_store(*options.store_dir, options, out);
  }
  const std::vector<std::string> paths = bundle_paths(trace_dir);
  return options.incremental ? analyze_incremental(paths, options, out)
                             : analyze_batch(paths, options, out);
}

namespace {

/// Feeds every bundle the ingest flags name — operand files/directories
/// first, then the simulated --app population — to `sink` in order, and
/// returns how many there were.
template <typename Sink>
std::size_t each_ingest_bundle(const IngestOptions& options, Sink&& sink) {
  std::size_t appended = 0;
  for (const std::string& source : options.sources) {
    if (fs::is_directory(source)) {
      for (const std::string& path : bundle_paths(source)) {
        sink(trace::TraceBundle::from_text(read_file(path)));
        ++appended;
      }
    } else {
      sink(trace::TraceBundle::from_text(read_file(source)));
      ++appended;
    }
  }
  if (options.app_id.has_value()) {
    const std::vector<AppCase> catalog = full_catalog();
    const AppCase& app = catalog_app(catalog, *options.app_id);
    PopulationConfig population;
    population.num_users = options.users;
    population.seed = options.seed;
    const CollectedTraces traces =
        collect_traces(app, app.buggy, /*instrumented=*/true, population);
    for (const trace::TraceBundle& bundle : traces.bundles) {
      sink(bundle);
      ++appended;
    }
  }
  require(appended > 0,
          "ingest needs bundle files, directories, or --app to simulate");
  return appended;
}

}  // namespace

int cmd_ingest(const IngestOptions& options, std::ostream& out) {
  store::StoreOptions store_options;
  store_options.fsync_policy = parse_fsync_policy(
      options.fsync_policy, store_options.group_window_us);
  if (options.segment_bytes != 0) {
    store_options.segment_target_bytes = options.segment_bytes;
  }
  store_options.compress = options.compress;
  const std::string& root = options.store_dir;
  const std::string& tenant = options.tenant;
  require(!tenant.empty(), "ingest: --tenant needs a non-empty key");
  const store::RootInfo info = store::inspect_root(root);
  std::size_t shard_count = options.shards;
  if (info.kind == store::RootKind::kPartitioned) {
    require(shard_count == 0 || shard_count == info.shard_count,
            "ingest: store root '" + root + "' is partitioned for " +
                std::to_string(info.shard_count) +
                " shard(s); omit --shards or pass the stored count");
    shard_count = info.shard_count;
  }
  if (shard_count == 0) shard_count = 1;
  if (!store::read_layout(root)) {
    fs::create_directories(root);
    store::write_layout(root, shard_count);
  }
  // A non-hot tenant's bundles all land on its home shard, so only that
  // one shard store is opened and written.  Queue asynchronously and make
  // the whole batch durable with one flush(): the group-commit writer
  // packs everything into large writes.
  const std::size_t home = home_shard(tenant, shard_count);
  store::ShardStore shard_store =
      store::ShardStore::open(store::shard_dir(root, home), store_options);
  const store::TenantId id = shard_store.ensure_tenant(tenant);
  const std::size_t appended = each_ingest_bundle(
      options,
      [&](const trace::TraceBundle& bundle) {
        shard_store.append_async(id, bundle);
      });
  shard_store.flush();
  const store::TenantInfo stored = stored_tenant(shard_store, tenant);
  out << "ingested " << appended << " bundles into " << root << " shard-"
      << home << " as tenant '" << tenant << "' (last seq "
      << stored.last_seq << ", fleet " << stored.fleet_size << " users, "
      << shard_count << " shard(s))\n";
  if (options.compact) {
    shard_store.compact();
    out << "compacted into snapshot-" << shard_store.snapshot_seq()
        << ".edx (shard-" << home << ")\n";
  }
  return 0;
}

namespace {

/// One segment-table line ("wal-...edx: seq A..B, N records, ...") with
/// the segment's per-tenant record counts appended.
void print_segment_line(const store::SegmentStats& segment,
                        std::ostream& out) {
  out << "    " << segment.file << ": ";
  if (segment.records == 0) {
    out << "empty";
  } else {
    out << "seq " << segment.base_seq << ".." << segment.last_seq << ", "
        << segment.records << " records";
  }
  out << ", " << segment.bytes << " bytes, "
      << (segment.sealed ? "sealed" : "active");
  if (segment.torn) {
    out << ", torn: " << segment.reason;
  } else if (!segment.reason.empty()) {
    out << ", " << segment.reason;  // not replayed after an early stop
  }
  if (!segment.tenant_records.empty()) {
    out << "; tenants:";
    for (const auto& [key, records] : segment.tenant_records) {
      out << " " << key << "=" << records;
    }
  }
  out << "\n";
}

}  // namespace

int cmd_store_info(const std::string& root, std::ostream& out) {
  require(fs::is_directory(root),
          "store-info: no store directory at " + root);
  const store::RootInfo info = store::inspect_root(root);
  require(info.kind == store::RootKind::kPartitioned,
          "store-info: " + root + " holds no store");
  out << "store root: " << root << " (partitioned, " << info.shard_count
      << " shard(s))\n";
  if (!store::read_layout(root).has_value()) {
    out << "  layout.edx: missing — shard count inferred from the "
           "shard-<i> directories\n";
  }
  std::string read_only;  // the shards that refuse appends
  for (std::size_t s = 0; s < info.shard_count; ++s) {
    const std::string dir = store::shard_dir(root, s);
    if (!fs::is_directory(dir)) {
      out << "shard-" << s << ": no directory yet (nothing routed here)\n";
      continue;
    }
    const store::ShardStore shard_store = store::ShardStore::open(dir);
    const store::RecoveryStats& stats = shard_store.recovery();
    if (!stats.read_only_reason.empty()) {
      read_only += (read_only.empty() ? "shard-" : ", shard-") +
                   std::to_string(s);
    }
    out << "shard-" << s << ": " << shard_store.tenant_count()
        << " tenant(s), last seq "
        << shard_store.last_seq() << ", snapshot seq "
        << shard_store.snapshot_seq() << "\n";
    for (const store::TenantInfo& tenant : shard_store.tenants()) {
      out << "  tenant " << tenant.id << " '" << tenant.key << "': fleet "
          << tenant.fleet_size << " users, tail " << tenant.tail_size
          << ", last seq " << tenant.last_seq << "\n";
    }
    if (stats.snapshot_seq != 0) {
      out << "  snapshot: seq " << stats.snapshot_seq << " covering "
          << stats.snapshot_bundle_count << " bundles";
    } else {
      out << "  snapshot: none";
    }
    out << " (" << stats.snapshots_found << " on disk, "
        << stats.snapshots_skipped << " skipped as corrupt)\n";
    out << "  wal: " << stats.wal_records_replayed << " records replayed, "
        << stats.wal_records_obsolete << " obsolete, "
        << stats.wal_bytes_salvaged << " bytes salvaged\n";
    out << "  segments: " << stats.segments_scanned << " scanned, "
        << stats.segments_salvaged << " salvaged, decoded in "
        << stats.decode_micros << " us\n";
    for (const store::SegmentStats& segment : stats.segments) {
      print_segment_line(segment, out);
    }
    out << "  manifest: " << (stats.manifest_ok ? "ok" : stats.manifest_note)
        << "\n";
    if (stats.wal_tail_torn) {
      out << "  tail: torn — " << stats.wal_tail_reason << " ("
          << stats.wal_bytes_dropped << " bytes dropped";
      if (stats.tail_bytes_truncated > 0) {
        out << ", " << stats.tail_bytes_truncated << " truncated";
      }
      out << (stats.read_only_reason.empty()
                  ? ", repaired on open)\n"
                  : "; read-only: nothing repaired, appends refused)\n");
    } else {
      out << "  tail: clean\n";
    }
    const std::uint64_t behind =
        shard_store.last_seq() - shard_store.snapshot_seq();
    out << "  compaction: "
        << (shard_store.compaction_running()
                ? "running"
                : (behind == 0 ? "idle (snapshot is current)"
                               : "idle (" + std::to_string(behind) +
                                     " records since snapshot)"))
        << "\n";
  }
  out << "verdict: partitioned layout, "
      << (read_only.empty() ? "ready to serve"
                            : "read-only (" + read_only + " stopped replay "
                                  "short of the log's end)")
      << "\n";
  return 0;
}

int cmd_gen_training(const std::string& device_name,
                     const std::string& out_path, std::size_t levels,
                     double noise, std::ostream& out) {
  const power::Device* device = nullptr;
  static const std::vector<power::Device> kFleet = power::builtin_devices();
  for (const power::Device& candidate : kFleet) {
    if (candidate.name() == device_name) device = &candidate;
  }
  if (device == nullptr) {
    throw InvalidArgument("unknown built-in device '" + device_name + "'");
  }
  const auto samples =
      power::generate_training_samples(*device, levels, noise, /*seed=*/42);
  std::ostringstream csv;
  csv << "cpu,display,wifi,cellular,gps,audio,sensor,power_mw\n";
  for (const power::CalibrationSample& sample : samples) {
    for (power::Component component : power::kAllComponents) {
      csv << sample.utilization.get(component) << ',';
    }
    csv << sample.measured_phone_power_mw << '\n';
  }
  write_file(out_path, csv.str());
  out << "wrote " << samples.size() << " training samples for '"
      << device_name << "' to " << out_path << "\n";
  return 0;
}

int cmd_calibrate(const std::string& csv_path, const std::string& device_name,
                  std::ostream& out) {
  std::istringstream in(read_file(csv_path));
  std::string line;
  std::getline(in, line);  // header
  std::vector<power::CalibrationSample> samples;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    power::CalibrationSample sample;
    double value = 0.0;
    char comma = 0;
    for (power::Component component : power::kAllComponents) {
      if (!(fields >> value >> comma)) {
        throw ParseError("calibrate: malformed CSV line '" + line + "'");
      }
      sample.utilization.set(component, value);
    }
    if (!(fields >> sample.measured_phone_power_mw)) {
      throw ParseError("calibrate: missing power in '" + line + "'");
    }
    samples.push_back(sample);
  }

  const power::CalibrationResult result =
      power::fit_power_model(device_name, samples);
  out << "fitted power model for '" << device_name << "' ("
      << result.samples_used << " samples, rms error "
      << result.rms_error_mw << " mW, max "
      << result.max_abs_error_mw << " mW)\n";
  out << "  idle: " << result.device.idle_mw() << " mW\n";
  for (power::Component component : power::kAllComponents) {
    out << "  " << power::component_name(component) << ": "
        << result.device.coefficient_mw(component) << " mW at 100%\n";
  }
  return 0;
}

int cmd_verify(int app_id, int users, std::uint64_t seed, std::ostream& out) {
  const std::vector<AppCase> catalog = full_catalog();
  const AppCase& app = catalog_app(catalog, app_id);
  PopulationConfig population;
  population.num_users = users;
  population.seed = seed;
  const FixVerification verification = verify_fix(app, population);
  out << "fix verification for '" << app.display_name << "' (" << users
      << " users):\n";
  out << "  manifestations: buggy "
      << verification.buggy_traces_with_manifestation << " traces -> fixed "
      << verification.fixed_traces_with_manifestation << " traces\n";
  out << "  average app power: "
      << verification.avg_power_buggy_mw << " mW -> "
      << verification.avg_power_fixed_mw << " mW ("
      << 100.0 * verification.power_reduction() << "% reduction)\n";
  out << "  verdict: "
      << (verification.fix_confirmed() ? "FIX CONFIRMED" : "NOT CONFIRMED")
      << "\n";
  return verification.fix_confirmed() ? 0 : 5;
}

namespace {

/// One tenant's simulated workload for serve.
struct AppLoad {
  std::string key;
  std::string display_name;
  std::vector<trace::TraceBundle> bundles;
};

std::vector<AppLoad> build_service_load(const std::vector<int>& app_ids,
                                        int users, std::uint64_t seed) {
  require(!app_ids.empty(), "serve needs --apps ID[,ID,...]");
  const std::vector<AppCase> catalog = full_catalog();
  std::vector<AppLoad> loads;
  loads.reserve(app_ids.size());
  for (const int id : app_ids) {
    const AppCase& app = catalog_app(catalog, id);
    PopulationConfig population;
    population.num_users = users;
    population.seed = seed;
    AppLoad load;
    load.key = "app-" + std::to_string(id);
    load.display_name = app.display_name;
    load.bundles =
        collect_traces(app, app.buggy, /*instrumented=*/true, population)
            .bundles;
    loads.push_back(std::move(load));
  }
  return loads;
}

/// Round-robin interleaving across apps — the mixed-tenant traffic
/// shape a real backend sees (every app uploading at once), and the
/// worst case for per-shard batching locality.
std::vector<std::pair<const AppLoad*, const trace::TraceBundle*>>
interleave_arrivals(const std::vector<AppLoad>& loads) {
  std::vector<std::pair<const AppLoad*, const trace::TraceBundle*>> arrivals;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const AppLoad& load : loads) {
      if (i < load.bundles.size()) {
        arrivals.emplace_back(&load, &load.bundles[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return arrivals;
}

/// Splits the arrival stream across `writers` submitting threads
/// (writer w takes arrivals w, w+writers, ...).  Each user appears once
/// per pass, so cross-writer reordering only permutes distinct users —
/// which commutes in the final report by the service's equivalence
/// contract.
void run_writers(
    service::FleetService& fleet_service,
    std::span<const std::pair<const AppLoad*, const trace::TraceBundle*>>
        arrivals,
    std::size_t writers) {
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&fleet_service, arrivals, writers, w] {
      for (std::size_t i = w; i < arrivals.size(); i += writers) {
        fleet_service.submit(arrivals[i].first->key, *arrivals[i].second);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

int cmd_serve(const ServeOptions& options, std::ostream& out) {
  const std::vector<AppLoad> loads =
      build_service_load(options.app_ids, options.users, options.seed);
  service::ServiceOptions service_options;
  service_options.num_shards = options.shards;
  service_options.step1_threads = options.step1_threads;
  service_options.hot_fanout = options.hot_fanout;
  if (options.hot_fanout > 1) {
    for (const AppLoad& load : loads) {
      service_options.hot_apps.push_back(load.key);
    }
  }
  service_options.store_root = options.store_root;
  service_options.store.fsync_policy = parse_fsync_policy(
      options.fsync_policy, service_options.store.group_window_us);
  if (options.segment_bytes != 0) {
    service_options.store.segment_target_bytes = options.segment_bytes;
  }
  service_options.store.compress = options.compress;
  if (options.reported_fraction.has_value()) {
    service_options.self_estimate_fraction = false;
    service_options.analysis.reporting.developer_reported_fraction =
        *options.reported_fraction;
  }

  service::FleetService fleet_service(service_options);
  for (const AppLoad& load : loads) fleet_service.open(load.key);

  const auto arrivals = interleave_arrivals(loads);
  const std::size_t writers = std::max<std::size_t>(options.writers, 1);
  run_writers(fleet_service, arrivals, writers);
  fleet_service.drain();

  out << "served " << loads.size() << " app(s) x " << options.users
      << " user(s) on " << fleet_service.options().num_shards
      << " shard(s), " << writers << " writer(s)\n";
  for (const AppLoad& load : loads) {
    const std::shared_ptr<const service::FleetSnapshot> snap =
        fleet_service.snapshot(load.key);
    out << "== " << load.key << " '" << load.display_name << "' (arrivals "
        << snap->image->arrivals << ", fleet " << snap->image->fleet_size
        << ") ==\n";
    service::ReportOptions report;
    report.as_json = options.as_json;
    // No app_name / code map: the body stays byte-identical to `analyze`
    // over the same population (the header line above carries the name).
    out << fleet_service.report(load.key, report);
  }
  const service::ServiceStats stats = fleet_service.stats();
  out << "service: " << stats.submitted << " submitted, " << stats.batches
      << " ingest batch(es), queue peak " << stats.queue_peak;
  if (!options.store_root.empty()) {
    out << ", " << stats.store_fsyncs << " store fsync(s)";
  }
  out << "\n";
  return 0;
}

int cmd_loadgen(const LoadgenOptions& options, std::ostream& out) {
  require(options.workload.empty() != options.spec_path.empty(),
          "loadgen needs exactly one of --workload NAME or --spec FILE");
  loadgen::WorkloadSpec spec =
      options.workload.empty()
          ? loadgen::WorkloadSpec::parse(read_file(options.spec_path),
                                         options.spec_path)
          : loadgen::WorkloadFactory::instance().create(options.workload);
  if (options.seed.has_value()) spec.seed = *options.seed;
  if (options.rate.has_value()) {
    if (spec.arrival == loadgen::ArrivalMode::kClosed) {
      spec.arrival = loadgen::ArrivalMode::kOpenPoisson;
    }
    spec.rate = *options.rate;
  }

  loadgen::RunOptions run_options;
  run_options.threads = options.threads;
  if (options.duration_ms.has_value()) {
    spec.ops_per_stream = 0;  // timed run
    run_options.duration_ms = *options.duration_ms;
  }
  spec.validate();

  service::ServiceOptions service_options;
  service_options.num_shards = options.shards;
  service_options.store_root = options.store_root;
  if (spec.hot_apps > 0) {
    // The spec's hot tenants fan out in the service too, matching the
    // skewed traffic they receive.
    service_options.hot_fanout = 2;
    for (std::size_t a = 0; a < spec.hot_apps; ++a) {
      service_options.hot_apps.push_back(loadgen::app_key(a));
    }
  }
  service::FleetService fleet_service(service_options);

  const loadgen::LoadReport report =
      loadgen::run_load(spec, fleet_service, run_options);
  out << report.to_text();
  const service::ServiceStats stats = fleet_service.stats();
  out << "  service: " << stats.submitted << " submitted, " << stats.batches
      << " ingest batch(es), queue peak " << stats.queue_peak << " on "
      << stats.shards << " shard(s)\n";
  if (!options.out_path.empty()) {
    write_file(options.out_path, report.to_json());
    out << "  results -> " << options.out_path << "\n";
  }
  return report.slo_pass ? 0 : 1;
}

namespace {

/// Parses a comma-separated catalog-id list ("1,3,4"); empty or
/// malformed input is a usage error naming `flag`.
std::vector<int> parse_app_id_list(const std::string& text,
                                   const std::string& flag) {
  std::vector<int> ids;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    const std::string piece = text.substr(begin, comma - begin);
    if (piece.empty()) {
      throw InvalidArgument(flag + " needs ID[,ID,...]");
    }
    ids.push_back(static_cast<int>(
        to_int(piece, flag, 0, std::numeric_limits<std::int64_t>::max())));
    if (comma == text.size()) break;
    begin = comma + 1;
  }
  return ids;
}

int dispatch(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    err << "usage: energydx <catalog | instrument <in> <out> | "
           "simulate <app-id> <dir> [--users N] [--seed S] | "
           "analyze (<dir> | --store DIR) [--app ID] "
           "[--reported-fraction F] [--json] "
           "[--threads N] [--incremental] [--report-every K] | "
           "ingest --store DIR [<bundle-or-dir> ...] "
           "[--app ID --users N --seed S] [--compact] "
           "[--tenant KEY] [--shards N] "
           "[--fsync-policy always|group|group:<us>|none] "
           "[--segment-bytes N] [--compress] | "
           "store-info --store DIR | "
           "verify <app-id> [--users N] [--seed S] | "
           "gen-training <device> <out.csv> [--levels N] [--noise F] | "
           "calibrate <samples.csv> <name> | "
           "serve --apps ID[,ID,...] [--users N] [--seed S] [--shards N] "
           "[--writers N] [--threads N] [--hot-fanout N] [--store-root DIR] "
           "[--fsync-policy always|group|group:<us>|none] "
           "[--segment-bytes N] [--compress] "
           "[--reported-fraction F] [--json] | "
           "loadgen (--workload NAME | --spec FILE) [--rate R] "
           "[--duration MS] [--threads N] [--seed S] [--shards N] "
           "[--store-root DIR] [--out FILE]>\n";
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "catalog") return cmd_catalog(out);
  if (command == "instrument") {
    const FlagSet flags("instrument", rest, {}, {});
    if (flags.positional_count() != 2) {
      throw InvalidArgument("instrument needs <in> <out>");
    }
    return cmd_instrument(flags.required_positional(0, "<in>"),
                          flags.required_positional(1, "<out>"), out);
  }
  if (command == "simulate") {
    FlagSet flags("simulate", rest, {"--users", "--seed"}, {});
    const int app_id = static_cast<int>(
        to_int(flags.required_positional(0, "<app-id> <out-dir>"), "<app-id>",
               0, kMaxInt));
    const std::string& out_dir =
        flags.required_positional(1, "<app-id> <out-dir>");
    flags.reject_extra_positionals(2, "--users N --seed S");
    const int users = static_cast<int>(to_int(
        flags.value("--users").value_or("30"), "--users", 1, 1'000'000));
    const std::uint64_t seed = static_cast<std::uint64_t>(
        to_int(flags.value("--seed").value_or("42"), "--seed", 0, kMaxInt));
    return cmd_simulate(app_id, out_dir, users, seed, out);
  }
  if (command == "verify") {
    FlagSet flags("verify", rest, {"--users", "--seed"}, {});
    const int app_id = static_cast<int>(to_int(
        flags.required_positional(0, "<app-id>"), "<app-id>", 0, kMaxInt));
    flags.reject_extra_positionals(1, "--users N --seed S");
    const int users = static_cast<int>(to_int(
        flags.value("--users").value_or("30"), "--users", 1, 1'000'000));
    const std::uint64_t seed = static_cast<std::uint64_t>(
        to_int(flags.value("--seed").value_or("42"), "--seed", 0, kMaxInt));
    return cmd_verify(app_id, users, seed, out);
  }
  if (command == "gen-training") {
    FlagSet flags("gen-training", rest, {"--levels", "--noise"}, {});
    const std::string& device =
        flags.required_positional(0, "<device> <out.csv>");
    const std::string& out_path =
        flags.required_positional(1, "<device> <out.csv>");
    flags.reject_extra_positionals(2, "--levels N --noise F");
    const std::size_t levels = static_cast<std::size_t>(to_int(
        flags.value("--levels").value_or("8"), "--levels", 1, 1'000'000));
    const double noise =
        to_double(flags.value("--noise").value_or("0"), "--noise");
    return cmd_gen_training(device, out_path, levels, noise, out);
  }
  if (command == "calibrate") {
    const FlagSet flags("calibrate", rest, {}, {});
    if (flags.positional_count() != 2) {
      throw InvalidArgument("calibrate needs <samples.csv> <device-name>");
    }
    return cmd_calibrate(flags.required_positional(0, "<samples.csv>"),
                         flags.required_positional(1, "<device-name>"), out);
  }
  if (command == "ingest") {
    FlagSet flags("ingest", rest,
                  {"--store", "--app", "--users", "--seed", "--fsync-policy",
                   "--segment-bytes", "--tenant", "--shards"},
                  {"--compact", "--compress"});
    IngestOptions options;
    const auto store_flag = flags.value("--store");
    if (!store_flag.has_value()) {
      throw InvalidArgument("ingest needs --store DIR");
    }
    options.store_dir = *store_flag;
    for (std::size_t i = 0; i < flags.positional_count(); ++i) {
      options.sources.push_back(flags.required_positional(i, ""));
    }
    if (const auto app = flags.value("--app")) {
      options.app_id = static_cast<int>(to_int(*app, "--app", 0, kMaxInt));
    }
    options.users = static_cast<int>(to_int(
        flags.value("--users").value_or("30"), "--users", 1, 1'000'000));
    options.seed = static_cast<std::uint64_t>(
        to_int(flags.value("--seed").value_or("42"), "--seed", 0, kMaxInt));
    options.compact = flags.has_switch("--compact");
    if (const auto policy = flags.value("--fsync-policy")) {
      options.fsync_policy = *policy;
    }
    options.segment_bytes = static_cast<std::size_t>(
        to_int(flags.value("--segment-bytes").value_or("0"),
               "--segment-bytes", 0, std::int64_t{1} << 40));
    options.compress = flags.has_switch("--compress");
    if (const auto tenant = flags.value("--tenant")) {
      options.tenant = *tenant;
    }
    options.shards = static_cast<std::size_t>(
        to_int(flags.value("--shards").value_or("0"), "--shards", 0, 4096));
    return cmd_ingest(options, out);
  }
  if (command == "store-info") {
    const FlagSet flags("store-info", rest, {"--store"}, {});
    const auto store_flag = flags.value("--store");
    if (!store_flag.has_value()) {
      throw InvalidArgument("store-info needs --store DIR");
    }
    if (flags.positional_count() != 0) {
      throw InvalidArgument("store-info takes no operands");
    }
    return cmd_store_info(*store_flag, out);
  }
  if (command == "analyze") {
    FlagSet flags("analyze", rest,
                  {"--app", "--reported-fraction", "--threads",
                   "--report-every", "--store"},
                  {"--json", "--incremental"});
    AnalyzeOptions options;
    options.as_json = flags.has_switch("--json");
    options.incremental = flags.has_switch("--incremental");
    if (const auto store = flags.value("--store")) {
      options.store_dir = *store;
    }
    std::string trace_dir;
    if (options.store_dir.has_value()) {
      if (flags.positional_count() > 0) {
        throw InvalidArgument(
            "analyze takes either <trace-dir> or --store, not both");
      }
    } else {
      trace_dir = flags.required_positional(0, "<trace-dir> (or --store)");
    }
    if (const auto app = flags.value("--app")) {
      options.app_id = static_cast<int>(to_int(*app, "--app", 0, kMaxInt));
    }
    if (const auto fraction = flags.value("--reported-fraction")) {
      options.reported_fraction = to_double(fraction.value(),
                                            "--reported-fraction");
    }
    options.num_threads = static_cast<std::size_t>(
        to_int(flags.value("--threads").value_or("0"), "--threads", 0, 4096));
    options.report_every = static_cast<std::size_t>(to_int(
        flags.value("--report-every").value_or("0"), "--report-every", 0,
        kMaxInt));
    flags.reject_extra_positionals(
        options.store_dir.has_value() ? 0 : 1,
        "--app ID --reported-fraction F");
    return cmd_analyze(trace_dir, options, out);
  }
  if (command == "serve") {
    FlagSet flags("serve", rest,
                  {"--apps", "--users", "--seed", "--shards", "--writers",
                   "--threads", "--hot-fanout", "--store-root",
                   "--fsync-policy", "--segment-bytes",
                   "--reported-fraction"},
                  {"--json", "--compress"});
    flags.reject_extra_positionals(0, "--apps ID[,ID,...]");
    ServeOptions options;
    options.app_ids =
        parse_app_id_list(flags.value("--apps").value_or(""), "--apps");
    options.users = static_cast<int>(to_int(
        flags.value("--users").value_or("30"), "--users", 1, 1'000'000));
    options.seed = static_cast<std::uint64_t>(
        to_int(flags.value("--seed").value_or("42"), "--seed", 0, kMaxInt));
    options.shards = static_cast<std::size_t>(
        to_int(flags.value("--shards").value_or("0"), "--shards", 0, 4096));
    options.writers = static_cast<std::size_t>(to_int(
        flags.value("--writers").value_or("1"), "--writers", 1, 4096));
    options.step1_threads = static_cast<std::size_t>(
        to_int(flags.value("--threads").value_or("1"), "--threads", 0, 4096));
    options.hot_fanout = static_cast<std::size_t>(to_int(
        flags.value("--hot-fanout").value_or("1"), "--hot-fanout", 1, 4096));
    if (const auto fraction = flags.value("--reported-fraction")) {
      options.reported_fraction =
          to_double(*fraction, "--reported-fraction");
    }
    options.as_json = flags.has_switch("--json");
    options.store_root = flags.value("--store-root").value_or("");
    if (const auto policy = flags.value("--fsync-policy")) {
      options.fsync_policy = *policy;
    }
    options.segment_bytes = static_cast<std::size_t>(
        to_int(flags.value("--segment-bytes").value_or("0"),
               "--segment-bytes", 0, std::int64_t{1} << 40));
    options.compress = flags.has_switch("--compress");
    return cmd_serve(options, out);
  }
  if (command == "loadgen") {
    FlagSet flags("loadgen", rest,
                  {"--workload", "--spec", "--rate", "--duration",
                   "--threads", "--seed", "--shards", "--store-root",
                   "--out"},
                  {});
    flags.reject_extra_positionals(0, "--workload NAME or --spec FILE");
    LoadgenOptions options;
    options.workload = flags.value("--workload").value_or("");
    options.spec_path = flags.value("--spec").value_or("");
    if (const auto rate = flags.value("--rate")) {
      options.rate = to_double(*rate, "--rate");
      if (*options.rate <= 0.0) {
        throw InvalidArgument("--rate must be > 0");
      }
    }
    if (const auto duration = flags.value("--duration")) {
      options.duration_ms = static_cast<std::uint64_t>(
          to_int(*duration, "--duration", 1, 86'400'000));
    }
    options.threads = static_cast<std::size_t>(
        to_int(flags.value("--threads").value_or("0"), "--threads", 0, 4096));
    if (const auto seed = flags.value("--seed")) {
      options.seed =
          static_cast<std::uint64_t>(to_int(*seed, "--seed", 0, kMaxInt));
    }
    options.shards = static_cast<std::size_t>(
        to_int(flags.value("--shards").value_or("0"), "--shards", 0, 4096));
    options.store_root = flags.value("--store-root").value_or("");
    options.out_path = flags.value("--out").value_or("");
    return cmd_loadgen(options, out);
  }
  throw InvalidArgument("unknown command '" + command + "'");
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    return dispatch(args, out, err);
  } catch (const std::exception& failure) {
    err << "energydx: " << failure.what() << "\n";
    return exit_code_for(failure);
  }
}

}  // namespace edx::workload::cli
