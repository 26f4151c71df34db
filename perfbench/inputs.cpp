#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <unordered_map>

#include "bench.h"
#include "common/error.h"
#include "core/pipeline.h"
#include "core/report_io.h"
#include "workload/session.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace edx;

std::pair<double, std::size_t> SpanLog::mean_us(std::string_view name) const {
  double total_ns = 0.0;
  std::size_t count = 0;
  for (const Span& span : spans_) {
    if (name != span.name || span.end_ns == 0) continue;
    total_ns += static_cast<double>(span.end_ns - span.start_ns);
    ++count;
  }
  return {count == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(count),
          count};
}

std::size_t write_spans(const std::string& path,
                        std::span<const SpanLog* const> logs) {
  std::ofstream out(path, std::ios::trunc);
  require(out.good(), "cannot write spans to " + path);
  std::size_t offset = 0;
  std::size_t written = 0;
  for (std::size_t thread = 0; thread < logs.size(); ++thread) {
    const std::vector<Span>& spans = logs[thread]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << "{\"id\":" << offset + i + 1 << ",\"thread\":" << thread
          << ",\"name\":\"" << span.name << "\",\"start_ns\":"
          << span.start_ns << ",\"end_ns\":" << span.end_ns
          << ",\"parent\":" << (span.parent == 0 ? 0 : offset + span.parent)
          << ",\"upload\":" << span.upload << "}\n";
    }
    offset += spans.size();
    written += spans.size();
  }
  require(out.good(), "short write of spans to " + path);
  return written;
}

std::vector<TenantInputs> generate_tenants(
    std::span<const workload::AppCase> apps, int users,
    int sessions_per_user, int campaigns, std::uint64_t seed) {
  std::vector<TenantInputs> tenants;
  tenants.reserve(apps.size());
  for (const workload::AppCase& app : apps) {
    TenantInputs tenant;
    tenant.key = "app-" + std::to_string(app.id);
    // Each app gets its own stream: with one population seed for every
    // app, user u of every app would share its random draws, and the
    // apps' trace sizes would rise and fall together from seed to seed.
    std::uint64_t state =
        seed ^ (0xD6E8FEB86659FD93ULL * static_cast<std::uint64_t>(app.id + 1));
    for (int campaign = 0; campaign < campaigns; ++campaign) {
      workload::PopulationConfig population;
      population.num_users = users;
      population.seed = splitmix64(state);
      population.sessions_per_user = sessions_per_user;
      tenant.variants.push_back(
          workload::collect_traces(app, app.buggy, /*instrumented=*/true,
                                   population)
              .bundles);
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

std::string reference_report(
    std::span<const trace::TraceBundle* const> applied) {
  // Latest upload per user, each in the fleet slot of its first upload:
  // the fleet a re-upload-replaces-in-place analyzer holds.
  std::vector<trace::TraceBundle> latest;
  std::unordered_map<UserId, std::size_t> slot;
  for (const trace::TraceBundle* bundle : applied) {
    const auto [it, inserted] =
        slot.emplace(bundle->fleet_key(), latest.size());
    if (inserted) {
      latest.push_back(*bundle);
    } else {
      latest[it->second] = *bundle;
    }
  }
  // The service's analysis config: defaults, one thread per tenant, and
  // the self-estimated reported fraction (two-pass rule).
  core::AnalysisConfig config;
  config.num_threads = 1;
  const core::AnalysisResult result =
      core::ManifestationAnalyzer(config).run(latest);
  const double fraction =
      result.report.total_traces == 0
          ? 0.0
          : static_cast<double>(result.report.traces_with_manifestation) /
                static_cast<double>(result.report.total_traces);
  core::ReportingConfig reporting = config.reporting;
  reporting.developer_reported_fraction = fraction;
  core::ReportRenderOptions render;
  render.developer_reported_fraction = fraction;
  return core::report_to_text(
      core::report_problematic_events(result.traces, reporting), nullptr,
      render);
}

void SubmissionLog::record(std::uint64_t id,
                           const trace::TraceBundle* bundle) {
  if (by_id_.size() <= id) by_id_.resize(id + 1, nullptr);
  by_id_[id] = bundle;
}

void SubmissionLog::merge(const SubmissionLog& other) {
  for (std::size_t id = 0; id < other.by_id_.size(); ++id) {
    if (other.by_id_[id] != nullptr) record(id, other.by_id_[id]);
  }
}

const trace::TraceBundle* SubmissionLog::find(std::uint64_t id) const {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

void prefill(service::FleetService& service,
             std::span<const TenantInputs> tenants, SubmissionLog& log) {
  for (const TenantInputs& tenant : tenants) {
    const std::vector<trace::TraceBundle>& fleet = tenant.variants[0];
    const std::vector<std::uint64_t> ids =
        service.submit_batch(tenant.key, fleet);
    for (std::size_t u = 0; u < ids.size(); ++u) log.record(ids[u], &fleet[u]);
  }
  service.drain();
}

std::uint64_t epoch_sum(const service::ServiceStats& stats) {
  std::uint64_t epochs = 0;
  for (const service::AppServiceStats& row : stats.per_app) {
    epochs += row.epoch;
  }
  return epochs;
}

std::size_t check_reports(const service::FleetService& service,
                          std::span<const TenantInputs> tenants,
                          const SubmissionLog& log,
                          std::vector<std::string>& problems) {
  for (const TenantInputs& tenant : tenants) {
    std::vector<const trace::TraceBundle*> applied;
    bool known = true;
    for (const std::uint64_t id : service.applied_log(tenant.key)) {
      const trace::TraceBundle* bundle = log.find(id);
      if (bundle == nullptr) {
        known = false;
        break;
      }
      applied.push_back(bundle);
    }
    if (!known) {
      problems.push_back(tenant.key + ": applied_log names an id never "
                                      "submitted");
    } else if (service.report(tenant.key) != reference_report(applied)) {
      problems.push_back(tenant.key +
                         ": report() differs from a batch run over its "
                         "applied_log");
    }
  }
  return tenants.size();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t file_bytes(const std::string& root, std::string_view prefix) {
  std::uint64_t total = 0;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().starts_with(prefix)) {
      total += entry.file_size();
    }
  }
  return total;
}

void copy_tree_durably(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  std::vector<std::string> paths = {to};
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(to)) {
    paths.push_back(entry.path().string());
  }
  for (const std::string& path : paths) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    require(fd >= 0, "cannot open " + path);
    const int synced = ::fsync(fd);
    ::close(fd);
    require(synced == 0, "fsync failed for " + path);
  }
}

void reset_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

std::string setup_note(const std::vector<double>& setup_s) {
  std::string note = "setup runs (s):";
  for (const double seconds : setup_s) note += " " + format_number(seconds);
  return note;
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace perfbench
