// upload_bench — the upload-path benchmark of the EnergyDx fleet service.
//
//   upload_bench --workload gateway-ack|dashboard-live|restart
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints a table of every metric with its unit and sample count, the
// stage breakdown (traced runs), any failed check, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits 0 only when every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "bench_math.h"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "upload_bench: %s\nusage: upload_bench --workload "
               "gateway-ack|dashboard-live|restart --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               message);
  return 2;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_metric(const Metric& metric) {
  std::printf("  %-28s %14.6g %-8s n=%-7zu", metric.name.c_str(),
              metric.value, metric.unit.c_str(), metric.samples);
  if (metric.percentile > 0) {
    const double ladder[] = {50, 90, 99, 99.9};
    std::printf(" (median over %zu windows of >=%zu: %zu beyond p%g in "
                "each; highest supported p%g)",
                std::max<std::size_t>(1, metric.samples / metric.window),
                metric.window,
                samples_beyond(metric.window, metric.percentile),
                metric.percentile,
                highest_supported_percentile(metric.window, ladder));
  }
  if (!metric.what.empty()) std::printf("  %s", metric.what.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.work_dir.empty()) {
    return usage("--seed, --seconds, --trace and --work-dir are required");
  }

  WorkloadReport report;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "gateway-ack") {
      report = run_gateway_ack(options);
    } else if (options.workload == "dashboard-live") {
      report = run_dashboard_live(options);
    } else if (options.workload == "restart") {
      report = run_restart(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "upload_bench: %s\n", error.what());
    return 1;
  }
  report.end_to_end.push_back(
      {"peak_rss_mb", "MB", peak_rss_mb(), 0, 0, 0,
       "peak resident memory of the whole run"});

  for (const std::vector<Metric>* metrics :
       {&report.end_to_end, &report.per_layer}) {
    for (const Metric& metric : *metrics) {
      if (!std::isfinite(metric.value)) {
        report.problems.push_back(metric.name + " is not a finite number");
      }
    }
  }
  // A percentile with fewer than ten samples beyond it is not reported.
  // (A traced run reports only the per-layer metrics.)
  for (const Metric& metric : report.end_to_end) {
    if (!options.trace && metric.percentile > 0 &&
        !percentile_supported(metric.window, metric.percentile)) {
      report.problems.push_back(metric.name + ": windows of " +
                                std::to_string(metric.window) +
                                " samples do not support p" +
                                format_number(metric.percentile));
    }
  }
  const bool correct = report.failed == 0 && report.problems.empty();

  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("end-to-end (tracing off):\n");
  for (const Metric& metric : report.end_to_end) print_metric(metric);
  std::printf("  %-28s %14.6g %-8s n=%llu\n", "failed_ratio",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      report.attempted, 1)),
              "-", static_cast<unsigned long long>(report.attempted));
  if (!report.per_layer.empty()) {
    std::printf("per-layer (traced run):\n");
    for (const Metric& metric : report.per_layer) print_metric(metric);
  }
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const std::string& problem : report.problems) {
    std::printf("FAILED CHECK: %s\n", problem.c_str());
  }

  const std::vector<Metric>& reported =
      options.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + json_escape(reported[i].name) + "\": {\"value\": " +
            format_number(std::isfinite(reported[i].value) ? reported[i].value
                                                           : 0.0) +
            ", \"unit\": \"" +
            json_escape(reported[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
