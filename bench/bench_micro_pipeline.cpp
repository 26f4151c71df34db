// Microbenchmarks (google-benchmark): throughput of the analysis pipeline
// and its hot substrate paths.  Not a paper figure — harness health.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_map>

#include "android/apk_builder.h"
#include "android/instrumenter.h"
#include "baselines/edoctor.h"
#include "baselines/nosleep.h"
#include "core/fleet_analyzer.h"
#include "core/pipeline.h"
#include "power/timeline.h"
#include "workload/experiment.h"

namespace {

using namespace edx;

std::vector<trace::TraceBundle> synthetic_bundles(int traces, int events,
                                                  std::uint64_t seed = 7) {
  std::vector<trace::TraceBundle> bundles;
  Rng rng(seed);
  for (int user = 0; user < traces; ++user) {
    trace::TraceBundle bundle;
    bundle.user = user;
    bundle.device_name = "Nexus 6";
    std::vector<power::UtilizationSample> samples;
    for (int i = 0; i < events; ++i) {
      const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
      bundle.events.add_instance("E" + std::to_string(i % 12), {t + 10, t + 40});
      power::UtilizationSample sample;
      sample.timestamp = t + 500;
      sample.estimated_app_power_mw =
          user == 0 && i > events / 2 ? 500.0 : 100.0 + rng.uniform(0, 5.0);
      samples.push_back(sample);
      sample.timestamp = t + 1000;
      samples.push_back(sample);
    }
    bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
    bundles.push_back(std::move(bundle));
  }
  return bundles;
}

void BM_FullPipeline(benchmark::State& state) {
  const auto bundles = synthetic_bundles(static_cast<int>(state.range(0)),
                                         static_cast<int>(state.range(1)));
  core::AnalysisConfig config;
  config.num_threads = static_cast<std::size_t>(state.range(2));
  const core::ManifestationAnalyzer analyzer(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.run(bundles));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_FullPipeline)
    ->ArgsProduct({{10, 100}, {50, 200}, {1, 2, 8}})
    ->UseRealTime();

/// The interval-average lookup alone: the indexed path (prefix sums + two
/// binary searches) against the pre-index linear scan, across trace sizes.
trace::UtilizationTrace synthetic_utilization(int num_samples) {
  Rng rng(13);
  std::vector<power::UtilizationSample> samples;
  samples.reserve(static_cast<std::size_t>(num_samples));
  for (int i = 0; i < num_samples; ++i) {
    power::UtilizationSample sample;
    sample.timestamp = static_cast<TimestampMs>(i) * 500;
    sample.estimated_app_power_mw = 100.0 + rng.uniform(0, 400.0);
    samples.push_back(sample);
  }
  return trace::UtilizationTrace("Nexus 6", samples);
}

void BM_AveragePower(benchmark::State& state) {
  const auto trace = synthetic_utilization(static_cast<int>(state.range(0)));
  const TimestampMs span = trace.samples().back().timestamp;
  Rng rng(17);
  for (auto _ : state) {
    const TimestampMs begin = rng.uniform_int(0, span - 1'000);
    benchmark::DoNotOptimize(
        trace.average_power({begin, begin + rng.uniform_int(10, 5'000)}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AveragePower)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_AveragePowerNaive(benchmark::State& state) {
  const auto trace = synthetic_utilization(static_cast<int>(state.range(0)));
  const TimestampMs span = trace.samples().back().timestamp;
  const DurationMs period = trace.sample_period();
  Rng rng(17);
  for (auto _ : state) {
    const TimestampMs begin = rng.uniform_int(0, span - 1'000);
    const TimeInterval interval{begin, begin + rng.uniform_int(10, 5'000)};
    double weighted = 0.0;
    DurationMs covered = 0;
    for (const power::UtilizationSample& sample : trace.samples()) {
      const TimeInterval window{sample.timestamp - period, sample.timestamp};
      const DurationMs overlap = window.overlap(interval.begin, interval.end);
      if (overlap <= 0) continue;
      weighted += sample.estimated_app_power_mw *
                  static_cast<double>(overlap);
      covered += overlap;
    }
    benchmark::DoNotOptimize(
        covered == 0 ? 0.0 : weighted / static_cast<double>(covered));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AveragePowerNaive)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_TimelineWindowedAverages(benchmark::State& state) {
  power::UtilizationTimeline timeline;
  Rng rng(11);
  const int contributions = static_cast<int>(state.range(0));
  for (int i = 0; i < contributions; ++i) {
    const TimestampMs begin = rng.uniform_int(0, 200'000);
    timeline.add(1, power::Component::kCpu,
                 {begin, begin + rng.uniform_int(10, 3'000)},
                 rng.uniform(0.05, 0.9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(timeline.windowed_averages(
        1, true, power::Component::kCpu, 0, 200'000, 500));
  }
  state.SetItemsProcessed(state.iterations() * contributions);
}
BENCHMARK(BM_TimelineWindowedAverages)->Arg(100)->Arg(1'000)->Arg(10'000);

void BM_InstrumentApk(benchmark::State& state) {
  const workload::AppCase app = workload::k9_mail_case();
  const android::Apk apk = android::build_apk(app.buggy);
  const android::Instrumenter instrumenter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(instrumenter.instrument(apk));
  }
}
BENCHMARK(BM_InstrumentApk);

void BM_PackUnpackRoundTrip(benchmark::State& state) {
  const workload::AppCase app = workload::k9_mail_case();
  const std::string blob = android::pack(android::build_apk(app.buggy));
  for (auto _ : state) {
    benchmark::DoNotOptimize(android::pack(android::unpack(blob)));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blob.size()));
}
BENCHMARK(BM_PackUnpackRoundTrip);

void BM_Step1EventPower(benchmark::State& state) {
  const auto bundles = synthetic_bundles(30, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::estimate_event_power(bundles));
  }
  state.SetItemsProcessed(state.iterations() * 30 * 100);
}
BENCHMARK(BM_Step1EventPower);

void BM_Step2Ranking(benchmark::State& state) {
  const auto traces = core::estimate_event_power(synthetic_bundles(30, 100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EventRanking::build(traces));
  }
}
BENCHMARK(BM_Step2Ranking);

void BM_Step2RankingStringKeyed(benchmark::State& state) {
  // Interning-off comparison point: the pre-interning Step 2 accumulation —
  // resolve each instance's name and key a string-hashed map with it, what
  // every build paid before the EventId symbol table.  Contrast with
  // BM_Step2Ranking (same input) for the interning speedup.
  const auto traces = core::estimate_event_power(synthetic_bundles(30, 100));
  for (auto _ : state) {
    std::unordered_map<EventName, std::vector<double>> distributions;
    for (const core::AnalyzedTrace& trace : traces) {
      for (const core::PoweredEvent& event : trace.events) {
        distributions[event.name()].push_back(event.raw_power);
      }
    }
    benchmark::DoNotOptimize(distributions);
  }
}
BENCHMARK(BM_Step2RankingStringKeyed);

void BM_Step3Normalization(benchmark::State& state) {
  auto traces = core::estimate_event_power(synthetic_bundles(30, 100));
  const auto ranking = core::EventRanking::build(traces);
  for (auto _ : state) {
    core::normalize_events(traces, ranking);
    benchmark::DoNotOptimize(traces);
  }
}
BENCHMARK(BM_Step3Normalization);

void BM_Step4Detection(benchmark::State& state) {
  auto traces = core::estimate_event_power(synthetic_bundles(30, 100));
  const auto ranking = core::EventRanking::build(traces);
  core::normalize_events(traces, ranking);
  for (auto _ : state) {
    core::detect_all(traces);
    benchmark::DoNotOptimize(traces);
  }
}
BENCHMARK(BM_Step4Detection);

/// Step 4 alone across trace sizes: one trace of N instances, so the
/// per-instance rate isolates how the amplitude/decision kernel scales
/// (items_per_second is instances/s) without the fixed per-trace costs of
/// the 30-trace fixture above.
void BM_Step4DetectionSize(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  auto traces = core::estimate_event_power(synthetic_bundles(1, instances));
  const auto ranking = core::EventRanking::build(traces);
  core::normalize_events(traces, ranking);
  for (auto _ : state) {
    core::detect_all(traces);
    benchmark::DoNotOptimize(traces);
  }
  state.SetItemsProcessed(state.iterations() * instances);
}
BENCHMARK(BM_Step4DetectionSize)
    ->Arg(100)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);

void BM_Step5Reporting(benchmark::State& state) {
  auto traces = core::estimate_event_power(synthetic_bundles(30, 100));
  const auto ranking = core::EventRanking::build(traces);
  core::normalize_events(traces, ranking);
  core::detect_all(traces);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::report_problematic_events(traces));
  }
}
BENCHMARK(BM_Step5Reporting);

#ifdef __linux__
/// Peak resident set (VmHWM) of this process so far, in kB.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}
#endif

void BM_FullPipelineFootprint(benchmark::State& state) {
  // Memory shape of the 100x200 workload: bytes per in-flight PoweredEvent
  // (a few plain words now that the name is an interned id) and, on Linux,
  // the process peak RSS after running the full pipeline.
  const auto bundles = synthetic_bundles(100, 200);
  const core::ManifestationAnalyzer analyzer{core::AnalysisConfig{}};
  std::size_t instances = 0;
  for (auto _ : state) {
    const core::AnalysisResult result = analyzer.run(bundles);
    instances = 0;
    for (const core::AnalyzedTrace& trace : result.traces) {
      instances += trace.events.size();
    }
    benchmark::DoNotOptimize(result);
  }
  state.counters["bytes_per_instance"] =
      static_cast<double>(sizeof(core::PoweredEvent));
#ifdef __linux__
  state.counters["peak_rss_kb"] = peak_rss_kb();
#endif
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(instances));
}
BENCHMARK(BM_FullPipelineFootprint);

/// The paper's deployment loop: phones opt in one at a time and the
/// server re-diagnoses the fleet after every arrival.  One benchmark
/// iteration is one full growth episode — N arrivals, each followed by a
/// snapshot — so items_per_second is arrivals/s and time/N the amortized
/// per-arrival cost.  The incremental engine pays Step 1 for the arriving
/// bundle plus the dirty slice of Steps 2-5; BM_FleetBatchRecompute
/// serves the same loop by re-running the whole batch pipeline over the
/// grown prefix after every arrival.
void BM_FleetIncremental(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  const std::vector<trace::TraceBundle> bundles =
      synthetic_bundles(fleet, 50);
  core::AnalysisConfig config;
  config.num_threads = 1;
  for (auto _ : state) {
    core::FleetAnalyzer analyzer(config);
    for (const trace::TraceBundle& bundle : bundles) {
      analyzer.add_bundle(bundle);
      benchmark::DoNotOptimize(analyzer.snapshot());
    }
  }
  state.SetItemsProcessed(state.iterations() * fleet);
}
BENCHMARK(BM_FleetIncremental)->Arg(50)->Arg(100)->Arg(200);

/// The long-trace variant of the growth episode: a small fleet (6 users)
/// whose traces each carry Arg instances, so per-arrival cost is dominated
/// by the per-trace kernels — normalization, the one-pass amplitude scan
/// and the sorted amplitude cache — not by fleet-width bookkeeping.
/// items_per_second counts instances ingested (fleet x instances per
/// episode); a superlinear kernel shows up directly as a falling rate
/// between sizes.
void BM_FleetIncrementalLongTrace(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  const int fleet = 6;
  const std::vector<trace::TraceBundle> bundles =
      synthetic_bundles(fleet, instances);
  core::AnalysisConfig config;
  config.num_threads = 1;
  for (auto _ : state) {
    core::FleetAnalyzer analyzer(config);
    for (const trace::TraceBundle& bundle : bundles) {
      analyzer.add_bundle(bundle);
      benchmark::DoNotOptimize(analyzer.snapshot());
    }
  }
  state.SetItemsProcessed(state.iterations() * fleet * instances);
}
BENCHMARK(BM_FleetIncrementalLongTrace)->Arg(2'000)->Arg(10'000);

void BM_FleetBatchRecompute(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  const std::vector<trace::TraceBundle> bundles =
      synthetic_bundles(fleet, 50);
  core::AnalysisConfig config;
  config.num_threads = 1;
  const core::ManifestationAnalyzer analyzer(config);
  for (auto _ : state) {
    for (int n = 1; n <= fleet; ++n) {
      benchmark::DoNotOptimize(analyzer.run(
          std::span<const trace::TraceBundle>(bundles.data(),
                                              static_cast<std::size_t>(n))));
    }
  }
  state.SetItemsProcessed(state.iterations() * fleet);
}
BENCHMARK(BM_FleetBatchRecompute)->Arg(50)->Arg(100)->Arg(200);

/// The sparse-arrival regime: every trace is dominated by common events
/// whose power is bit-identical across users (their base never moves, so
/// they never dirty anything), plus one rare event shared by ~8 users
/// whose power varies per user.  An arrival therefore perturbs only the
/// handful of traces holding its rare event, and the amortized
/// per-arrival cost should stay near-flat as the fleet grows — contrast
/// with BM_FleetIncremental, where all 12 shared events' bases move on
/// every arrival and each snapshot touches the whole fleet.
std::vector<trace::TraceBundle> sparse_bundles(int fleet) {
  std::vector<trace::TraceBundle> bundles;
  const int rare_pool = std::max(1, fleet / 8);
  for (int user = 0; user < fleet; ++user) {
    trace::TraceBundle bundle;
    bundle.user = user;
    bundle.device_name = "Nexus 6";
    std::vector<power::UtilizationSample> samples;
    for (int i = 0; i < 50; ++i) {
      const TimestampMs t = static_cast<TimestampMs>(i) * 1000;
      const bool rare = i % 10 == 5;
      bundle.events.add_instance(
          rare ? "R" + std::to_string(user % rare_pool)
               : "C" + std::to_string(i % 8),
          {t + 10, t + 40});
      power::UtilizationSample sample;
      sample.timestamp = t + 500;
      // Common events: exactly 100 mW for every user, so their bases are
      // bitwise stable.  Rare events: a per-user level, so each arrival
      // moves exactly one rare base.
      sample.estimated_app_power_mw =
          rare ? 150.0 + 3.0 * static_cast<double>(user) : 100.0;
      samples.push_back(sample);
      sample.timestamp = t + 1000;
      samples.push_back(sample);
    }
    bundle.utilization = trace::UtilizationTrace("Nexus 6", samples);
    bundles.push_back(std::move(bundle));
  }
  return bundles;
}

void BM_FleetIncrementalSparse(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  const std::vector<trace::TraceBundle> bundles = sparse_bundles(fleet);
  core::AnalysisConfig config;
  config.num_threads = 1;
  for (auto _ : state) {
    core::FleetAnalyzer analyzer(config);
    for (const trace::TraceBundle& bundle : bundles) {
      analyzer.add_bundle(bundle);
      benchmark::DoNotOptimize(analyzer.snapshot());
    }
  }
  state.SetItemsProcessed(state.iterations() * fleet);
}
BENCHMARK(BM_FleetIncrementalSparse)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

/// The steady state of a deployed fleet: every upload replaces a known
/// user's trace.  The fleet of N users (50 instances each) is built once;
/// one iteration re-uploads every user from the other of two variants,
/// then takes one snapshot — a gateway burst followed by its publish.
/// Step 1 runs before timing (add_analyzed, as a service shard applies
/// it), so time/N is the amortized per-re-upload apply + snapshot cost.
void BM_FleetReupload(benchmark::State& state) {
  const int fleet = static_cast<int>(state.range(0));
  std::vector<core::AnalyzedTrace> variants[2];
  for (int v = 0; v < 2; ++v) {
    for (const trace::TraceBundle& bundle :
         synthetic_bundles(fleet, 50, /*seed=*/7 + v)) {
      variants[v].push_back(core::estimate_event_power(bundle));
    }
  }
  core::AnalysisConfig config;
  config.num_threads = 1;
  core::FleetAnalyzer analyzer(config);
  for (const core::AnalyzedTrace& trace : variants[0]) {
    analyzer.add_analyzed(trace);
  }
  benchmark::DoNotOptimize(analyzer.snapshot());
  int next = 1;
  for (auto _ : state) {
    for (const core::AnalyzedTrace& trace : variants[next]) {
      analyzer.add_analyzed(trace);
    }
    benchmark::DoNotOptimize(analyzer.snapshot());
    next = 1 - next;
  }
  state.SetItemsProcessed(state.iterations() * fleet);
}
BENCHMARK(BM_FleetReupload)->Arg(32)->Arg(128)->Arg(512);

void BM_NoSleepStaticAnalysis(benchmark::State& state) {
  const workload::AppCase app = workload::k9_mail_case();
  const android::Apk apk = android::build_apk(app.buggy);
  const baselines::NoSleepDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(apk));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              apk.dex.total_instructions()));
}
BENCHMARK(BM_NoSleepStaticAnalysis);

void BM_EDoctorPhaseClustering(benchmark::State& state) {
  const auto bundles = synthetic_bundles(30, 200);
  const baselines::EDoctor edoctor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(edoctor.run(bundles));
  }
}
BENCHMARK(BM_EDoctorPhaseClustering);

void BM_EndToEndAppEvaluation(benchmark::State& state) {
  const workload::AppCase app = workload::tinfoil_case();
  workload::PopulationConfig population;
  population.num_users = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::run_energydx(app, population));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EndToEndAppEvaluation)->Arg(10)->Arg(30);

}  // namespace

BENCHMARK_MAIN();
