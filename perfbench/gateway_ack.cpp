// gateway-ack: closed loop of upload gateways waiting for durable acks.
//
// Two client threads each repeatedly (after a 25 ms think time) pick one
// of the 40 catalog apps, submit_batch a burst of 32 single-session
// uploads (that tenant's whole fleet, re-uploaded from one of two
// campaigns) and call drain(), which returns once the burst is applied,
// published and fdatasync'd.  The root is durable, partitioned over 2
// shards, FsyncPolicy::kAlways, and prefilled, so the timed phase is all
// re-uploads over a fixed working set.  Encode, WAL write, fdatasync and
// service batching do most of the work; per-trace core work is small.
//
// The service keeps every upload since the last compaction in memory and
// nothing outside it can compact, so memory and WAL grow with every
// burst.  The timed phase therefore runs in rounds of kBurstsPerRound
// bursts, each on a fresh prefilled root (its set-up is not timed), which
// holds memory and disk near one round's worth.
#include <malloc.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "bench_math.h"
#include "replay.h"
#include "workload/catalog.h"

namespace perfbench {

using namespace edx;

namespace {

constexpr int kUsers = 32;  // = the burst: a burst re-uploads one fleet
constexpr int kCampaigns = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kBurstsPerRound = 500;
/// A gateway collects its next burst for this long after an ack.  Without
/// it the loop writes ~120 MB/s of WAL for the whole run, enough to wear
/// down a shared disk's throughput from one run to the next.
constexpr auto kThinkTime = std::chrono::milliseconds(25);
/// The reported tail.  Acks wait on ~16 fdatasyncs per batch, so their
/// p99 follows the shared disk's worst moments: over ten runs its spread
/// was 0.37 (report p99: 0.54), against 0.15 for the p50.
constexpr double kTail = 90;

service::ServiceOptions service_options(const std::string& root) {
  service::ServiceOptions options;
  options.num_shards = kShards;
  options.store_root = root;
  options.store.fsync_policy = store::FsyncPolicy::kAlways;
  return options;
}

/// One service on a fresh root holding the prefilled fleets.
struct Round {
  std::unique_ptr<service::FleetService> service;
  SubmissionLog log;
  std::size_t bursts{0};
};

void open_round(std::span<const TenantInputs> tenants,
                const std::string& root, Round& round) {
  round = Round{};
  reset_dir(root);
  round.service =
      std::make_unique<service::FleetService>(service_options(root));
  prefill(*round.service, tenants, round.log);
}

/// What one client thread measured over a phase.
struct ClientResult {
  std::vector<double> ack_ms;
  std::vector<double> report_us;
  /// Completion time of each ack and read (steady clock, seconds), to
  /// put both clients' samples in one time order.
  std::vector<double> ack_at;
  std::vector<double> report_at;
  std::vector<double> late_ms;
  std::vector<double> staleness;
  std::vector<ReplayUpload> uploads;
  std::vector<std::size_t> reads;
  SubmissionLog log;  ///< this round's submissions
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> problems;
};

/// Service counters summed over a phase's rounds.
struct Counters {
  std::uint64_t submitted{0}, batches{0}, fsyncs{0}, epochs{0};

  void add(const service::ServiceStats& before,
           const service::ServiceStats& after) {
    submitted += after.submitted - before.submitted;
    batches += after.batches - before.batches;
    fsyncs += after.store_fsyncs - before.store_fsyncs;
    epochs += epoch_sum(after) - epoch_sum(before);
  }
};

struct Phase {
  std::vector<ClientResult> clients{kClients};
  std::vector<SpanLog> spans;
  double seconds{0};  ///< timed client time, round set-ups excluded
  std::size_t rounds{0};
  std::size_t checks{0};  ///< tenant reports checked at round ends
  Counters counters;
  std::vector<std::string> mismatches;
};

double clock_seconds(Clock::time_point t) {
  return seconds_between(Clock::time_point{}, t);
}

/// Runs bursts until the round's budget is claimed.
void run_client(service::FleetService& service,
                std::span<const TenantInputs> tenants, Rng& rng,
                std::atomic<std::size_t>& claimed, ClientResult& out,
                SpanLog& spans) {
  while (claimed.fetch_add(1) < kBurstsPerRound) {
    const Clock::time_point ready = Clock::now() + kThinkTime;
    std::this_thread::sleep_until(ready);
    const auto t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tenants.size()) - 1));
    const auto campaign =
        static_cast<std::size_t>(rng.uniform_int(0, kCampaigns - 1));
    const TenantInputs& tenant = tenants[t];
    const std::vector<trace::TraceBundle>& burst = tenant.variants[campaign];
    ++out.attempted;
    try {
      std::uint64_t submitted_before = 0;
      {
        const SpanScope span(spans, "service.app_stats");
        submitted_before = service.app_stats(tenant.key).submitted;
      }
      const auto start = Clock::now();
      // Closed loop: a burst is due one think time after the last op.
      out.late_ms.push_back(seconds_between(ready, start) * 1e3);
      const std::uint32_t op = spans.begin("gateway.burst");
      std::vector<std::uint64_t> ids;
      {
        const SpanScope span(spans, "service.submit", op);
        ids = service.submit_batch(tenant.key, burst);
      }
      {
        const SpanScope span(spans, "service.drain", op);
        service.drain();
      }
      const auto acked = Clock::now();
      spans.end(op);
      out.ack_ms.push_back(seconds_between(start, acked) * 1e3);
      out.ack_at.push_back(clock_seconds(acked));
      for (std::size_t u = 0; u < ids.size(); ++u) {
        out.log.record(ids[u], &burst[u]);
        out.uploads.push_back({t, &burst[u], ids[u]});
      }
      // An ack means visible: the live epoch covers the burst.
      std::shared_ptr<const service::FleetSnapshot> snap;
      {
        const SpanScope span(spans, "service.snapshot");
        snap = service.snapshot(tenant.key);
      }
      if (snap == nullptr ||
          snap->image->arrivals < submitted_before + burst.size()) {
        ++out.failed;
        out.problems.push_back(tenant.key +
                               ": acked burst not visible after drain()");
      }
    } catch (const std::exception& error) {
      ++out.failed;
      out.problems.push_back(std::string("burst failed: ") + error.what());
    }

    // The gateway hands the refreshed diagnosis back with the ack.
    ++out.attempted;
    try {
      {
        const SpanScope span(spans, "service.app_stats");
        const service::AppServiceStats row = service.app_stats(tenant.key);
        out.staleness.push_back(
            static_cast<double>(row.submitted - row.published_arrivals));
      }
      const auto start = Clock::now();
      std::string text;
      {
        const SpanScope span(spans, "service.report");
        text = service.report(tenant.key);
      }
      const auto read = Clock::now();
      out.report_us.push_back(seconds_between(start, read) * 1e6);
      out.report_at.push_back(clock_seconds(read));
      out.reads.push_back(t);
      if (text.empty()) {
        ++out.failed;
        out.problems.push_back(tenant.key + ": empty report");
      }
    } catch (const std::exception& error) {
      ++out.failed;
      out.problems.push_back(std::string("report failed: ") + error.what());
    }
  }
}

/// Times whole rounds until `seconds` of client time have passed.
/// `round` is continued while its budget lasts and is left open at the
/// end, so the caller can check the last root.
Phase run_phase(std::span<const TenantInputs> tenants,
                const std::string& root, Round& round, double seconds,
                bool traced, std::uint64_t phase_seed) {
  Phase phase;
  for (std::size_t c = 0; c < kClients; ++c) phase.spans.emplace_back(traced);
  std::vector<Rng> rngs;
  for (std::size_t c = 0; c < kClients; ++c) {
    rngs.emplace_back(phase_seed * 0x9E3779B97F4A7C15ULL + c + 1);
  }
  while (phase.seconds < seconds) {
    if (round.bursts >= kBurstsPerRound) {
      // Outputs of the finished round: every report equals batch analysis
      // over its applied_log.
      phase.checks +=
          check_reports(*round.service, tenants, round.log, phase.mismatches);
      round.service.reset();
      // Hand the closed round's heap back, so peak RSS measures one round
      // rather than whatever the allocator kept from the previous one.
      ::malloc_trim(0);
      open_round(tenants, root, round);
    }
    ++phase.rounds;
    const service::ServiceStats before = round.service->stats();
    std::atomic<std::size_t> claimed{round.bursts};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        run_client(*round.service, tenants, rngs[c], claimed,
                   phase.clients[c], phase.spans[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    phase.seconds += seconds_between(start, Clock::now());
    round.bursts = kBurstsPerRound;
    phase.counters.add(before, round.service->stats());
    for (ClientResult& client : phase.clients) {
      round.log.merge(client.log);
      client.log = SubmissionLog{};
    }
  }
  return phase;
}

/// Both clients' `values`, in the time order of `times`.
std::vector<double> in_time_order(const Phase& phase,
                                  std::vector<double> ClientResult::*values,
                                  std::vector<double> ClientResult::*times) {
  std::vector<std::pair<double, double>> timed;
  for (const ClientResult& client : phase.clients) {
    for (std::size_t i = 0; i < (client.*values).size(); ++i) {
      timed.emplace_back((client.*times)[i], (client.*values)[i]);
    }
  }
  std::sort(timed.begin(), timed.end());
  std::vector<double> ordered;
  for (const auto& [time, value] : timed) ordered.push_back(value);
  return ordered;
}

template <typename Field>
std::vector<double> gather(const Phase& phase, Field field) {
  std::vector<double> all;
  for (const ClientResult& client : phase.clients) {
    const std::vector<double>& values = client.*field;
    all.insert(all.end(), values.begin(), values.end());
  }
  return all;
}

void collect_failures(const Phase& phase, WorkloadReport& report) {
  for (const ClientResult& client : phase.clients) {
    report.attempted += client.attempted;
    report.failed += client.failed;
    report.problems.insert(report.problems.end(), client.problems.begin(),
                           client.problems.end());
  }
  report.attempted += phase.checks;
  report.failed += phase.mismatches.size();
  report.problems.insert(report.problems.end(), phase.mismatches.begin(),
                         phase.mismatches.end());
}

}  // namespace

WorkloadReport run_gateway_ack(const RunOptions& options) {
  WorkloadReport report;
  const std::string root = options.work_dir + "/gateway-root";
  std::vector<double> setup_s;
  std::vector<TenantInputs> tenants;
  Round round;
  for (int i = 0; i < kSetupRuns; ++i) {
    round.service.reset();  // the previous repetition's teardown is untimed
    std::filesystem::remove_all(root);
    tenants.clear();
    const auto start = Clock::now();
    tenants = generate_tenants(workload::full_catalog(), kUsers,
                               /*sessions=*/1, kCampaigns, options.seed);
    open_round(tenants, root, round);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  const Phase phase = run_phase(tenants, root, round, options.phase_seconds(),
                                /*traced=*/false, options.seed * 2 + 1);
  collect_failures(phase, report);
  const std::vector<double> ack_ms =
      in_time_order(phase, &ClientResult::ack_ms, &ClientResult::ack_at);
  const std::vector<double> report_us =
      in_time_order(phase, &ClientResult::report_us, &ClientResult::report_at);
  const double ack_mean = mean(ack_ms);
  const double batches = static_cast<double>(phase.counters.batches);
  const double submitted = static_cast<double>(phase.counters.submitted);
  const double fsyncs_per_batch =
      static_cast<double>(phase.counters.fsyncs) / batches;
  const double uploads_per_batch = submitted / batches;
  const double publishes_per_upload =
      static_cast<double>(phase.counters.epochs) / submitted;

  report.notes.push_back(setup_note(setup_s));
  report.end_to_end = {
      {"setup_s", "s", median(setup_s), setup_s.size(), 0, 0,
       "inputs + fresh root + prefill of 40 fleets (median of runs)"},
      percentile_metric("latency_p50_ms", "ms", ack_ms, 50, kTail,
                        "ack_p50_ms: first submit_batch until drain()"),
      percentile_metric("latency_tail_ms", "ms", ack_ms, kTail, kTail,
                        "ack_p90_ms"),
      percentile_metric("report_p50_us", "us", report_us, 50, kTail,
                        "report(app) the gateway returns with the ack"),
      percentile_metric("report_tail_us", "us", report_us, kTail, kTail,
                        "report(app) the gateway returns with the ack, p90"),
      {"uploads_per_s", "1/s", submitted / phase.seconds,
       static_cast<std::size_t>(submitted), 0, 0,
       "uploads acked per second of timed client time"},
  };
  report.notes.push_back(
      "ack_p99_ms = " + format_number(windowed_percentile(ack_ms, 99, 1000)));
  report.notes.push_back("rounds: " + std::to_string(phase.rounds) +
                         " of up to " + std::to_string(kBurstsPerRound) +
                         " bursts");
  report.notes.push_back("store.fsyncs_per_batch (untraced run) = " +
                         format_number(fsyncs_per_batch) + " over " +
                         format_number(batches) + " batches");
  report.notes.push_back("service.uploads_per_batch (untraced run) = " +
                         format_number(uploads_per_batch));

  if (options.trace) {
    const Phase traced = run_phase(tenants, root, round,
                                   options.phase_seconds(), /*traced=*/true,
                                   options.seed * 2 + 2);
    collect_failures(traced, report);
    std::vector<const SpanLog*> logs;
    double submit_total = 0, snapshot_total = 0;
    std::size_t submit_count = 0, snapshot_count = 0;
    for (const SpanLog& log : traced.spans) {
      logs.push_back(&log);
      const auto [submit_us, submits] = log.mean_us("service.submit");
      const auto [snapshot_us, snapshots] = log.mean_us("service.snapshot");
      submit_total += submit_us * static_cast<double>(submits);
      submit_count += submits;
      snapshot_total += snapshot_us * static_cast<double>(snapshots);
      snapshot_count += snapshots;
    }

    ReplayInput input;
    input.tenants = tenants;
    input.prefill = first_campaign(tenants);
    for (const ClientResult& client : phase.clients) {
      input.uploads.insert(input.uploads.end(), client.uploads.begin(),
                           client.uploads.end());
      input.reads.insert(input.reads.end(), client.reads.begin(),
                         client.reads.end());
    }
    input.uploads_per_batch = uploads_per_batch;
    input.store_dir = options.work_dir + "/replay-store";
    SpanLog replay_log(true);
    const ReplayStats replay = replay_layers(input, replay_log);
    logs.push_back(&replay_log);

    ServiceLayer layer;
    layer.submit_us = submit_total / static_cast<double>(submit_count);
    layer.snapshot_us = snapshot_total / static_cast<double>(snapshot_count);
    layer.uploads_per_batch = uploads_per_batch;
    layer.publishes_per_upload = publishes_per_upload;
    layer.staleness_p99 =
        percentile(gather(phase, &ClientResult::staleness), 99);
    layer.fsyncs_per_batch = fsyncs_per_batch;
    layer.gen_late_p99_ms =
        percentile(gather(phase, &ClientResult::late_ms), 99);
    layer.trace_overhead_ms =
        mean(gather(traced, &ClientResult::ack_ms)) - ack_mean;
    const double burst = kUsers;
    const Stage stages[] = {
        {"service.submit", 1, layer.submit_us},
        {"core.step1", burst, replay.step1_us},
        {"store.append", burst, replay.append_us},
        {"core.apply", burst, replay.apply_us},
        {"core.publish", burst * publishes_per_upload, replay.publish_us},
        {"store.flush", burst / uploads_per_batch, replay.flush_us},
    };
    layer.residual_ms = stage_residual_ms(ack_mean, stages, report.notes);
    report.per_layer = layer_metrics(replay, layer);
    const std::string path = options.work_dir + "/spans-gateway-ack.jsonl";
    report.notes.push_back("spans: " +
                           std::to_string(write_spans(path, logs)) +
                           " written to " + path);
  }

  // Outputs of the last round: every report equals batch analysis over
  // its applied_log, and a reopened root recovers every acked upload.
  std::vector<std::string> mismatches;
  report.attempted +=
      check_reports(*round.service, tenants, round.log, mismatches);
  std::vector<std::string> before_close;
  std::vector<std::uint64_t> acked;
  for (const TenantInputs& tenant : tenants) {
    before_close.push_back(round.service->report(tenant.key));
    acked.push_back(round.service->app_stats(tenant.key).submitted);
  }
  round.service->close();
  round.service.reset();
  ::malloc_trim(0);
  {
    service::FleetService reopened(service_options(root));
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const std::string& key = tenants[t].key;
      ++report.attempted;
      const service::AppServiceStats row = reopened.app_stats(key);
      if (row.applied != acked[t]) {
        mismatches.push_back(key + ": reopened root recovered " +
                             std::to_string(row.applied) + " of " +
                             std::to_string(acked[t]) + " acked uploads");
      } else if (reopened.report(key) != before_close[t]) {
        mismatches.push_back(key + ": report after reopen differs");
      }
    }
    reopened.close();
  }
  report.failed += mismatches.size();
  report.problems.insert(report.problems.end(), mismatches.begin(),
                         mismatches.end());
  std::filesystem::remove_all(root);
  return report;
}

}  // namespace perfbench
