#include "workload/cli.h"

#include "common/error.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "android/apk.h"
#include "android/apk_builder.h"
#include "support/temp_root.h"
#include "workload/catalog.h"

namespace edx::workload::cli {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& leaf) {
  const std::string path = edx::test::temp_root() + "/edx_cli_" + leaf;
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

TEST(CliTest, CatalogListsFortyApps) {
  std::ostringstream out;
  EXPECT_EQ(cmd_catalog(out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("K-9 Mail"), std::string::npos);
  EXPECT_NE(text.find("configuration"), std::string::npos);
  // 40 data lines + 1 header.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 41);
}

TEST(CliTest, InstrumentRoundTripsApkFile) {
  const std::string dir = temp_dir("instrument");
  const AppCase app = tinfoil_case();
  {
    std::ofstream out(dir + "/in.apk.txt");
    out << android::pack(android::build_apk(app.buggy));
  }
  std::ostringstream log;
  EXPECT_EQ(cmd_instrument(dir + "/in.apk.txt", dir + "/out.apk.txt", log), 0);
  EXPECT_NE(log.str().find("instrumented"), std::string::npos);

  std::ifstream in(dir + "/out.apk.txt");
  std::stringstream content;
  content << in.rdbuf();
  const android::Apk instrumented = android::unpack(content.str());
  const android::Method* method =
      instrumented.dex.find_class(app.buggy.main_activity)
          ->find_method("onCreate");
  ASSERT_NE(method, nullptr);
  EXPECT_TRUE(method->instrumented);
}

TEST(CliTest, SimulateThenAnalyzeEndToEnd) {
  const std::string dir = temp_dir("pipeline");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/20, /*seed=*/42, log), 0);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator{}),
            20);

  std::ostringstream report;
  AnalyzeOptions options;
  options.app_id = 18;
  options.reported_fraction = 0.2;
  options.num_threads = 2;
  ASSERT_EQ(cmd_analyze(dir, options, report), 0);
  const std::string text = report.str();
  EXPECT_NE(text.find("Tinfoil"), std::string::npos);
  EXPECT_NE(text.find("Search space: 4226 ->"), std::string::npos);
  EXPECT_NE(text.find("menu_item_newsfeed"), std::string::npos);
}

TEST(CliTest, AnalyzeJsonAndSelfEstimate) {
  const std::string dir = temp_dir("json");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(5, dir, 20, 42, log), 0);

  std::ostringstream report;
  AnalyzeOptions options;
  options.as_json = true;
  options.num_threads = 1;
  ASSERT_EQ(cmd_analyze(dir, options, report), 0);
  const std::string json = report.str();
  EXPECT_NE(json.find("\"ranked_events\""), std::string::npos);
  EXPECT_NE(json.find("\"total_traces\": 20"), std::string::npos);
  // Self-estimated fraction must be positive (something manifested).
  EXPECT_EQ(json.find("\"developer_reported_fraction\": 0.000000"),
            std::string::npos);
}

TEST(CliTest, RunDispatchesAndReportsErrors) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run({}, out, err), 2);
  EXPECT_NE(err.str().find("usage"), std::string::npos);

  EXPECT_EQ(run({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);

  EXPECT_EQ(run({"analyze", "/nonexistent-dir-xyz"}, out, err), 1);
  EXPECT_EQ(run({"catalog"}, out, err), 0);
}

TEST(CliTest, ExitCodesClassifyErrorTypes) {
  EXPECT_EQ(exit_code_for(edx::InvalidArgument("bad flag")), 2);
  EXPECT_EQ(exit_code_for(edx::ParseError("bad bundle")), 3);
  EXPECT_EQ(exit_code_for(edx::AnalysisError("no traces")), 4);
  EXPECT_EQ(exit_code_for(edx::Error("generic")), 1);
  EXPECT_EQ(exit_code_for(std::runtime_error("other")), 1);
}

TEST(CliTest, UsageErrorsExitTwo) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run({"analyze"}, out, err), 2);                       // no operand
  EXPECT_EQ(run({"analyze", "/tmp", "--frobnicate"}, out, err), 2);
  EXPECT_EQ(run({"simulate", "7", "/tmp/x", "--users", "zero"}, out, err), 2);
  EXPECT_EQ(run({"analyze", "/tmp", "--json=yes"}, out, err), 2);
}

TEST(CliTest, MalformedBundleExitsThree) {
  const std::string dir = temp_dir("badbundle");
  {
    std::ofstream bad(dir + "/bundle_0.txt");
    bad << "this is not a trace bundle\n";
  }
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run({"analyze", dir}, out, err), 3);

  // A well-framed bundle with one bad field is malformed too: ten NaN
  // power samples (which once analyzed to exit 0 and a wrong report), or
  // a user id that is not one whole decimal number.
  const std::string fleet = temp_dir("badfield");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(1, fleet, /*users=*/6, /*seed=*/42, log), 0);
  const std::string path = fleet + "/bundle_0.txt";
  std::stringstream original;
  original << std::ifstream(path).rdbuf();
  const auto exit_with = [&](const std::string& text) {
    std::ofstream(path) << text;
    std::ostringstream report;
    std::ostringstream errors;
    return run({"analyze", fleet}, report, errors);
  };
  ASSERT_EQ(exit_with(original.str()), 0);

  std::istringstream lines(original.str());
  std::string nan_text;
  int nan_samples = 0;
  bool in_samples = false;
  for (std::string line; std::getline(lines, line);) {
    if (in_samples && nan_samples < 10 && !line.starts_with("DEVICE")) {
      const std::size_t power = line.find(' ') + 1;
      line.replace(power, line.find(' ', power) - power, "nan");
      ++nan_samples;
    }
    in_samples = in_samples || line == "[utilization]";
    nan_text += line + "\n";
  }
  ASSERT_EQ(nan_samples, 10);
  EXPECT_EQ(exit_with(nan_text), 3);

  const std::string header = "BUNDLE user=0 ";
  ASSERT_TRUE(original.str().starts_with(header));
  const std::string body = original.str().substr(header.size());
  EXPECT_EQ(exit_with("BUNDLE user=0abc " + body), 3);
  EXPECT_EQ(exit_with("BUNDLE user=x " + body), 3);
}

TEST(CliTest, AnalyzePositionalOptionsAreRemoved) {
  const std::string dir = temp_dir("parity");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/12, /*seed=*/7, log), 0);

  std::ostringstream flag_out, flag_err;
  ASSERT_EQ(run({"analyze", dir, "--app", "18", "--reported-fraction", "0.2"},
                flag_out, flag_err),
            0);
  EXPECT_NE(flag_out.str().find("Tinfoil"), std::string::npos);

  // The pre-redesign positional form (deprecated-with-a-warning since
  // PR 3) is now a hard usage error naming the --flag migration.
  std::ostringstream pos_out, pos_err;
  EXPECT_EQ(run({"analyze", dir, "18", "0.2"}, pos_out, pos_err), 2);
  EXPECT_NE(pos_err.str().find("positional option arguments were removed"),
            std::string::npos);
  EXPECT_NE(pos_err.str().find("--reported-fraction"), std::string::npos);
}

TEST(CliTest, SimulatePositionalUsersSeedRejected) {
  const std::string flag_dir = temp_dir("sim_flags");
  const std::string pos_dir = temp_dir("sim_positional");
  std::ostringstream flag_out, flag_err, pos_out, pos_err;
  ASSERT_EQ(run({"simulate", "5", flag_dir, "--users", "8", "--seed", "9"},
                flag_out, flag_err),
            0);
  EXPECT_EQ(run({"simulate", "5", pos_dir, "8", "9"}, pos_out, pos_err), 2);
  EXPECT_NE(pos_err.str().find("positional option arguments were removed"),
            std::string::npos);
  EXPECT_NE(pos_err.str().find("--users"), std::string::npos);
  // The rejected invocation did nothing.
  EXPECT_FALSE(fs::exists(pos_dir + "/bundle_0.txt"));

  // verify and gen-training lost their trailing positionals the same way.
  std::ostringstream err2;
  EXPECT_EQ(run({"verify", "5", "8", "9"}, pos_out, err2), 2);
  EXPECT_EQ(run({"gen-training", "Nexus 6", "/tmp/x.csv", "4"}, pos_out, err2),
            2);
}

TEST(CliTest, IncrementalAnalyzeMatchesBatchAndEmitsIntermediates) {
  const std::string dir = temp_dir("incremental");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/10, /*seed=*/42, log), 0);

  std::ostringstream batch_out, err;
  ASSERT_EQ(run({"analyze", dir, "--app", "18"}, batch_out, err), 0);

  std::ostringstream inc_out;
  ASSERT_EQ(run({"analyze", dir, "--app", "18", "--incremental"}, inc_out,
                err),
            0);
  EXPECT_EQ(inc_out.str(), batch_out.str());

  std::ostringstream periodic_out;
  ASSERT_EQ(run({"analyze", dir, "--app", "18", "--incremental",
                 "--report-every", "4"},
                periodic_out, err),
            0);
  const std::string text = periodic_out.str();
  EXPECT_NE(text.find("== fleet report after 4 of 10 bundles =="),
            std::string::npos);
  EXPECT_NE(text.find("== fleet report after 8 of 10 bundles =="),
            std::string::npos);
  // The final (headerless) report is still byte-identical to batch.
  EXPECT_NE(text.find(batch_out.str()), std::string::npos);
  EXPECT_TRUE(text.ends_with(batch_out.str()));
}

TEST(CliTest, GenTrainingThenCalibrateRoundTrip) {
  const std::string dir = temp_dir("calibrate");
  std::ostringstream log;
  ASSERT_EQ(cmd_gen_training("Moto G", dir + "/samples.csv", 6, 0.0, log), 0);
  EXPECT_NE(log.str().find("training samples"), std::string::npos);

  std::ostringstream fit;
  ASSERT_EQ(cmd_calibrate(dir + "/samples.csv", "Moto G (fit)", fit), 0);
  // The fitted GPS coefficient matches the built-in Moto G profile.
  EXPECT_NE(fit.str().find("gps: 381"), std::string::npos);
  EXPECT_NE(fit.str().find("idle: 21"), std::string::npos);
}

TEST(CliTest, GenTrainingRejectsUnknownDevice) {
  std::ostringstream log;
  EXPECT_THROW(cmd_gen_training("Quantum Phone", "/tmp/x.csv", 4, 0.0, log),
               edx::InvalidArgument);
}

TEST(CliTest, CalibrateRejectsMalformedCsv) {
  const std::string dir = temp_dir("badcsv");
  {
    std::ofstream out(dir + "/bad.csv");
    out << "header\n1,2,3\n";
  }
  std::ostringstream log;
  EXPECT_THROW(cmd_calibrate(dir + "/bad.csv", "x", log), edx::ParseError);
}

TEST(CliTest, VerifyConfirmsCatalogFixes) {
  std::ostringstream out;
  EXPECT_EQ(cmd_verify(/*app_id=*/5, /*users=*/20, /*seed=*/42, out), 0);
  EXPECT_NE(out.str().find("FIX CONFIRMED"), std::string::npos);
  EXPECT_NE(out.str().find("Open Camera"), std::string::npos);
}

TEST(CliTest, DuplicateFlagsAreUsageErrors) {
  const std::string dir = temp_dir("dupflags");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run({"analyze", dir, "--threads", "1", "--threads", "2"}, out,
                err),
            2);
  EXPECT_NE(err.str().find("duplicate flag '--threads'"), std::string::npos);

  EXPECT_EQ(run({"analyze", dir, "--json", "--json"}, out, err), 2);
  EXPECT_NE(err.str().find("duplicate flag '--json'"), std::string::npos);

  // Mixed separate/inline forms collide too.
  EXPECT_EQ(run({"simulate", "5", dir, "--seed", "1", "--seed=2"}, out, err),
            2);
  EXPECT_NE(err.str().find("duplicate flag '--seed'"), std::string::npos);
}

TEST(CliTest, IngestThenAnalyzeStoreMatchesDirectoryAnalysis) {
  const std::string dir = temp_dir("store_src");
  const std::string store = temp_dir("store_db");
  fs::remove_all(store);  // ingest must create it
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/12, /*seed=*/7, log), 0);

  std::ostringstream ref_out, err;
  ASSERT_EQ(run({"analyze", dir, "--app", "18"}, ref_out, err), 0);

  std::ostringstream ingest_out;
  ASSERT_EQ(run({"ingest", "--store", store, dir}, ingest_out, err), 0);
  EXPECT_NE(ingest_out.str().find("ingested 12 bundles"), std::string::npos);
  EXPECT_NE(ingest_out.str().find("fleet 12 users"), std::string::npos);

  std::ostringstream store_out;
  ASSERT_EQ(run({"analyze", "--store", store, "--app", "18"}, store_out, err),
            0);
  EXPECT_EQ(store_out.str(), ref_out.str());

  std::ostringstream warm_out;
  ASSERT_EQ(run({"analyze", "--store", store, "--app", "18", "--incremental"},
                warm_out, err),
            0);
  EXPECT_EQ(warm_out.str(), ref_out.str());
}

TEST(CliTest, StoreRestartEquivalenceAcrossSessionsAndThreads) {
  const std::string dir = temp_dir("restart_src");
  const std::string head = temp_dir("restart_head");
  const std::string tail = temp_dir("restart_tail");
  const std::string store = temp_dir("restart_db");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/10, /*seed=*/42, log), 0);
  // Split the population: 6 uploads land before a compaction, 4 after —
  // three separate store sessions in total.
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool early = name < "bundle_6";
    fs::copy_file(entry.path(), (early ? head : tail) + "/" + name);
  }

  std::ostringstream out, err;
  ASSERT_EQ(run({"ingest", "--store", store, head, "--compact"}, out, err), 0);
  EXPECT_NE(out.str().find("compacted into snapshot-6.edx"),
            std::string::npos);
  ASSERT_EQ(run({"ingest", "--store", store, tail}, out, err), 0);

  for (const std::string threads : {"1", "2", "8"}) {
    std::ostringstream ref_out;
    ASSERT_EQ(run({"analyze", dir, "--app", "18", "--threads", threads,
                   "--incremental"},
                  ref_out, err),
              0);
    std::ostringstream store_out;
    ASSERT_EQ(run({"analyze", "--store", store, "--app", "18", "--threads",
                   threads, "--incremental"},
                  store_out, err),
              0);
    EXPECT_EQ(store_out.str(), ref_out.str()) << "threads=" << threads;

    std::ostringstream batch_out;
    ASSERT_EQ(run({"analyze", "--store", store, "--app", "18", "--threads",
                   threads},
                  batch_out, err),
              0);
    EXPECT_EQ(batch_out.str(), ref_out.str()) << "threads=" << threads;
  }
}

TEST(CliTest, StoreInfoReportsTornTailThenRepairedClean) {
  const std::string store = temp_dir("torninfo_db");
  fs::remove_all(store);
  std::ostringstream out, err;
  ASSERT_EQ(run({"ingest", "--store", store, "--app", "5", "--users", "4",
                 "--seed", "9"},
                out, err),
            0);
  // Tear the final record of the active tail (the wal-<base>.edx with the
  // largest base in the one shard of the new root) mid-frame.
  std::string wal;
  std::uint64_t max_base = 0;
  for (const auto& entry : fs::directory_iterator(store + "/shard-0")) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".edx")) {
      const std::uint64_t base = std::stoull(name.substr(4));
      if (base >= max_base) {
        max_base = base;
        wal = entry.path().string();
      }
    }
  }
  ASSERT_FALSE(wal.empty());
  const auto original_size = fs::file_size(wal);
  fs::resize_file(wal, original_size - 20);

  std::ostringstream torn_info;
  EXPECT_EQ(run({"store-info", "--store", store}, torn_info, err), 0);
  EXPECT_NE(torn_info.str().find("'default': fleet 3 users"),
            std::string::npos);
  EXPECT_NE(torn_info.str().find("3 records replayed"), std::string::npos);
  EXPECT_NE(torn_info.str().find("tail: torn"), std::string::npos);
  EXPECT_NE(torn_info.str().find("repaired on open"), std::string::npos);

  // The open above truncated the log to the salvaged prefix; a second
  // look sees a clean store.
  std::ostringstream clean_info;
  EXPECT_EQ(run({"store-info", "--store", store}, clean_info, err), 0);
  EXPECT_NE(clean_info.str().find("tail: clean"), std::string::npos);
  EXPECT_NE(clean_info.str().find("'default': fleet 3 users"),
            std::string::npos);
  EXPECT_NE(clean_info.str().find("manifest: ok"), std::string::npos);
}

// A torn SEALED segment stops replay short of the log's end, so the shard
// opens read-only: store-info and analyze --store still read it, ingest
// is refused with the reason, and no file changes.
TEST(CliTest, StoreInfoReportsReadOnlyShardAndIngestIsRefused) {
  const std::string store = temp_dir("readonly_db");
  fs::remove_all(store);
  std::ostringstream out, err;
  ASSERT_EQ(run({"ingest", "--store", store, "--app", "5", "--users", "12",
                 "--seed", "9", "--segment-bytes", "20000"},
                out, err),
            0);
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(store + "/shard-0")) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-")) {
      segments.emplace_back(std::stoull(name.substr(4)), entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 3u) << "fixture should roll";
  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  std::string sealed = read_bytes(segments[1].second);
  sealed[sealed.size() / 2] = static_cast<char>(sealed[sealed.size() / 2] ^ 8);
  std::ofstream(segments[1].second, std::ios::binary | std::ios::trunc)
      << sealed;
  const auto tree = [&] {
    std::vector<std::pair<std::string, std::string>> files;
    for (const auto& entry : fs::recursive_directory_iterator(store)) {
      if (entry.is_regular_file()) {
        files.emplace_back(entry.path(), read_bytes(entry.path()));
      }
    }
    std::sort(files.begin(), files.end());
    return files;
  };
  const auto before = tree();

  std::ostringstream info;
  EXPECT_EQ(run({"store-info", "--store", store}, info, err), 0);
  EXPECT_NE(info.str().find("tail: torn"), std::string::npos);
  EXPECT_NE(info.str().find("read-only: nothing repaired, appends refused"),
            std::string::npos)
      << info.str();
  EXPECT_NE(info.str().find("verdict: partitioned layout, read-only (shard-0"),
            std::string::npos)
      << info.str();
  // The segments after the tear are listed as not replayed.
  EXPECT_NE(info.str().find("sealed, not replayed"), std::string::npos)
      << info.str();
  // The manifest still lists what was written; it is the scan that
  // stopped short.
  const std::string torn_name =
      fs::path(segments[1].second).filename().string();
  EXPECT_NE(info.str().find("manifest: the directory scan stopped at torn "
                            "sealed segment " + torn_name),
            std::string::npos)
      << info.str();
  EXPECT_EQ(info.str().find("stale"), std::string::npos) << info.str();
  std::ostringstream ingest_err;
  EXPECT_EQ(run({"ingest", "--store", store, "--app", "5", "--users", "2"},
                out, ingest_err),
            1);
  EXPECT_NE(ingest_err.str().find("read-only"), std::string::npos)
      << ingest_err.str();
  std::ostringstream report;
  EXPECT_EQ(run({"analyze", "--store", store}, report, err), 0);
  EXPECT_NE(report.str().find("Traces analyzed"), std::string::npos);
  EXPECT_EQ(tree(), before) << "a read-only shard was modified";
}

TEST(CliTest, IngestPolicySegmentAndCompressionFlags) {
  const std::string dir = temp_dir("flags_src");
  const std::string store = temp_dir("flags_db");
  fs::remove_all(store);
  std::ostringstream log, err;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/6, /*seed=*/3, log), 0);

  // Tiny segments + explicit policy: the store must roll multiple
  // segments and still analyze identically to the directory.
  std::ostringstream out;
  ASSERT_EQ(run({"ingest", "--store", store, dir, "--fsync-policy",
                 "group:200", "--segment-bytes", "4000"},
                out, err),
            0);
  EXPECT_NE(out.str().find("ingested 6 bundles"), std::string::npos);

  std::ostringstream info;
  ASSERT_EQ(run({"store-info", "--store", store}, info, err), 0);
  EXPECT_NE(info.str().find("segments:"), std::string::npos);
  EXPECT_NE(info.str().find("wal-1.edx"), std::string::npos);
  EXPECT_NE(info.str().find("sealed"), std::string::npos);
  EXPECT_NE(info.str().find("compaction:"), std::string::npos);

  std::ostringstream ref_out, store_out;
  ASSERT_EQ(run({"analyze", dir, "--app", "18"}, ref_out, err), 0);
  ASSERT_EQ(run({"analyze", "--store", store, "--app", "18", "--threads",
                 "2"},
                store_out, err),
            0);
  EXPECT_EQ(store_out.str(), ref_out.str());

  // A bad policy spelling is a usage error.
  EXPECT_EQ(run({"ingest", "--store", store, dir, "--fsync-policy", "often"},
                out, err),
            2);
  // The WAL has one record encoding, so --compress is an unknown flag on
  // ingest and serve alike.
  EXPECT_EQ(run({"ingest", "--store", store, dir, "--compress"}, out, err),
            2);
  EXPECT_EQ(run({"serve", "--apps", "5", "--compress"}, out, err), 2);
}

TEST(CliTest, StoreUsageAndDomainErrors) {
  const std::string dir = temp_dir("store_errs");
  const std::string store = temp_dir("store_errs_db");
  std::ostringstream out, err;
  // A trace-dir operand and --store are mutually exclusive.
  EXPECT_EQ(run({"analyze", dir, "--store", store}, out, err), 2);
  // --report-every needs the original arrival sequence, not a store.
  EXPECT_EQ(run({"analyze", "--store", store, "--incremental",
                 "--report-every", "2"},
                out, err),
            2);
  // Ingest with nothing to ingest is a usage error.
  EXPECT_EQ(run({"ingest", "--store", store}, out, err), 2);
  // Analyzing an empty (but valid) store is an analysis error.
  EXPECT_EQ(run({"analyze", "--store", store}, out, err), 4);
  // store-info on a directory that does not exist.
  EXPECT_EQ(run({"store-info", "--store", store + "_missing"}, out, err), 2);
}

TEST(CliTest, AnalyzeRejectsEmptyDirectory) {
  const std::string dir = temp_dir("empty");
  std::ostringstream report;
  EXPECT_THROW(cmd_analyze(dir, AnalyzeOptions{}, report),
               edx::InvalidArgument);
}

TEST(CliTest, ServeReportMatchesAnalyzePerApp) {
  // The service's headline contract at the CLI surface: each tenant's
  // report body under concurrent sharded ingest is byte-identical to a
  // plain `analyze` over the same simulated population.
  const std::string dir5 = temp_dir("serve_app5");
  const std::string dir18 = temp_dir("serve_app18");
  std::ostringstream log, err;
  ASSERT_EQ(run({"simulate", "5", dir5, "--users", "10", "--seed", "7"}, log,
                err),
            0);
  ASSERT_EQ(run({"simulate", "18", dir18, "--users", "10", "--seed", "7"},
                log, err),
            0);
  std::ostringstream ref5, ref18;
  ASSERT_EQ(run({"analyze", dir5}, ref5, err), 0);
  ASSERT_EQ(run({"analyze", dir18}, ref18, err), 0);

  std::ostringstream serve_out;
  ASSERT_EQ(run({"serve", "--apps", "5,18", "--users", "10", "--seed", "7",
                 "--shards", "2", "--writers", "2"},
                serve_out, err),
            0);
  const std::string text = serve_out.str();
  EXPECT_NE(text.find("served 2 app(s)"), std::string::npos);
  EXPECT_NE(text.find("== app-5 "), std::string::npos);
  EXPECT_NE(text.find(ref5.str()), std::string::npos);
  EXPECT_NE(text.find(ref18.str()), std::string::npos);
}

TEST(CliTest, ServeUsageErrors) {
  std::ostringstream out, err;
  EXPECT_EQ(run({"serve"}, out, err), 2);  // no --apps
  EXPECT_EQ(run({"serve", "--apps", "1,,2"}, out, err), 2);
  EXPECT_EQ(run({"serve", "5"}, out, err), 2);  // positional operand
  // The shard count is serve's one parallelism flag.
  EXPECT_EQ(run({"serve", "--apps", "5", "--hot-fanout", "2"}, out, err), 2);
  EXPECT_EQ(run({"serve", "--apps", "5", "--threads", "2"}, out, err), 2);
}

TEST(CliTest, IngestTenantBuildsPartitionedRootStoreInfoReadsIt) {
  const std::string dir = temp_dir("tenant_src");
  const std::string root = temp_dir("tenant_root");
  fs::remove_all(root);  // ingest must create + pin the layout
  std::ostringstream log, err;
  ASSERT_EQ(cmd_simulate(18, dir, /*users=*/5, /*seed=*/3, log), 0);

  std::ostringstream first;
  ASSERT_EQ(run({"ingest", "--store", root, "--tenant", "mail", "--shards",
                 "2", dir},
                first, err),
            0);
  EXPECT_NE(first.str().find("ingested 5 bundles"), std::string::npos);
  EXPECT_NE(first.str().find("as tenant 'mail'"), std::string::npos);
  EXPECT_NE(first.str().find("2 shard(s)"), std::string::npos);

  // A second tenant adopts the pinned shard count without --shards.
  std::ostringstream second;
  ASSERT_EQ(run({"ingest", "--store", root, "--tenant", "maps", dir},
                second, err),
            0);
  EXPECT_NE(second.str().find("as tenant 'maps'"), std::string::npos);
  EXPECT_NE(second.str().find("2 shard(s)"), std::string::npos);

  std::ostringstream info;
  ASSERT_EQ(run({"store-info", "--store", root}, info, err), 0);
  const std::string text = info.str();
  EXPECT_NE(text.find("(partitioned, 2 shard(s))"), std::string::npos);
  EXPECT_NE(text.find("tenant 0 'mail'"), std::string::npos);
  EXPECT_NE(text.find("'maps'"), std::string::npos);
  EXPECT_NE(text.find("verdict: partitioned layout, ready to serve"),
            std::string::npos);

  // Reopening with a different shard count is refused, with or without
  // --tenant; without it, the stored count ingests as tenant 'default'.
  std::ostringstream out;
  EXPECT_EQ(run({"ingest", "--store", root, "--tenant", "mail", "--shards",
                 "3", dir},
                out, err),
            2);
  EXPECT_EQ(run({"ingest", "--store", root, "--shards", "3", dir}, out, err),
            2);
  ASSERT_EQ(run({"ingest", "--store", root, "--shards", "2", dir}, out, err),
            0);
  EXPECT_NE(out.str().find("as tenant 'default'"), std::string::npos);
}

TEST(CliTest, StoreInfoRefusesLegacyLayoutUntouched) {
  const std::string dir = temp_dir("legacy_src");
  const std::string root = temp_dir("legacy_root");
  std::ostringstream log;
  ASSERT_EQ(cmd_simulate(5, dir, /*users=*/4, /*seed=*/9, log), 0);
  // The retired per-tenant layout: a store directory per tenant, holding
  // a segment of the old single-tenant format (complete magic only).
  fs::create_directories(root + "/mail");
  const std::string old_segment = std::string("EDXWAL02") + '\x01';
  {
    std::ofstream wal(root + "/mail/wal-1.edx", std::ios::binary);
    wal << old_segment;
  }
  // Every store command refuses it with one re-ingest line and leaves the
  // root exactly as it was: no layout, no shard, no repaired segment.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"store-info", "--store", root},
        std::vector<std::string>{"ingest", "--store", root, dir},
        std::vector<std::string>{"analyze", "--store", root}}) {
    std::ostringstream out, err;
    EXPECT_EQ(run(args, out, err), 1) << args[0];
    EXPECT_NE(err.str().find(root + "/mail"), std::string::npos) << err.str();
    EXPECT_NE(err.str().find("re-ingest"), std::string::npos) << err.str();
  }
  std::vector<std::string> entries;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    entries.push_back(entry.path().string());
  }
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, (std::vector<std::string>{root + "/mail",
                                               root + "/mail/wal-1.edx"}));
  std::ifstream wal(root + "/mail/wal-1.edx", std::ios::binary);
  std::stringstream bytes;
  bytes << wal.rdbuf();
  EXPECT_EQ(bytes.str(), old_segment);
}

TEST(CliTest, ServeStoreFlagsPersistAndReportFsyncs) {
  const std::string root = temp_dir("serve_root");
  fs::remove_all(root);
  std::ostringstream serve_out, err;
  ASSERT_EQ(run({"serve", "--apps", "5", "--users", "4", "--seed", "3",
                 "--shards", "2", "--store-root", root, "--fsync-policy",
                 "always", "--segment-bytes", "4000"},
                serve_out, err),
            0);
  EXPECT_NE(serve_out.str().find("store fsync(s)"), std::string::npos);
  ASSERT_TRUE(fs::exists(root + "/layout.edx"));

  std::ostringstream info;
  ASSERT_EQ(run({"store-info", "--store", root}, info, err), 0);
  EXPECT_NE(info.str().find("(partitioned, 2 shard(s))"), std::string::npos);
  EXPECT_NE(info.str().find("'app-5'"), std::string::npos);

  // A second serve over the same root recovers the tenant and keeps
  // accepting arrivals (the restart path at the CLI surface).
  std::ostringstream again;
  ASSERT_EQ(run({"serve", "--apps", "5", "--users", "4", "--seed", "4",
                 "--shards", "0", "--store-root", root},
                again, err),
            0);
  EXPECT_NE(again.str().find("served 1 app(s)"), std::string::npos);
}

}  // namespace
}  // namespace edx::workload::cli
