// Opening a store root from the CLI (store/store_root.h).  Every refused
// open leaves the root byte-for-byte untouched, whichever command made
// it: serve (through FleetService), ingest, analyze --store, store-info.
// And the read commands — store-info and analyze --store — scan without
// ever opening, so on any root, damaged or not, they change no byte and
// add or remove no file.  The scans run threads, so the suite runs under
// TSan too.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "support/temp_root.h"
#include "workload/cli.h"

namespace edx::workload::cli {
namespace {

namespace fs = std::filesystem;

std::string fresh_path(const std::string& leaf) {
  const std::string path = edx::test::temp_root() + "/edx_rootcmd_" + leaf;
  fs::remove_all(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Every directory and file under `root`, each file with its bytes: the
/// image compared before and after a command, so an added, removed or
/// changed file or directory all show.
std::map<std::string, std::string> tree(const std::string& root) {
  std::map<std::string, std::string> image;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    image[entry.path().string()] =
        entry.is_directory() ? "<dir>" : read_file(entry.path().string());
  }
  return image;
}

struct Result {
  int code{0};
  std::string out;
  std::string err;
};

Result cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  Result result;
  result.code = run(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// wal-<base>.edx files of one shard directory, ascending base.
std::vector<std::string> segments(const std::string& shard) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(shard)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".edx")) {
      found.emplace_back(std::stoull(name.substr(4)), entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  for (auto& [base, path] : found) paths.push_back(std::move(path));
  return paths;
}

/// Runs `args`, which must be refused with exit code 1 and an error
/// containing `needle`, and checks that nothing under `root` changed.
void expect_refused_untouched(const std::string& root,
                              const std::vector<std::string>& args,
                              const std::string& needle) {
  SCOPED_TRACE(args[0]);
  const auto before = tree(root);
  const Result result = cli(args);
  EXPECT_EQ(result.code, 1) << result.out << result.err;
  EXPECT_NE(result.err.find(needle), std::string::npos) << result.err;
  EXPECT_EQ(tree(root), before) << "a refused " << args[0]
                                << " changed the root";
}

// A 2-shard serve root damaged three ways: shard-0's active WAL lost its
// last 5 bytes, shard-0 holds a temp file a crash left, and shard-1 holds
// a snapshot in the retired EDXSNP2 format.  Every command refuses the
// root over shard-1, and none repairs shard-0 first.
TEST(RefusedStoreOpenTest, DamagedServeRootIsLeftAsItWas) {
  const std::string root = fresh_path("damaged");
  ASSERT_EQ(cli({"serve", "--apps", "5,18", "--users", "6", "--seed", "3",
                 "--shards", "2", "--store-root", root})
                .code,
            0);
  const std::string wal = segments(root + "/shard-0").back();
  fs::resize_file(wal, fs::file_size(wal) - 5);
  write_file(root + "/shard-0/manifest.edx.tmp", "left by a crash");
  const std::string snapshot = root + "/shard-1/snapshot-1.edx";
  write_file(snapshot, std::string("EDXSNP2") + '\x01' + '\0');

  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"store-info", "--store", root},
        std::vector<std::string>{"analyze", "--store", root},
        std::vector<std::string>{"ingest", "--store", root, "--app", "5",
                                 "--users", "2"},
        std::vector<std::string>{"serve", "--apps", "5", "--users", "2",
                                 "--store-root", root}}) {
    expect_refused_untouched(root, args, snapshot);
  }
}

// A root without layout.edx whose shard-0 holds a snapshot in the
// retired EDXSNAP1 format: a refused ingest publishes no layout.edx (and
// no other command does either).
TEST(RefusedStoreOpenTest, RefusedIngestPublishesNoLayout) {
  const std::string root = fresh_path("nolayout_oldsnap");
  ASSERT_EQ(cli({"ingest", "--store", root, "--app", "5", "--users", "4",
                 "--seed", "3"})
                .code,
            0);
  fs::remove(root + "/layout.edx");
  const std::string snapshot = root + "/shard-0/snapshot-1.edx";
  write_file(snapshot, std::string("EDXSNAP1") + '\x01' + '\0');

  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"ingest", "--store", root, "--app", "5"},
        std::vector<std::string>{"serve", "--apps", "5", "--users", "2",
                                 "--store-root", root},
        std::vector<std::string>{"analyze", "--store", root},
        std::vector<std::string>{"store-info", "--store", root}}) {
    expect_refused_untouched(root, args, snapshot);
  }
  EXPECT_FALSE(fs::exists(root + "/layout.edx"));
}

// Tenant 'default' ingested on its home shard-0 of a 2-shard root, whose
// shard directory is then renamed shard-1: every writer and analyze
// refuse the root with the off-home message and write nothing, and
// store-info's verdict names the tenant, its shard and its home shard.
TEST(RefusedStoreOpenTest, TenantOffItsHomeShardIsRefusedByEveryCommand) {
  const std::string root = fresh_path("offhome");
  ASSERT_EQ(cli({"ingest", "--store", root, "--app", "5", "--users", "4",
                 "--seed", "3", "--shards", "2"})
                .code,
            0);
  fs::remove_all(root + "/shard-1");
  fs::rename(root + "/shard-0", root + "/shard-1");
  const std::string off_home =
      "tenant 'default' on shard-1, but its home shard is shard-0";

  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"serve", "--apps", "5", "--users", "2",
                                 "--store-root", root},
        std::vector<std::string>{"ingest", "--store", root, "--app", "5",
                                 "--users", "2", "--tenant", "other"},
        std::vector<std::string>{"analyze", "--store", root}}) {
    expect_refused_untouched(root, args, off_home);
  }

  const auto before = tree(root);
  const Result info = cli({"store-info", "--store", root});
  EXPECT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("verdict: partitioned layout, refused: " +
                          off_home),
            std::string::npos)
      << info.out;
  EXPECT_EQ(tree(root), before);
}

// An ingest refused over its inputs writes nothing either: every operand
// is read before the root opens, so no new root appears, a torn tail is
// not repaired, and no bundle of a good operand before the bad one is
// appended.
TEST(RefusedStoreOpenTest, IngestRefusedOverItsInputsWritesNothing) {
  const std::string missing = fresh_path("no_such_bundle.txt");
  const std::string fresh = fresh_path("bad_input_fresh");
  EXPECT_EQ(cli({"ingest", "--store", fresh, missing}).code, 1);
  EXPECT_FALSE(fs::exists(fresh));

  const std::string root = fresh_path("bad_input");
  ASSERT_EQ(cli({"ingest", "--store", root, "--app", "5", "--users", "4",
                 "--seed", "3"})
                .code,
            0);
  const std::string wal = segments(root + "/shard-0").back();
  fs::resize_file(wal, fs::file_size(wal) - 5);
  const std::string bundles = fresh_path("bundles");
  ASSERT_EQ(cli({"simulate", "5", bundles, "--users", "2"}).code, 0);
  expect_refused_untouched(root, {"ingest", "--store", root, bundles, missing},
                           "cannot open " + missing);

  const std::string empty = fresh_path("no_bundles");
  fs::create_directories(empty);
  const auto before = tree(root);
  EXPECT_EQ(cli({"ingest", "--store", root, "--app", "5", empty}).code, 2);
  EXPECT_EQ(tree(root), before);
}

// ---------------------------------------------------------------------
// The read commands never write
// ---------------------------------------------------------------------

/// One root for the read-only matrix: a damage applied to a copy of the
/// base root (tenant 'default', 12 users, 20 KB segments, 2 shards, so
/// shard-0 holds sealed segments and shard-1 an empty store).
struct RootCase {
  const char* name;
  std::function<void(const std::string& root)> damage;
};

void PrintTo(const RootCase& root_case, std::ostream* out) {
  *out << root_case.name;
}

class ReadOnlyStoreCommandsTest : public ::testing::TestWithParam<RootCase> {
 protected:
  static void SetUpTestSuite() {
    base_ = new std::string(fresh_path("readonly_base"));
    ASSERT_EQ(cli({"ingest", "--store", *base_, "--app", "5", "--users",
                   "12", "--seed", "3", "--segment-bytes", "20000",
                   "--shards", "2"})
                  .code,
              0);
    ASSERT_GE(segments(*base_ + "/shard-0").size(), 3u)
        << "fixture should roll";
  }
  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
  }
  static std::string* base_;
};

std::string* ReadOnlyStoreCommandsTest::base_ = nullptr;

TEST_P(ReadOnlyStoreCommandsTest, StoreInfoAndAnalyzeChangeNoByte) {
  const std::string root = fresh_path(std::string("readonly_") +
                                      GetParam().name);
  fs::copy(*base_, root, fs::copy_options::recursive);
  GetParam().damage(root);
  const auto before = tree(root);

  const Result info = cli({"store-info", "--store", root});
  EXPECT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("verdict: partitioned layout, "),
            std::string::npos)
      << info.out;
  EXPECT_EQ(tree(root), before) << "store-info changed the root";

  for (const char* json : {"", "--json"}) {
    std::vector<std::string> args{"analyze", "--store", root};
    if (*json != '\0') args.emplace_back(json);
    const Result report = cli(args);
    EXPECT_EQ(report.code, 0) << report.err;
    EXPECT_FALSE(report.out.empty());
    EXPECT_EQ(tree(root), before) << "analyze --store changed the root";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Roots, ReadOnlyStoreCommandsTest,
    ::testing::Values(
        RootCase{"clean", [](const std::string&) {}},
        RootCase{"no_manifest",
                 [](const std::string& root) {
                   fs::remove(root + "/shard-0/manifest.edx");
                 }},
        RootCase{"torn_active_tail",
                 [](const std::string& root) {
                   const std::string wal = segments(root + "/shard-0").back();
                   fs::resize_file(wal, fs::file_size(wal) - 20);
                 }},
        RootCase{"stale_tmp",
                 [](const std::string& root) {
                   write_file(root + "/shard-0/manifest.edx.tmp", "crash");
                 }},
        RootCase{"read_only_torn_sealed",
                 [](const std::string& root) {
                   const std::string sealed = segments(root + "/shard-0")[1];
                   std::string bytes = read_file(sealed);
                   bytes[bytes.size() / 2] =
                       static_cast<char>(bytes[bytes.size() / 2] ^ 0x08);
                   write_file(sealed, bytes);
                 }},
        RootCase{"no_layout",
                 [](const std::string& root) {
                   fs::remove(root + "/layout.edx");
                 }},
        RootCase{"empty_shard_dir",
                 [](const std::string& root) {
                   fs::remove_all(root + "/shard-1");
                   fs::create_directories(root + "/shard-1");
                 }},
        RootCase{"missing_shard_dir",
                 [](const std::string& root) {
                   fs::remove_all(root + "/shard-1");
                 }}),
    [](const ::testing::TestParamInfo<RootCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace edx::workload::cli
