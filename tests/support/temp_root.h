// A private scratch directory per test process.
//
// Suites that write stores and trace files work under temp_root() rather
// than at fixed names in ::testing::TempDir(), so two runs of one suite
// at once on a machine (a sanitizer build's ctest beside a regular one)
// never touch each other's files.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace edx::test {

/// This process's own directory under ::testing::TempDir(), made with
/// mkdtemp on first use and removed, with everything in it, at exit.
inline const std::string& temp_root() {
  struct Root {
    std::string path;
    Root() : path(::testing::TempDir() + "/edx-test-XXXXXX") {
      if (::mkdtemp(path.data()) == nullptr) {
        throw std::runtime_error("temp_root: mkdtemp failed under " +
                                 ::testing::TempDir());
      }
    }
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Root root;
  return root.path;
}

}  // namespace edx::test
