// One private temp directory per test process.
//
// gtest_discover_tests registers every TEST as its own ctest entry, and
// `ctest -j` runs those processes side by side. Fixtures written at fixed
// names under ::testing::TempDir() (suite-level ones in particular) would
// then be overwritten and deleted by sibling processes mid-test.
// UniqueTempPath() names files inside a directory that belongs to this
// process alone: created with mkdtemp on first use, removed at exit.

#ifndef PREFCOVER_TESTS_SUPPORT_TEMP_DIR_H_
#define PREFCOVER_TESTS_SUPPORT_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace prefcover {
namespace testing_support {

/// This process's temp directory (no trailing slash).
inline const std::string& UniqueTempDir() {
  struct Dir {
    Dir() {
      std::string pattern = ::testing::TempDir();
      if (!pattern.empty() && pattern.back() != '/') pattern += '/';
      pattern += "prefcover_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        ADD_FAILURE() << "mkdtemp failed for " << pattern;
      }
      path = pattern;
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
    std::string path;
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside this process's temp directory.
inline std::string UniqueTempPath(const std::string& name) {
  return UniqueTempDir() + "/" + name;
}

}  // namespace testing_support
}  // namespace prefcover

#endif  // PREFCOVER_TESTS_SUPPORT_TEMP_DIR_H_
