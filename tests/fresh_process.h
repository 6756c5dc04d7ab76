// Runs one test of the current test binary again in a fresh process: the
// determinism tests compare what the child computes there with what they
// compute in-process. The child test finds the file to write its output to
// in the environment variable the caller names.
#ifndef UTPS_TESTS_FRESH_PROCESS_H_
#define UTPS_TESTS_FRESH_PROCESS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace utps {

// Runs `--gtest_filter=<child_test>` of this binary with `env_var` naming a
// fresh temporary file, and stores what the child wrote there in *out.
inline ::testing::AssertionResult RunFreshProcess(const char* env_var,
                                                  const char* child_test,
                                                  std::string* out) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return ::testing::AssertionFailure() << "cannot resolve /proc/self/exe";
  }
  exe[n] = '\0';

  char out_path[] = "/tmp/fresh_process_XXXXXX";
  const int fd = mkstemp(out_path);
  if (fd < 0) {
    return ::testing::AssertionFailure() << "mkstemp failed";
  }
  close(fd);

  setenv(env_var, out_path, 1);
  const std::string cmd = std::string(exe) + " --gtest_filter=" + child_test +
                          " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  unsetenv(env_var);

  // Slurp and unlink before judging so a failure cannot strand the file.
  std::ifstream f(out_path, std::ios::binary);
  std::stringstream got;
  got << f.rdbuf();
  std::remove(out_path);
  *out = got.str();
  if (rc != 0) {
    return ::testing::AssertionFailure() << "subprocess run failed";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace utps

#endif  // UTPS_TESTS_FRESH_PROCESS_H_
