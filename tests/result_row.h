// One experiment result formatted as a golden row: every field a simulation
// change could move, so two rows compare equal only when the runs were the
// same. Shared by golden_test (rows against tests/golden_expected.inc) and
// server_test (a point on a fresh bed against the same point run again).
#ifndef UTPS_TESTS_RESULT_ROW_H_
#define UTPS_TESTS_RESULT_ROW_H_

#include <cstdio>
#include <string>

#include "harness/experiment.h"

namespace utps {

inline std::string FormatRow(const char* tag, const char* system,
                             const char* mix, const ExperimentResult& r) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "%s|%s|%s|mops=%.3f|ops=%llu|p50=%llu|p99=%llu|mean=%llu|llc=%.4f|"
      "poll=%.4f|idx=%.4f|ncr=%u|hot=%llu/%llu|events=%llu",
      tag, system, mix, r.mops, static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.p50_ns),
      static_cast<unsigned long long>(r.p99_ns),
      static_cast<unsigned long long>(r.mean_ns), r.llc_miss_rate,
      r.poll_miss_rate, r.index_miss_rate, r.ncr,
      static_cast<unsigned long long>(r.hot_hits),
      static_cast<unsigned long long>(r.hot_misses),
      static_cast<unsigned long long>(r.sched_events));
  return std::string(buf);
}

}  // namespace utps

#endif  // UTPS_TESTS_RESULT_ROW_H_
