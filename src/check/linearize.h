// Linearizability checking over recorded histories (Wing & Gong 1993,
// partitioned by key), plus a snapshot-window rule for range scans.
//
// Single-key operations: the checker searches for a linearization of each
// key's history against a register semantics (put = write, delete = write of
// "absent", get = read). Because every put carries a unique stamp
// (check/history.h), reads pin the search hard and the DFS rarely branches.
//
// Scans cannot be linearized against a single register; they are checked
// against a per-entry possibly-visible-window rule instead (see
// CheckLinearizability's doc in linearize.cc), which is a sound necessary
// condition: any entry that provably could not have been live at any instant
// of the scan's interval is a violation.
#ifndef UTPS_CHECK_LINEARIZE_H_
#define UTPS_CHECK_LINEARIZE_H_

#include <cstdint>
#include <string>

#include "check/history.h"

namespace utps::check {

struct CheckOptions {
  // DFS node budget across the whole history; when exhausted the result is
  // marked inconclusive instead of failing (never triggers in practice with
  // unique write stamps).
  uint64_t node_budget = 8'000'000;
};

struct CheckResult {
  bool ok = true;
  bool inconclusive = false;  // node budget exhausted (no verdict)
  std::string error;          // first violation, human-readable
  Key bad_key = 0;
  size_t ops_checked = 0;

  explicit operator bool() const { return ok; }
};

CheckResult CheckLinearizability(const History& h, const CheckOptions& opts);

}  // namespace utps::check

#endif  // UTPS_CHECK_LINEARIZE_H_
