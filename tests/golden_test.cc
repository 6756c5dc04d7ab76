// Golden-row regression test: runs tiny-scale versions of the Figure 2 and
// Figure 12 experiment configurations, plus a μTPS-H run that serves hot
// hits and one auto-tuned μTPS run, in-process and compares the result rows
// byte-for-byte against checked-in expectations (tests/golden_expected.inc).
//
// Purpose: scheduler / cache-model / awaitable refactors must keep the
// simulation byte-identical. dst_determinism_test catches nondeterminism
// *within* one build; this test catches semantic drift *across* builds — a
// perf change that silently reorders events or shifts a latency shows up as
// a golden mismatch here.
//
// Regenerating expectations (only when a change intentionally alters timing
// semantics — say so in the commit message):
//   MUTPS_GOLDEN_REGEN=1 ./build/tests/golden_test > /tmp/golden
//   then paste the rows between the markers into tests/golden_expected.inc.
//
// The configurations are hardcoded (no MUTPS_* env influence) so the rows are
// comparable across machines and CI runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "result_row.h"

namespace utps {
namespace {

constexpr uint64_t kKeys = 20000;

// Short fixed windows: enough virtual time for every system to reach steady
// state at 20k keys while keeping the whole test a few seconds of host time.
ExperimentConfig TinyConfig(SystemKind system, const WorkloadSpec& spec) {
  ExperimentConfig cfg;
  cfg.system = system;
  cfg.workload = spec;
  cfg.client_threads = 16;
  cfg.pipeline_depth = 4;
  if (system == SystemKind::kRaceHash || system == SystemKind::kSherman) {
    cfg.pipeline_depth = 2;  // passive clients, as in StdConfig
  }
  cfg.warmup_ns = 150 * sim::kUsec;
  cfg.measure_ns = 300 * sim::kUsec;
  cfg.max_warmup_ns = 2 * sim::kMsec;
  // Fixed thread split and hot-cache size: these rows pin the steady-state
  // data path; the "tuned" row below turns the auto-tuner on.
  cfg.mutps.autotune = false;
  cfg.mutps.initial_ncr = 0;  // heuristic: workers / 3
  return cfg;
}

// Every row runs on its own freshly populated bed (TestBed::Run runs once).
std::vector<std::string> RunGoldenRows() {
  std::vector<std::string> rows;

  {
    // Figure 2 / Figure 7 shapes: tree index, 64 B values, RTC baselines vs
    // μTPS vs a one-sided passive system.
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 64);
    const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(kKeys, 64);
    const auto run = [&ycsba](SystemKind sys, const WorkloadSpec& spec) {
      return TestBed(IndexType::kTree, ycsba).Run(TinyConfig(sys, spec));
    };
    rows.push_back(FormatRow("fig02", "BaseKV", "YCSB-A",
                             run(SystemKind::kBaseKv, ycsba)));
    rows.push_back(FormatRow("fig02", "eRPCKV", "YCSB-A",
                             run(SystemKind::kErpcKv, ycsba)));
    rows.push_back(FormatRow("fig02", "uTPS-T", "YCSB-A",
                             run(SystemKind::kMuTps, ycsba)));
    rows.push_back(FormatRow("fig02", "Sherman", "YCSB-C",
                             run(SystemKind::kSherman, ycsbc)));
  }

  {
    // Figure 12 shape: hash index, 8 B values, CR-MR batch-size ablation
    // (batch 1 = serial MR indexing, batch 8 = overlapped misses).
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 8);
    const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(kKeys, 8);
    for (unsigned batch : {1u, 8u}) {
      ExperimentConfig cfg = TinyConfig(SystemKind::kMuTps, ycsba);
      cfg.mutps.batch_size = batch;
      char tag[32];
      std::snprintf(tag, sizeof(tag), "fig12-b%u", batch);
      rows.push_back(FormatRow(tag, "uTPS-H", "YCSB-A",
                               TestBed(IndexType::kHash, ycsba).Run(cfg)));
    }
    rows.push_back(FormatRow(
        "fig12", "RaceHash", "YCSB-C",
        TestBed(IndexType::kHash, ycsba)
            .Run(TinyConfig(SystemKind::kRaceHash, ycsbc))));
  }

  {
    // μTPS-H's hot path: a short refresh period and a longer warm-up let
    // the manager publish a hot set, so the measure window serves CR-layer
    // hot hits on a hash bed.
    const WorkloadSpec ycsbb = WorkloadSpec::YcsbB(kKeys, 64);
    ExperimentConfig cfg = TinyConfig(SystemKind::kMuTps, ycsbb);
    cfg.warmup_ns = 600 * sim::kUsec;
    cfg.mutps.refresh_period_ns = 20 * sim::kUsec;
    rows.push_back(FormatRow("hot", "uTPS-H", "YCSB-B",
                             TestBed(IndexType::kHash, ycsbb).Run(cfg)));
  }

  {
    // The auto-tuner end to end (§3.5): cache-size probes, the thread-split
    // and LLC-way trisections, and hot-set publication on a tree bed.
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 64);
    ExperimentConfig cfg = TinyConfig(SystemKind::kMuTps, ycsba);
    cfg.mutps.autotune = true;
    cfg.mutps.cache_sizes = {0, 1000, 4000};
    cfg.mutps.tune_window_ns = 50 * sim::kUsec;
    cfg.mutps.refresh_period_ns = 200 * sim::kUsec;
    cfg.max_warmup_ns = 20 * sim::kMsec;
    rows.push_back(FormatRow("tuned", "uTPS-T", "YCSB-A",
                             TestBed(IndexType::kTree, ycsba).Run(cfg)));
  }

  return rows;
}

const char* const kExpectedRows[] = {
#include "golden_expected.inc"
};

TEST(Golden, RowsMatchCheckedInExpectations) {
  const std::vector<std::string> rows = RunGoldenRows();
  if (std::getenv("MUTPS_GOLDEN_REGEN") != nullptr) {
    std::printf("-- golden rows (paste into tests/golden_expected.inc) --\n");
    for (const std::string& r : rows) {
      std::printf("    \"%s\",\n", r.c_str());
    }
    return;
  }
  const size_t expected_n = sizeof(kExpectedRows) / sizeof(kExpectedRows[0]);
  ASSERT_EQ(rows.size(), expected_n);
  for (size_t i = 0; i < expected_n; i++) {
    EXPECT_EQ(rows[i], kExpectedRows[i]) << "golden row " << i << " shifted — "
        << "a refactor changed simulation semantics (see tests/golden_test.cc "
        << "header for how to regenerate if the change is intentional)";
  }
}

}  // namespace
}  // namespace utps
