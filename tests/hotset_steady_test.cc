// Steady state of a tuned μTPS-T point (DESIGN.md §2 "Hot-set aging"): with
// the figure benches' tuner settings (StdConfig), the hot set must stay at
// its target after tuning, and the measured throughput must be flat rather
// than a peak right after the tuner's last publish.
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "harness/bench_util.h"
#include "harness/experiment.h"

namespace utps {
namespace {

TEST(HotSetSteadyState, TunedTreeYcsbBKeepsItsHotSetFull) {
  // 1M keys of 64 B: 2.5x the modeled LLC, so the tuner picks a hot set.
  const WorkloadSpec spec = WorkloadSpec::YcsbB(1'000'000, 64);
  TestBed bed(IndexType::kTree, spec);
  ExperimentConfig cfg = bench::StdConfig(SystemKind::kMuTps, spec);
  // Two 5 ms windows, each spanning two refresh periods.
  constexpr sim::Tick kWindowNs = 5 * sim::kMsec;
  cfg.warmup_ns = 1 * sim::kMsec;
  cfg.measure_ns = 2 * kWindowNs;
  cfg.record_timeline = true;
  const ExperimentResult res = bed.Run(cfg);

  // Every set published in the window (which opens 1 ms after tuning) holds
  // at least 95% of the target.
  ASSERT_GT(res.cache_target, 0u) << "the tuner left the hot set empty";
  EXPECT_GE(res.cache_min_items, 0.95 * res.cache_target)
      << "target " << res.cache_target << ", final " << res.cache_items;

  // The timeline runs from tick 0 until the last completion. Its last
  // bucket holds the requests still in flight when the window closed, so
  // the two windows end just before it.
  const size_t per = kWindowNs / res.timeline_bucket_ns;
  ASSERT_GE(res.timeline_mops.size(), 2 * per + 1);
  const auto end = res.timeline_mops.end() - 1;
  const double first = std::accumulate(end - 2 * per, end - per, 0.0) / per;
  const double second = std::accumulate(end - per, end, 0.0) / per;
  EXPECT_LE(std::abs(second - first), 0.03 * first)
      << "windows of " << first << " and " << second << " Mops";
}

}  // namespace
}  // namespace utps
