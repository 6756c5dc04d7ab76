// Auto-tuner behaviour tests: the hierarchical search must land within a few
// percent of the best configuration found by an exhaustive thread-split
// sweep, reconfigurations must never lose or strand requests, and whole
// experiments must be bit-deterministic across runs.
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace utps {
namespace {

using sim::kMsec;
using sim::kUsec;

WorkloadSpec Spec(uint64_t keys) { return WorkloadSpec::YcsbA(keys, 64); }

ExperimentConfig BaseCfg(const WorkloadSpec& w) {
  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = w;
  cfg.client_threads = 32;
  cfg.pipeline_depth = 8;
  cfg.warmup_ns = 1 * kMsec;
  cfg.measure_ns = 2 * kMsec;
  cfg.max_warmup_ns = 120 * kMsec;
  cfg.mutps.tune_window_ns = 400 * kUsec;
  cfg.mutps.refresh_period_ns = 1 * kMsec;
  cfg.mutps.cache_sizes = {0, 4000};
  cfg.mutps.tune_llc = false;
  return cfg;
}

TEST(AutoTuner, TrisectionMatchesExhaustiveSweep) {
  const uint64_t kKeys = 400000;
  sim::MachineConfig mc;
  mc.num_cores = 14;
  const auto run = [&](const ExperimentConfig& cfg) {
    return TestBed(IndexType::kTree, Spec(kKeys), /*server_workers=*/12, mc)
        .Run(cfg);
  };
  // Exhaustive sweep with the tuner disabled.
  double best_manual = 0.0;
  unsigned best_ncr = 0;
  for (unsigned ncr = 1; ncr < 12; ncr++) {
    ExperimentConfig cfg = BaseCfg(Spec(kKeys));
    cfg.mutps.autotune = false;
    cfg.mutps.initial_ncr = ncr;
    const ExperimentResult r = run(cfg);
    if (r.mops > best_manual) {
      best_manual = r.mops;
      best_ncr = ncr;
    }
  }
  ASSERT_GT(best_manual, 0.0);
  // The auto-tuned run must reach >= 85% of the manual optimum (measurement
  // windows are short and noisy; the paper's claim is convergence, not
  // exact argmax).
  ExperimentConfig cfg = BaseCfg(Spec(kKeys));
  cfg.mutps.autotune = true;
  const ExperimentResult r = run(cfg);
  EXPECT_GE(r.mops, 0.85 * best_manual)
      << "auto ncr=" << r.ncr << " manual best ncr=" << best_ncr;
}

// A tuned μTPS-T on YCSB-E: the tuner's trisection shrinks the CR layer
// while leaving workers still drain forwarded scans, and publishes the next
// split right after. Each split must wait for every worker to acknowledge the
// previous one, or a leaver re-enters the CR layer without having run as an
// MR worker and the batches forwarded to it are stranded: the run completes
// no request at all. fig08 once printed 0.00 Mops for scan-only μTPS-T, so
// scan-only runs at two seeds as well. StdConfig's quick tune, one fresh
// bed per run.
TEST(AutoTuner, TunedScansCompleteRequests) {
  const uint64_t kKeys = 200000;
  const struct {
    WorkloadSpec spec;
    std::vector<uint64_t> seeds;
  } loads[] = {{WorkloadSpec::YcsbE(kKeys, 64), {1, 2, 3, 7, 42}},
               {WorkloadSpec::ScanOnly(kKeys, 64), {1, 2}}};
  for (const auto& [spec, seeds] : loads) {
    for (const uint64_t seed : seeds) {
      TestBed bed(IndexType::kTree, spec, /*server_workers=*/12);
      ExperimentConfig cfg;
      cfg.system = SystemKind::kMuTps;
      cfg.workload = spec;
      cfg.client_threads = 64;
      cfg.pipeline_depth = 16;
      cfg.warmup_ns = 1 * kMsec;
      cfg.measure_ns = 200 * kUsec;
      cfg.max_warmup_ns = 25 * kMsec;
      cfg.seed = seed;
      cfg.mutps.tune_llc = false;
      cfg.mutps.cache_sizes = {0, 4000, 8000};
      cfg.mutps.tune_window_ns = 150 * kUsec;
      cfg.mutps.refresh_period_ns = 2 * kMsec;
      const ExperimentResult r = bed.Run(cfg);
      EXPECT_GT(r.ops, 0u) << spec.scan_ratio << " scans, seed " << seed
                           << ": ncr=" << r.ncr
                           << " reconfigs=" << r.reconfigs;
    }
  }
}

TEST(AutoTuner, ManualSplitRequestIsApplied) {
  const uint64_t kKeys = 200000;
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(IndexType::kHash, Spec(kKeys), 8, mc);
  ExperimentConfig cfg = BaseCfg(Spec(kKeys));
  cfg.mutps.autotune = false;
  cfg.mutps.initial_ncr = 5;
  const ExperimentResult r = bed.Run(cfg);
  EXPECT_EQ(r.ncr, 5u);
  EXPECT_EQ(r.nmr, 3u);
}

TEST(Determinism, IdenticalSeedsProduceIdenticalResults) {
  const uint64_t kKeys = 150000;
  sim::MachineConfig mc;
  mc.num_cores = 10;
  ExperimentConfig cfg = BaseCfg(Spec(kKeys));
  cfg.mutps.autotune = true;
  ExperimentResult a;
  ExperimentResult b;
  {
    TestBed bed(IndexType::kTree, Spec(kKeys), 8, mc);
    a = bed.Run(cfg);
  }
  {
    TestBed bed(IndexType::kTree, Spec(kKeys), 8, mc);
    b = bed.Run(cfg);
  }
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.p50_ns, b.p50_ns);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  EXPECT_EQ(a.ncr, b.ncr);
  EXPECT_EQ(a.cache_items, b.cache_items);
  EXPECT_EQ(a.reconfigs, b.reconfigs);
}

TEST(Determinism, DifferentSeedsDiffer) {
  const uint64_t kKeys = 150000;
  sim::MachineConfig mc;
  mc.num_cores = 10;
  ExperimentConfig cfg = BaseCfg(Spec(kKeys));
  cfg.mutps.autotune = false;
  // Each run on its own bed, so the seed is the only difference.
  const auto run = [&](const ExperimentConfig& c) {
    return TestBed(IndexType::kTree, Spec(kKeys), 8, mc).Run(c);
  };
  const ExperimentResult a = run(cfg);
  cfg.seed = 4242;
  const ExperimentResult b = run(cfg);
  EXPECT_NE(a.ops, b.ops);  // different client streams
}

}  // namespace
}  // namespace utps
