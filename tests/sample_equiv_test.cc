// Sampled-simulation error bound (DESIGN.md §12): the two-mode engine's
// extrapolated throughput and latency percentiles must stay within 5%
// relative error of a full-detail run of the same configuration, across
// experiment seeds and window plans, on reduced fig07 (tree, 64 B, YCSB-A)
// and fig12 (hash, 8 B, MR batching) configurations. A deliberately biased
// window plan — windows "measured" while the machine stays functional — must
// trip the bound, proving the harness can actually detect a broken sampler
// (mutation-style negative control). The two runs of a comparison differ
// only in cfg.sample.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "harness/experiment.h"
#include "workload/workload.h"

namespace utps {
namespace {

constexpr uint64_t kKeys = 20000;

ExperimentConfig BaseConfig(SystemKind system, const WorkloadSpec& spec,
                            uint64_t seed) {
  ExperimentConfig cfg;
  cfg.system = system;
  cfg.workload = spec;
  cfg.client_threads = 16;
  cfg.pipeline_depth = 4;
  cfg.seed = seed;
  cfg.warmup_ns = 300 * sim::kUsec;
  cfg.measure_ns = 3200 * sim::kUsec;
  cfg.max_warmup_ns = 5 * sim::kMsec;
  cfg.mutps.autotune = false;  // a mid-measure retune would read frozen
                               // counters during functional segments
  return cfg;
}

sim::SampleConfig Plan(sim::SamplePlan plan, uint64_t plan_seed) {
  sim::SampleConfig sc;
  sc.enabled = true;
  sc.period_ns = 400 * sim::kUsec;  // 8 windows over the 3.2 ms measure
  sc.window_ns = 130 * sim::kUsec;  // sized for stable P99 tail mass
  sc.rewarm_ns = 80 * sim::kUsec;   // queue depth fully rebuilds post-switch
  sc.plan = plan;
  sc.plan_seed = plan_seed;
  return sc;
}

ExperimentResult RunFresh(IndexType index, SystemKind system,
                          const WorkloadSpec& spec, uint64_t seed,
                          const sim::SampleConfig* sample,
                          void (*mutate)(ExperimentConfig*) = nullptr) {
  TestBed bed(index, spec);
  ExperimentConfig cfg = BaseConfig(system, spec, seed);
  if (sample != nullptr) {
    cfg.sample = *sample;
  }
  if (mutate != nullptr) {
    mutate(&cfg);
  }
  return bed.Run(cfg);
}

double RelErr(double est, double truth) {
  return truth == 0.0 ? 1.0 : std::fabs(est - truth) / truth;
}

// Runs full detail once per seed, then each sampled plan against it.
void ExpectWithinBound(IndexType index, SystemKind system,
                       const WorkloadSpec& spec, const char* label,
                       void (*mutate)(ExperimentConfig*) = nullptr) {
  constexpr double kBound = 0.05;
  for (uint64_t seed : {42ull, 1337ull, 2024ull}) {
    const ExperimentResult truth =
        RunFresh(index, system, spec, seed, nullptr, mutate);
    ASSERT_GT(truth.ops, 0u) << label;
    ASSERT_FALSE(truth.sampled) << label;
    for (sim::SamplePlan plan :
         {sim::SamplePlan::kPeriodic, sim::SamplePlan::kRandom}) {
      const sim::SampleConfig sc = Plan(plan, seed);
      const ExperimentResult est =
          RunFresh(index, system, spec, seed, &sc, mutate);
      ASSERT_TRUE(est.sampled) << label;
      ASSERT_GE(est.detail_windows, 5u) << label;
      const double e_mops = RelErr(est.est_mops, truth.mops);
      const double e_p50 = RelErr(static_cast<double>(est.p50_ns),
                                  static_cast<double>(truth.p50_ns));
      const double e_p99 = RelErr(static_cast<double>(est.p99_ns),
                                  static_cast<double>(truth.p99_ns));
      std::printf(
          "%s seed=%llu plan=%s: mops %.3f vs %.3f (%.1f%%)  p50 %llu vs "
          "%llu (%.1f%%)  p99 %llu vs %llu (%.1f%%)  windows=%llu\n",
          label, static_cast<unsigned long long>(seed), sim::SamplePlanName(plan),
          est.est_mops, truth.mops, e_mops * 100.0,
          static_cast<unsigned long long>(est.p50_ns),
          static_cast<unsigned long long>(truth.p50_ns), e_p50 * 100.0,
          static_cast<unsigned long long>(est.p99_ns),
          static_cast<unsigned long long>(truth.p99_ns), e_p99 * 100.0,
          static_cast<unsigned long long>(est.detail_windows));
      EXPECT_LE(e_mops, kBound)
          << label << " seed=" << seed << " plan=" << sim::SamplePlanName(plan);
      EXPECT_LE(e_p50, kBound)
          << label << " seed=" << seed << " plan=" << sim::SamplePlanName(plan);
      EXPECT_LE(e_p99, kBound)
          << label << " seed=" << seed << " plan=" << sim::SamplePlanName(plan);
    }
  }
}

TEST(SampleEquiv, Fig07TreeYcsbaMuTpsWithinBound) {
  ExpectWithinBound(IndexType::kTree, SystemKind::kMuTps,
                    WorkloadSpec::YcsbA(kKeys, 64), "fig07_mutps");
}

TEST(SampleEquiv, Fig12HashBatchingWithinBound) {
  ExpectWithinBound(IndexType::kHash, SystemKind::kMuTps,
                    WorkloadSpec::YcsbA(kKeys, 8), "fig12_batch8",
                    [](ExperimentConfig* cfg) { cfg->mutps.batch_size = 8; });
}

// Negative control: the biased plan measures during functional execution,
// where per-op costs are flat and low — throughput inflates and latency
// collapses far past any honest sampling error. If this stops tripping the
// bound, the validation harness itself is broken.
TEST(SampleEquiv, BiasedPlanTripsTheBound) {
  const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 64);
  const ExperimentResult truth =
      RunFresh(IndexType::kTree, SystemKind::kMuTps, ycsba, 42, nullptr);
  const sim::SampleConfig sc = Plan(sim::SamplePlan::kBiased, 42);
  const ExperimentResult est =
      RunFresh(IndexType::kTree, SystemKind::kMuTps, ycsba, 42, &sc);
  ASSERT_TRUE(est.sampled);
  const double e_mops = RelErr(est.est_mops, truth.mops);
  const double e_p50 = RelErr(static_cast<double>(est.p50_ns),
                              static_cast<double>(truth.p50_ns));
  std::printf("biased: mops %.3f vs %.3f (%.1f%%)  p50 %llu vs %llu (%.1f%%)\n",
              est.est_mops, truth.mops, e_mops * 100.0,
              static_cast<unsigned long long>(est.p50_ns),
              static_cast<unsigned long long>(truth.p50_ns), e_p50 * 100.0);
  EXPECT_GT(e_mops, 0.05);
  EXPECT_GT(e_p50, 0.05);
}

// The confidence interval must be a usable signal: for a steady-state
// workload the 95% half-width should be a small fraction of the estimate.
TEST(SampleEquiv, ConfidenceIntervalIsTight) {
  const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(kKeys, 64);
  const sim::SampleConfig sc = Plan(sim::SamplePlan::kPeriodic, 1);
  const ExperimentResult est =
      RunFresh(IndexType::kTree, SystemKind::kMuTps, ycsbc, 42, &sc);
  ASSERT_TRUE(est.sampled);
  ASSERT_GT(est.est_mops, 0.0);
  EXPECT_GT(est.est_mops_ci95, 0.0);
  EXPECT_LT(est.est_mops_ci95 / est.est_mops, 0.10);
}

}  // namespace
}  // namespace utps
