// Sampled-mode determinism (DESIGN.md §12): a sampled run must be a pure
// function of (experiment seed, window plan) — byte-identical result rows
// across in-process repeats and across a fresh subprocess (mirroring
// dst_determinism_test).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "fresh_process.h"
#include "harness/experiment.h"
#include "workload/workload.h"

namespace utps {
namespace {

constexpr uint64_t kKeys = 20000;
constexpr uint64_t kSeed = 42;

struct Point {
  const char* name;
  IndexType index;
  SystemKind system;
  sim::SamplePlan plan;
};

constexpr Point kPoints[] = {
    {"tree_mutps_periodic", IndexType::kTree, SystemKind::kMuTps,
     sim::SamplePlan::kPeriodic},
    {"tree_basekv_random", IndexType::kTree, SystemKind::kBaseKv,
     sim::SamplePlan::kRandom},
    {"hash_mutps_random", IndexType::kHash, SystemKind::kMuTps,
     sim::SamplePlan::kRandom},
};

ExperimentConfig PointConfig(const Point& p) {
  ExperimentConfig cfg;
  cfg.system = p.system;
  cfg.workload = WorkloadSpec::YcsbA(kKeys, 64);
  cfg.client_threads = 16;
  cfg.pipeline_depth = 4;
  cfg.seed = kSeed;
  cfg.warmup_ns = 200 * sim::kUsec;
  cfg.measure_ns = 1600 * sim::kUsec;
  cfg.max_warmup_ns = 5 * sim::kMsec;
  cfg.mutps.autotune = false;
  cfg.sample.enabled = true;
  cfg.sample.period_ns = 400 * sim::kUsec;
  cfg.sample.window_ns = 100 * sim::kUsec;
  cfg.sample.rewarm_ns = 50 * sim::kUsec;
  cfg.sample.plan = p.plan;
  cfg.sample.plan_seed = 7;
  return cfg;
}

// Fixed-precision text of everything a sampled figure row is built from, so
// "byte-identical rows" is literally a string comparison.
std::string RowFor(const Point& p) {
  TestBed bed(p.index, WorkloadSpec::YcsbA(kKeys, 64));
  const ExperimentResult r = bed.Run(PointConfig(p));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s est=%.6f ci=%.6f ops=%llu p50=%llu p99=%llu windows=%llu "
                "detail=%llu",
                p.name, r.est_mops, r.est_mops_ci95,
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.p50_ns),
                static_cast<unsigned long long>(r.p99_ns),
                static_cast<unsigned long long>(r.detail_windows),
                static_cast<unsigned long long>(r.detail_ns));
  return buf;
}

std::string AllRows() {
  std::string rows;
  for (const Point& p : kPoints) {
    rows += RowFor(p);
    rows += '\n';
  }
  return rows;
}

// Child-side emitter: skipped unless the parent test set the output path.
TEST(SampleDeterminism, ChildEmit) {
  const char* path = std::getenv("MUTPS_SAMPLE_CHILD_OUT");
  if (path == nullptr) {
    GTEST_SKIP() << "subprocess helper (driven by SubprocessIdentical)";
  }
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  f << AllRows();
}

TEST(SampleDeterminism, InProcessRepeatIdentical) {
  for (const Point& p : kPoints) {
    const std::string a = RowFor(p);
    const std::string b = RowFor(p);
    EXPECT_EQ(a, b) << p.name << ": repeat sampled run diverged";
  }
}

TEST(SampleDeterminism, PlanSeedChangesRandomPlacement) {
  const Point p = kPoints[2];  // hash_mutps_random
  TestBed bed_a(p.index, WorkloadSpec::YcsbA(kKeys, 64));
  ExperimentConfig a = PointConfig(p);
  const ExperimentResult ra = bed_a.Run(a);
  TestBed bed_b(p.index, WorkloadSpec::YcsbA(kKeys, 64));
  ExperimentConfig b = PointConfig(p);
  b.sample.plan_seed = 8;
  const ExperimentResult rb = bed_b.Run(b);
  // Different window placement measures different ops; estimates stay close
  // (sample_equiv_test bounds that) but the exact counts must differ.
  EXPECT_NE(ra.ops, rb.ops) << "plan seed had no effect on window placement";
}

TEST(SampleDeterminism, SubprocessIdentical) {
  const std::string expected = AllRows();

  std::string got;
  ASSERT_TRUE(RunFreshProcess("MUTPS_SAMPLE_CHILD_OUT", "SampleDeterminism.ChildEmit",
                              &got));
  EXPECT_EQ(expected, got)
      << "fresh-process sampled run produced different result rows";
}

}  // namespace
}  // namespace utps
