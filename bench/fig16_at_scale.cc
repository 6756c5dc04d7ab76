// Figure 16: million-user-scale points via sampled simulation (DESIGN.md
// §12). Sweeps a 10M-key database with thousands of closed-loop clients —
// a regime full-detail simulation cannot reach in CI wall-clock — by running
// the measurement interval in two-mode (functional fast-forward + detailed
// sample windows) and reporting the extrapolated throughput estimate with
// its 95% confidence half-width.
//
// The estimates are trustworthy because tests/sample_equiv_test pins the
// sampled-vs-full-detail relative error to <= 5% on configurations small
// enough to run both ways; this bench then applies the validated machinery
// at a scale where only the sampled mode is affordable.
//
// Knobs: MUTPS_ATSCALE_KEYS (default 10,000,000) and MUTPS_JSON_OUT
// (default BENCH_atscale.json). The file's host member records the host's
// CPU count and the process's peak RSS (`peak_rss_kb`, the whole sweep's
// high-water mark). The sample plan is fixed: periodic, 150 us period /
// 50 us window / 20 us rewarm over a 10 ms measure interval — ~66 windows,
// targeting est_mops relative CI95 <= 10%.
#include <chrono>
#include <cstdio>

#include "common/env.h"
#include "harness/bench_util.h"
#include "harness/experiment.h"

using namespace utps;

namespace {

constexpr uint64_t kSeed = 42;

ExperimentConfig PointConfig(SystemKind system, const WorkloadSpec& spec) {
  ExperimentConfig cfg;
  cfg.system = system;
  cfg.workload = spec;
  cfg.client_threads = 128;  // x16 deep pipelines = 2048 closed-loop clients
  cfg.pipeline_depth = 16;
  cfg.seed = kSeed;
  cfg.warmup_ns = 1 * sim::kMsec;
  cfg.max_warmup_ns = 10 * sim::kMsec;
  cfg.mutps.autotune = false;  // steady-state data path; tuner has own benches
  cfg.sample.enabled = true;
  cfg.sample.plan = sim::SamplePlan::kPeriodic;
  // Window plan: ~66 detailed windows over the measurement interval. The
  // estimate's CI95 is dominated by between-window variance (windows sample
  // different phases of the hot-set refresh cycle), so the half-width
  // shrinks as 1/sqrt(windows): 10 windows gave ~25-30% relative CI95 on
  // the μTPS legs, 66 brings it under 10%. Wall-clock stays within the old
  // 10-window budget because the wave-2 host optimizations roughly halved
  // the per-event cost at this scale.
  cfg.measure_ns = 10 * sim::kMsec;
  cfg.sample.period_ns = 150 * sim::kUsec;
  cfg.sample.window_ns = 50 * sim::kUsec;
  cfg.sample.rewarm_ns = 20 * sim::kUsec;
  return cfg;
}

// Populates a fresh hash bed of 64 B values for the point, then runs it;
// wall_s covers the run only. Prints the row and appends it to the open
// array of `j`.
void RunPoint(bench::JsonWriter& j, const char* name,
              const ExperimentConfig& cfg) {
  const auto pop_start = std::chrono::steady_clock::now();
  TestBed bed(IndexType::kHash, WorkloadSpec::YcsbC(cfg.workload.num_keys, 64));
  const auto start = std::chrono::steady_clock::now();
  std::printf("populate: %.1f s\n",
              std::chrono::duration<double>(start - pop_start).count());
  const ExperimentResult r = bed.Run(cfg);
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();
  std::printf(
      "%-28s %8.3f s  %7.2f +/- %5.2f Mops  p50 %5llu ns  p99 %6llu ns  "
      "(%llu windows)\n",
      name, wall_s, r.est_mops, r.est_mops_ci95,
      static_cast<unsigned long long>(r.p50_ns),
      static_cast<unsigned long long>(r.p99_ns),
      static_cast<unsigned long long>(r.detail_windows));
  std::fflush(stdout);
  j.Open(nullptr, '{', /*one_line=*/true);
  j.Str("name", name);
  j.Num("wall_s", wall_s, 3);
  j.Num("est_mops", r.est_mops, 4);
  j.Num("est_mops_ci95", r.est_mops_ci95, 4);
  j.Int("p50_ns", r.p50_ns);
  j.Int("p99_ns", r.p99_ns);
  j.Int("windows", r.detail_windows);
  j.Int("sim_ops", r.ops);
  j.Int("events", r.sched_events);
  j.Close();
}

}  // namespace

int main() {
  const uint64_t keys =
      static_cast<uint64_t>(EnvInt("MUTPS_ATSCALE_KEYS", 10'000'000));
  std::printf("== fig16: sampled simulation at scale (%llu keys, 2048 "
              "clients, seed %llu) ==\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(kSeed));
  bench::JsonWriter j;
  j.Str("bench", "at_scale");
  j.Int("keys", keys);
  j.Int("clients", 2048);
  j.Int("seed", kSeed);

  const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(keys, 64);
  const WorkloadSpec ycsba = WorkloadSpec::YcsbA(keys, 64);
  j.Open("benches", '[');
  RunPoint(j, "atscale_ycsbc_mutps", PointConfig(SystemKind::kMuTps, ycsbc));
  RunPoint(j, "atscale_ycsbc_basekv", PointConfig(SystemKind::kBaseKv, ycsbc));
  RunPoint(j, "atscale_ycsba_mutps", PointConfig(SystemKind::kMuTps, ycsba));
  RunPoint(j, "atscale_ycsba_basekv", PointConfig(SystemKind::kBaseKv, ycsba));
  j.Close();
  return j.Save("atscale") ? 0 : 1;
}
