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
// Knobs: MUTPS_ATSCALE_KEYS (default 10,000,000) and MUTPS_ATSCALE_OUT
// (default BENCH_atscale.json). The file also records the host's CPU count
// and the process's peak RSS (`peak_rss_kb`, the whole sweep's high-water
// mark). The default sample plan (periodic, 150 us period / 50 us window /
// 20 us rewarm over a 10 ms measure interval — ~66 windows, targeting
// est_mops relative CI95 <= 10%) is what committed rows use;
// MUTPS_ATSCALE_{MEASURE,PERIOD,WINDOW,REWARM}_US exist only for plan
// experiments.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "harness/bench_util.h"
#include "harness/experiment.h"

using namespace utps;

namespace {

constexpr uint64_t kSeed = 42;

struct ScaleRow {
  std::string name;
  double wall_s = 0.0;
  double est_mops = 0.0;
  double ci95 = 0.0;
  sim::Tick p50_ns = 0;
  sim::Tick p99_ns = 0;
  uint64_t windows = 0;
  uint64_t sim_ops = 0;
  uint64_t events = 0;
};

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
  // the per-event cost at this scale. The MUTPS_ATSCALE_* overrides exist
  // for plan experiments; committed rows always use the defaults.
  cfg.measure_ns = static_cast<sim::Tick>(
      EnvInt("MUTPS_ATSCALE_MEASURE_US", 10000) * sim::kUsec);
  cfg.sample.period_ns = static_cast<sim::Tick>(
      EnvInt("MUTPS_ATSCALE_PERIOD_US", 150) * sim::kUsec);
  cfg.sample.window_ns = static_cast<sim::Tick>(
      EnvInt("MUTPS_ATSCALE_WINDOW_US", 50) * sim::kUsec);
  cfg.sample.rewarm_ns = static_cast<sim::Tick>(
      EnvInt("MUTPS_ATSCALE_REWARM_US", 20) * sim::kUsec);
  return cfg;
}

// Populates a fresh hash bed of 64 B values for the point, then runs it;
// wall_s covers the run only.
ScaleRow RunPoint(const char* name, const ExperimentConfig& cfg) {
  const auto pop_start = std::chrono::steady_clock::now();
  TestBed bed(IndexType::kHash, WorkloadSpec::YcsbC(cfg.workload.num_keys, 64));
  const auto start = std::chrono::steady_clock::now();
  std::printf("populate: %.1f s\n",
              std::chrono::duration<double>(start - pop_start).count());
  const ExperimentResult r = bed.Run(cfg);
  const auto end = std::chrono::steady_clock::now();
  ScaleRow row;
  row.name = name;
  row.wall_s = std::chrono::duration<double>(end - start).count();
  row.est_mops = r.est_mops;
  row.ci95 = r.est_mops_ci95;
  row.p50_ns = r.p50_ns;
  row.p99_ns = r.p99_ns;
  row.windows = r.detail_windows;
  row.sim_ops = r.ops;
  row.events = r.sched_events;
  std::printf(
      "%-28s %8.3f s  %7.2f +/- %5.2f Mops  p50 %5llu ns  p99 %6llu ns  "
      "(%llu windows)\n",
      name, row.wall_s, row.est_mops, row.ci95,
      static_cast<unsigned long long>(row.p50_ns),
      static_cast<unsigned long long>(row.p99_ns),
      static_cast<unsigned long long>(row.windows));
  std::fflush(stdout);
  return row;
}

}  // namespace

int main() {
  const uint64_t keys =
      static_cast<uint64_t>(EnvInt("MUTPS_ATSCALE_KEYS", 10'000'000));
  std::printf("== fig16: sampled simulation at scale (%llu keys, 2048 "
              "clients, seed %llu) ==\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(kSeed));

  const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(keys, 64);
  const WorkloadSpec ycsba = WorkloadSpec::YcsbA(keys, 64);
  const std::vector<ScaleRow> rows = {
      RunPoint("atscale_ycsbc_mutps", PointConfig(SystemKind::kMuTps, ycsbc)),
      RunPoint("atscale_ycsbc_basekv", PointConfig(SystemKind::kBaseKv, ycsbc)),
      RunPoint("atscale_ycsba_mutps", PointConfig(SystemKind::kMuTps, ycsba)),
      RunPoint("atscale_ycsba_basekv", PointConfig(SystemKind::kBaseKv, ycsba)),
  };

  const std::string out = EnvStr("MUTPS_ATSCALE_OUT", "BENCH_atscale.json");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig16: cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"at_scale\",\n");
  std::fprintf(f, "  \"keys\": %llu,\n  \"clients\": 2048,\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(keys),
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"peak_rss_kb\": %llu,\n",
               static_cast<unsigned long long>(bench::PeakRssKb()));
  std::fprintf(f, "  \"benches\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_s\": %.3f, "
                 "\"est_mops\": %.4f, \"est_mops_ci95\": %.4f, "
                 "\"p50_ns\": %llu, \"p99_ns\": %llu, \"windows\": %llu, "
                 "\"sim_ops\": %llu, \"events\": %llu}%s\n",
                 r.name.c_str(), r.wall_s, r.est_mops, r.ci95,
                 static_cast<unsigned long long>(r.p50_ns),
                 static_cast<unsigned long long>(r.p99_ns),
                 static_cast<unsigned long long>(r.windows),
                 static_cast<unsigned long long>(r.sim_ops),
                 static_cast<unsigned long long>(r.events),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
