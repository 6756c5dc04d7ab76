// Simulator self-performance bench: wall-clock speed of the discrete-event
// engine on representative figure workloads, written as machine-readable JSON
// so every PR has a host-performance trajectory to answer to.
//
// Unlike the figure benches (which report *simulated* Mops), this measures
// the *host*: wall seconds per point and engine events per wall second. The
// workload points are fixed (no MUTPS_BENCH_SCALE / MUTPS_DB_SIZE influence)
// so numbers are comparable across commits on the same machine.
//
// Each row also records `setup_s`, the construction time of the TestBed it
// ran on (populate included; every row has its own bed), and the file
// records the host's transparent-huge-page mode, which bed construction
// depends on (DESIGN.md §13 "Bed construction").
//
// Output: BENCH_simperf.json in the current directory, or the path given in
// MUTPS_SIMPERF_OUT. run_benches.sh invokes this and commits the result next
// to the figure outputs; compare a run with the committed file with e.g.
//   python3 - <<'EOF'
//   import json
//   a = json.load(open('results/BENCH_simperf.json'))
//   b = json.load(open('BENCH_simperf.json'))
//   for x, y in zip(a['benches'], b['benches']):
//       print(f"{x['name']:32s} {x['wall_s']/y['wall_s']:.2f}x")
//   EOF
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "harness/bench_util.h"
#include "harness/experiment.h"

using namespace utps;

namespace {

struct PerfRow {
  std::string name;
  double setup_s = 0.0;  // construction of the bed this row ran on
  double wall_s = 0.0;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  double sim_mops = 0.0;
  uint64_t sim_ops = 0;
  uint64_t sched_clamps = 0;  // ScheduleAt past-deadline clamps (bug detector)
};

// Fixed measurement settings: large enough that per-point wall time is
// dominated by the event loop (not populate), small enough for CI.
constexpr uint64_t kKeys = 200000;
constexpr uint64_t kSeed = 42;

// The bracketed word of /sys/kernel/mm/transparent_hugepage/enabled
// ("always", "madvise" or "never"); "unknown" where the file is missing.
std::string ThpMode() {
  FILE* f = std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (f == nullptr) {
    return "unknown";
  }
  char line[128] = {};
  const bool read = std::fgets(line, sizeof(line), f) != nullptr;
  std::fclose(f);
  const char* open = read ? std::strchr(line, '[') : nullptr;
  const char* close = open != nullptr ? std::strchr(open, ']') : nullptr;
  return close != nullptr ? std::string(open + 1, close) : "unknown";
}

ExperimentConfig PerfConfig(SystemKind system, const WorkloadSpec& spec) {
  ExperimentConfig cfg;
  cfg.system = system;
  cfg.workload = spec;
  cfg.client_threads = 64;
  cfg.pipeline_depth = 16;
  if (system == SystemKind::kRaceHash || system == SystemKind::kSherman) {
    cfg.pipeline_depth = 2;
  }
  cfg.seed = kSeed;
  cfg.warmup_ns = 500 * sim::kUsec;
  cfg.measure_ns = 1 * sim::kMsec;
  cfg.max_warmup_ns = 10 * sim::kMsec;
  cfg.mutps.autotune = false;  // steady-state data path, not the tuner search
  return cfg;
}

// Populates a fresh bed of `index` sized by `populate`, then runs the point
// on it, timing the two separately.
PerfRow RunPoint(const char* name, IndexType index,
                 const WorkloadSpec& populate, const ExperimentConfig& cfg) {
  const auto setup_start = std::chrono::steady_clock::now();
  TestBed bed(index, populate);
  const auto start = std::chrono::steady_clock::now();
  const ExperimentResult r = bed.Run(cfg);
  const auto end = std::chrono::steady_clock::now();
  PerfRow row;
  row.name = name;
  row.setup_s = std::chrono::duration<double>(start - setup_start).count();
  row.wall_s = std::chrono::duration<double>(end - start).count();
  row.events = r.sched_events;
  row.events_per_sec =
      row.wall_s > 0.0 ? static_cast<double>(r.sched_events) / row.wall_s : 0.0;
  row.sim_mops = r.mops;
  row.sim_ops = r.ops;
  row.sched_clamps = r.sched_clamps;
  std::printf(
      "%-32s %6.3f s setup %8.3f s  %12llu events  %10.0f ev/s  "
      "%8.2f simMops  %llu clamps\n",
      name, row.setup_s, row.wall_s,
      static_cast<unsigned long long>(row.events), row.events_per_sec,
      row.sim_mops,
      static_cast<unsigned long long>(row.sched_clamps));
  std::fflush(stdout);
  return row;
}

}  // namespace

int main() {
  std::printf("== simulator self-performance (fixed %llu keys, seed %llu) ==\n",
              static_cast<unsigned long long>(kKeys),
              static_cast<unsigned long long>(kSeed));
  std::vector<PerfRow> rows;

  {
    // The Figure 7 headline grid, one representative cell per system: tree
    // index, 64 B values, YCSB-A — the configuration CI uses as the
    // wall-clock speedup gate.
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 64);
    const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(kKeys, 64);
    const auto run = [&ycsba](const char* name, const ExperimentConfig& cfg) {
      return RunPoint(name, IndexType::kTree, ycsba, cfg);
    };
    rows.push_back(run("fig07_tree64_ycsba_mutps",
                       PerfConfig(SystemKind::kMuTps, ycsba)));
    rows.push_back(run("fig07_tree64_ycsba_basekv",
                       PerfConfig(SystemKind::kBaseKv, ycsba)));
    rows.push_back(run("fig07_tree64_ycsba_erpckv",
                       PerfConfig(SystemKind::kErpcKv, ycsba)));
    rows.push_back(run("fig07_tree64_ycsbc_sherman",
                       PerfConfig(SystemKind::kSherman, ycsbc)));
  }
  {
    // Figure 12 shape: hash index, batched MR indexing (the symmetric-transfer
    // and cache-probe hot paths).
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 8);
    ExperimentConfig b1 = PerfConfig(SystemKind::kMuTps, ycsba);
    b1.mutps.batch_size = 1;
    rows.push_back(
        RunPoint("fig12_hash8_ycsba_batch1", IndexType::kHash, ycsba, b1));
    ExperimentConfig b8 = PerfConfig(SystemKind::kMuTps, ycsba);
    b8.mutps.batch_size = 8;
    rows.push_back(
        RunPoint("fig12_hash8_ycsba_batch8", IndexType::kHash, ycsba, b8));
  }

  double total_wall = 0.0;
  uint64_t total_events = 0;
  for (const PerfRow& r : rows) {
    total_wall += r.wall_s;
    total_events += r.events;
  }
  std::printf("total: %.3f s, %llu events, %.0f events/s\n", total_wall,
              static_cast<unsigned long long>(total_events),
              total_wall > 0.0 ? static_cast<double>(total_events) / total_wall
                               : 0.0);

  // At-scale leg: the fig16 sampled machinery (fast-forward + detailed
  // windows) at selfperf scale — host cost of the two-mode engine, kept in
  // its own JSON section so total_wall_s stays comparable with older files
  // whose totals cover only the full-detail legs above.
  std::vector<PerfRow> atscale_rows;
  {
    const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(kKeys, 64);
    ExperimentConfig cfg = PerfConfig(SystemKind::kMuTps, ycsbc);
    cfg.client_threads = 128;
    cfg.warmup_ns = 1 * sim::kMsec;
    cfg.measure_ns = 4 * sim::kMsec;
    cfg.sample.enabled = true;
    cfg.sample.period_ns = 250 * sim::kUsec;
    cfg.sample.window_ns = 50 * sim::kUsec;
    cfg.sample.rewarm_ns = 20 * sim::kUsec;
    cfg.sample.plan = sim::SamplePlan::kPeriodic;
    atscale_rows.push_back(
        RunPoint("atscale_hash64_ycsbc_sampled", IndexType::kHash, ycsbc, cfg));
  }
  double atscale_wall = 0.0;
  for (const PerfRow& r : atscale_rows) {
    atscale_wall += r.wall_s;
  }

  const std::string out = EnvStr("MUTPS_SIMPERF_OUT", "BENCH_simperf.json");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "selfperf: cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"db_keys\": %llu,\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kKeys),
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"thp_mode\": \"%s\",\n", ThpMode().c_str());
  std::fprintf(f, "  \"peak_rss_kb\": %llu,\n",
               static_cast<unsigned long long>(bench::PeakRssKb()));
  std::fprintf(f, "  \"total_wall_s\": %.3f,\n  \"total_events\": %llu,\n",
               total_wall, static_cast<unsigned long long>(total_events));
  const auto WriteRows = [f](const std::vector<PerfRow>& rs) {
    for (size_t i = 0; i < rs.size(); i++) {
      const PerfRow& r = rs[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"setup_s\": %.3f, \"wall_s\": %.3f, "
          "\"events\": %llu, \"events_per_sec\": %.0f, \"sim_mops\": %.3f, "
          "\"sim_ops\": %llu, \"sched_clamps\": %llu}%s\n",
          r.name.c_str(), r.setup_s, r.wall_s,
          static_cast<unsigned long long>(r.events), r.events_per_sec,
          r.sim_mops,
          static_cast<unsigned long long>(r.sim_ops),
          static_cast<unsigned long long>(r.sched_clamps),
          i + 1 < rs.size() ? "," : "");
    }
  };
  std::fprintf(f, "  \"benches\": [\n");
  WriteRows(rows);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"atscale_wall_s\": %.3f,\n  \"atscale_benches\": [\n",
               atscale_wall);
  WriteRows(atscale_rows);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
