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
// ran on (populate included; every row has its own bed). The file's host
// member records the host's transparent-huge-page mode, which bed
// construction depends on (DESIGN.md §13 "Bed construction"), next to the
// commit and build the binary came from.
//
// Output: BENCH_simperf.json in the current directory, or the path given in
// MUTPS_JSON_OUT. run_benches.sh invokes this and commits the result next
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

#include "harness/bench_util.h"
#include "harness/experiment.h"

using namespace utps;

namespace {

// Fixed measurement settings: large enough that per-point wall time is
// dominated by the event loop (not populate), small enough for CI.
constexpr uint64_t kKeys = 200000;
constexpr uint64_t kSeed = 42;

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

// Wall time and engine events summed over a group of rows.
struct Totals {
  double wall_s = 0.0;
  uint64_t events = 0;
};

// Populates a fresh bed of `index` sized by `populate`, then runs the point
// on it, timing the two separately. Prints the row, appends it to the open
// array of `j` and adds the run to `totals`.
void RunPoint(bench::JsonWriter& j, Totals& totals, const char* name,
              IndexType index, const WorkloadSpec& populate,
              const ExperimentConfig& cfg) {
  const auto setup_start = std::chrono::steady_clock::now();
  TestBed bed(index, populate);
  const auto start = std::chrono::steady_clock::now();
  const ExperimentResult r = bed.Run(cfg);
  const auto end = std::chrono::steady_clock::now();
  const double setup_s =
      std::chrono::duration<double>(start - setup_start).count();
  const double wall_s = std::chrono::duration<double>(end - start).count();
  const double events_per_sec =
      wall_s > 0.0 ? static_cast<double>(r.sched_events) / wall_s : 0.0;
  std::printf(
      "%-32s %6.3f s setup %8.3f s  %12llu events  %10.0f ev/s  "
      "%8.2f simMops  %llu clamps\n",
      name, setup_s, wall_s, static_cast<unsigned long long>(r.sched_events),
      events_per_sec, r.mops,
      static_cast<unsigned long long>(r.sched_clamps));
  std::fflush(stdout);
  j.Open(nullptr, '{', /*one_line=*/true);
  j.Str("name", name);
  j.Num("setup_s", setup_s, 3);
  j.Num("wall_s", wall_s, 3);
  j.Int("events", r.sched_events);
  j.Num("events_per_sec", events_per_sec, 0);
  j.Num("sim_mops", r.mops, 3);
  j.Int("sim_ops", r.ops);
  // ScheduleAt past-deadline clamps (bug detector).
  j.Int("sched_clamps", r.sched_clamps);
  j.Close();
  totals.wall_s += wall_s;
  totals.events += r.sched_events;
}

}  // namespace

int main() {
  std::printf("== simulator self-performance (fixed %llu keys, seed %llu) ==\n",
              static_cast<unsigned long long>(kKeys),
              static_cast<unsigned long long>(kSeed));
  bench::JsonWriter j;
  j.Int("db_keys", kKeys);
  j.Int("seed", kSeed);

  Totals totals;
  j.Open("benches", '[');
  {
    // The Figure 7 headline grid, one representative cell per system: tree
    // index, 64 B values, YCSB-A — the configuration CI uses as the
    // wall-clock speedup gate.
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 64);
    const WorkloadSpec ycsbc = WorkloadSpec::YcsbC(kKeys, 64);
    const auto run = [&](const char* name, const ExperimentConfig& cfg) {
      RunPoint(j, totals, name, IndexType::kTree, ycsba, cfg);
    };
    run("fig07_tree64_ycsba_mutps", PerfConfig(SystemKind::kMuTps, ycsba));
    run("fig07_tree64_ycsba_basekv", PerfConfig(SystemKind::kBaseKv, ycsba));
    run("fig07_tree64_ycsba_erpckv", PerfConfig(SystemKind::kErpcKv, ycsba));
    run("fig07_tree64_ycsbc_sherman", PerfConfig(SystemKind::kSherman, ycsbc));
  }
  {
    // Figure 12 shape: hash index, batched MR indexing (the symmetric-transfer
    // and cache-probe hot paths).
    const WorkloadSpec ycsba = WorkloadSpec::YcsbA(kKeys, 8);
    ExperimentConfig b1 = PerfConfig(SystemKind::kMuTps, ycsba);
    b1.mutps.batch_size = 1;
    RunPoint(j, totals, "fig12_hash8_ycsba_batch1", IndexType::kHash, ycsba,
             b1);
    ExperimentConfig b8 = PerfConfig(SystemKind::kMuTps, ycsba);
    b8.mutps.batch_size = 8;
    RunPoint(j, totals, "fig12_hash8_ycsba_batch8", IndexType::kHash, ycsba,
             b8);
  }
  j.Close();
  j.Num("total_wall_s", totals.wall_s, 3);
  j.Int("total_events", totals.events);
  std::printf("total: %.3f s, %llu events, %.0f events/s\n", totals.wall_s,
              static_cast<unsigned long long>(totals.events),
              totals.wall_s > 0.0
                  ? static_cast<double>(totals.events) / totals.wall_s
                  : 0.0);

  // At-scale leg: the fig16 sampled machinery (fast-forward + detailed
  // windows) at selfperf scale — host cost of the two-mode engine, kept in
  // its own JSON section so total_wall_s stays comparable with older files
  // whose totals cover only the full-detail legs above.
  Totals atscale;
  j.Open("atscale_benches", '[');
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
    RunPoint(j, atscale, "atscale_hash64_ycsbc_sampled", IndexType::kHash,
             ycsbc, cfg);
  }
  j.Close();
  j.Num("atscale_wall_s", atscale.wall_s, 3);
  return j.Save("simperf") ? 0 : 1;
}
