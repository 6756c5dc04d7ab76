// Side-by-side comparison of all five systems on one workload: μTPS vs the
// run-to-completion baselines (BaseKV, eRPCKV) and the passive one-sided
// KVSs (RaceHash, Sherman).
//
//   ./examples/compare_systems [tree|hash] [value_size] [num_keys]
#include <cstdio>
#include <cstring>

#include "harness/experiment.h"

using namespace utps;

int main(int argc, char** argv) {
  const IndexType index = (argc > 1 && std::strcmp(argv[1], "hash") == 0)
                              ? IndexType::kHash
                              : IndexType::kTree;
  const uint32_t vsize =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 64;
  const uint64_t keys =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1000000;

  const WorkloadSpec spec = WorkloadSpec::YcsbB(keys, vsize);
  std::printf("workload: YCSB-B (95%% get / 5%% put), %u B values, %llu keys, "
              "%s index\n\n",
              vsize, static_cast<unsigned long long>(keys), IndexName(index));

  std::printf("%-12s%-12s%-12s%-12s\n", "system", "Mops", "p50(us)", "p99(us)");
  std::vector<SystemKind> systems = {SystemKind::kMuTps, SystemKind::kBaseKv,
                                     SystemKind::kErpcKv};
  systems.push_back(index == IndexType::kHash ? SystemKind::kRaceHash
                                              : SystemKind::kSherman);
  for (SystemKind sys : systems) {
    ExperimentConfig cfg;
    cfg.system = sys;
    cfg.workload = spec;
    cfg.client_threads = 64;
    cfg.pipeline_depth = 16;
    cfg.warmup_ns = sim::kMsec;
    cfg.measure_ns = 2 * sim::kMsec;
    cfg.mutps.tune_llc = false;
    cfg.mutps.cache_sizes = {0, 4000, 8000};
    cfg.mutps.tune_window_ns = 150 * sim::kUsec;
    cfg.mutps.refresh_period_ns = 2 * sim::kMsec;
    // A TestBed runs one point: each system gets a freshly populated one.
    const ExperimentResult r = TestBed(index, spec).Run(cfg);
    const char* name = sys == SystemKind::kMuTps
                           ? (index == IndexType::kHash ? "uTPS-H" : "uTPS-T")
                           : SystemName(sys);
    std::printf("%-12s%-12.2f%-12.2f%-12.2f\n", name, r.mops, r.p50_ns / 1000.0,
                r.p99_ns / 1000.0);
    std::fflush(stdout);
  }
  return 0;
}
