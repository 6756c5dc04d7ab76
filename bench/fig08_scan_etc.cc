// Figure 8: (a) scan throughput — YCSB-E (95% scan + 5% put) and scan-only,
// average range 50, 8 B items, tree index; (b)-(c) Meta ETC pool with get
// ratios 10% / 50% / 90%. eRPCKV runs only the ETC mixes: its share-nothing
// scan reads only its own shard, about 1/W of each range, so its scan rows
// would not measure the same work.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();

  std::printf("== Figure 8a: scan throughput (tree index, 8 B items, "
              "avg range 50) ==\n");
  PrintTableHeader({"workload", "system", "Mops", "p50(us)", "p99(us)"});
  {
    struct ScanMix {
      const char* name;
      WorkloadSpec spec;
    };
    std::vector<ScanMix> mixes = {{"YCSB-E", WorkloadSpec::YcsbE(keys, 8)},
                                  {"scan-only", WorkloadSpec::ScanOnly(keys, 8)}};
    for (const ScanMix& mix : mixes) {
      for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv}) {
        const ExperimentResult r =
            TestBed(IndexType::kTree, WorkloadSpec::YcsbE(keys, 8))
                .Run(StdConfig(sys, mix.spec));
        std::printf("%-14s%-14s%-14.2f%-14.2f%-14.2f\n", mix.name,
                    DisplayName(sys, IndexType::kTree), r.mops,
                    r.p50_ns / 1000.0, r.p99_ns / 1000.0);
        PrintObsReport(r);
        std::fflush(stdout);
      }
    }
  }

  std::printf("\n== Figure 8b-c: Meta ETC pool (tree index) ==\n");
  PrintTableHeader({"get-ratio", "system", "Mops", "p50(us)", "p99(us)"});
  {
    std::vector<double> ratios =
        Quick() ? std::vector<double>{0.5} : std::vector<double>{0.1, 0.5, 0.9};
    for (double ratio : ratios) {
      const WorkloadSpec spec = WorkloadSpec::Etc(keys, ratio);
      for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                             SystemKind::kErpcKv}) {
        const ExperimentResult r =
            TestBed(IndexType::kTree, WorkloadSpec::Etc(keys, 0.5))
                .Run(StdConfig(sys, spec));
        std::printf("%-14.0f%-14s%-14.2f%-14.2f%-14.2f\n", ratio * 100,
                    DisplayName(sys, IndexType::kTree), r.mops,
                    r.p50_ns / 1000.0, r.p99_ns / 1000.0);
        PrintObsReport(r);
        std::fflush(stdout);
      }
    }
  }
  return 0;
}
