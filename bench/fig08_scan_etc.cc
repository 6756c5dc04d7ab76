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
  Figure fig;

  fig.Table("== Figure 8a: scan throughput (tree index, 8 B items, "
            "avg range 50) ==",
            {"workload", "system"});
  for (const auto& [mix, spec] :
       {std::pair{"YCSB-E", WorkloadSpec::YcsbE(keys, 8)},
        std::pair{"scan-only", WorkloadSpec::ScanOnly(keys, 8)}}) {
    for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv}) {
      fig.Point({mix, DisplayName(sys, IndexType::kTree)}, [&] {
        return TestBed(IndexType::kTree, WorkloadSpec::YcsbE(keys, 8))
            .Run(StdConfig(sys, spec));
      });
    }
  }

  fig.Table("\n== Figure 8b-c: Meta ETC pool (tree index) ==",
            {"get-ratio", "system"});
  std::vector<int> ratios =
      Quick() ? std::vector<int>{50} : std::vector<int>{10, 50, 90};
  for (int ratio : ratios) {
    const WorkloadSpec spec = WorkloadSpec::Etc(keys, ratio / 100.0);
    for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                           SystemKind::kErpcKv}) {
      fig.Point({std::to_string(ratio), DisplayName(sys, IndexType::kTree)},
                [&] {
                  return TestBed(IndexType::kTree, WorkloadSpec::Etc(keys, 0.5))
                      .Run(StdConfig(sys, spec));
                });
    }
  }
  return 0;
}
