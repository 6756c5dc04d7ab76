// Figure 9 + Table 1: Twitter cache traces, synthesized from the published
// per-cluster statistics (put ratio, average value size, Zipf alpha).
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();

  std::printf("== Table 1: selected Twitter traces ==\n");
  PrintTableHeader({"cluster", "put-ratio", "avg-value", "zipf-alpha"});
  for (int c : {12, 19, 31}) {
    WorkloadSpec s = WorkloadSpec::TwitterCluster(c);
    std::printf("%-14d%-14.0f%-14u%-14.2f\n", c, s.put_ratio * 100,
                s.value_size, s.zipf_theta);
  }

  Figure fig;
  fig.Table("\n== Figure 9: throughput on the Twitter traces (tree index) ==",
            {"cluster", "system"});
  std::vector<int> clusters = Quick() ? std::vector<int>{19}
                                      : std::vector<int>{12, 19, 31};
  for (int c : clusters) {
    WorkloadSpec spec = WorkloadSpec::TwitterCluster(c);
    spec.num_keys = keys;
    for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                           SystemKind::kErpcKv}) {
      fig.Point({std::to_string(c), DisplayName(sys, IndexType::kTree)}, [&] {
        return TestBed(IndexType::kTree, spec).Run(StdConfig(sys, spec));
      });
    }
  }
  return 0;
}
