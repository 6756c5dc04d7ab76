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

  std::printf("\n== Figure 9: throughput on the Twitter traces (tree index) "
              "==\n");
  PrintTableHeader({"cluster", "system", "Mops", "p50(us)", "p99(us)"});
  std::vector<int> clusters = Quick() ? std::vector<int>{19}
                                      : std::vector<int>{12, 19, 31};
  for (int c : clusters) {
    WorkloadSpec spec = WorkloadSpec::TwitterCluster(c);
    spec.num_keys = keys;
    for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                           SystemKind::kErpcKv}) {
      const ExperimentResult r =
          TestBed(IndexType::kTree, spec).Run(StdConfig(sys, spec));
      std::printf("%-14d%-14s%-14.2f%-14.2f%-14.2f\n", c,
                  DisplayName(sys, IndexType::kTree), r.mops, r.p50_ns / 1000.0,
                  r.p99_ns / 1000.0);
      std::fflush(stdout);
    }
  }
  return 0;
}
