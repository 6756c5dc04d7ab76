// Figure 7: overall throughput of μTPS-T/μTPS-H vs BaseKV, eRPCKV, RaceHash
// and Sherman across YCSB mixes (A, B, C, 100%-put-skew, 100%-get-uniform,
// 100%-put-uniform), item sizes (8 B – 1 KB), and both index structures.
//
// Prints one row per (index, size, workload, system) with throughput and
// latency; the paper's bar chart is the Mops column.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();
  std::vector<uint32_t> sizes =
      Quick() ? std::vector<uint32_t>{64}
              : std::vector<uint32_t>{8, 64, 256, 1024};

  Figure fig;
  fig.Table("== Figure 7: overall performance (" + std::to_string(keys) +
                " keys) ==",
            {"index", "size", "workload", "system"});
  for (IndexType index : {IndexType::kTree, IndexType::kHash}) {
    for (uint32_t size : sizes) {
      std::vector<std::pair<const char*, WorkloadSpec>> mixes = {
          {"YCSB-A", WorkloadSpec::YcsbA(keys, size)},
          {"YCSB-B", WorkloadSpec::YcsbB(keys, size)},
          {"YCSB-C", WorkloadSpec::YcsbC(keys, size)},
          {"PUT-S", WorkloadSpec::PutOnly(keys, size, true)},
          {"GET-U", WorkloadSpec::GetOnly(keys, size, false)},
          {"PUT-U", WorkloadSpec::PutOnly(keys, size, false)}};
      if (Quick()) {
        mixes = {mixes[0], mixes[2]};
      }
      for (const auto& [mix, spec] : mixes) {
        for (SystemKind sys :
             {SystemKind::kMuTps, SystemKind::kBaseKv, SystemKind::kErpcKv,
              index == IndexType::kHash ? SystemKind::kRaceHash
                                        : SystemKind::kSherman}) {
          // Every point on its own freshly populated bed.
          fig.Point({IndexName(index), std::to_string(size), mix,
                     DisplayName(sys, index)},
                    [&] {
                      return TestBed(index, WorkloadSpec::YcsbC(keys, size))
                          .Run(StdConfig(sys, spec));
                    });
        }
      }
    }
  }
  return 0;
}
