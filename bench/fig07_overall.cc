// Figure 7: overall throughput of μTPS-T/μTPS-H vs BaseKV, eRPCKV, RaceHash
// and Sherman across YCSB mixes (A, B, C, 100%-put-skew, 100%-get-uniform,
// 100%-put-uniform), item sizes (8 B – 1 KB), and both index structures.
//
// Prints one row per (index, size, workload, system) with throughput and
// latency; the paper's bar chart is the Mops column.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

namespace {

struct Mix {
  const char* name;
  WorkloadSpec (*make)(uint64_t keys, uint32_t vsize);
};

WorkloadSpec MakeA(uint64_t k, uint32_t v) { return WorkloadSpec::YcsbA(k, v); }
WorkloadSpec MakeB(uint64_t k, uint32_t v) { return WorkloadSpec::YcsbB(k, v); }
WorkloadSpec MakeC(uint64_t k, uint32_t v) { return WorkloadSpec::YcsbC(k, v); }
WorkloadSpec MakePutS(uint64_t k, uint32_t v) {
  return WorkloadSpec::PutOnly(k, v, true);
}
WorkloadSpec MakeGetU(uint64_t k, uint32_t v) {
  return WorkloadSpec::GetOnly(k, v, false);
}
WorkloadSpec MakePutU(uint64_t k, uint32_t v) {
  return WorkloadSpec::PutOnly(k, v, false);
}

}  // namespace

int main() {
  const uint64_t keys = DbKeys();
  std::vector<uint32_t> sizes = {8, 64, 256, 1024};
  std::vector<Mix> mixes = {{"YCSB-A", MakeA},   {"YCSB-B", MakeB},
                            {"YCSB-C", MakeC},   {"PUT-S", MakePutS},
                            {"GET-U", MakeGetU}, {"PUT-U", MakePutU}};
  std::vector<IndexType> indexes = {IndexType::kTree, IndexType::kHash};
  if (Quick()) {
    sizes = {64};
    mixes = {{"YCSB-A", MakeA}, {"YCSB-C", MakeC}};
  }

  std::printf("== Figure 7: overall performance (%llu keys) ==\n",
              static_cast<unsigned long long>(keys));
  PrintTableHeader({"index", "size", "workload", "system", "Mops", "p50(us)",
                    "p99(us)"});
  for (IndexType index : indexes) {
    for (uint32_t size : sizes) {
      for (const Mix& mix : mixes) {
        const WorkloadSpec spec = mix.make(keys, size);
        std::vector<SystemKind> systems = {SystemKind::kMuTps,
                                           SystemKind::kBaseKv,
                                           SystemKind::kErpcKv};
        if (index == IndexType::kHash) {
          systems.push_back(SystemKind::kRaceHash);
        } else {
          systems.push_back(SystemKind::kSherman);
        }
        for (SystemKind sys : systems) {
          // Every point on its own freshly populated bed.
          const ExperimentResult r =
              TestBed(index, WorkloadSpec::YcsbC(keys, size))
                  .Run(StdConfig(sys, spec));
          std::printf("%-14s%-14u%-14s%-14s%-14.2f%-14.2f%-14.2f\n",
                      IndexName(index), size, mix.name, DisplayName(sys, index),
                      r.mops, r.p50_ns / 1000.0, r.p99_ns / 1000.0);
          PrintObsReport(r);
          std::fflush(stdout);
        }
      }
    }
  }
  return 0;
}
