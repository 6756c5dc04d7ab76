// Figure 11: scalability with the number of server worker threads
// (1 -> 28, step 4), YCSB-A with 8 B and 256 B items, both indexes.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();
  std::vector<unsigned> workers;
  if (Quick()) {
    workers = {4, 16, 28};
  } else {
    workers = {1, 4, 8, 12, 16, 20, 24, 28};
  }
  std::vector<uint32_t> sizes = Quick() ? std::vector<uint32_t>{8}
                                        : std::vector<uint32_t>{8, 256};

  for (IndexType index : {IndexType::kHash, IndexType::kTree}) {
    for (uint32_t size : sizes) {
      std::printf("== Figure 11 (%s index, %u B items): YCSB-A scalability ==\n",
                  IndexName(index), size);
      PrintTableHeader({"workers", "system", "Mops", "p50(us)"});
      for (unsigned w : workers) {
        for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                               SystemKind::kErpcKv}) {
          if (sys == SystemKind::kMuTps && w < 2) {
            continue;  // needs at least one core per layer
          }
          const WorkloadSpec spec = WorkloadSpec::YcsbA(keys, size);
          const ExperimentResult r =
              TestBed(index, spec, w).Run(StdConfig(sys, spec));
          std::printf("%-14u%-14s%-14.2f%-14.2f\n", w, DisplayName(sys, index),
                      r.mops, r.p50_ns / 1000.0);
          std::fflush(stdout);
        }
      }
    }
  }
  return 0;
}
