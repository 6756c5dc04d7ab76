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

  Figure fig;
  for (IndexType index : {IndexType::kHash, IndexType::kTree}) {
    for (uint32_t size : sizes) {
      fig.Table(std::string("== Figure 11 (") + IndexName(index) + " index, " +
                    std::to_string(size) + " B items): YCSB-A scalability ==",
                {"workers", "system"}, {kMops, kP50});
      for (unsigned w : workers) {
        for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                               SystemKind::kErpcKv}) {
          if (sys == SystemKind::kMuTps && w < 2) {
            continue;  // needs at least one core per layer
          }
          const WorkloadSpec spec = WorkloadSpec::YcsbA(keys, size);
          fig.Point({std::to_string(w), DisplayName(sys, index)}, [&] {
            return TestBed(index, spec, w).Run(StdConfig(sys, spec));
          });
        }
      }
    }
  }
  return 0;
}
