// Figure 12: effect of the CR-MR batch size (1 -> 20) on μTPS-T and μTPS-H,
// YCSB-A, 8 B items. The batch size sets both the number of requests moved
// per CR-MR queue slot and the number of indexing coroutines interleaved at
// the memory-resident layer.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();
  const WorkloadSpec spec = WorkloadSpec::YcsbA(keys, 8);
  std::vector<unsigned> batches = Quick() ? std::vector<unsigned>{1, 8, 20}
                                          : std::vector<unsigned>{1, 2, 4, 8,
                                                                  12, 16, 20};

  Figure fig;
  fig.Table("== Figure 12: effect of batching (YCSB-A, 8 B items) ==",
            {"index", "batch"});
  for (IndexType index : {IndexType::kTree, IndexType::kHash}) {
    // Tune the thread split once at the default batch size, then hold it
    // fixed so the sweep isolates the batching effect.
    const unsigned tuned_ncr =
        TestBed(index, spec).Run(StdConfig(SystemKind::kMuTps, spec)).ncr;
    for (unsigned batch : batches) {
      fig.Point({IndexName(index), std::to_string(batch)}, [&] {
        ExperimentConfig cfg = StdConfig(SystemKind::kMuTps, spec);
        cfg.mutps.batch_size = batch;
        cfg.mutps.autotune = false;
        cfg.mutps.initial_ncr = tuned_ncr;
        return TestBed(index, spec).Run(cfg);
      });
    }
  }
  return 0;
}
