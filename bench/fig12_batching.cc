// Figure 12: effect of the CR-MR batch size (1 -> 20) on μTPS-T and μTPS-H,
// YCSB-A, 8 B items. The batch size sets both the number of requests moved
// per CR-MR queue slot and the number of indexing coroutines interleaved at
// the memory-resident layer.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();
  std::vector<unsigned> batches = Quick() ? std::vector<unsigned>{1, 8, 20}
                                          : std::vector<unsigned>{1, 2, 4, 8,
                                                                  12, 16, 20};

  std::printf("== Figure 12: effect of batching (YCSB-A, 8 B items) ==\n");
  PrintTableHeader({"index", "batch", "Mops", "p50(us)", "p99(us)"});
  for (IndexType index : {IndexType::kTree, IndexType::kHash}) {
    // Tune the thread split once at the default batch size, then hold it
    // fixed so the sweep isolates the batching effect.
    unsigned tuned_ncr;
    {
      ExperimentConfig warm = StdConfig(SystemKind::kMuTps,
                                        WorkloadSpec::YcsbA(keys, 8));
      tuned_ncr = TestBed(index, WorkloadSpec::YcsbA(keys, 8)).Run(warm).ncr;
    }
    for (unsigned batch : batches) {
      ExperimentConfig cfg = StdConfig(SystemKind::kMuTps,
                                       WorkloadSpec::YcsbA(keys, 8));
      cfg.mutps.batch_size = batch;
      cfg.mutps.autotune = false;
      cfg.mutps.initial_ncr = tuned_ncr;
      const ExperimentResult r =
          TestBed(index, WorkloadSpec::YcsbA(keys, 8)).Run(cfg);
      std::printf("%-14s%-14u%-14.2f%-14.2f%-14.2f\n", IndexName(index), batch,
                  r.mops, r.p50_ns / 1000.0, r.p99_ns / 1000.0);
      std::fflush(stdout);
    }
  }
  return 0;
}
