// Figure 10: throughput vs P50/P99 latency as the number of client threads
// grows from 2 to 64 (step 4). YCSB-A, 8 B items, both indexes.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

int main() {
  const uint64_t keys = DbKeys();
  std::vector<unsigned> clients;
  if (Quick()) {
    clients = {4, 16, 64};
  } else {
    clients.push_back(2);
    for (unsigned c = 4; c <= 64; c += 4) {
      clients.push_back(c);
    }
  }

  Figure fig;
  for (IndexType index : {IndexType::kHash, IndexType::kTree}) {
    fig.Table(std::string("== Figure 10 (") + IndexName(index) +
                  " index): latency vs throughput, YCSB-A 8B ==",
              {"clients", "system"});
    for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv,
                           SystemKind::kErpcKv}) {
      for (unsigned c : clients) {
        fig.Point({std::to_string(c), DisplayName(sys, index)}, [&] {
          ExperimentConfig cfg = StdConfig(sys, WorkloadSpec::YcsbA(keys, 8));
          cfg.client_threads = c;
          cfg.pipeline_depth = 1;  // closed loop: one outstanding per thread
          return TestBed(index, WorkloadSpec::YcsbA(keys, 8)).Run(cfg);
        });
      }
    }
  }
  return 0;
}
