// Quickstart: build a μTPS key-value server on the simulated 28-core
// testbed, point 64 pipelined clients at it, and print throughput, latency,
// and the configuration the auto-tuner converged to.
//
//   ./examples/quickstart [num_keys] [value_size]
#include <cstdio>
#include <cstdlib>

#include "common/env.h"
#include "harness/experiment.h"

using namespace utps;

int main(int argc, char** argv) {
  const uint64_t num_keys = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000000;
  const uint32_t value_size =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 64;

  // A YCSB-A mix (50% get / 50% put) over a Zipfian key popularity.
  const WorkloadSpec spec = WorkloadSpec::YcsbA(num_keys, value_size);

  std::printf("populating %llu keys (%u B values, tree index)...\n",
              static_cast<unsigned long long>(num_keys), value_size);
  TestBed bed(IndexType::kTree, spec, /*server_workers=*/28);

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = spec;
  cfg.client_threads = 64;
  cfg.pipeline_depth = 4;
  cfg.warmup_ns = 3 * sim::kMsec;
  cfg.measure_ns = 3 * sim::kMsec;
  cfg.mutps.autotune = true;
  cfg.mutps.tune_llc = false;             // quick demo: threads + cache only
  cfg.mutps.tune_window_ns = 200 * sim::kUsec;
  cfg.mutps.refresh_period_ns = 2 * sim::kMsec;

  std::printf("running %s on the simulated testbed...\n", "uTPS-T");
  const ExperimentResult r = bed.Run(cfg);

  std::printf("\n== results ==\n");
  std::printf("throughput      : %.2f Mops/s\n", r.mops);
  std::printf("latency p50/p99 : %.2f / %.2f us\n", r.p50_ns / 1000.0,
              r.p99_ns / 1000.0);
  std::printf("thread split    : %u CR / %u MR workers\n", r.ncr, r.nmr);
  std::printf("hot cache       : %u items\n", r.cache_items);
  std::printf("LLC miss rate   : net stages %.1f%%, index/data stages %.1f%%\n",
              100.0 * r.poll_miss_rate, 100.0 * r.index_miss_rate);
  std::printf("reconfigurations: %llu\n",
              static_cast<unsigned long long>(r.reconfigs));
  return 0;
}
