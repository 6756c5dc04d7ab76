// Figure 13: what the auto-tuner converges to.
//   (a) fraction of worker threads assigned to the memory-resident layer as
//       keyspace and item size vary (skewed and uniform);
//   (b) fraction of LLC ways reused by the memory-resident layer;
//   (c) fraction of the hot set actually cached at the cache-resident layer
//       as skewness and index type vary.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

namespace {

ExperimentConfig TunerConfig(const WorkloadSpec& spec, bool tune_llc) {
  ExperimentConfig cfg = StdConfig(SystemKind::kMuTps, spec);
  cfg.mutps.tune_llc = tune_llc;
  cfg.mutps.cache_sizes = {0, 2000, 4000, 6000, 8000, 10000};
  cfg.max_warmup_ns = 200 * sim::kMsec;
  return cfg;
}

}  // namespace

int main() {
  const uint64_t base_keys = DbKeys();

  // ------------------------------------------------------ Fig 13a and 13b
  std::printf("== Figure 13a/13b: MR thread ratio and MR LLC-way ratio ==\n");
  PrintTableHeader({"keyspace", "size", "skew", "MR-threads", "MR-ways",
                    "cache-items", "Mops"});
  std::vector<uint64_t> keyspaces =
      Quick() ? std::vector<uint64_t>{base_keys}
              : std::vector<uint64_t>{base_keys / 4, base_keys};
  std::vector<uint32_t> sizes = Quick() ? std::vector<uint32_t>{64}
                                        : std::vector<uint32_t>{8, 256};
  for (uint64_t ks : keyspaces) {
    for (uint32_t size : sizes) {
      for (bool skew : {true, false}) {
        TestBed bed(IndexType::kTree, WorkloadSpec::YcsbA(ks, size, skew));
        const ExperimentConfig cfg =
            TunerConfig(WorkloadSpec::YcsbA(ks, size, skew), /*tune_llc=*/true);
        const ExperimentResult r = bed.Run(cfg);
        const unsigned total_ways = bed.mem()->config().llc_ways;
        std::printf("%-14llu%-14u%-14s%.2f (%u/%u)  %.2f (%u/%u)  %-14u%-14.2f\n",
                    static_cast<unsigned long long>(ks), size,
                    skew ? "zipf" : "uniform",
                    static_cast<double>(r.nmr) / (r.ncr + r.nmr), r.nmr,
                    r.ncr + r.nmr, static_cast<double>(r.mr_ways) / total_ways,
                    r.mr_ways, total_ways, r.cache_items, r.mops);
        std::fflush(stdout);
      }
    }
  }

  // --------------------------------------------------------------- Fig 13c
  std::printf("\n== Figure 13c: cached fraction of the hot set vs skew ==\n");
  PrintTableHeader({"index", "zipf-theta", "cache-items", "hot-set",
                    "ratio", "Mops"});
  std::vector<double> thetas = Quick() ? std::vector<double>{0.99}
                                       : std::vector<double>{0.6, 0.8, 0.99,
                                                             1.1};
  for (IndexType index : {IndexType::kTree, IndexType::kHash}) {
    for (double theta : thetas) {
      WorkloadSpec spec = WorkloadSpec::YcsbA(base_keys, 8);
      spec.zipf_theta = theta;
      TestBed bed(index, spec);
      const ExperimentConfig cfg = TunerConfig(spec, /*tune_llc=*/false);
      const ExperimentResult r = bed.Run(cfg);
      // The tuner's largest probed cache size (paper: 10K).
      const uint32_t hot_set = cfg.mutps.cache_sizes.back();
      std::printf("%-14s%-14.2f%-14u%-14u%-14.2f%-14.2f\n", IndexName(index),
                  theta, r.cache_items, hot_set,
                  static_cast<double>(r.cache_items) / hot_set, r.mops);
      std::fflush(stdout);
    }
  }
  return 0;
}
