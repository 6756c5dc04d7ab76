// Scale-out cluster bench (DESIGN.md §14): two legs.
//
//  1. Node-count scaling: 1/2/4/8-node clusters with the client fleet scaled
//     alongside (4 clients per node), reporting aggregate Mops, P50/P99, and
//     the redirect/replication tax. Replication is on for every multi-node
//     point (writes ack only after the backup applies), so this measures the
//     honest scale-out curve, not a no-replication best case.
//
//  2. Flash crowd + rebalance: a 4-node cluster running skewed traffic whose
//     hotset jumps mid-run (every client re-aims at a shifted key range).
//     The hotset-driven rebalancer migrates the newly hot shards live; the
//     100us-bucket throughput and P99 time series around the shift show the
//     dip and the recovery, summarized fig15-style as the first bucket back
//     at >=90% of the pre-shift rate (and P99 back under 1.5x pre-shift).
//
// Output: BENCH_cluster.json in the current directory, or the path in
// MUTPS_CLUSTER_OUT. MUTPS_BENCH_SCALE scales the measured windows.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/harness.h"
#include "common/env.h"

using namespace utps;
using cluster::ClusterBenchConfig;

namespace {

constexpr uint64_t kSeed = 42;

struct ScaleRow {
  unsigned nodes = 0;
  unsigned clients = 0;
  double mops = 0.0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t retries = 0;
  uint64_t redirects_not_owner = 0;
  uint64_t repl_applied = 0;
  double speedup = 0.0;  // vs the 1-node point
};

ClusterBenchConfig BaseConfig(unsigned nodes) {
  ClusterBenchConfig cfg;
  cfg.cluster.nodes = nodes;
  cfg.cluster.shards = 16;
  cfg.cluster.workers = 4;
  cfg.cluster.num_keys = 16384;
  cfg.cluster.value_size = 100;
  cfg.cluster.seed = kSeed;
  cfg.clients = 4 * nodes;
  cfg.put_frac = 0.05;
  cfg.warmup_ns = static_cast<sim::Tick>(300 * sim::kUsec);
  cfg.measure_ns = static_cast<sim::Tick>(2 * sim::kMsec * BenchScale());
  return cfg;
}

ScaleRow RunScalePoint(unsigned nodes) {
  const ClusterBenchConfig cfg = BaseConfig(nodes);
  const ExperimentResult r = cluster::RunClusterExperiment(cfg);
  ScaleRow row;
  row.nodes = nodes;
  row.clients = cfg.clients;
  row.mops = r.mops;
  row.p50_ns = r.p50_ns;
  row.p99_ns = r.p99_ns;
  row.retries = r.retries;
  for (const NodeCounters& n : r.node_counters) {
    row.redirects_not_owner += n.not_owner;
    row.repl_applied += n.repl_applied;
  }
  std::printf("%u nodes (%2u clients): %7.3f Mops  p50 %5.1fus  p99 %6.1fus"
              "  not_owner %llu  repl %llu\n",
              nodes, row.clients, row.mops, r.p50_ns / 1e3, r.p99_ns / 1e3,
              static_cast<unsigned long long>(row.redirects_not_owner),
              static_cast<unsigned long long>(row.repl_applied));
  std::fflush(stdout);
  return row;
}

struct CrowdResult {
  ExperimentResult r;
  sim::Tick shift_at_ns = 0;
  double pre_mops = 0.0;
  double pre_p99_us = 0.0;
  double tput_recovery_us = -1.0;
  double p99_recovery_us = -1.0;
};

CrowdResult RunFlashCrowd() {
  ClusterBenchConfig cfg = BaseConfig(4);
  cfg.zipf_theta = 1.05;  // sharper hotset: the shift moves real load
  cfg.record_timeline = true;
  cfg.record_latency_timeline = true;
  cfg.measure_ns = static_cast<sim::Tick>(4 * sim::kMsec * BenchScale());
  cfg.hotshift_at_ns = cfg.warmup_ns + cfg.measure_ns / 3;
  // Trigger threshold between the settled imbalance (hot shards spread by
  // the seeded placement) and the post-shift concentration. The cooldown
  // only spaces the migrations out; what keeps a shard from ping-ponging is
  // the rebalancer's rule that a move must lower the predicted peak node
  // load (PickRebalanceMove), which a dominant shard's move never does.
  cfg.cluster.rebalance_period_ns = 150 * sim::kUsec;
  cfg.cluster.imbalance_factor = 1.8;
  cfg.cluster.rebalance_min_ops = 200;
  cfg.cluster.rebalance_cooldown_ns = 600 * sim::kUsec;
  CrowdResult out;
  out.r = cluster::RunClusterExperiment(cfg);
  out.shift_at_ns = cfg.hotshift_at_ns;
  const ExperimentResult& r = out.r;

  std::printf("\n-- flash crowd (4 nodes, shift at %.2fms, rebalancer on) "
              "--\n",
              cfg.hotshift_at_ns / 1e6);
  std::printf("%-10s%-10s%-10s\n", "t(ms)", "Mops", "P99(us)");
  for (size_t i = 0; i < r.timeline_mops.size(); i++) {
    const double p99us =
        i < r.timeline_p99_ns.size() ? r.timeline_p99_ns[i] / 1e3 : 0.0;
    std::printf("%-10.2f%-10.2f%-10.1f\n",
                static_cast<double>(i) * r.timeline_bucket_ns / 1e6,
                r.timeline_mops[i], p99us);
  }

  // fig15-style recovery: mean of complete pre-shift measurement buckets,
  // then the first post-shift bucket back at >=90% (throughput) and back
  // under 1.5x (P99).
  const size_t warm_b =
      static_cast<size_t>(cfg.warmup_ns / r.timeline_bucket_ns);
  const size_t shift_b =
      static_cast<size_t>(cfg.hotshift_at_ns / r.timeline_bucket_ns);
  double pre = 0.0;
  double pre_p99 = 0.0;
  size_t n = 0;
  for (size_t i = warm_b; i < shift_b && i < r.timeline_mops.size(); i++) {
    pre += r.timeline_mops[i];
    if (i < r.timeline_p99_ns.size()) {
      pre_p99 += r.timeline_p99_ns[i];
    }
    n++;
  }
  if (n > 0) {
    pre /= static_cast<double>(n);
    pre_p99 /= static_cast<double>(n);
  }
  out.pre_mops = pre;
  out.pre_p99_us = pre_p99 / 1e3;
  for (size_t i = shift_b + 1; i < r.timeline_mops.size(); i++) {
    const double t_us = (static_cast<double>(i) * r.timeline_bucket_ns -
                         static_cast<double>(cfg.hotshift_at_ns)) / 1e3;
    if (out.tput_recovery_us < 0.0 && r.timeline_mops[i] >= 0.9 * pre) {
      out.tput_recovery_us = t_us;
    }
    if (out.p99_recovery_us < 0.0 && i < r.timeline_p99_ns.size() &&
        static_cast<double>(r.timeline_p99_ns[i]) <= 1.5 * pre_p99) {
      out.p99_recovery_us = t_us;
    }
    if (out.tput_recovery_us >= 0.0 && out.p99_recovery_us >= 0.0) {
      break;
    }
  }
  std::printf("pre-shift %.2f Mops / p99 %.1fus; migrations %llu "
              "(ring epoch %llu)\n",
              pre, out.pre_p99_us,
              static_cast<unsigned long long>(r.shard_migrations),
              static_cast<unsigned long long>(r.ring_epoch));
  if (out.tput_recovery_us >= 0.0) {
    std::printf("throughput recovery %.0fus", out.tput_recovery_us);
  } else {
    std::printf("throughput recovery: not within the run");
  }
  if (out.p99_recovery_us >= 0.0) {
    std::printf("; p99 recovery %.0fus\n", out.p99_recovery_us);
  } else {
    std::printf("; p99 recovery: not within the run\n");
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== cluster scale-out sweep (seed %llu, scale %.2f) ==\n",
              static_cast<unsigned long long>(kSeed), BenchScale());
  std::vector<ScaleRow> rows;
  for (unsigned nodes : {1u, 2u, 4u, 8u}) {
    rows.push_back(RunScalePoint(nodes));
  }
  for (ScaleRow& row : rows) {
    row.speedup = rows[0].mops > 0.0 ? row.mops / rows[0].mops : 0.0;
  }
  const CrowdResult crowd = RunFlashCrowd();

  const std::string out = EnvStr("MUTPS_CLUSTER_OUT", "BENCH_cluster.json");
  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig19: cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"cluster\",\n  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"scaling\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    const ScaleRow& r = rows[i];
    std::fprintf(f,
                 "    {\"nodes\": %u, \"clients\": %u, \"mops\": %.4f, "
                 "\"p50_ns\": %llu, \"p99_ns\": %llu, \"retries\": %llu, "
                 "\"not_owner\": %llu, \"repl_applied\": %llu, "
                 "\"speedup\": %.3f}%s\n",
                 r.nodes, r.clients, r.mops,
                 static_cast<unsigned long long>(r.p50_ns),
                 static_cast<unsigned long long>(r.p99_ns),
                 static_cast<unsigned long long>(r.retries),
                 static_cast<unsigned long long>(r.redirects_not_owner),
                 static_cast<unsigned long long>(r.repl_applied), r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const ExperimentResult& cr = crowd.r;
  std::fprintf(f, "  \"flash_crowd\": {\n");
  std::fprintf(f, "    \"nodes\": 4,\n    \"shift_at_ns\": %llu,\n",
               static_cast<unsigned long long>(crowd.shift_at_ns));
  std::fprintf(f,
               "    \"pre_mops\": %.4f,\n    \"pre_p99_us\": %.1f,\n"
               "    \"tput_recovery_us\": %.0f,\n"
               "    \"p99_recovery_us\": %.0f,\n",
               crowd.pre_mops, crowd.pre_p99_us, crowd.tput_recovery_us,
               crowd.p99_recovery_us);
  std::fprintf(f,
               "    \"migrations\": %llu,\n    \"ring_epoch\": %llu,\n"
               "    \"bucket_ns\": %llu,\n",
               static_cast<unsigned long long>(cr.shard_migrations),
               static_cast<unsigned long long>(cr.ring_epoch),
               static_cast<unsigned long long>(cr.timeline_bucket_ns));
  std::fprintf(f, "    \"timeline_mops\": [");
  for (size_t i = 0; i < cr.timeline_mops.size(); i++) {
    std::fprintf(f, "%.3f%s", cr.timeline_mops[i],
                 i + 1 < cr.timeline_mops.size() ? ", " : "");
  }
  std::fprintf(f, "],\n    \"timeline_p99_us\": [");
  for (size_t i = 0; i < cr.timeline_p99_ns.size(); i++) {
    std::fprintf(f, "%.1f%s", cr.timeline_p99_ns[i] / 1e3,
                 i + 1 < cr.timeline_p99_ns.size() ? ", " : "");
  }
  std::fprintf(f, "]\n  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
