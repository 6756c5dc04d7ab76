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
// MUTPS_JSON_OUT. MUTPS_BENCH_SCALE scales the measured windows.
#include <cstdio>

#include "cluster/harness.h"
#include "common/env.h"
#include "harness/bench_util.h"

using namespace utps;
using cluster::ClusterBenchConfig;

namespace {

constexpr uint64_t kSeed = 42;

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

// Runs one scaling point, prints it and appends its row to the open array
// of `j`. The 1-node point, which runs first, sets `one_node_mops`, the
// base of every row's speedup.
void RunScalePoint(bench::JsonWriter& j, unsigned nodes,
                   double& one_node_mops) {
  const ClusterBenchConfig cfg = BaseConfig(nodes);
  const ExperimentResult r = cluster::RunClusterExperiment(cfg);
  if (nodes == 1) {
    one_node_mops = r.mops;
  }
  uint64_t not_owner = 0;
  uint64_t repl_applied = 0;
  for (const NodeCounters& n : r.node_counters) {
    not_owner += n.not_owner;
    repl_applied += n.repl_applied;
  }
  std::printf("%u nodes (%2u clients): %7.3f Mops  p50 %5.1fus  p99 %6.1fus"
              "  not_owner %llu  repl %llu\n",
              nodes, cfg.clients, r.mops, r.p50_ns / 1e3, r.p99_ns / 1e3,
              static_cast<unsigned long long>(not_owner),
              static_cast<unsigned long long>(repl_applied));
  std::fflush(stdout);
  j.Open(nullptr, '{', /*one_line=*/true);
  j.Int("nodes", nodes);
  j.Int("clients", cfg.clients);
  j.Num("mops", r.mops, 4);
  j.Int("p50_ns", r.p50_ns);
  j.Int("p99_ns", r.p99_ns);
  j.Int("retries", r.retries);
  j.Int("not_owner", not_owner);
  j.Int("repl_applied", repl_applied);
  j.Num("speedup", one_node_mops > 0.0 ? r.mops / one_node_mops : 0.0, 3);
  j.Close();
}

// Runs the flash-crowd leg, prints its timeline and recovery, and writes
// it as the "flash_crowd" member of `j`.
void RunFlashCrowd(bench::JsonWriter& j) {
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
  const ExperimentResult r = cluster::RunClusterExperiment(cfg);

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
  const double pre_p99_us = pre_p99 / 1e3;
  double tput_recovery_us = -1.0;
  double p99_recovery_us = -1.0;
  for (size_t i = shift_b + 1; i < r.timeline_mops.size(); i++) {
    const double t_us = (static_cast<double>(i) * r.timeline_bucket_ns -
                         static_cast<double>(cfg.hotshift_at_ns)) / 1e3;
    if (tput_recovery_us < 0.0 && r.timeline_mops[i] >= 0.9 * pre) {
      tput_recovery_us = t_us;
    }
    if (p99_recovery_us < 0.0 && i < r.timeline_p99_ns.size() &&
        static_cast<double>(r.timeline_p99_ns[i]) <= 1.5 * pre_p99) {
      p99_recovery_us = t_us;
    }
    if (tput_recovery_us >= 0.0 && p99_recovery_us >= 0.0) {
      break;
    }
  }
  std::printf("pre-shift %.2f Mops / p99 %.1fus; migrations %llu "
              "(ring epoch %llu)\n",
              pre, pre_p99_us,
              static_cast<unsigned long long>(r.shard_migrations),
              static_cast<unsigned long long>(r.ring_epoch));
  if (tput_recovery_us >= 0.0) {
    std::printf("throughput recovery %.0fus", tput_recovery_us);
  } else {
    std::printf("throughput recovery: not within the run");
  }
  if (p99_recovery_us >= 0.0) {
    std::printf("; p99 recovery %.0fus\n", p99_recovery_us);
  } else {
    std::printf("; p99 recovery: not within the run\n");
  }
  j.Open("flash_crowd", '{');
  j.Int("nodes", cfg.cluster.nodes);
  j.Int("shift_at_ns", cfg.hotshift_at_ns);
  j.Num("pre_mops", pre, 4);
  j.Num("pre_p99_us", pre_p99_us, 1);
  j.Num("tput_recovery_us", tput_recovery_us, 0);
  j.Num("p99_recovery_us", p99_recovery_us, 0);
  j.Int("migrations", r.shard_migrations);
  j.Int("ring_epoch", r.ring_epoch);
  j.Int("bucket_ns", r.timeline_bucket_ns);
  j.Open("timeline_mops", '[', /*one_line=*/true);
  for (const double mops : r.timeline_mops) {
    j.Num(nullptr, mops, 3);
  }
  j.Close();
  j.Open("timeline_p99_us", '[', /*one_line=*/true);
  for (const sim::Tick p99_ns : r.timeline_p99_ns) {
    j.Num(nullptr, p99_ns / 1e3, 1);
  }
  j.Close();
  j.Close();
}

}  // namespace

int main() {
  std::printf("== cluster scale-out sweep (seed %llu, scale %.2f) ==\n",
              static_cast<unsigned long long>(kSeed), BenchScale());
  bench::JsonWriter j;
  j.Str("bench", "cluster");
  j.Int("seed", kSeed);
  j.Open("scaling", '[');
  double one_node_mops = 0.0;
  for (unsigned nodes : {1u, 2u, 4u, 8u}) {
    RunScalePoint(j, nodes, one_node_mops);
  }
  j.Close();
  RunFlashCrowd(j);
  return j.Save("cluster") ? 0 : 1;
}
