// Cluster experiment harness (DESIGN.md §14): drives a Cluster with routing
// clients under a zipf workload and reports paper-style metrics in the same
// ExperimentResult the single-node harness uses — per-node counters, the
// final ring epoch, completed migrations, plus optional throughput / P99
// time series (what bench/fig19_cluster plots around a flash crowd).
//
// Nodes, manager and clients all run on one engine, so a run is a pure
// function of its config and seed.
#ifndef UTPS_CLUSTER_HARNESS_H_
#define UTPS_CLUSTER_HARNESS_H_

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "harness/experiment.h"
#include "stats/histogram.h"

namespace utps::cluster {

struct ClusterBenchConfig {
  ClusterParams cluster;
  unsigned clients = 16;
  double put_frac = 0.05;  // YCSB-B flavored default
  double zipf_theta = 0.99;
  sim::Tick warmup_ns = 200 * sim::kUsec;
  sim::Tick measure_ns = 2 * sim::kMsec;
  bool record_timeline = false;
  bool record_latency_timeline = false;
  // Flash crowd: at this virtual time the zipf hot set jumps half the
  // keyspace away, concentrating load on different shards (0 = stable).
  sim::Tick hotshift_at_ns = 0;
};

namespace internal {

struct ClientAccum {
  uint64_t ops = 0;         // completions inside the measure window
  uint64_t retries = 0;
  Histogram lat;
  std::vector<uint64_t> bucket_ops;
  std::vector<Histogram> bucket_lat;
};

inline sim::Fiber BenchClient(sim::ExecCtx* ctx, ClusterClient* client,
                              const ClusterBenchConfig* cfg, unsigned id,
                              ClientAccum* acc, const bool* stop) {
  const ClusterParams& p = cfg->cluster;
  Rng rng(Mix64(cfg->cluster.seed + uint64_t{id} * 1000003 + 11));
  ScrambledZipfian zipf(p.num_keys, cfg->zipf_theta);
  std::vector<uint8_t> payload(p.value_size);
  std::vector<uint8_t> out(p.value_size + 64);
  const sim::Tick t0 = cfg->warmup_ns;
  const sim::Tick t1 = cfg->warmup_ns + cfg->measure_ns;
  while (!*stop) {
    Key key = zipf.Next(rng);
    if (cfg->hotshift_at_ns > 0 && ctx->Now() >= cfg->hotshift_at_ns) {
      key = (key + p.num_keys / 2) % p.num_keys;  // hot set jumps shards
    }
    const bool put = rng.NextDouble() < cfg->put_frac;
    const sim::Tick inv = ctx->Now();
    if (put) {
      std::memcpy(payload.data(), &key, 8);
      co_await client->Call(OpType::kPut, key, payload.data(), p.value_size,
                           nullptr);
    } else {
      co_await client->Call(OpType::kGet, key, nullptr, 0, out.data());
    }
    const sim::Tick resp = ctx->Now();
    if (resp >= t0 && resp < t1) {
      acc->ops++;
      acc->lat.Record(resp - inv);
      if (!acc->bucket_ops.empty()) {
        const size_t b = std::min(acc->bucket_ops.size() - 1,
                                  static_cast<size_t>(
                                      resp / kTimelineBucketNs));
        acc->bucket_ops[b]++;
        if (!acc->bucket_lat.empty()) {
          acc->bucket_lat[b].Record(resp - inv);
        }
      }
    }
  }
  acc->retries = client->retries();
}

}  // namespace internal

inline ExperimentResult RunClusterExperiment(const ClusterBenchConfig& cfg) {
  const sim::Tick end_ns = cfg.warmup_ns + cfg.measure_ns;
  const size_t nbuckets =
      cfg.record_timeline
          ? static_cast<size_t>(end_ns / kTimelineBucketNs) + 1
          : 0;

  sim::Engine eng;
  Cluster cluster(&eng, cfg.cluster);
  cluster.Populate([](Key key, uint8_t* dst, uint32_t len) {
    std::memset(dst, 0, len);
    std::memcpy(dst, &key, len < 8 ? len : 8);
  });
  cluster.Start();

  bool stop = false;
  std::vector<internal::ClientAccum> accs(cfg.clients);
  std::vector<sim::ExecCtx> ctxs(cfg.clients);
  // The clients outlive their fibers: a NIC copy of a finished client's
  // request can still be answered into its gate and buffers.
  std::vector<std::unique_ptr<ClusterClient>> clients;
  for (unsigned i = 0; i < cfg.clients; i++) {
    if (nbuckets > 0) {
      accs[i].bucket_ops.assign(nbuckets, 0);
      if (cfg.record_latency_timeline) {
        accs[i].bucket_lat.resize(nbuckets);
      }
    }
    ctxs[i] = sim::ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    clients.push_back(std::make_unique<ClusterClient>(&cluster, i, &ctxs[i]));
    eng.Spawn(internal::BenchClient(&ctxs[i], clients[i].get(), &cfg, i,
                                    &accs[i], &stop));
  }

  eng.Run(end_ns);
  stop = true;  // clients observe it at their next op
  eng.Run(end_ns + 100 * sim::kUsec);
  cluster.Stop();
  eng.Run(end_ns + 500 * sim::kUsec);

  ExperimentResult res;
  Histogram lat;
  uint64_t ops = 0;
  for (const auto& a : accs) {
    ops += a.ops;
    lat.Merge(a.lat);
    res.retries += a.retries;
  }
  res.ops = ops;
  res.mops = cfg.measure_ns > 0
                 ? static_cast<double>(ops) * 1e3 /
                       static_cast<double>(cfg.measure_ns)
                 : 0.0;
  res.p50_ns = lat.Percentile(0.5);
  res.p99_ns = lat.Percentile(0.99);
  res.mean_ns = static_cast<sim::Tick>(lat.Mean());
  if (nbuckets > 0) {
    res.timeline_bucket_ns = kTimelineBucketNs;
    for (size_t b = 0; b < nbuckets; b++) {
      uint64_t n = 0;
      for (const auto& a : accs) {
        n += a.bucket_ops[b];
      }
      res.timeline_mops.push_back(
          static_cast<double>(n) * 1e3 /
          static_cast<double>(kTimelineBucketNs));
      if (cfg.record_latency_timeline) {
        Histogram h;
        for (const auto& a : accs) {
          h.Merge(a.bucket_lat[b]);
        }
        res.timeline_p99_ns.push_back(h.Percentile(0.99));
      }
    }
  }
  for (unsigned n = 0; n < cluster.num_nodes(); n++) {
    res.node_counters.push_back(cluster.node(n)->counters());
  }
  res.ring_epoch = cluster.manager()->epoch();
  res.shard_migrations = cluster.manager()->shard_migrations();
  res.sched_events = eng.stats().events_processed;
  return res;
}

}  // namespace utps::cluster

#endif  // UTPS_CLUSTER_HARNESS_H_
