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

#include <cstring>
#include <memory>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "harness/experiment.h"

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

// One routing client's loop. Every client of a run shares `rec`; a
// completion is measured when its response lands inside the window.
inline sim::Fiber BenchClient(sim::ExecCtx* ctx, ClusterClient* client,
                              const ClusterBenchConfig* cfg, unsigned id,
                              RunRecorder* rec, uint64_t* retries,
                              const bool* stop) {
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
    rec->Record(resp, resp - inv, resp >= t0 && resp < t1);
  }
  *retries += client->retries();
}

}  // namespace internal

inline ExperimentResult RunClusterExperiment(const ClusterBenchConfig& cfg) {
  const sim::Tick end_ns = cfg.warmup_ns + cfg.measure_ns;
  sim::Engine eng;
  Cluster cluster(&eng, cfg.cluster);
  cluster.Populate([](Key key, uint8_t* dst, uint32_t len) {
    std::memset(dst, 0, len);
    std::memcpy(dst, &key, len < 8 ? len : 8);
  });
  cluster.Start();

  bool stop = false;
  RunRecorder rec(kTimelineBucketNs, cfg.record_timeline,
                  cfg.record_latency_timeline);
  uint64_t retries = 0;
  std::vector<sim::ExecCtx> ctxs(cfg.clients);
  // The clients outlive their fibers: a NIC copy of a finished client's
  // request can still be answered into its gate and buffers.
  std::vector<std::unique_ptr<ClusterClient>> clients;
  for (unsigned i = 0; i < cfg.clients; i++) {
    ctxs[i] = sim::ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    clients.push_back(std::make_unique<ClusterClient>(&cluster, i, &ctxs[i]));
    eng.Spawn(internal::BenchClient(&ctxs[i], clients[i].get(), &cfg, i, &rec,
                                    &retries, &stop));
  }

  eng.Run(end_ns);
  // Read at the window's end, like TestBed::Run: the drain below adds
  // nothing measured and stays off the timeline.
  ExperimentResult res;
  FillRecorded(rec, cfg.measure_ns, &res);
  stop = true;  // clients observe it at their next op
  eng.Run(end_ns + 100 * sim::kUsec);
  cluster.Stop();
  eng.Run(end_ns + 500 * sim::kUsec);

  res.retries = retries;
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
