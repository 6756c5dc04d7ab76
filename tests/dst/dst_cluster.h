// Cluster DST harness: linearizability checking across node crashes, backup
// promotion, partitions, and live shard migration (DESIGN.md §14).
//
// RunDstCluster drives a multi-node cluster::Cluster with history-recording
// routing clients (cluster::ClusterClient), then checks the merged history
// with the same linearizability checker the single-node DST uses. Each
// client records into its own check::History, merged deterministically in
// client order after the run, so the digest is a pure function of the config.
//
// The run ends with two cluster-specific audits:
//  - Cluster::AuditReplicas: every live assigned primary/backup pair holds
//    identical contents, and no shard has two live unfenced primaries;
//  - an auditor client reads every key from its shard's *current* primary
//    (the manager's final assignment) and appends the reads to the history.
//    A node serving a shard it no longer owns (mut::kDropRingEpochCheck)
//    surfaces here as a write that landed on the stale owner: the final read
//    from the real owner has no linearization point and the history fails.
#ifndef UTPS_TESTS_DST_DST_CLUSTER_H_
#define UTPS_TESTS_DST_DST_CLUSTER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/history.h"
#include "check/linearize.h"
#include "check/mutation.h"
#include "cluster/client.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "dst_harness.h"

namespace utps::dst {

struct DstClusterConfig {
  uint64_t seed = 1;
  unsigned nodes = 3;
  unsigned shards = 8;
  unsigned workers = 2;
  uint64_t num_keys = 64;
  uint32_t value_size = 32;  // >= 8 for the stamp
  double zipf_theta = 0.99;
  unsigned clients = 4;
  uint32_t ops_per_client = 40;
  double put_frac = 0.45;
  double del_frac = 0.05;
  bool perturb = true;
  sim::Tick jitter_ns = 32;
  // Node-scoped fault plan (crash_node / partition_node / message probs) —
  // the plan seed mixes cfg.seed via the cluster's hook seeding, so a seed
  // sweep is also a fault-schedule sweep.
  fault::FaultConfig fault;
  std::vector<cluster::ForcedMigration> forced;
  // Hotset rebalancer (period 0 = off).
  sim::Tick rebalance_period_ns = 0;
  double imbalance_factor = cluster::ClusterParams{}.imbalance_factor;
  sim::Tick rebalance_cooldown_ns =
      cluster::ClusterParams{}.rebalance_cooldown_ns;
  // At this virtual time every client's zipf hot set jumps half the keyspace
  // away, as in the cluster harness's flash crowd (0 = stable).
  sim::Tick hotshift_at_ns = 0;
};

struct DstClusterResult {
  bool ok = true;
  bool inconclusive = false;
  std::string error;
  uint64_t ops_completed = 0;
  unsigned clients_stuck = 0;
  uint64_t digest = 0;  // order-sensitive hash of the merged history
  size_t ops_checked = 0;
  uint64_t retries = 0;
  uint64_t redirects = 0;
  uint64_t resolves = 0;
  uint64_t promotions = 0;
  uint64_t migrations = 0;
  uint64_t final_epoch = 0;
};

namespace internal {

struct ClusterClientState {
  check::History hist;  // ops only; merged into the combined history
  uint64_t completed = 0;
  uint64_t retries = 0;
  uint64_t redirects = 0;
  uint64_t resolves = 0;
  bool done = false;
};

inline sim::Fiber ClusterDstClient(sim::ExecCtx* ctx,
                                   cluster::ClusterClient* cli,
                                   const DstClusterConfig* cfg, uint16_t id,
                                   ClusterClientState* st) {
  Rng rng(Mix64(cfg->seed) + uint64_t{id} * 1000003 + 7);
  ScrambledZipfian zipf(cfg->num_keys, cfg->zipf_theta);
  std::vector<uint8_t> payload(cfg->value_size);
  std::vector<uint8_t> out(cfg->value_size + 64);
  for (uint32_t i = 0; i < cfg->ops_per_client; i++) {
    Key key = zipf.Next(rng);
    if (cfg->hotshift_at_ns > 0 && ctx->Now() >= cfg->hotshift_at_ns) {
      key = (key + cfg->num_keys / 2) % cfg->num_keys;
    }
    const double dice = rng.NextDouble();
    check::OpKind kind = check::OpKind::kGet;
    if (dice < cfg->put_frac) {
      kind = check::OpKind::kPut;
    } else if (dice < cfg->put_frac + cfg->del_frac) {
      kind = check::OpKind::kDelete;
    }
    // Unique writer id per (client, op); writer 0 is the populator.
    const uint64_t stamp =
        check::MakeStamp(key, ((uint32_t{id} + 1) << 12) | (i + 1));
    const sim::Tick inv = ctx->Now();
    switch (kind) {
      case check::OpKind::kGet: {
        const uint32_t len =
            co_await cli->Call(OpType::kGet, key, nullptr, 0, out.data());
        const sim::Tick resp = ctx->Now();
        if (len == 0) {
          st->hist.RecordGet(id, key, 0, false, inv, resp);  // absent
        } else if (len != cfg->value_size) {
          st->hist.RecordGet(id, key, 0, true, inv, resp);  // wrong length
        } else {
          const uint64_t s = check::StampParse(out.data(), len);
          st->hist.RecordGet(id, key, s, s == 0, inv, resp);
        }
        break;
      }
      case check::OpKind::kPut: {
        check::StampFill(payload.data(), cfg->value_size, stamp);
        co_await cli->Call(OpType::kPut, key, payload.data(), cfg->value_size,
                          nullptr);
        st->hist.RecordPut(id, key, stamp, inv, ctx->Now());
        break;
      }
      case check::OpKind::kDelete: {
        co_await cli->Call(OpType::kDelete, key, nullptr, 0, nullptr);
        st->hist.RecordDelete(id, key, inv, ctx->Now());
        break;
      }
      default:
        break;
    }
    st->completed++;
  }
  st->retries = cli->retries();
  st->redirects = cli->redirects();
  st->resolves = cli->resolves();
  st->done = true;
}

}  // namespace internal

inline DstClusterResult RunDstCluster(const DstClusterConfig& cfg) {
  UTPS_CHECK(cfg.value_size >= 8);
  UTPS_CHECK(cfg.clients + 1 < 4096 && cfg.ops_per_client + 1 < 4096);
  mut::Reset(mut::g_mode);

  DstClusterResult out;
  cluster::ClusterParams p;
  p.nodes = cfg.nodes;
  p.shards = cfg.shards;
  p.workers = cfg.workers;
  p.num_keys = cfg.num_keys;
  p.value_size = cfg.value_size;
  p.seed = cfg.seed;
  p.fault = cfg.fault;
  p.forced = cfg.forced;
  p.rebalance_period_ns = cfg.rebalance_period_ns;
  p.imbalance_factor = cfg.imbalance_factor;
  p.rebalance_cooldown_ns = cfg.rebalance_cooldown_ns;
  p.arena_mb = 64;

  sim::Engine eng;
  if (cfg.perturb) {
    eng.EnablePerturbation({.seed = cfg.seed,
                            .permute_ties = true,
                            .max_jitter_ns = cfg.jitter_ns});
  }

  cluster::Cluster cluster(&eng, p);
  cluster.Populate([](Key key, uint8_t* dst, uint32_t len) {
    check::StampFill(dst, len, check::MakeStamp(key, 0));
  });
  check::History hist;
  for (Key k = 0; k < cfg.num_keys; k++) {
    hist.initial[k] = check::MakeStamp(k, 0);
  }
  cluster.Start();

  std::vector<internal::ClusterClientState> states(cfg.clients);
  std::vector<sim::ExecCtx> ctxs(cfg.clients);
  // The clients outlive their fibers: a late NIC copy of a finished
  // client's request can still be answered into its gate and buffers.
  std::vector<std::unique_ptr<cluster::ClusterClient>> clients;
  for (unsigned i = 0; i < cfg.clients; i++) {
    ctxs[i] = sim::ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    clients.push_back(
        std::make_unique<cluster::ClusterClient>(&cluster, i, &ctxs[i]));
    eng.Spawn(internal::ClusterDstClient(&ctxs[i], clients[i].get(), &cfg,
                                         static_cast<uint16_t>(i),
                                         &states[i]));
  }

  // Virtual-time backstop so a lost completion surfaces as "stuck" rather
  // than hanging the test. Failover stalls (probe misses + lease expiry) and
  // migration freezes stretch completion well past the fault-free bound.
  sim::Tick deadline =
      2 * sim::kMsec + sim::Tick{cfg.ops_per_client} * 40 * sim::kUsec;
  const bool faulted = cfg.fault.cluster_enabled() ||
                       cfg.fault.drop_prob > 0 || cfg.fault.dup_prob > 0 ||
                       cfg.fault.delay_prob > 0;
  if (faulted || !cfg.forced.empty()) {
    deadline = deadline * 8 + cfg.fault.node_crash_at_ns +
               cfg.fault.partition_stop_ns;
    for (const cluster::ForcedMigration& fm : cfg.forced) {
      deadline += fm.at_ns;
    }
  }
  auto all_done = [&] {
    for (const auto& st : states) {
      if (!st.done) {
        return false;
      }
    }
    return true;
  };
  while (!all_done() && eng.now() < deadline) {
    eng.Run(eng.now() + 20 * sim::kUsec);
  }
  const sim::Tick live_now = eng.now();

  // Replica audit while probes still renew leases (post-Stop every lease
  // looks expired, which would vacuously pass the primary-uniqueness check).
  std::string err;
  if (!cluster.AuditReplicas(&err, live_now)) {
    // keep err; folded into the result below
  }
  cluster.Stop();
  eng.Run(eng.now() + 400 * sim::kUsec);

  // Merge per-client histories deterministically (client order; each
  // client's ops are already in its own program order).
  for (auto& st : states) {
    hist.ops.insert(hist.ops.end(), st.hist.ops.begin(), st.hist.ops.end());
    out.ops_completed += st.completed;
    out.retries += st.retries;
    out.redirects += st.redirects;
    out.resolves += st.resolves;
    if (!st.done) {
      out.clients_stuck++;
    }
  }

  // Auditor: final reads of every key from its shard's current primary, per
  // the manager's final assignment. Catches stale-owner writes (the
  // kDropRingEpochCheck mutation) as linearizability failures.
  const uint16_t auditor = static_cast<uint16_t>(cfg.clients);
  sim::Tick t = eng.now() + 1;
  for (Key k = 0; k < cfg.num_keys; k++) {
    const uint64_t sh = cluster::ShardOfKey(k, p.shards, p.num_keys);
    const int prim = cluster.manager()->assign(sh).primary;
    if (prim < 0) {
      continue;  // shard lost both replicas (not reachable in our profiles)
    }
    const cluster::ClusterNode::ShardState& ss =
        cluster.node(static_cast<unsigned>(prim))->shard(sh);
    const Item* it =
        ss.index != nullptr ? ss.index->GetDirect(k) : nullptr;
    if (it == nullptr) {
      hist.RecordGet(auditor, k, 0, false, t, t + 1);  // absent
    } else {
      const uint64_t s = check::StampParse(it->value(), it->value_len);
      hist.RecordGet(auditor, k, s, s == 0 || it->value_len != cfg.value_size,
                     t, t + 1);
    }
    t += 2;
  }

  const check::CheckResult lin = check::CheckLinearizability(hist, {});
  for (unsigned n = 0; n < cluster.num_nodes(); n++) {
    out.promotions += cluster.node(n)->counters().promotions;
  }
  out.migrations = cluster.manager()->shard_migrations();
  out.final_epoch = cluster.manager()->epoch();
  out.ops_checked = lin.ops_checked;
  out.inconclusive = lin.inconclusive;
  out.digest = internal::HistoryDigest(hist);
  if (out.clients_stuck > 0) {
    if (!err.empty()) {
      err += "; ";
    }
    err += std::to_string(out.clients_stuck) + " clients stuck by t=" +
           std::to_string(deadline) + "ns";
  }
  if (!lin.ok) {
    if (!err.empty()) {
      err += "; ";
    }
    err += lin.error;
  }
  out.ok = err.empty();
  out.error = std::move(err);
  return out;
}

}  // namespace utps::dst

#endif  // UTPS_TESTS_DST_DST_CLUSTER_H_
