// Functional tests for the scale-out tier (src/cluster): routing round trips,
// replication, the latency of requests on an idle cluster, a GET that does
// not wait for a replicated PUT ahead of it, NOT_OWNER redirects, forced
// migration, primary-crash failover, the lease rule when probe answers are
// lost, a backup's refusal retried, a grown PUT replacing the item on both
// replicas, the oversize-write check, the rebalancer's move rule, and the
// cluster harness: determinism and the flash-crowd timeline.
#include "cluster/cluster.h"

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/harness.h"
#include "gtest/gtest.h"

namespace utps::cluster {
namespace {

ClusterParams SmallParams() {
  ClusterParams p;
  p.nodes = 2;
  p.shards = 8;
  p.workers = 2;
  p.num_keys = 1024;
  p.value_size = 64;
  p.arena_mb = 64;
  return p;
}

void PopulateKeyed(Cluster* cluster) {
  cluster->Populate([](Key key, uint8_t* dst, uint32_t len) {
    std::memset(dst, static_cast<int>(key & 0xff), len);
    std::memcpy(dst, &key, len < 8 ? len : 8);
  });
}

// Client fibers take a client the test owns: a late NIC copy of a finished
// fiber's request can still be answered into the client's gate.
sim::Fiber PutGetFiber(ClusterClient* cli, unsigned nkeys, bool* done) {
  std::vector<uint8_t> val(64, 0xab);
  std::vector<uint8_t> out(128, 0);
  for (Key k = 0; k < nkeys; k++) {
    std::memcpy(val.data(), &k, 8);
    co_await cli->Call(OpType::kPut, k, val.data(), 64, nullptr);
  }
  for (Key k = 0; k < nkeys; k++) {
    const uint32_t n = co_await cli->Call(OpType::kGet, k, nullptr, 0,
                                         out.data());
    EXPECT_EQ(n, 64u) << "key " << k;
    Key got = 0;
    std::memcpy(&got, out.data(), 8);
    EXPECT_EQ(got, k);
    EXPECT_EQ(out[9], 0xab) << "key " << k;
  }
  *done = true;
}

TEST(Cluster, PutGetAcrossNodes) {
  sim::Engine eng;
  ClusterParams p = SmallParams();
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  cluster.Start();
  bool done = false;
  sim::ExecCtx ctx{.eng = &eng};
  ClusterClient cli(&cluster, 0, &ctx);
  eng.Spawn(PutGetFiber(&cli, 64, &done));
  eng.Run(50 * sim::kMsec);
  EXPECT_TRUE(done);
  // Writes replicated: every key landed on a backup too.
  uint64_t repl = 0;
  for (unsigned n = 0; n < cluster.num_nodes(); n++) {
    repl += cluster.node(n)->counters().repl_applied;
  }
  EXPECT_EQ(repl, 64u);
  std::string err;
  EXPECT_TRUE(cluster.AuditReplicas(&err, eng.now())) << err;
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

// One GET, then one PUT of the same key, from a client on an idle cluster,
// after an untimed PUT that brings the key's lines into both replicas'
// caches.
sim::Fiber TimedGetThenPut(sim::ExecCtx* ctx, ClusterClient* cli, Key key,
                           sim::Tick* get_ns, sim::Tick* put_ns) {
  std::vector<uint8_t> val(64, 0x3c);
  std::vector<uint8_t> out(128, 0);
  co_await cli->Call(OpType::kPut, key, val.data(), 64, nullptr);
  sim::Tick t0 = ctx->Now();
  EXPECT_EQ(co_await cli->Call(OpType::kGet, key, nullptr, 0, out.data()),
            64u);
  *get_ns = ctx->Now() - t0;
  t0 = ctx->Now();
  co_await cli->Call(OpType::kPut, key, val.data(), 64, nullptr);
  *put_ns = ctx->Now() - t0;
}

// Requests wake at delivery: on an idle 2-node cluster a GET completes
// within the client RTT plus 0.5 us of send, link and server time, and a
// replicated PUT within that plus one internode RTT (the backup's ack).
TEST(Cluster, IdleRequestsCompleteWithinTheirRoundTrips) {
  sim::Engine eng;
  Cluster cluster(&eng, SmallParams());
  PopulateKeyed(&cluster);
  cluster.Start();
  sim::ExecCtx ctx{.eng = &eng};
  ClusterClient cli(&cluster, 0, &ctx);
  sim::Tick get_ns = 0;
  sim::Tick put_ns = 0;
  eng.Spawn(TimedGetThenPut(&ctx, &cli, 7, &get_ns, &put_ns), 50 * sim::kUsec);
  eng.Run(200 * sim::kUsec);
  const sim::Tick client_rtt = sim::NicConfig{}.rtt_ns;
  const sim::Tick internode_rtt = sim::MachineConfig{}.internode_rtt_ns;
  EXPECT_GT(get_ns, client_rtt);
  EXPECT_LE(get_ns, client_rtt + 500);
  EXPECT_GT(put_ns, client_rtt + internode_rtt);
  EXPECT_LE(put_ns, client_rtt + 500 + internode_rtt);
  EXPECT_EQ(cluster.node(0)->counters().repl_applied +
                cluster.node(1)->counters().repl_applied,
            2u);
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

sim::Fiber WarmKeys(ClusterClient* cli, std::vector<Key> keys) {
  std::vector<uint8_t> val(64, 0x3c);
  for (const Key k : keys) {
    co_await cli->Call(OpType::kPut, k, val.data(), 64, nullptr);
  }
}

// One call, timed from its issue to its answer.
sim::Fiber TimedCall(sim::ExecCtx* ctx, ClusterClient* cli, OpType op,
                     Key key, sim::Tick* took) {
  std::vector<uint8_t> val(64, 0x5e);
  std::vector<uint8_t> out(128, 0);
  const sim::Tick t0 = ctx->Now();
  if (op == OpType::kPut) {
    co_await cli->Call(op, key, val.data(), 64, nullptr);
  } else {
    EXPECT_EQ(co_await cli->Call(op, key, nullptr, 0, out.data()), 64u);
  }
  *took = ctx->Now() - t0;
}

// A write does not hold its worker while the backup acks: on an idle 2-node
// cluster, a GET that reaches the worker just behind a replicated PUT (two
// keys of one shard, so one ring) completes within its own round trip,
// while the PUT still takes the internode RTT on top.
TEST(Cluster, GetBehindAReplicatedPutSkipsTheBackupWait) {
  sim::Engine eng;
  const ClusterParams p = SmallParams();
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  cluster.Start();
  const Key put_key = 7;
  const Key get_key = 8;
  ASSERT_EQ(ShardOfKey(put_key, p.shards, p.num_keys),
            ShardOfKey(get_key, p.shards, p.num_keys));
  sim::ExecCtx ca{.eng = &eng};
  sim::ExecCtx cb{.eng = &eng};
  ClusterClient cli_a(&cluster, 0, &ca);
  ClusterClient cli_b(&cluster, 1, &cb);
  sim::Tick put_ns = 0;
  sim::Tick get_ns = 0;
  eng.Spawn(WarmKeys(&cli_a, {put_key, get_key}), 50 * sim::kUsec);
  eng.Spawn(TimedCall(&ca, &cli_a, OpType::kPut, put_key, &put_ns),
            150 * sim::kUsec);
  eng.Spawn(TimedCall(&cb, &cli_b, OpType::kGet, get_key, &get_ns),
            150 * sim::kUsec + 50);
  eng.Run(300 * sim::kUsec);
  const sim::Tick client_rtt = sim::NicConfig{}.rtt_ns;
  const sim::Tick internode_rtt = sim::MachineConfig{}.internode_rtt_ns;
  EXPECT_GT(get_ns, client_rtt);
  EXPECT_LE(get_ns, client_rtt + 500);
  EXPECT_GT(put_ns, client_rtt + internode_rtt);
  EXPECT_LE(put_ns, client_rtt + 500 + internode_rtt);
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

TEST(Cluster, StaleRouteRedirects) {
  // Point client 0's route table at the wrong node by construction: with one
  // shard per node pair every key that hashes to node 1 exercises a redirect
  // when the client's first guess is node 0 (and vice versa), because the
  // table is seeded correctly — so instead force staleness by migrating.
  sim::Engine eng;
  ClusterParams p = SmallParams();
  p.forced.push_back(ForcedMigration{300 * sim::kUsec, 0, -1});
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  cluster.Start();
  bool done = false;
  sim::ExecCtx ctx{.eng = &eng};
  ClusterClient cli(&cluster, 0, &ctx);
  eng.Spawn(PutGetFiber(&cli, 256, &done));
  eng.Run(80 * sim::kMsec);
  EXPECT_TRUE(done);
  uint64_t migs = cluster.manager()->shard_migrations();
  EXPECT_EQ(migs, 1u);
  uint64_t in = 0;
  uint64_t out = 0;
  for (unsigned n = 0; n < cluster.num_nodes(); n++) {
    in += cluster.node(n)->counters().migrations_in;
    out += cluster.node(n)->counters().migrations_out;
  }
  EXPECT_EQ(in, 1u);
  EXPECT_EQ(out, 1u);
  std::string err;
  EXPECT_TRUE(cluster.AuditReplicas(&err, eng.now())) << err;
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

sim::Fiber SteadyFiber(ClusterClient* cli, const ClusterParams& p,
                       const bool* stop, uint64_t* ops) {
  Rng rng(Mix64(1000 + cli->id()));
  std::vector<uint8_t> val(p.value_size, 0x5a);
  std::vector<uint8_t> out(p.value_size + 64, 0);
  while (!*stop) {
    const Key k = rng.NextBounded(p.num_keys);
    if (rng.NextDouble() < 0.3) {
      std::memcpy(val.data(), &k, 8);
      co_await cli->Call(OpType::kPut, k, val.data(), p.value_size, nullptr);
    } else {
      co_await cli->Call(OpType::kGet, k, nullptr, 0, out.data());
    }
    (*ops)++;
  }
}

TEST(Cluster, PrimaryCrashPromotesBackup) {
  sim::Engine eng;
  ClusterParams p = SmallParams();
  p.nodes = 3;
  p.fault.crash_node = 0;
  p.fault.node_crash_at_ns = 300 * sim::kUsec;
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  cluster.Start();
  bool stop = false;
  uint64_t ops[2] = {0, 0};
  sim::ExecCtx c0{.eng = &eng};
  sim::ExecCtx c1{.eng = &eng};
  ClusterClient cli0(&cluster, 0, &c0);
  ClusterClient cli1(&cluster, 1, &c1);
  eng.Spawn(SteadyFiber(&cli0, p, &stop, &ops[0]));
  eng.Spawn(SteadyFiber(&cli1, p, &stop, &ops[1]));
  eng.Run(3 * sim::kMsec);
  stop = true;
  eng.Run(eng.now() + 2 * sim::kMsec);
  EXPECT_TRUE(cluster.node(0)->crashed());
  uint64_t promotions = 0;
  for (unsigned n = 0; n < cluster.num_nodes(); n++) {
    promotions += cluster.node(n)->counters().promotions;
  }
  // Node 0 owned at least one shard; every one must have failed over.
  EXPECT_GT(promotions, 0u);
  EXPECT_GT(ops[0] + ops[1], 100u);  // clients kept making progress
  std::string err;
  EXPECT_TRUE(cluster.AuditReplicas(&err, eng.now())) << err;
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

// Drops every response a NIC sends from `from` on; requests still arrive.
class LoseResponsesFrom final : public sim::NicFaultHook {
 public:
  explicit LoseResponsesFrom(sim::Tick from) : from_(from) {}
  sim::NicFault OnRequest(sim::Tick) override { return {}; }
  sim::NicFault OnResponse(sim::Tick now) override {
    sim::NicFault f;
    f.drop = now >= from_;
    return f;
  }
  double LinkCostScale(sim::Tick) override { return 1.0; }

 private:
  sim::Tick from_;
};

// Node 0's probes keep arriving, and renew its lease, but from 100 us on
// every answer is lost. The manager declares it dead and promotes the
// backups of its shards; at no tick may node 0 still hold an unfenced
// primary role next to its promoted backup. A lease that runs from a
// probe's arrival, with the promotion timed from the last answered probe,
// leaves both primaries unfenced for tens of microseconds.
TEST(Cluster, LostProbeAnswersNeverLeaveTwoUnfencedPrimaries) {
  sim::Engine eng;
  Cluster cluster(&eng, SmallParams());
  PopulateKeyed(&cluster);
  LoseResponsesFrom hook(100 * sim::kUsec);
  cluster.node(0)->ctl_nic().SetFaultHook(&hook);
  cluster.Start();
  std::string err;
  for (sim::Tick t = 0; t < 500 * sim::kUsec; t += sim::kUsec) {
    eng.Run(t);
    ASSERT_TRUE(cluster.AuditReplicas(&err, eng.now()))
        << "t=" << eng.now() << ": " << err;
  }
  EXPECT_FALSE(cluster.node(0)->crashed());
  EXPECT_TRUE(cluster.node(0)->IsFenced(eng.now()));
  EXPECT_GT(cluster.node(1)->counters().promotions, 0u);
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

sim::Fiber PutOnce(ClusterClient* cli, Key key, bool* done) {
  std::vector<uint8_t> val(64, 0x6d);
  co_await cli->Call(OpType::kPut, key, val.data(), 64, nullptr);
  *done = true;
}

sim::Fiber TakeRoleAt(sim::ExecCtx* ctx, ClusterNode* node, uint64_t shard,
                      int owner, sim::Tick at) {
  co_await ctx->Delay(at - ctx->Now());
  node->SetInitialRole(shard, Role::kBackup, -1, owner);
}

// The primary's backup refuses a replicated write because it has not taken
// its role yet, as when a migration flip's assignment to the old source is
// still on its way. The primary must resend until the backup takes the role:
// redirecting the client instead leaves the client's rid begun but never
// completed in the primary's dedup window, so the client's retransmits to
// the same node are swallowed as in flight, forever.
TEST(Cluster, BackupRefusalIsRetriedNotRedirected) {
  sim::Engine eng;
  const ClusterParams p = SmallParams();
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  const Key key = 3;
  const uint64_t sh = ShardOfKey(key, p.shards, p.num_keys);
  const ClusterManager::Assign a = cluster.manager()->assign(sh);
  ASSERT_GE(a.backup, 0);
  ClusterNode* backup = cluster.node(static_cast<unsigned>(a.backup));
  backup->SetInitialRole(sh, Role::kNone, -1, a.primary);
  cluster.Start();
  sim::ExecCtx ctx{.eng = &eng};
  sim::ExecCtx role_ctx{.eng = &eng};
  ClusterClient cli(&cluster, 0, &ctx);
  bool done = false;
  eng.Spawn(PutOnce(&cli, key, &done), 50 * sim::kUsec);
  eng.Spawn(TakeRoleAt(&role_ctx, backup, sh, a.primary, 80 * sim::kUsec));
  eng.Run(2 * sim::kMsec);
  EXPECT_TRUE(done);
  EXPECT_EQ(backup->counters().repl_applied, 1u);
  EXPECT_EQ(cluster.node(static_cast<unsigned>(a.primary))
                ->counters()
                .not_owner,
            0u);
  std::string err;
  EXPECT_TRUE(cluster.AuditReplicas(&err, eng.now())) << err;
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

TEST(Cluster, SingleNodeClusterWorks) {
  sim::Engine eng;
  ClusterParams p = SmallParams();
  p.nodes = 1;
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  cluster.Start();
  bool done = false;
  sim::ExecCtx ctx{.eng = &eng};
  ClusterClient cli(&cluster, 0, &ctx);
  eng.Spawn(PutGetFiber(&cli, 32, &done));
  eng.Run(20 * sim::kMsec);
  EXPECT_TRUE(done);
  // No backup exists, so nothing replicates.
  EXPECT_EQ(cluster.node(0)->counters().repl_applied, 0u);
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

// DELETE, then an 8 B PUT (a fresh 8 B-capacity item), then a full-size PUT
// that no longer fits: the grown value replaces the item on both replicas.
sim::Fiber GrowFiber(ClusterClient* cli, Key key, uint32_t value_size,
                     uint32_t* got_len, std::vector<uint8_t>* got) {
  std::vector<uint8_t> small(8, 0x11);
  std::vector<uint8_t> big(value_size, 0x77);
  co_await cli->Call(OpType::kDelete, key, nullptr, 0, nullptr);
  co_await cli->Call(OpType::kPut, key, small.data(), 8, nullptr);
  co_await cli->Call(OpType::kPut, key, big.data(), value_size, nullptr);
  *got_len = co_await cli->Call(OpType::kGet, key, nullptr, 0, got->data());
}

TEST(Cluster, GrownPutReplacesTheItemOnBothReplicas) {
  sim::Engine eng;
  ClusterParams p = SmallParams();
  Cluster cluster(&eng, p);
  PopulateKeyed(&cluster);
  cluster.Start();
  const Key key = 5;
  uint32_t got_len = 0;
  std::vector<uint8_t> got(p.value_size + 64, 0);
  sim::ExecCtx ctx{.eng = &eng};
  ClusterClient cli(&cluster, 0, &ctx);
  eng.Spawn(GrowFiber(&cli, key, p.value_size, &got_len, &got));
  eng.Run(20 * sim::kMsec);
  ASSERT_EQ(got_len, p.value_size);
  for (uint32_t i = 0; i < p.value_size; i++) {
    ASSERT_EQ(got[i], 0x77) << "byte " << i;
  }
  // Both replicas index a full-size item holding the new value.
  const uint64_t sh = ShardOfKey(key, p.shards, p.num_keys);
  const ClusterManager::Assign& a = cluster.manager()->assign(sh);
  ASSERT_GE(a.backup, 0);
  for (const int n : {a.primary, a.backup}) {
    const Item* it = cluster.node(n)->shard(sh).index->GetDirect(key);
    ASSERT_NE(it, nullptr) << "node " << n;
    EXPECT_GE(it->capacity, p.value_size) << "node " << n;
    EXPECT_EQ(it->value_len, p.value_size) << "node " << n;
  }
  EXPECT_EQ(cluster.node(0)->counters().repl_applied +
                cluster.node(1)->counters().repl_applied,
            3u);
  std::string err;
  EXPECT_TRUE(cluster.AuditReplicas(&err, eng.now())) << err;
  cluster.Stop();
  eng.Run(eng.now() + sim::kMsec);
}

sim::Fiber OversizePutFiber(ClusterClient* cli, uint32_t len) {
  std::vector<uint8_t> val(len, 0x42);
  co_await cli->Call(OpType::kPut, 3, val.data(), len, nullptr);
}

// A write longer than the node's value size would overrun its staging
// buffer: the primary refuses it on the data path, and a backup on the
// replication path.
TEST(ClusterDeathTest, OversizeWriteIsRejected) {
  const ClusterParams p = SmallParams();
  EXPECT_DEATH(
      {
        sim::Engine eng;
        Cluster cluster(&eng, p);
        PopulateKeyed(&cluster);
        cluster.Start();
        sim::ExecCtx ctx{.eng = &eng};
        ClusterClient cli(&cluster, 0, &ctx);
        eng.Spawn(OversizePutFiber(&cli, p.value_size + 1));
        eng.Run(5 * sim::kMsec);
      },
      "exceeds the 64 B value size");
  EXPECT_DEATH(
      {
        sim::Engine eng;
        Cluster cluster(&eng, p);
        PopulateKeyed(&cluster);
        cluster.Start();
        const Key key = 3;
        const uint64_t sh = ShardOfKey(key, p.shards, p.num_keys);
        const int backup = cluster.manager()->assign(sh).backup;
        std::vector<uint8_t> val(p.value_size + 1, 0x42);
        sim::NicMessage m;
        m.h[0] = key;
        m.h[1] = PackOpLen(Ctl::kReplPut, p.value_size + 1);
        m.h[2] = 1;  // the client rid the primary would forward
        m.h[3] = sh;
        m.payload = val.data();
        m.payload_len = p.value_size + 1;
        m.rid = (ReplStream(0, 0, 0) << 32) | 1;
        sim::ExecCtx ctx{.eng = &eng};
        cluster.node(backup)->ctl_nic().ClientSend(ctx, 0, m);
        eng.Run(5 * sim::kMsec);
      },
      "exceeds the 64 B value size");
}

// ------------------------------------------------------- rebalancer rule
// PickRebalanceMove over hand-built periods: delta[node][shard] ops, each
// node's load the sum of its row, with the trigger at the ClusterParams
// defaults (imbalance_factor 3, rebalance_min_ops 200).
std::optional<RebalanceMove> Pick(
    const std::vector<std::vector<uint64_t>>& delta,
    const std::vector<int>& primary, const std::vector<bool>& dead) {
  std::vector<uint64_t> load;
  for (const std::vector<uint64_t>& row : delta) {
    uint64_t sum = 0;
    for (uint64_t d : row) {
      sum += d;
    }
    load.push_back(sum);
  }
  const ClusterParams p;
  return PickRebalanceMove(load, delta, primary, dead, p.imbalance_factor,
                           p.rebalance_min_ops);
}

TEST(RebalanceRule, DominantShardStays) {
  // Node 0 serves 1000 ops, all on shard 0; node 1 serves 100. Moving
  // shard 0 would put 1100 on node 1: the hotspot moves, the peak rises.
  const std::vector<std::vector<uint64_t>> delta = {{1000, 0, 0},
                                                    {0, 100, 0},
                                                    {0, 0, 150}};
  EXPECT_FALSE(Pick(delta, {0, 1, 2}, {false, false, false}).has_value());
  // The same node also leading an idle shard changes nothing: a shard with
  // no ops in the period is never a candidate.
  EXPECT_FALSE(Pick(delta, {0, 1, 0}, {false, false, false}).has_value());
}

TEST(RebalanceRule, MovesTheShardThatMinimisesThePeak) {
  // Node 0: shard 0 at 600 ops, shard 1 at 400 (load 1000); node 1 is the
  // coolest at 100. Moving shard 0 leaves a peak of max(400, 700) = 700,
  // moving shard 1 max(600, 500) = 600: the cooler shard moves.
  const std::vector<std::vector<uint64_t>> delta = {{600, 400, 0, 0},
                                                    {0, 0, 100, 0},
                                                    {0, 0, 0, 300}};
  const std::vector<int> primary = {0, 0, 1, 2};
  const std::optional<RebalanceMove> mv =
      Pick(delta, primary, {false, false, false});
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->shard, 1u);
  EXPECT_EQ(primary[mv->shard], 0);
  EXPECT_EQ(mv->dst, 1);
}

TEST(RebalanceRule, DeadNodeIsNeverSourceOrTarget) {
  // Node 0 is dead with a stale high count, node 1 dead and idle: neither
  // may be picked. Among the live nodes, 2 (1000 ops) sheds to 3 (200).
  const std::vector<std::vector<uint64_t>> delta = {{5000, 0, 0, 0},
                                                    {0, 0, 0, 0},
                                                    {0, 0, 600, 400},
                                                    {0, 200, 0, 0}};
  const std::vector<int> primary = {0, 3, 2, 2};
  const std::optional<RebalanceMove> mv =
      Pick(delta, primary, {true, true, false, false});
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->shard, 3u);  // max(600, 600) beats max(400, 800)
  EXPECT_EQ(primary[mv->shard], 2);
  EXPECT_EQ(mv->dst, 3);
  // One live node left: nowhere to move.
  EXPECT_FALSE(Pick(delta, primary, {true, true, false, true}).has_value());
}

TEST(RebalanceRule, TiesResolveToLowestIds) {
  // Nodes 1 and 2 tie for hottest, 0 and 3 for coolest; node 1's two
  // shards tie on the predicted peak. Lowest ids win, on every call.
  const std::vector<std::vector<uint64_t>> delta = {{0, 0, 0, 0, 100, 0},
                                                    {0, 500, 0, 500, 0, 0},
                                                    {1000, 0, 0, 0, 0, 0},
                                                    {0, 0, 0, 0, 0, 100}};
  const std::vector<int> primary = {2, 1, 0, 1, 0, 3};
  const std::vector<bool> dead(4, false);
  const std::optional<RebalanceMove> mv = Pick(delta, primary, dead);
  ASSERT_TRUE(mv.has_value());
  EXPECT_EQ(mv->shard, 1u);
  EXPECT_EQ(primary[mv->shard], 1);
  EXPECT_EQ(mv->dst, 0);
  const std::optional<RebalanceMove> again = Pick(delta, primary, dead);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->shard, mv->shard);
}

TEST(RebalanceRule, TriggerNeedsImbalanceAndVolume) {
  // 600 vs 250 is under 3x; 150 vs 10 is under rebalance_min_ops.
  EXPECT_FALSE(
      Pick({{300, 300}, {250, 0}}, {0, 0}, {false, false}).has_value());
  EXPECT_FALSE(Pick({{100, 50}, {0, 10}}, {0, 1}, {false, false}).has_value());
}

ExperimentResult RunSmall(uint64_t seed) {
  ClusterBenchConfig cfg;
  cfg.cluster = SmallParams();
  cfg.cluster.seed = seed;
  cfg.clients = 4;
  cfg.warmup_ns = 100 * sim::kUsec;
  cfg.measure_ns = 600 * sim::kUsec;
  return RunClusterExperiment(cfg);
}

TEST(ClusterHarness, SmokeAndDeterminism) {
  const ExperimentResult a = RunSmall(42);
  EXPECT_GT(a.ops, 100u);
  EXPECT_GT(a.mops, 0.0);
  ASSERT_EQ(a.node_counters.size(), 2u);
  EXPECT_GT(a.node_counters[0].ops_served + a.node_counters[1].ops_served,
            0u);
  EXPECT_GE(a.ring_epoch, 1u);
  // Same seed -> identical outcome.
  const ExperimentResult b = RunSmall(42);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  for (unsigned n = 0; n < 2; n++) {
    EXPECT_EQ(a.node_counters[n].ops_served, b.node_counters[n].ops_served);
  }
  // Different seed -> different interleaving (coarse sanity).
  const ExperimentResult c = RunSmall(7);
  EXPECT_NE(a.ops, c.ops);
}

// A flash crowd with both timelines on: the timeline holds every completion
// from tick 0 to the window's end, warm-up included, in two series of one
// length, and the buckets inside the window hold exactly the measured ops.
TEST(ClusterHarness, FlashCrowdTimelineCoversWarmupAndEndsWithTheWindow) {
  ClusterBenchConfig cfg;
  cfg.cluster = SmallParams();
  cfg.clients = 4;
  cfg.zipf_theta = 1.05;
  cfg.warmup_ns = 300 * sim::kUsec;
  cfg.measure_ns = 600 * sim::kUsec;
  cfg.hotshift_at_ns = cfg.warmup_ns + cfg.measure_ns / 3;
  cfg.record_timeline = true;
  cfg.record_latency_timeline = true;
  const ExperimentResult r = RunClusterExperiment(cfg);

  const sim::Tick b = r.timeline_bucket_ns;
  ASSERT_EQ(b, kTimelineBucketNs);
  ASSERT_EQ(r.timeline_mops.size(), r.timeline_p99_ns.size());
  const size_t warm_b = cfg.warmup_ns / b;
  const size_t end_b = (cfg.warmup_ns + cfg.measure_ns) / b;
  ASSERT_GE(r.timeline_mops.size(), end_b);
  for (size_t i = 0; i < warm_b; i++) {
    EXPECT_GT(r.timeline_mops[i], 0.0) << "warm-up bucket " << i;
    EXPECT_GT(r.timeline_p99_ns[i], 0u) << "warm-up bucket " << i;
  }
  // Nothing after the window's closing tick is on the timeline, and the
  // last bucket holds a completion.
  EXPECT_LE(r.timeline_mops.size(), end_b + 1);
  EXPECT_GT(r.timeline_mops.back(), 0.0);
  uint64_t in_window = 0;
  for (size_t i = warm_b; i < end_b; i++) {
    in_window += std::llround(r.timeline_mops[i] * b / 1e3);
  }
  EXPECT_EQ(in_window, r.ops);
}

}  // namespace
}  // namespace utps::cluster
