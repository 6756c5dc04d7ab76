// Scale-out μTPS: N simulated server nodes behind a consistent-hash ring
// with primary/backup chain replication and live shard migration
// (DESIGN.md §14).
//
// Topology: every node is its own machine (private MemoryModel) with a data
// NIC (one ring per worker; clients route ring = shard % workers) and a
// control NIC for node-to-node and manager traffic, both parameterized by the
// internode link numbers in MachineConfig. The node is a routing and
// replication layer over the single-node store: every GET, PUT and DELETE it
// applies, as primary or backup, runs the single-node executor
// (core/op_exec.h) with one ServerEnv per node (its slab, machine, data NIC
// and the calibrated parse/respond costs) plus the shard's index. A host-side
// manager owns the authoritative shard assignment table and drives health
// probes, failover and migration over the same simulated wires as everything
// else — it is not an oracle: it learns node state only from probe responses.
//
// Replication is chain order: the primary replicates to the backup FIRST,
// waits for the ack, then applies locally and acks the client — so an acked
// write exists on every replica that can ever be promoted. The backup records
// the client's rid in its dedup window while applying, so a promoted backup
// answers a client retransmit of an already-acked write with an empty ack
// instead of re-applying it.
//
// Migration: freeze (drain in-flight ops) -> snapshot chunks + dedup
// watermarks over the control wire -> manager flips the ring epoch. The
// source stays frozen until its own flip assignment arrives, so there is
// never a moment with two unfenced primaries.
//
// Fencing: the manager stamps every assignment message with a per-node
// sequence number and advertises the latest one in each probe. A node that
// missed an assignment (partition, loss) sees its applied sequence lag the
// probed one and refuses to serve until a resync catches it up; a node whose
// lease lapsed (no probe for kLeaseNs) fences itself the same way.
//
// Everything runs on the caller's engine, so cluster runs are deterministic
// per (seed, node count). Header-only on purpose: the mutation
// smoke-check binary compiles its own TU copies with MUTPS_MUTATION and the
// kDropRingEpochCheck hook arms without a library rebuild.
#ifndef UTPS_CLUSTER_CLUSTER_H_
#define UTPS_CLUSTER_CLUSTER_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/mutation.h"
#include "cluster/proto.h"
#include "cluster/ring.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/op_exec.h"
#include "core/server.h"
#include "fault/fault.h"
#include "index/cuckoo.h"
#include "net/rpc.h"
#include "sim/arena.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "sim/exec.h"
#include "sim/nic.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "stats/node_counters.h"
#include "store/item.h"
#include "store/kv.h"
#include "store/slab.h"

namespace utps::cluster {

// Fixed cluster timing and shape (tabulated in DESIGN.md §14). Every node is
// a default MachineConfig serving clients over a default NicConfig; its
// control NIC and the manager's run over the machine's internode link.
constexpr unsigned kVnodes = 64;  // ring virtual nodes per server node
// Health probing / failover.
constexpr sim::Tick kProbePeriodNs = 15 * sim::kUsec;
constexpr sim::Tick kProbeTimeoutNs = 10 * sim::kUsec;
constexpr unsigned kSuspectAfter = 3;              // consecutive probe misses
constexpr sim::Tick kLeaseNs = 60 * sim::kUsec;    // node self-fences past this
constexpr sim::Tick kLeaseMarginNs = 10 * sim::kUsec;
// Server-side pacing.
constexpr sim::Tick kPollNs = 300;
// Internal reliable calls (replication, migration): first timeout and the
// backoff cap every cluster call shares, the clients' included.
constexpr sim::Tick kReplTimeoutNs = 20 * sim::kUsec;
constexpr sim::Tick kRetryMaxTimeoutNs = 200 * sim::kUsec;
// Client retry/backoff (jitter drawn from the per-client RNG).
constexpr sim::Tick kClientTimeoutNs = 30 * sim::kUsec;
constexpr sim::Tick kClientPollNs = 2 * sim::kUsec;
constexpr double kClientJitterFrac = 0.25;
// Migration.
constexpr unsigned kMigChunkRecords = 64;
constexpr sim::Tick kMigDeadlineNs = 4 * sim::kMsec;

// NIC config of the node-to-node and manager links.
inline sim::NicConfig InternodeNic() {
  const sim::MachineConfig mc;
  sim::NicConfig c;
  c.rtt_ns = mc.internode_rtt_ns;
  c.bandwidth_gbps = mc.internode_bw_gbps;
  return c;
}

// A manager-driven migration at a fixed virtual time (DST and benches use
// these for reproducible schedules; the hotset rebalancer migrates on its
// own signal when rebalance_period_ns > 0, see PickRebalanceMove).
struct ForcedMigration {
  sim::Tick at_ns = 0;
  uint64_t shard = 0;
  int dst = -1;  // -1: current backup if any, else (primary + 1) % nodes
};

struct ClusterParams {
  unsigned nodes = 2;
  unsigned shards = 16;
  unsigned workers = 4;   // data-path workers per node
  uint64_t num_keys = 16384;
  uint32_t value_size = 100;
  uint64_t seed = 42;
  std::vector<ForcedMigration> forced;

  // Hotset rebalancer (0 = off).
  sim::Tick rebalance_period_ns = 0;
  double imbalance_factor = 3.0;
  uint64_t rebalance_min_ops = 200;  // ignore idle periods
  sim::Tick rebalance_cooldown_ns = 200 * sim::kUsec;

  fault::FaultConfig fault;   // node crash / partition / message faults
  size_t arena_mb = 256;
};

// Per-NIC fault hook for cluster runs: a partition window (every message in
// [partition_start, partition_stop) into or out of the partitioned node's
// own NICs is dropped) plus the plan's seeded message-level faults, decided
// by fault::DecideMessageFault from this hook's own RNG. A dropped
// partition message takes no draws, so the rest of the schedule does not
// shift with the window.
class ClusterNicHook final : public sim::NicFaultHook {
 public:
  ClusterNicHook(const fault::FaultConfig& fc, bool partitioned, uint64_t seed)
      : fc_(fc),
        partitioned_(partitioned),
        rng_(Mix64(seed ^ 0x436c754661756c74ULL)) {}

  sim::NicFault OnRequest(sim::Tick now) override { return Decide(now); }
  sim::NicFault OnResponse(sim::Tick now) override { return Decide(now); }
  double LinkCostScale(sim::Tick) override { return 1.0; }

 private:
  sim::NicFault Decide(sim::Tick now) {
    if (partitioned_ && fc_.InPartitionWindow(now)) {
      sim::NicFault f;
      f.drop = true;  // no draws: the wire is cut, not lossy
      return f;
    }
    return fault::DecideMessageFault(fc_, rng_, now);
  }

  fault::FaultConfig fc_;
  bool partitioned_;
  Rng rng_;
};

// ---------------------------------------------------------- reliable call
// The one reliable control call (replication, migration transfer, migration
// start). The caller arms `gate` once with the call's rid and points the
// message's copy-out at `resp`; retransmits reuse the rid, and the
// receiver's dedup window makes delivery at-most-once. Both must outlive any
// copy of the message the NIC still holds, so they are never frame locals.
// Each round `check()` may end the call with a verdict before anything is
// sent (the caller lost the right to make it, or no longer needs to);
// otherwise `send()` transmits (skipping the wire while the caller is
// partitioned). The wait polls every `poll_ns` until the response lands, the
// timeout passes or `halted` (the caller crashed) is set; each timeout
// doubles up to kRetryMaxTimeoutNs. Returns whether the answer was kOk.
// It keeps its own loop rather than PollGate's because the wait also ends on
// `halted`. Its last poll is whole, not clamped: the replication timeout
// (kReplTimeoutNs, 20 us) is not a whole number of its 1.2 us polls, so
// clamping would move every faulted cluster run.
template <typename Check, typename Send>
sim::Task<bool> ReliableCall(sim::ExecCtx& ctx, const sim::RpcGate& gate,
                             const uint8_t* resp, sim::Tick timeout,
                             sim::Tick poll_ns, const bool& halted,
                             Check check, Send send) {
  for (;;) {
    if (const std::optional<bool> verdict = check()) {
      co_return *verdict;
    }
    send();
    const sim::Tick deadline = ctx.Now() + timeout;
    while (!gate.ReadyAt(ctx.Now()) && ctx.Now() < deadline && !halted) {
      co_await ctx.Delay(poll_ns);
    }
    if (gate.ReadyAt(ctx.Now())) {
      co_return ParseRespHeader(resp).status == Status::kOk;
    }
    timeout = BackoffStep(timeout, kRetryMaxTimeoutNs, 0.0, nullptr);
  }
}

// The cluster's at-most-once preamble of a non-idempotent request
// (DESIGN.md §9's dedup contract): a retransmit of a call that already
// executed is re-acked with {kOk, owner, epoch} written into `resp` after
// `ack_cpu_ns` of CPU, and one still executing is swallowed (its first
// delivery answers). Returns true when the caller must execute the request
// and then Complete its rid. Unlike the single-node BeginOnce (op_exec.h), it
// answers with a cluster header, and there is no receive ring to complete.
inline bool ExecuteOnce(DedupWindow& dedup, sim::ExecCtx& ctx, sim::Nic& nic,
                        const sim::NicMessage& msg, uint8_t* resp,
                        uint32_t owner, uint64_t epoch,
                        sim::Tick ack_cpu_ns) {
  switch (dedup.Begin(msg.rid)) {
    case DedupWindow::Verdict::kDone:
      ctx.Charge(ack_cpu_ns);
      PutRespHeader(resp, Status::kOk, owner, epoch);
      nic.ServerSend(ctx, msg, resp, kRespHeaderBytes);
      return false;
    case DedupWindow::Verdict::kInFlight:
      return false;
    case DedupWindow::Verdict::kExecute:
      break;
  }
  return true;
}

// ---------------------------------------------------------------- node
// One simulated server node: its own machine (MemoryModel), slab, dedup
// window, per-shard indexes, data/control NICs and worker fibers. Admission,
// replication, dedup, fencing and migration live here; the ops themselves
// run the single-node executor against the shard's index.
class ClusterNode {
 public:
  struct ShardState {
    Role role = Role::kNone;
    bool frozen = false;    // mid-migration freeze (source side)
    bool importing = false; // migration chunks received (destination side)
    int backup = -1;        // replication target while primary
    int owner_hint = -1;    // best known owner (for NOT_OWNER redirects)
    int mig_dst = -1;       // migration destination while frozen
    uint64_t epoch = 1;     // assignment epoch of the last applied kOwn
    uint32_t busy = 0;      // in-flight data ops (freeze drains this)
    std::unique_ptr<KvIndex> index;  // lazily created replica
  };

  ClusterNode(unsigned id, sim::Engine* eng, sim::Arena* arena,
              const ClusterParams& p)
      : id_(id), params_(p), eng_(eng), arena_(arena) {
    sim::MachineConfig mc;
    if (mc.num_cores < p.workers + 2) {
      mc.num_cores = p.workers + 2;  // workers + ctl + transfer
    }
    mem_ = std::make_unique<sim::MemoryModel>(mc);
    slab_ = std::make_unique<SlabAllocator>(arena);
    data_nic_ =
        std::make_unique<sim::Nic>(mem_.get(), sim::NicConfig{}, p.workers);
    ctl_nic_ = std::make_unique<sim::Nic>(mem_.get(), InternodeNic(), 1);
    env_.eng = eng;
    env_.mem = mem_.get();
    env_.nic = data_nic_.get();
    env_.arena = arena;
    env_.slab = slab_.get();
    env_.num_workers = p.workers;
    shards_.resize(p.shards);
    shard_ops_.assign(p.shards, 0);
    worker_ctxs_.resize(p.workers);
    repl_gates_ = std::make_unique<sim::RpcGate[]>(p.workers);
    repl_seq_.assign(p.workers, 0);
    resp_bufs_.resize(p.workers);
    stage_bufs_.resize(p.workers);
    repl_resps_.resize(p.workers);
    for (unsigned w = 0; w < p.workers; w++) {
      worker_ctxs_[w].eng = eng;
      worker_ctxs_[w].mem = mem_.get();
      worker_ctxs_[w].core = static_cast<sim::CoreId>(w);
      resp_bufs_[w] = arena->AllocateArray<uint8_t>(
          kRespHeaderBytes + value_cap_, kCachelineBytes);
      stage_bufs_[w] = arena->AllocateArray<uint8_t>(value_cap_,
                                                     kCachelineBytes);
      repl_resps_[w] = arena->AllocateArray<uint8_t>(kRespHeaderBytes,
                                                     kCachelineBytes);
    }
    ctl_ctx_.eng = eng;
    ctl_ctx_.mem = mem_.get();
    ctl_ctx_.core = static_cast<sim::CoreId>(p.workers);
    transfer_ctx_.eng = eng;
    transfer_ctx_.mem = mem_.get();
    transfer_ctx_.core = static_cast<sim::CoreId>(p.workers + 1);
    ctl_resp_ = arena->AllocateArray<uint8_t>(32, kCachelineBytes);
    ctl_stage_ = arena->AllocateArray<uint8_t>(value_cap_, kCachelineBytes);
    mig_resp_ = arena->AllocateArray<uint8_t>(kRespHeaderBytes,
                                              kCachelineBytes);
    is_partitioned_ = p.fault.partition_node == static_cast<int>(id);
  }

  void WirePeers(std::vector<ClusterNode*> peers, sim::Nic* manager_nic) {
    peers_ = std::move(peers);
    manager_nic_ = manager_nic;
  }

  void SetInitialRole(uint64_t shard, Role role, int backup, int owner) {
    ShardState& s = shards_[shard];
    s.role = role;
    s.backup = backup;
    s.owner_hint = owner;
    s.epoch = 1;
  }

  // Host-plane (untimed) write of a replica item, for population and
  // migration import: in place when the value fits, else into a fresh item
  // that replaces the old one.
  void PutDirect(uint64_t shard, Key key, const void* value, uint32_t len) {
    EnsureIndex(shard);
    PutItemDirect(*shards_[shard].index, *slab_, key, value, len);
  }

  void Start() {
    lease_until_ = kLeaseNs;  // initial lease from t = 0
    for (unsigned w = 0; w < params_.workers; w++) {
      sim::ExecCtx& ctx = worker_ctxs_[w];
      const auto serve = [this, &ctx, w](sim::NicMessage msg) {
        return ServeData(ctx, w, msg);
      };
      eng_->Spawn(PollLoop(ctx, *data_nic_, w, serve));
    }
    const auto serve_ctl = [this](sim::NicMessage msg) {
      return ServeCtl(ctl_ctx_, msg);
    };
    eng_->Spawn(PollLoop(ctl_ctx_, *ctl_nic_, 0, serve_ctl));
    eng_->Spawn(TransferMain());
  }

  void Stop() {
    for (auto& c : worker_ctxs_) {
      c.stop = true;
    }
    ctl_ctx_.stop = true;
    transfer_ctx_.stop = true;
  }

  // Crash-stop (fault plan): fibers park, queued messages are lost.
  void Crash() {
    crashed_ = true;
    counters_.crashed = true;
    data_nic_->DropPending();
    ctl_nic_->DropPending();
  }

  unsigned id() const { return id_; }
  bool crashed() const { return crashed_; }
  sim::Nic& data_nic() { return *data_nic_; }
  sim::Nic& ctl_nic() { return *ctl_nic_; }
  const NodeCounters& counters() const { return counters_; }
  // Per-shard primary op counts: the hotset signal the rebalancer reads.
  const std::vector<uint64_t>& shard_ops() const { return shard_ops_; }
  const ShardState& shard(uint64_t i) const { return shards_[i]; }

  bool IsFenced(sim::Tick now) const {
    return params_.nodes > 1 &&
           (now > lease_until_ || ctl_seq_seen_ < probe_seq_);
  }

  // This node's own egress is cut during its partition window; peers' NICs
  // carry no hook for it, so the node checks before every ClientSend.
  bool InPartition(sim::Tick now) const {
    return is_partitioned_ && params_.fault.InPartitionWindow(now);
  }

 private:
  static constexpr sim::Tick kMigApplyPerRecNs = 40;

  void EnsureIndex(uint64_t shard) {
    ShardState& s = shards_[shard];
    if (s.index == nullptr) {
      const uint64_t cap = params_.num_keys * 2 / params_.shards + 64;
      s.index = std::make_unique<CuckooIndex>(
          arena_, cap, Mix64(params_.seed ^ (uint64_t{id_} << 32) ^ shard) | 1);
    }
  }

  // The node's env with `shard`'s index: what a single-node server runs an
  // op with.
  ServerEnv ShardEnv(uint64_t shard) {
    EnsureIndex(shard);
    ServerEnv env = env_;
    env.index = shards_[shard].index.get();
    return env;
  }

  // The loop of each data worker (ring `w` of the data NIC) and of the
  // control fiber (the control NIC's one ring): until stopped, idle while
  // crashed, else serve the next arrived message or wait one poll.
  template <typename Serve>
  sim::Fiber PollLoop(sim::ExecCtx& ctx, sim::Nic& nic, unsigned ring,
                      Serve serve) {
    while (!ctx.stop) {
      if (crashed_) {
        co_await ctx.Delay(16 * kPollNs);
        continue;
      }
      sim::NicMessage msg;
      if (nic.PopArrived(ring, ctx.Now(), &msg)) {
        co_await serve(msg);
      } else {
        co_await ctx.Delay(kPollNs);
      }
    }
  }

  // ------------------------------------------------------------ data path
  sim::Task<void> ServeData(sim::ExecCtx& ctx, unsigned w,
                            sim::NicMessage msg) {
    const Key key = msg.h[0];
    const uint64_t shard = ShardOfKey(key, params_.shards, params_.num_keys);
    ShardState& s = shards_[shard];
    uint8_t* resp = resp_bufs_[w];
    ctx.Charge(env_.parse_cpu_ns);
    if (const std::optional<RespHeader> redirect = Admit(s, ctx.Now())) {
      Redirect(ctx, msg, resp, *redirect);
      co_return;
    }
    const OpType op = OpOf(msg.h[1]);
    if (op == OpType::kGet) {
      s.busy++;
      const ServerEnv env = ShardEnv(shard);
      // Holds any value: StagePayload bounds each write by value_cap_.
      uint8_t* value = resp + kRespHeaderBytes;
      const uint32_t vlen = co_await ExecGet(ctx, env, key, value);
      s.busy--;
      counters_.ops_served++;
      shard_ops_[shard]++;
      ctx.Charge(env_.respond_cpu_ns);
      PutRespHeader(resp, Status::kOk, id_, s.epoch);
      data_nic_->ServerSend(ctx, msg, resp, kRespHeaderBytes + vlen);
      co_return;
    }
    // PUT / DELETE: at-most-once via the dedup window, replicate-then-apply.
    const uint64_t rid = msg.rid;
    if (!ExecuteOnce(dedup_, ctx, *data_nic_, msg, resp, id_, s.epoch,
                     env_.respond_cpu_ns)) {
      co_return;
    }
    s.busy++;
    const uint32_t vlen = op == OpType::kPut ? LenOf(msg.h[1]) : 0;
    uint8_t* stage = stage_bufs_[w];
    // Land the payload in this node's arena before any suspension: the
    // sender's buffer is host memory and must never hit the cache model.
    // Reading it here is safe — a first delivery of the rid means the sender
    // still holds the buffer.
    co_await StagePayload(ctx, msg, stage, vlen);
    bool ok = true;
    if (s.backup >= 0) {
      ok = co_await Replicate(ctx, w, shard, key, op, stage, vlen, rid);
    }
    if (!ok || crashed_) {
      s.busy--;
      if (!crashed_) {
        // Lost the role mid-op (fenced / demoted): nothing applied, nothing
        // acked — redirect so the client re-resolves and retries elsewhere.
        Redirect(ctx, msg, resp, {Status::kNotOwner, HintOf(s), s.epoch});
      }
      co_return;
    }
    co_await ApplyOp(ctx, shard, key, op, stage, vlen);
    s.busy--;
    counters_.ops_served++;
    shard_ops_[shard]++;
    dedup_.Complete(rid);
    ctx.Charge(env_.respond_cpu_ns);
    PutRespHeader(resp, Status::kOk, id_, s.epoch);
    data_nic_->ServerSend(ctx, msg, resp, kRespHeaderBytes);
  }

  // The data path's admission gate: the redirect a request gets instead of
  // service — kFenced while this node's lease lapsed or it missed an
  // assignment, kNotOwner unless it leads the shard, kFrozen mid-migration
  // (naming the destination) — or nothing when the node may serve it. The
  // seeded mutation skips the gate: a stale node keeps serving a shard it
  // handed off, exactly the bug the DST replica audit and post-flip reads
  // must catch.
  std::optional<RespHeader> Admit(const ShardState& s, sim::Tick now) {
    if (mut::DropRingEpochCheck()) {
      return std::nullopt;
    }
    if (IsFenced(now)) {
      counters_.fenced = true;
      return RespHeader{Status::kFenced, HintOf(s), s.epoch};
    }
    if (s.role != Role::kPrimary) {
      return RespHeader{Status::kNotOwner, HintOf(s), s.epoch};
    }
    if (s.frozen) {
      return RespHeader{Status::kFrozen,
                        s.mig_dst >= 0 ? static_cast<uint32_t>(s.mig_dst)
                                       : kNoOwner,
                        s.epoch};
    }
    return std::nullopt;
  }

  // Answers a data request with a redirect header instead of service.
  void Redirect(sim::ExecCtx& ctx, const sim::NicMessage& msg, uint8_t* resp,
                const RespHeader& h) {
    counters_.not_owner++;
    PutRespHeader(resp, h.status, h.owner, h.epoch);
    data_nic_->ServerSend(ctx, msg, resp, kRespHeaderBytes);
  }

  uint32_t HintOf(const ShardState& s) const {
    return s.owner_hint >= 0 ? static_cast<uint32_t>(s.owner_hint) : kNoOwner;
  }

  // Copies a write's `len`-byte payload into `stage`, one of this node's
  // value-sized staging buffers, and models the write.
  sim::Task<void> StagePayload(sim::ExecCtx& ctx, const sim::NicMessage& msg,
                               uint8_t* stage, uint32_t len) {
    if (len == 0 || msg.payload == nullptr) {
      co_return;
    }
    UTPS_CHECK_MSG(len <= value_cap_,
                   "a %u B write exceeds the %u B value size", len, value_cap_);
    std::memcpy(stage, msg.payload, len);
    co_await ctx.Write(stage, len);
  }

  // Applies a PUT/DELETE to this node's replica the way a single-node server
  // does.
  sim::Task<void> ApplyOp(sim::ExecCtx& ctx, uint64_t shard, Key key,
                          OpType op, const uint8_t* payload, uint32_t len) {
    const ServerEnv env = ShardEnv(shard);
    if (op == OpType::kPut) {
      co_await ExecPut(ctx, env, key, payload, len);
    } else {
      co_await ExecDelete(ctx, env, key);
    }
  }

  // Chain replication leg: ship the op to the backup and wait for its ack.
  // Returns true when the op is safe to apply and ack (replicated, or no
  // backup remains), false when this node lost the right to execute it.
  sim::Task<bool> Replicate(sim::ExecCtx& ctx, unsigned w, uint64_t shard,
                            Key key, OpType op, const uint8_t* payload,
                            uint32_t len, uint64_t client_rid) {
    const ShardState& s = shards_[shard];
    sim::RpcGate& gate = repl_gates_[w];
    sim::NicMessage m;
    m.h[0] = key;
    m.h[1] =
        PackOpLen(op == OpType::kPut ? Ctl::kReplPut : Ctl::kReplDel, len);
    m.h[2] = client_rid;
    m.h[3] = shard;
    m.payload = len > 0 ? payload : nullptr;
    m.payload_len = len;
    m.rid = (ReplStream(id_, w) << 32) | ++repl_seq_[w];
    m.gate = &gate;
    m.copy_out = repl_resps_[w];
    gate.Arm(m.rid);
    co_return co_await ReliableCall(
        ctx, gate, repl_resps_[w], kReplTimeoutNs, 4 * kPollNs, crashed_,
        [this, &s]() -> std::optional<bool> {
          if (crashed_ || s.role != Role::kPrimary) {
            return false;
          }
          if (s.backup < 0) {
            return true;  // backup died and the manager released us (kNoRepl)
          }
          return std::nullopt;
        },
        [this, &ctx, &s, &m] {
          if (!InPartition(ctx.Now())) {
            peers_[s.backup]->ctl_nic_->ClientSend(ctx, 0, m);
            counters_.repl_sent++;
          }
        });
  }

  // ------------------------------------------------------------ ctl path
  sim::Task<void> ServeCtl(sim::ExecCtx& ctx, sim::NicMessage msg) {
    ctx.Charge(env_.parse_cpu_ns);
    const Ctl op = OpOf<Ctl>(msg.h[1]);
    switch (op) {
      case Ctl::kReplPut:
      case Ctl::kReplDel:
        co_await ServeRepl(ctx, msg, op);
        co_return;
      case Ctl::kMigStart:
        ServeMigStart(ctx, msg);
        co_return;
      case Ctl::kMigChunk:
      case Ctl::kMigDedup:
        ServeMigData(ctx, msg, op);
        co_return;
      case Ctl::kOwn:
      case Ctl::kDemote:
      case Ctl::kNoRepl:
        ApplyAssignment(msg, op);
        co_return;  // fire-and-forget: no response
      case Ctl::kResync:
        ApplyResync(msg);
        co_return;  // fire-and-forget: the next probe confirms the catch-up
      case Ctl::kProbe: {
        if (msg.h[2] > probe_seq_) {
          probe_seq_ = msg.h[2];
        }
        const sim::Tick until = ctx.Now() + kLeaseNs;
        if (until > lease_until_) {
          lease_until_ = until;
        }
        PutRespHeader(ctl_resp_, Status::kOk, id_, msg.h[3]);
        std::memcpy(ctl_resp_ + kRespHeaderBytes, &ctl_seq_seen_, 8);
        ctl_nic_->ServerSend(ctx, msg, ctl_resp_, kRespHeaderBytes + 8);
        co_return;
      }
      default:
        co_return;
    }
  }

  // Backup side of the replication chain. Applies the op, then records the
  // ORIGINATING CLIENT's rid as done in this node's dedup window — that is
  // what lets a promoted backup answer a client retransmit of an already
  // acked write with an empty ack instead of re-applying it.
  sim::Task<void> ServeRepl(sim::ExecCtx& ctx, sim::NicMessage msg, Ctl op) {
    const uint64_t shard = msg.h[3];
    ShardState& s = shards_[shard];
    if (s.role != Role::kBackup) {
      PutRespHeader(ctl_resp_, Status::kNotOwner, HintOf(s), s.epoch);
      ctl_nic_->ServerSend(ctx, msg, ctl_resp_, kRespHeaderBytes);
      co_return;
    }
    // Dedup BEFORE touching the payload: on a duplicate the sender may have
    // reused its staging buffer, so a duplicate must never read it.
    if (!ExecuteOnce(dedup_, ctx, *ctl_nic_, msg, ctl_resp_, id_, s.epoch,
                     0)) {
      co_return;
    }
    const Key key = msg.h[0];
    const uint32_t len = op == Ctl::kReplPut ? LenOf(msg.h[1]) : 0;
    const uint64_t client_rid = msg.h[2];
    co_await StagePayload(ctx, msg, ctl_stage_, len);
    co_await ApplyOp(ctx, shard, key,
                     op == Ctl::kReplPut ? OpType::kPut : OpType::kDelete,
                     ctl_stage_, len);
    dedup_.MergeFloor(static_cast<uint32_t>(client_rid >> 32),
                      static_cast<uint32_t>(client_rid),
                      static_cast<uint32_t>(client_rid));
    counters_.repl_applied++;
    dedup_.Complete(msg.rid);
    ctx.Charge(env_.respond_cpu_ns);
    PutRespHeader(ctl_resp_, Status::kOk, id_, s.epoch);
    ctl_nic_->ServerSend(ctx, msg, ctl_resp_, kRespHeaderBytes);
  }

  // Manager -> source node: freeze the shard and start the transfer fiber.
  // A retransmit of an accepted start is re-acked idempotently.
  void ServeMigStart(sim::ExecCtx& ctx, const sim::NicMessage& msg) {
    const uint64_t shard = msg.h[0];
    const int dst = static_cast<int>(msg.h[2]);
    ShardState& s = shards_[shard];
    if (!ExecuteOnce(dedup_, ctx, *ctl_nic_, msg, ctl_resp_, id_, s.epoch,
                     0)) {
      return;
    }
    if (s.role != Role::kPrimary || (s.frozen && s.mig_dst != dst)) {
      dedup_.Complete(msg.rid);
      PutRespHeader(ctl_resp_, Status::kNotOwner, HintOf(s), s.epoch);
      ctl_nic_->ServerSend(ctx, msg, ctl_resp_, kRespHeaderBytes);
      return;
    }
    s.frozen = true;
    s.mig_dst = dst;
    mig_shard_ = static_cast<int64_t>(shard);
    mig_dst_node_ = dst;
    dedup_.Complete(msg.rid);
    PutRespHeader(ctl_resp_, Status::kOk, id_, s.epoch);
    ctl_nic_->ServerSend(ctx, msg, ctl_resp_, kRespHeaderBytes);
  }

  // Destination side of the two transfer message kinds. Host-plane applies
  // with a flat per-record charge: the wire transfer already modeled the
  // bytes, and the destination is not serving this shard yet.
  void ServeMigData(sim::ExecCtx& ctx, const sim::NicMessage& msg, Ctl op) {
    const uint64_t shard = msg.h[0];
    ShardState& s = shards_[shard];
    if (!ExecuteOnce(dedup_, ctx, *ctl_nic_, msg, ctl_resp_, id_, s.epoch,
                     0)) {
      return;
    }
    const uint8_t* p = static_cast<const uint8_t*>(msg.payload);
    const uint8_t* end = p + msg.payload_len;
    if (msg.h[2] != 0 && s.role == Role::kNone && s.index != nullptr) {
      // First message of a fresh transfer into a non-replica: drop whatever
      // a previously aborted import left behind (a live backup's copy is
      // repl-maintained and must stay).
      std::vector<Key> stale;
      s.index->ForEachDirect(
          [&stale](Key k, const Item*) { stale.push_back(k); });
      for (Key k : stale) {
        EraseItemDirect(*s.index, *slab_, k);
      }
    }
    if (op == Ctl::kMigChunk) {
      EnsureIndex(shard);
      s.importing = true;
      while (p + 12 <= end) {
        Key key = 0;
        uint32_t len = 0;
        std::memcpy(&key, p, 8);
        std::memcpy(&len, p + 8, 4);
        p += 12;
        if (p + len > end) {
          break;
        }
        PutDirect(shard, key, p, len);
        p += len;
        ctx.Charge(kMigApplyPerRecNs);
      }
    } else {  // kMigDedup
      while (p + 12 <= end) {
        uint32_t stream = 0;
        uint32_t started = 0;
        uint32_t done = 0;
        std::memcpy(&stream, p, 4);
        std::memcpy(&started, p + 4, 4);
        std::memcpy(&done, p + 8, 4);
        p += 12;
        dedup_.MergeFloor(stream, started, done);
        ctx.Charge(kMigApplyPerRecNs);
      }
    }
    dedup_.Complete(msg.rid);
    ctx.Charge(env_.respond_cpu_ns);
    PutRespHeader(ctl_resp_, Status::kOk, id_, s.epoch);
    ctl_nic_->ServerSend(ctx, msg, ctl_resp_, kRespHeaderBytes);
  }

  // Assignment messages apply only in the exact order the manager issued
  // them (contiguous per-node sequence). A gap — a lost or reordered
  // assignment — leaves ctl_seq_seen_ behind the sequence advertised by the
  // next probe, so the node fences itself until the manager's resync
  // replays the full table with fresh contiguous numbers.
  void ApplyAssignment(const sim::NicMessage& msg, Ctl op) {
    const uint64_t seq = OwnNodeSeq(msg.h[2]);
    if (seq != ctl_seq_seen_ + 1) {
      return;  // gap or stale duplicate: ignore, stay (or become) fenced
    }
    ctl_seq_seen_ = seq;
    ShardState& s = shards_[msg.h[0]];
    if (op == Ctl::kNoRepl) {
      s.backup = -1;  // backup died; primary continues un-replicated
      return;
    }
    // kOwn, or kDemote: the manager packs a demotion as Role::kNone with no
    // backup, which TakeRole turns into "not a replica".
    TakeRole(s, OwnRole(msg.h[2]), OwnBackup(msg.h[2]), msg.h[3]);
  }

  // Full-table snapshot (Ctl::kResync): the manager's recovery path when this
  // node missed individual assignments. Applies every shard's row and JUMPS
  // ctl_seq_seen_ to the snapshot's sequence — deliberately exempt from the
  // contiguity rule, because the snapshot carries the complete current truth
  // and so has nothing to be ordered against. A stale delayed snapshot
  // (seq <= seen) is ignored; assignments sent after it are numbered from the
  // jump target, so the contiguous chain resumes seamlessly.
  void ApplyResync(const sim::NicMessage& msg) {
    const uint64_t seq = msg.h[2];
    if (seq <= ctl_seq_seen_ || msg.payload == nullptr) {
      return;
    }
    const uint8_t* p = static_cast<const uint8_t*>(msg.payload);
    const uint8_t* end = p + msg.payload_len;
    for (uint64_t sh = 0; sh < params_.shards && p + 16 <= end;
         sh++, p += 16) {
      uint32_t role_w = 0;
      int32_t backup = -1;
      uint64_t oe = 0;
      std::memcpy(&role_w, p, 4);
      std::memcpy(&backup, p + 4, 4);
      std::memcpy(&oe, p + 8, 8);
      TakeRole(shards_[sh], static_cast<Role>(role_w), backup, oe);
    }
    ctl_seq_seen_ = seq;
  }

  // The one role transition (kOwn, kDemote, every row of a kResync). Counts
  // a promotion (backup -> primary), a handed-off migration (a frozen source
  // becoming the backup) and a received one (an importing destination
  // becoming primary), installs the role, backup and owner-epoch word, and
  // settles the migration state machine: no freeze survives, and only a
  // backup keeps an import in progress.
  void TakeRole(ShardState& s, Role role, int backup, uint64_t owner_epoch) {
    if (s.role == Role::kBackup && role == Role::kPrimary) {
      counters_.promotions++;
    }
    if (s.frozen && s.mig_dst >= 0 && role == Role::kBackup) {
      counters_.migrations_out++;
    }
    if (s.importing && role == Role::kPrimary) {
      counters_.migrations_in++;
    }
    s.role = role;
    s.backup = backup;
    s.epoch = OwnEpoch(owner_epoch);
    s.owner_hint = role == Role::kPrimary ? static_cast<int>(id_)
                                          : OwnHint(owner_epoch);
    s.frozen = false;
    s.mig_dst = -1;
    if (role != Role::kBackup) {
      s.importing = false;
    }
  }

  // -------------------------------------------------------- transfer path
  sim::Fiber TransferMain() {
    sim::ExecCtx& ctx = transfer_ctx_;
    for (;;) {
      if (ctx.stop) {
        break;
      }
      if (crashed_ || mig_shard_ < 0) {
        co_await ctx.Delay(8 * kPollNs);
        continue;
      }
      const uint64_t shard = static_cast<uint64_t>(mig_shard_);
      const int dst = mig_dst_node_;
      co_await Transfer(ctx, shard, dst);
      mig_shard_ = -1;
      mig_dst_node_ = -1;
    }
  }

  // Source side of a shard migration: drain in-flight ops, then ship the
  // snapshot and the dedup watermarks to the destination, and report
  // completion to the manager. The shard stays frozen until the manager's
  // flip assignment arrives (ApplyAssignment).
  sim::Task<void> Transfer(sim::ExecCtx& ctx, uint64_t shard, int dst) {
    ShardState& s = shards_[shard];
    while (s.busy > 0) {
      if (!s.frozen || crashed_) {
        co_return;  // aborted (demoted / manager gave up / crash)
      }
      co_await ctx.Delay(4 * kPollNs);
    }
    // Snapshot: bucket order of the shard's own index — deterministic for a
    // deterministic history, and total because the shard is frozen.
    mig_items_.clear();
    if (s.index != nullptr) {
      s.index->ForEachDirect([this](Key k, const Item* it) {
        mig_items_.push_back({k, it});
      });
    }
    // The transfer's first message carries a fresh-import flag: the
    // destination drops remnants of any previously aborted import for this
    // shard, so a key deleted since that abort cannot resurrect.
    bool first = true;
    if (!co_await SendChunked(
            ctx, dst, shard, Ctl::kMigChunk, mig_items_.size(), first,
            [this](size_t i) {
              const auto& [key, it] = mig_items_[i];
              const uint32_t len = it->value_len;
              AppendRaw(&key, 8);
              AppendRaw(&len, 4);
              const size_t off = mig_buf_.size();
              mig_buf_.resize(off + len);
              ItemReadDirect(it, mig_buf_.data() + off);
            })) {
      co_return;
    }
    // Dedup watermarks, taken once the items are across: every stream this
    // node has seen, sorted by stream id (the table is an unordered_map —
    // serialization must impose an order).
    std::vector<std::array<uint32_t, 3>> ents;
    dedup_.ForEachEntry([&ents](uint32_t st, uint32_t a, uint32_t d) {
      ents.push_back({st, a, d});
    });
    std::sort(ents.begin(), ents.end());
    if (!co_await SendChunked(ctx, dst, shard, Ctl::kMigDedup, ents.size(),
                              first, [this, &ents](size_t i) {
                                AppendRaw(ents[i].data(), 12);
                              })) {
      co_return;
    }
    // Tell the manager the transfer is complete; it flips the ring epoch.
    sim::NicMessage done;
    done.h[0] = shard;
    done.h[1] = PackOpLen(Ctl::kMigDone, 0);
    done.h[2] = id_;
    co_await TransferCall(ctx, manager_nic_, done, shard);
  }

  void AppendRaw(const void* src, size_t len) {
    const uint8_t* p = static_cast<const uint8_t*>(src);
    mig_buf_.insert(mig_buf_.end(), p, p + len);
  }

  // Ships `n` records to `dst` as `op` messages of up to kMigChunkRecords
  // each, `put(i)` serializing record i into mig_buf_. `first` flags the
  // transfer's first message and is cleared once one is sent. Returns false
  // when the transfer aborted.
  template <typename Put>
  sim::Task<bool> SendChunked(sim::ExecCtx& ctx, int dst, uint64_t shard,
                              Ctl op, size_t n, bool& first, Put put) {
    for (size_t base = 0; base < n; base += kMigChunkRecords) {
      mig_buf_.clear();
      const size_t end = std::min(n, base + kMigChunkRecords);
      for (size_t i = base; i < end; i++) {
        put(i);
      }
      sim::NicMessage m;
      m.h[0] = shard;
      m.h[1] = PackOpLen(op, static_cast<uint32_t>(mig_buf_.size()));
      m.h[2] = first ? 1 : 0;  // fresh import: dst drops aborted remnants
      m.payload = mig_buf_.data();
      m.payload_len = static_cast<uint32_t>(mig_buf_.size());
      if (!co_await TransferCall(ctx, &peers_[dst]->ctl_nic(), m, shard)) {
        co_return false;
      }
      first = false;
    }
    co_return true;
  }

  // Reliable call on the transfer fiber. Aborts when the shard unfreezes
  // under us (demote / manager abort) or this node crashes.
  sim::Task<bool> TransferCall(sim::ExecCtx& ctx, sim::Nic* nic,
                               sim::NicMessage m, uint64_t shard) {
    const ShardState& s = shards_[shard];
    m.rid = (MigStream(id_) << 32) | ++mig_seq_;
    m.gate = &mig_gate_;
    m.copy_out = mig_resp_;
    mig_gate_.Arm(m.rid);
    co_return co_await ReliableCall(
        ctx, mig_gate_, mig_resp_, kReplTimeoutNs, 4 * kPollNs, crashed_,
        [this, &s]() -> std::optional<bool> {
          if (crashed_ || !s.frozen) {
            return false;
          }
          return std::nullopt;
        },
        [this, &ctx, nic, &m] {
          if (!InPartition(ctx.Now())) {
            nic->ClientSend(ctx, 0, m);
          }
        });
  }

  // ------------------------------------------------------------- members
  unsigned id_;
  ClusterParams params_;
  sim::Engine* eng_;
  sim::Arena* arena_;
  std::unique_ptr<sim::MemoryModel> mem_;
  std::unique_ptr<SlabAllocator> slab_;
  std::unique_ptr<sim::Nic> data_nic_;
  std::unique_ptr<sim::Nic> ctl_nic_;
  ServerEnv env_;  // index unset: ShardEnv adds the shard's
  // Capacity of the staging buffers: the largest value a write may carry.
  const uint32_t value_cap_ = std::max<uint32_t>(params_.value_size, 8);
  DedupWindow dedup_;
  std::vector<ShardState> shards_;
  NodeCounters counters_;
  std::vector<uint64_t> shard_ops_;
  bool crashed_ = false;
  bool is_partitioned_ = false;
  sim::Tick lease_until_ = 0;
  uint64_t probe_seq_ = 0;     // latest assignment seq a probe advertised
  uint64_t ctl_seq_seen_ = 0;  // latest contiguously-applied assignment seq
  std::vector<ClusterNode*> peers_;
  sim::Nic* manager_nic_ = nullptr;

  // Data plane (per worker).
  std::vector<sim::ExecCtx> worker_ctxs_;
  std::unique_ptr<sim::RpcGate[]> repl_gates_;
  std::vector<uint32_t> repl_seq_;
  std::vector<uint8_t*> resp_bufs_;
  std::vector<uint8_t*> stage_bufs_;
  std::vector<uint8_t*> repl_resps_;

  // Control + transfer fibers.
  sim::ExecCtx ctl_ctx_;
  sim::ExecCtx transfer_ctx_;
  uint8_t* ctl_resp_ = nullptr;
  uint8_t* ctl_stage_ = nullptr;
  sim::RpcGate mig_gate_;
  uint32_t mig_seq_ = 0;
  uint8_t* mig_resp_ = nullptr;
  int64_t mig_shard_ = -1;  // shard the transfer fiber should ship (-1 idle)
  int mig_dst_node_ = -1;
  std::vector<std::pair<Key, const Item*>> mig_items_;
  std::vector<uint8_t> mig_buf_;  // host-side wire staging (not modeled)
};

// ------------------------------------------------------------- rebalancer
// One hotset-rebalancer decision over a period's loads (load[n]: ops node n
// served as primary; delta[n][s]: the part of it on shard s). The hot node is
// the live node with the highest load and the cool node the live node with
// the lowest, ties to the lower node id. The trigger fires when the hot node
// served at least min_ops and imbalance_factor x the cool node's load (an
// idle cool node counts as 1). Each shard s the hot node leads with
// d = delta[hot][s] > 0 then predicts the pair's peak after its move,
// max(load[hot] - d, load[cool] + d); the lowest prediction wins, ties to the
// lower shard id. The move is taken only if that peak is strictly below
// load[hot]: a shard carrying more than the gap between the two nodes would
// only relocate the hotspot (and bounce back after the cooldown), so a single
// dominant shard stays put while a node holding several warm shards sheds one.
struct RebalanceMove {
  uint64_t shard = 0;  // led by the hot node
  int dst = -1;        // the cool node
};

inline std::optional<RebalanceMove> PickRebalanceMove(
    const std::vector<uint64_t>& load,
    const std::vector<std::vector<uint64_t>>& delta,
    const std::vector<int>& primary, const std::vector<bool>& dead,
    double imbalance_factor, uint64_t min_ops) {
  int hot = -1;
  int cool = -1;
  for (size_t n = 0; n < load.size(); n++) {
    if (dead[n]) {
      continue;
    }
    if (hot < 0 || load[n] > load[hot]) {
      hot = static_cast<int>(n);
    }
    if (cool < 0 || load[n] < load[cool]) {
      cool = static_cast<int>(n);
    }
  }
  if (hot < 0 || hot == cool) {
    return std::nullopt;
  }
  const uint64_t lo = load[cool] > 0 ? load[cool] : 1;
  if (load[hot] < min_ops ||
      static_cast<double>(load[hot]) <
          imbalance_factor * static_cast<double>(lo)) {
    return std::nullopt;
  }
  std::optional<RebalanceMove> best;
  uint64_t best_peak = load[hot];  // a move must beat the current peak
  for (size_t sh = 0; sh < primary.size(); sh++) {
    const uint64_t d = delta[hot][sh];
    if (primary[sh] != hot || d == 0) {
      continue;
    }
    const uint64_t peak = std::max(load[hot] - d, load[cool] + d);
    if (peak < best_peak) {
      best_peak = peak;
      best = RebalanceMove{sh, cool};
    }
  }
  return best;
}

// ---------------------------------------------------------------- manager
// Owns the authoritative shard assignment table; learns node liveness only
// through probe responses over the simulated wires. Drives failover (probe
// timeouts -> backup promotion), forced and hotset-driven migrations, and
// the post-partition resync that un-fences lagging nodes.
class ClusterManager {
 public:
  struct Assign {
    int primary = -1;
    int backup = -1;
    uint64_t epoch = 1;
  };

  ClusterManager(sim::Engine* eng, const ClusterParams& p,
                 std::vector<ClusterNode*> nodes)
      : eng_(eng), params_(p), nodes_(std::move(nodes)) {
    nic_ = std::make_unique<sim::Nic>(nullptr, InternodeNic(), 1);
    assign_.resize(p.shards);
    node_seq_.assign(params_.nodes, 0);
    mgr_seq_.assign(params_.nodes, 0);
    views_.resize(params_.nodes);
    probe_gates_ = std::make_unique<sim::RpcGate[]>(params_.nodes);
    probe_resps_.resize(params_.nodes);
    for (unsigned n = 0; n < params_.nodes; n++) {
      probe_resps_[n].fill(0);
    }
    ctl_ctx_.eng = eng;
    mig_ctx_.eng = eng;
    reb_ctx_.eng = eng;
    probe_ctxs_.resize(params_.nodes);
    for (auto& c : probe_ctxs_) {
      c.eng = eng;
    }
    last_shard_ops_.assign(params_.nodes,
                           std::vector<uint64_t>(p.shards, 0));
    // Fixed-size snapshot buffers (16 bytes per shard): overwritten in place
    // on every resync so an in-flight delayed snapshot never dangles — it
    // just reads the freshest table, which its lower sequence number makes
    // safe to apply or ignore on the node.
    resync_bufs_.assign(params_.nodes,
                        std::vector<uint8_t>(size_t{p.shards} * 16, 0));
  }

  void SetInitialAssign(uint64_t shard, int primary, int backup) {
    assign_[shard] = Assign{primary, backup, 1};
  }

  void Start() {
    eng_->Spawn(CtlMain());
    for (unsigned n = 0; n < params_.nodes; n++) {
      // Staggered so N probe RPCs never share an event tick.
      eng_->Spawn(ProbeMain(n), (n + 1) * sim::kUsec);
    }
    if (!params_.forced.empty()) {
      eng_->Spawn(MigPlanMain());
    }
    if (params_.rebalance_period_ns > 0) {
      eng_->Spawn(RebalanceMain());
    }
  }

  void Stop() {
    ctl_ctx_.stop = true;
    mig_ctx_.stop = true;
    reb_ctx_.stop = true;
    for (auto& c : probe_ctxs_) {
      c.stop = true;
    }
  }

  sim::Nic* nic() { return nic_.get(); }
  const Assign& assign(uint64_t shard) const { return assign_[shard]; }
  uint64_t epoch() const { return epoch_; }
  uint64_t shard_migrations() const { return shard_migrations_; }

 private:
  struct NodeView {
    sim::Tick last_success = 0;
    unsigned failures = 0;
    bool dead = false;
  };

  static constexpr sim::Tick kMgrPollNs = 500;
  static constexpr bool kNeverHalts = false;  // the manager does not crash

  // kResolve service + kMigDone collection.
  sim::Fiber CtlMain() {
    sim::ExecCtx& ctx = ctl_ctx_;
    for (;;) {
      if (ctx.stop) {
        break;
      }
      sim::NicMessage msg;
      if (!nic_->PopArrived(0, ctx.Now(), &msg)) {
        co_await ctx.Delay(kMgrPollNs);
        continue;
      }
      const Ctl op = OpOf<Ctl>(msg.h[1]);
      if (op == Ctl::kResolve) {
        const uint64_t shard = msg.h[0];
        PutRespHeader(resolve_resp_, Status::kOk,
                      assign_[shard].primary >= 0
                          ? static_cast<uint32_t>(assign_[shard].primary)
                          : kNoOwner,
                      assign_[shard].epoch);
        nic_->ServerSend(ctx, msg, resolve_resp_, kRespHeaderBytes);
      } else if (op == Ctl::kMigDone &&
                 ExecuteOnce(dedup_, ctx, *nic_, msg, resolve_resp_, 0,
                             epoch_, 0)) {
        mig_done_shard_ = static_cast<int64_t>(msg.h[0]);
        dedup_.Complete(msg.rid);
        PutRespHeader(resolve_resp_, Status::kOk, 0, epoch_);
        nic_->ServerSend(ctx, msg, resolve_resp_, kRespHeaderBytes);
      }
    }
  }

  sim::Fiber ProbeMain(unsigned n) {
    sim::ExecCtx& ctx = probe_ctxs_[n];
    sim::RpcGate& gate = probe_gates_[n];
    for (;;) {
      if (ctx.stop) {
        co_return;
      }
      co_await ctx.Delay(kProbePeriodNs);
      if (ctx.stop || views_[n].dead) {
        continue;
      }
      const uint64_t rid = (MgrStream(n) << 32) | ++mgr_seq_[n];
      gate.Arm(rid);
      sim::NicMessage m;
      m.h[1] = PackOpLen(Ctl::kProbe, 0);
      m.h[2] = node_seq_[n];  // node fences itself if it lags this
      m.h[3] = epoch_;
      m.rid = rid;
      m.gate = &gate;
      m.copy_out = probe_resps_[n].data();
      nodes_[n]->ctl_nic().ClientSend(ctx, 0, m);
      // Whole polls: the engine's scheduling jitter (DST) moves them off the
      // 500 ns grid, so a clamped last poll would change when a probe times
      // out.
      if (co_await PollGate(ctx, gate, ctx.Now() + kProbeTimeoutNs,
                            kMgrPollNs, LastPoll::kWhole)) {
        views_[n].last_success = ctx.Now();
        views_[n].failures = 0;
        uint64_t seen = 0;
        std::memcpy(&seen, probe_resps_[n].data() + kRespHeaderBytes, 8);
        if (seen < node_seq_[n]) {
          Resync(ctx, n);  // node missed assignments: replay its table
        }
        continue;
      }
      views_[n].failures++;
      if (views_[n].failures >= kSuspectAfter &&
          ctx.Now() >= views_[n].last_success + kLeaseNs + kLeaseMarginNs) {
        DeclareDead(ctx, n);
      }
    }
  }

  // Probe-timeout verdict: promote backups for every shard the dead node
  // led, release replication where it was the backup. The lease wait above
  // guarantees the dead (or partitioned) node has fenced itself by now, so
  // there is never a second unfenced primary.
  void DeclareDead(sim::ExecCtx& ctx, unsigned n) {
    if (views_[n].dead) {
      return;
    }
    views_[n].dead = true;
    for (uint64_t sh = 0; sh < params_.shards; sh++) {
      Assign& a = assign_[sh];
      if (a.primary == static_cast<int>(n)) {
        if (a.backup >= 0 && !views_[a.backup].dead) {
          epoch_++;
          a = Assign{a.backup, -1, epoch_};
          SendAssign(ctx, static_cast<unsigned>(a.primary), sh, Ctl::kOwn,
                     Role::kPrimary, -1, a.primary);
        } else {
          a.primary = -1;  // shard lost (no live replica) — clients stall
        }
      } else if (a.backup == static_cast<int>(n)) {
        a.backup = -1;
        if (a.primary >= 0 && !views_[a.primary].dead) {
          SendAssign(ctx, static_cast<unsigned>(a.primary), sh, Ctl::kNoRepl,
                     Role::kPrimary, -1, a.primary);
        }
      }
    }
  }

  // Ships the node's full assignment table as ONE kResync snapshot; the node
  // applies it wholesale and jumps its sequence to the advertised value.
  // Per-message replays cannot recover a gap (the node's contiguity rule
  // rejects everything after the first loss, including the replay itself,
  // which is numbered past the gap); the snapshot needs no contiguity — any
  // single delivery clears the fence. Fire-and-forget: if the snapshot is
  // itself dropped, the next probe still sees the lag and sends another.
  void Resync(sim::ExecCtx& ctx, unsigned n) {
    uint8_t* p = resync_bufs_[n].data();
    for (uint64_t sh = 0; sh < params_.shards; sh++) {
      const Assign& a = assign_[sh];
      uint32_t role = static_cast<uint32_t>(Role::kNone);
      int32_t backup = -1;
      if (a.primary == static_cast<int>(n)) {
        role = static_cast<uint32_t>(Role::kPrimary);
        backup = a.backup;
      } else if (a.backup == static_cast<int>(n)) {
        role = static_cast<uint32_t>(Role::kBackup);
      }
      const uint64_t oe = PackOwnerEpoch(a.epoch, a.primary);
      std::memcpy(p, &role, 4);
      std::memcpy(p + 4, &backup, 4);
      std::memcpy(p + 8, &oe, 8);
      p += 16;
    }
    ++node_seq_[n];
    sim::NicMessage m;
    m.h[1] = PackOpLen(Ctl::kResync, 0);
    m.h[2] = node_seq_[n];
    m.payload = resync_bufs_[n].data();
    m.payload_len = static_cast<uint32_t>(resync_bufs_[n].size());
    nodes_[n]->ctl_nic().ClientSend(ctx, 0, m);
  }

  // Fire-and-forget assignment carrying the per-node fencing sequence; the
  // probe loop detects loss (reported seq lags) and resyncs.
  void SendAssign(sim::ExecCtx& ctx, unsigned node, uint64_t shard, Ctl op,
                  Role role, int backup, int owner_hint) {
    ++node_seq_[node];
    sim::NicMessage m;
    m.h[0] = shard;
    m.h[1] = PackOpLen(op, 0);
    m.h[2] = PackOwnWord(role, backup, node_seq_[node]);
    m.h[3] = PackOwnerEpoch(assign_[shard].epoch, owner_hint);
    nodes_[node]->ctl_nic().ClientSend(ctx, 0, m);
  }

  // Drives one live shard migration end to end: freeze the source, wait for
  // its transfer-complete report, then flip the ring epoch and swap roles
  // (destination becomes primary, the old source its backup). Aborts — src
  // or dst dying, the transfer stalling past kMigDeadlineNs — unfreeze the
  // source with a refreshed kOwn so it resumes serving. Only one migration
  // runs at a time, so kMigStart's gate and response buffer are members: a
  // late copy of the start can be re-acked after this call returned.
  sim::Task<bool> DoMigrate(sim::ExecCtx& ctx, uint64_t shard, int dst) {
    if (mig_active_ || dst < 0 ||
        dst >= static_cast<int>(params_.nodes)) {
      co_return false;
    }
    const Assign before = assign_[shard];
    const int src = before.primary;
    if (src < 0 || src == dst || views_[src].dead || views_[dst].dead) {
      co_return false;
    }
    mig_active_ = true;
    mig_done_shard_ = -1;
    sim::NicMessage m;
    m.h[0] = shard;
    m.h[1] = PackOpLen(Ctl::kMigStart, 0);
    m.h[2] = static_cast<uint64_t>(dst);
    m.rid = (MgrStream(src) << 32) | ++mgr_seq_[src];
    m.gate = &mig_start_gate_;
    m.copy_out = mig_start_resp_;
    mig_start_gate_.Arm(m.rid);
    const sim::Tick start_deadline = ctx.Now() + kMigDeadlineNs;
    const bool started = co_await ReliableCall(
        ctx, mig_start_gate_, mig_start_resp_, kProbeTimeoutNs, kMgrPollNs,
        kNeverHalts,
        [this, &ctx, start_deadline, src]() -> std::optional<bool> {
          if (ctx.Now() >= start_deadline || views_[src].dead) {
            return false;
          }
          return std::nullopt;
        },
        [this, &ctx, src, &m] {
          nodes_[src]->ctl_nic().ClientSend(ctx, 0, m);
        });
    if (!started) {
      // Gave up, or the source is not the primary any more.
      mig_active_ = false;
      co_return false;
    }
    // Transfer runs node-to-node; we wait for the source's kMigDone report.
    const sim::Tick deadline = ctx.Now() + kMigDeadlineNs;
    for (;;) {
      if (mig_done_shard_ == static_cast<int64_t>(shard)) {
        break;
      }
      const Assign& cur = assign_[shard];
      if (ctx.Now() >= deadline || views_[src].dead || views_[dst].dead ||
          cur.primary != src) {
        // Abort: refresh the source's assignment (clears its freeze) and
        // make sure the destination never serves what it half-imported.
        if (cur.primary == src && !views_[src].dead) {
          SendAssign(ctx, static_cast<unsigned>(src), shard, Ctl::kOwn,
                     Role::kPrimary, cur.backup, src);
        }
        if (!views_[dst].dead) {
          SendAssign(ctx, static_cast<unsigned>(dst), shard, Ctl::kDemote,
                     Role::kNone, -1, cur.primary);
        }
        mig_active_ = false;
        co_return false;
      }
      co_await ctx.Delay(4 * kMgrPollNs);
    }
    mig_done_shard_ = -1;
    // Flip: destination is the new primary, the source stays as backup (it
    // has a full replica — it was the primary a moment ago). The old backup
    // is demoted. The flip kOwn to the source is what unfreezes it.
    epoch_++;
    assign_[shard] = Assign{dst, src, epoch_};
    SendAssign(ctx, static_cast<unsigned>(dst), shard, Ctl::kOwn,
               Role::kPrimary, src, dst);
    SendAssign(ctx, static_cast<unsigned>(src), shard, Ctl::kOwn,
               Role::kBackup, -1, dst);
    if (before.backup >= 0 && before.backup != dst &&
        !views_[before.backup].dead) {
      SendAssign(ctx, static_cast<unsigned>(before.backup), shard,
                 Ctl::kDemote, Role::kNone, -1, dst);
    }
    shard_migrations_++;
    last_mig_at_ = ctx.Now();
    mig_active_ = false;
    co_return true;
  }

  sim::Fiber MigPlanMain() {
    sim::ExecCtx& ctx = mig_ctx_;
    std::vector<ForcedMigration> plan = params_.forced;
    std::sort(plan.begin(), plan.end(),
              [](const ForcedMigration& a, const ForcedMigration& b) {
                return a.at_ns < b.at_ns;
              });
    for (const ForcedMigration& f : plan) {
      if (ctx.stop) {
        co_return;
      }
      if (f.at_ns > ctx.Now()) {
        co_await ctx.Delay(f.at_ns - ctx.Now());
      }
      int dst = f.dst;
      if (dst < 0) {
        const Assign& a = assign_[f.shard];
        dst = a.backup >= 0 ? a.backup
                            : (a.primary + 1) % static_cast<int>(params_.nodes);
      }
      co_await DoMigrate(ctx, f.shard, dst);
    }
  }

  // Hotset-driven rebalancer: per-period deltas of each node's primary
  // shard-op counters (the autotuner-style load signal), handed to
  // PickRebalanceMove once the cooldown since the last migration has passed.
  sim::Fiber RebalanceMain() {
    sim::ExecCtx& ctx = reb_ctx_;
    for (;;) {
      if (ctx.stop) {
        co_return;
      }
      co_await ctx.Delay(params_.rebalance_period_ns);
      if (ctx.stop) {
        co_return;
      }
      std::vector<uint64_t> load(params_.nodes, 0);
      std::vector<std::vector<uint64_t>> delta(params_.nodes);
      for (unsigned n = 0; n < params_.nodes; n++) {
        const std::vector<uint64_t>& ops = nodes_[n]->shard_ops();
        delta[n].resize(params_.shards);
        for (uint64_t sh = 0; sh < params_.shards; sh++) {
          delta[n][sh] = ops[sh] - last_shard_ops_[n][sh];
          last_shard_ops_[n][sh] = ops[sh];
          load[n] += delta[n][sh];
        }
      }
      if (ctx.Now() < last_mig_at_ + params_.rebalance_cooldown_ns ||
          mig_active_) {
        continue;
      }
      std::vector<int> primary(params_.shards);
      for (uint64_t sh = 0; sh < params_.shards; sh++) {
        primary[sh] = assign_[sh].primary;
      }
      std::vector<bool> dead(params_.nodes);
      for (unsigned n = 0; n < params_.nodes; n++) {
        dead[n] = views_[n].dead;
      }
      const std::optional<RebalanceMove> mv = PickRebalanceMove(
          load, delta, primary, dead, params_.imbalance_factor,
          params_.rebalance_min_ops);
      if (mv.has_value()) {
        co_await DoMigrate(ctx, mv->shard, mv->dst);
      }
    }
  }

  sim::Engine* eng_;
  ClusterParams params_;
  std::vector<ClusterNode*> nodes_;
  std::unique_ptr<sim::Nic> nic_;
  std::vector<Assign> assign_;
  std::vector<uint64_t> node_seq_;  // fencing seq per node (assignments sent)
  std::vector<uint64_t> mgr_seq_;   // rid seq per node (probes, kMigStart)
  std::vector<NodeView> views_;
  uint64_t epoch_ = 1;
  uint64_t shard_migrations_ = 0;
  bool mig_active_ = false;
  int64_t mig_done_shard_ = -1;
  sim::RpcGate mig_start_gate_;
  uint8_t mig_start_resp_[kRespHeaderBytes] = {};
  DedupWindow dedup_;
  uint8_t resolve_resp_[kRespHeaderBytes] = {};
  std::unique_ptr<sim::RpcGate[]> probe_gates_;
  std::vector<std::array<uint8_t, 32>> probe_resps_;
  std::vector<std::vector<uint8_t>> resync_bufs_;  // 16 B/shard, fixed size
  sim::ExecCtx ctl_ctx_;
  sim::ExecCtx mig_ctx_;
  sim::ExecCtx reb_ctx_;
  std::vector<sim::ExecCtx> probe_ctxs_;
  std::vector<std::vector<uint64_t>> last_shard_ops_;
  sim::Tick last_mig_at_ = 0;
};

// ---------------------------------------------------------------- cluster
// Assembles N nodes + manager on one engine: ring placement, initial role
// tables, fault wiring (node crash plan, partition window, message-level
// faults) and the host-plane replica audit the DST checks run at the end.
class Cluster {
 public:
  Cluster(sim::Engine* eng, const ClusterParams& p)
      : eng_(eng),
        params_(p),
        ring_(p.nodes, kVnodes, Mix64(p.seed ^ 0x436c7573746572ULL)) {
    UTPS_CHECK(p.nodes >= 1);
    arena_ = std::make_unique<sim::Arena>(p.arena_mb << 20);
    for (unsigned n = 0; n < p.nodes; n++) {
      nodes_.push_back(
          std::make_unique<ClusterNode>(n, eng, arena_.get(), p));
    }
    std::vector<ClusterNode*> raw;
    for (auto& n : nodes_) {
      raw.push_back(n.get());
    }
    manager_ = std::make_unique<ClusterManager>(eng, p, raw);
    for (auto& n : nodes_) {
      n->WirePeers(raw, manager_->nic());
    }
    // Initial placement straight off the ring; every node also learns the
    // owner hint for shards it does not hold, for NOT_OWNER redirects.
    for (uint64_t sh = 0; sh < p.shards; sh++) {
      const unsigned owner = ring_.OwnerOf(sh);
      const int backup = p.nodes > 1 ? ring_.BackupOf(sh) : -1;
      manager_->SetInitialAssign(sh, static_cast<int>(owner), backup);
      for (unsigned n = 0; n < p.nodes; n++) {
        if (n == owner) {
          nodes_[n]->SetInitialRole(sh, Role::kPrimary, backup,
                                    static_cast<int>(owner));
        } else if (backup >= 0 && n == static_cast<unsigned>(backup)) {
          nodes_[n]->SetInitialRole(sh, Role::kBackup, -1,
                                    static_cast<int>(owner));
        } else {
          nodes_[n]->SetInitialRole(sh, Role::kNone, -1,
                                    static_cast<int>(owner));
        }
      }
    }
    // Fault hooks: the partitioned node's own NICs drop everything in the
    // window; message-level probabilities (when configured) apply to every
    // NIC with a distinct seeded RNG each.
    const fault::FaultConfig& fc = p.fault;
    const bool probs = fc.drop_prob > 0.0 || fc.dup_prob > 0.0 ||
                       fc.delay_prob > 0.0;
    for (unsigned n = 0; n < p.nodes; n++) {
      const bool part = fc.partition_node == static_cast<int>(n);
      if (part || probs) {
        hooks_.push_back(std::make_unique<ClusterNicHook>(
            fc, part, Mix64(p.seed ^ (uint64_t{n} << 8) ^ 0x11)));
        nodes_[n]->data_nic().SetFaultHook(hooks_.back().get());
        hooks_.push_back(std::make_unique<ClusterNicHook>(
            fc, part, Mix64(p.seed ^ (uint64_t{n} << 8) ^ 0x22)));
        nodes_[n]->ctl_nic().SetFaultHook(hooks_.back().get());
      }
    }
    if (probs) {
      hooks_.push_back(std::make_unique<ClusterNicHook>(
          fc, false, Mix64(p.seed ^ 0x4d677246Ull)));
      manager_->nic()->SetFaultHook(hooks_.back().get());
    }
  }

  // Host-plane population: every key lands on its shard's primary AND backup
  // replica, so replication invariants hold from the first op.
  template <typename Filler>
  void Populate(Filler&& fill) {
    std::vector<uint8_t> val(params_.value_size);
    for (Key key = 0; key < params_.num_keys; key++) {
      fill(key, val.data(), params_.value_size);
      const uint64_t sh =
          ShardOfKey(key, params_.shards, params_.num_keys);
      const ClusterManager::Assign& a = manager_->assign(sh);
      nodes_[a.primary]->PutDirect(sh, key, val.data(), params_.value_size);
      if (a.backup >= 0) {
        nodes_[a.backup]->PutDirect(sh, key, val.data(), params_.value_size);
      }
    }
  }

  void Start() {
    for (auto& n : nodes_) {
      n->Start();
    }
    manager_->Start();
    if (params_.fault.crash_node >= 0 &&
        params_.fault.crash_node < static_cast<int>(params_.nodes)) {
      eng_->Spawn(CrashPlan());
    }
  }

  void Stop() {
    for (auto& n : nodes_) {
      n->Stop();
    }
    manager_->Stop();
  }

  ClusterNode* node(unsigned i) { return nodes_[i].get(); }
  unsigned num_nodes() const { return params_.nodes; }
  ClusterManager* manager() { return manager_.get(); }
  const ClusterParams& cluster_params() const { return params_; }
  const HashRing& ring() const { return ring_; }

  // Host-plane invariant check for the DST: for every shard with a live
  // assigned primary/backup pair, the two replicas must hold identical
  // key -> value maps (compared as maps — the replicas' hash seeds differ,
  // so iteration order does not agree); and at most one live, unfenced node
  // may believe it is the shard's primary.
  bool AuditReplicas(std::string* err, sim::Tick now) const {
    for (uint64_t sh = 0; sh < params_.shards; sh++) {
      unsigned primaries = 0;
      for (unsigned n = 0; n < params_.nodes; n++) {
        const ClusterNode::ShardState& s = nodes_[n]->shard(sh);
        if (s.role == Role::kPrimary && !nodes_[n]->crashed() &&
            !nodes_[n]->IsFenced(now)) {
          primaries++;
        }
      }
      if (primaries > 1) {
        *err = "shard " + std::to_string(sh) +
               ": more than one live unfenced primary";
        return false;
      }
      const ClusterManager::Assign& a = manager_->assign(sh);
      if (a.primary < 0 || a.backup < 0) {
        continue;
      }
      if (nodes_[a.primary]->crashed() || nodes_[a.backup]->crashed()) {
        continue;
      }
      auto snapshot = [sh, this](unsigned n) {
        std::map<Key, std::vector<uint8_t>> m;
        const ClusterNode::ShardState& s = nodes_[n]->shard(sh);
        if (s.index != nullptr) {
          s.index->ForEachDirect([&m](Key k, const Item* it) {
            std::vector<uint8_t> v(it->value_len);
            ItemReadDirect(it, v.data());
            m[k] = std::move(v);
          });
        }
        return m;
      };
      const auto pm = snapshot(static_cast<unsigned>(a.primary));
      const auto bm = snapshot(static_cast<unsigned>(a.backup));
      if (pm != bm) {
        *err = "shard " + std::to_string(sh) + ": replica divergence (" +
               std::to_string(pm.size()) + " keys on primary node " +
               std::to_string(a.primary) + " vs " +
               std::to_string(bm.size()) + " on backup node " +
               std::to_string(a.backup) + ")";
        return false;
      }
    }
    return true;
  }

 private:
  sim::Fiber CrashPlan() {
    crash_ctx_.eng = eng_;
    sim::ExecCtx& ctx = crash_ctx_;
    co_await ctx.Delay(params_.fault.node_crash_at_ns);
    nodes_[params_.fault.crash_node]->Crash();
  }

  sim::Engine* eng_;
  ClusterParams params_;
  HashRing ring_;
  std::unique_ptr<sim::Arena> arena_;
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
  std::unique_ptr<ClusterManager> manager_;
  std::vector<std::unique_ptr<ClusterNicHook>> hooks_;
  sim::ExecCtx crash_ctx_;
};

}  // namespace utps::cluster

#endif  // UTPS_CLUSTER_CLUSTER_H_
