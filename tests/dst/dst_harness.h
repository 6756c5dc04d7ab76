// Deterministic schedule-fuzzing (DST) harness.
//
// RunDst builds a miniature simulated testbed around one server system,
// drives it with history-recording client fibers under a seed-perturbed
// schedule (sim::Engine::EnablePerturbation), waits for every issued request
// to complete, then audits the structural invariants (check/invariants.h,
// MuTpsServer::AuditQuiesced) and checks the recorded history for
// linearizability (check/linearize.h).
//
// Everything is a pure function of DstConfig — including the perturbation —
// so a failing configuration replays exactly, and shrinks by re-running with
// a smaller global op budget (ShrinkToMinimalPrefix).
#ifndef UTPS_TESTS_DST_DST_HARNESS_H_
#define UTPS_TESTS_DST_DST_HARNESS_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/passive.h"
#include "baseline/rtc_server.h"
#include "check/history.h"
#include "check/invariants.h"
#include "check/linearize.h"
#include "check/mutation.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "core/mutps.h"
#include "core/server.h"
#include "fault/fault.h"
#include "index/btree.h"
#include "index/cuckoo.h"
#include "net/rpc.h"
#include "sim/nic.h"
#include "sim/sync.h"
#include "store/item.h"
#include "store/slab.h"
#include "wal/wal.h"

namespace utps::dst {

enum class Sys : uint8_t { kMuTpsH = 0, kMuTpsT, kBaseKv, kErpcKv, kSherman };

constexpr Sys kAllSystems[] = {Sys::kMuTpsH, Sys::kMuTpsT, Sys::kBaseKv,
                               Sys::kErpcKv, Sys::kSherman};

inline const char* SysName(Sys s) {
  switch (s) {
    case Sys::kMuTpsH:
      return "uTPS-H";
    case Sys::kMuTpsT:
      return "uTPS-T";
    case Sys::kBaseKv:
      return "BaseKV";
    case Sys::kErpcKv:
      return "eRPCKV";
    case Sys::kSherman:
      return "Sherman";
  }
  return "?";
}

// Operation mix (ratios must sum to 1). Ops a system cannot serve are
// downgraded before issue: scans become gets outside the tree systems, and
// deletes become puts outside BaseKV/eRPCKV (μTPS has no delete opcode and
// the passive baselines have no delete verb sequence).
struct Mix {
  double get = 1.0;
  double put = 0.0;
  double del = 0.0;
  double scan = 0.0;
};

inline constexpr Mix kYcsbA{0.5, 0.5, 0.0, 0.0};
inline constexpr Mix kPutSkew{0.1, 0.9, 0.0, 0.0};
inline constexpr Mix kScanMix{0.5, 0.3, 0.0, 0.2};
inline constexpr Mix kDeleteMix{0.5, 0.3, 0.2, 0.0};

struct DstConfig {
  Sys sys = Sys::kBaseKv;
  Mix mix = kYcsbA;
  uint64_t seed = 1;
  uint64_t num_keys = 64;
  uint32_t value_size = 32;   // fixed per-key size (>= 8 for the stamp)
  // When nonzero, half the PUTs grow: a client's i-th op writes a value
  // ramping from value_size up to grow_value_size over its ops. A value
  // larger than its item's slab class holds takes ExecPut's slow path, which
  // replaces the item in the index, so a hot key changes items several times
  // in a run. GETs ask for the largest size. No scans (their responses are
  // parsed in value_size strides).
  uint32_t grow_value_size = 0;
  // μTPS: refresh the hot set every 10 μs instead of once per 1 ms measure
  // window, so a run of a few hundred μs publishes many hot sets.
  bool fast_refresh = false;
  double zipf_theta = 0.99;
  unsigned clients = 5;
  unsigned workers = 4;
  uint32_t ops_per_client = 32;
  uint64_t max_ops = UINT64_MAX;  // global budget across clients (shrinking)
  bool perturb = true;            // tie permutation + latency jitter
  sim::Tick jitter_ns = 32;
  bool inject_split = false;      // μTPS: thread reassignment mid-run
  // μTPS: while clients run, request a thread split every 2 μs, each to a
  // random split with at least half the workers in the CR layer. The
  // manager re-splits as fast as it can (empty hot set, minimal refresh and
  // measure windows) and receive slots close every two requests, so splits
  // land inside CR workers' receive-ring polls.
  bool split_storm = false;
  // The simulated server machine (num_cores is raised to fit the workers).
  sim::MachineConfig machine;
  uint32_t scan_len_avg = 10;
  // Fault plan (fault/fault.h). The injector seed is mixed with cfg.seed, so
  // sweeping seeds also sweeps fault schedules. When enabled, clients of
  // two-sided systems switch to rid-tagged timeout/retry sends.
  fault::FaultConfig fault;
  // Durability tier (wal/wal.h). When wal.enabled the server logs writes; a
  // nonzero server_crash_at_ns additionally crash-stops the whole serving
  // instance at that tick — queued NIC requests are lost, a fresh instance is
  // rebuilt from the populated base image + WAL replay, and clients (which
  // must be on the retry path) fail over to it transparently. Single-ring
  // systems only (kMuTpsH / kMuTpsT / kBaseKv).
  wal::WalConfig wal;
  sim::Tick server_crash_at_ns = 0;  // 0 = no whole-server crash
};

struct DstResult {
  bool ok = true;
  bool inconclusive = false;  // checker exhausted its node budget (no verdict)
  std::string error;          // first failure: stuck ops, audit, or checker
  uint64_t ops_issued = 0;
  uint64_t ops_completed = 0;
  uint64_t ops_stuck = 0;
  size_t ops_checked = 0;
  uint64_t digest = 0;  // order-sensitive hash of the recorded history
  // Resilience telemetry (zero when no fault plan is active).
  uint64_t retries = 0;     // client retransmits across all ops
  uint64_t failovers = 0;   // μTPS MR-worker failure detections
  // μTPS hot sets published by the serving instance (one epoch each).
  uint64_t hot_publishes = 0;
  // μTPS PUTs forwarded to their key's home MR worker.
  uint64_t home_forwards = 0;
  // μTPS ring slots that finished while an earlier slot of their ring was
  // still running (MuTpsServer::held_publishes).
  uint64_t held_publishes = 0;
  // Durability telemetry (zero when no WAL is configured).
  uint64_t recoveries = 0;    // whole-server crash-restart cycles performed
  uint64_t wal_replayed = 0;  // WAL records applied by recovery
};

// One config exercising every fault class at once: loss, duplication and
// delay spikes, a straggler core, a worker crash-restart and LLC way theft.
inline DstConfig KitchenSink(Sys sys) {
  DstConfig cfg;
  cfg.sys = sys;
  cfg.mix = kYcsbA;
  cfg.seed = 12345;
  cfg.jitter_ns = 48;
  cfg.fault.drop_prob = 0.02;
  cfg.fault.dup_prob = 0.05;
  cfg.fault.delay_prob = 0.10;
  cfg.fault.straggler_core = 1;
  cfg.fault.slow_factor = 4.0;
  cfg.fault.crash_worker = 3;
  cfg.fault.crash_at_ns = 60 * sim::kUsec;
  cfg.fault.restart_after_ns = 150 * sim::kUsec;
  cfg.fault.llc_steal_ways = 4;
  cfg.fault.stop_ns = 500 * sim::kUsec;
  return cfg;
}

// A pinned-digest table cell: the config expression's source text and its
// value, so a mismatching test can print its table back in paste-ready form.
#define DST_CELL(cfg) #cfg, cfg

namespace internal {

// Per-client resources that outlive the client fiber. Under a fault plan,
// delayed or duplicated messages can still be in flight (and in the NIC's
// rings) after the fiber exits; the NicMessage they carry points at these
// buffers and the gate, so they must live for the whole run, not in the
// coroutine frame.
struct ClientRes {
  sim::RpcGate gate;
  std::vector<uint8_t> payload;
  std::vector<uint8_t> out;
  uint32_t resp_len = 0;
};

struct Shared {
  const DstConfig* cfg = nullptr;
  sim::Nic* nic = nullptr;
  KvServer* server = nullptr;
  PassiveKv* passive = nullptr;
  check::History* hist = nullptr;
  bool supports_scan = false;
  bool supports_delete = false;
  bool use_retry = false;
  std::vector<ClientRes>* res = nullptr;
  uint64_t retries = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  unsigned active = 0;
};

inline check::OpKind PickKind(const Mix& m, double dice) {
  if (dice < m.get) {
    return check::OpKind::kGet;
  }
  if (dice < m.get + m.put) {
    return check::OpKind::kPut;
  }
  if (dice < m.get + m.put + m.del) {
    return check::OpKind::kDelete;
  }
  return check::OpKind::kScan;
}

inline void RecordGetBytes(Shared* sh, uint16_t id, Key key, const uint8_t* buf,
                           uint32_t len, uint32_t vsize, sim::Tick inv,
                           sim::Tick resp) {
  if (len == 0) {
    sh->hist->RecordGet(id, key, 0, false, inv, resp);  // absent
    return;
  }
  const uint32_t grow = sh->cfg->grow_value_size;
  if (len != vsize && (grow == 0 || len < vsize || len > grow)) {
    sh->hist->RecordGet(id, key, 0, true, inv, resp);  // wrong length
    return;
  }
  const uint64_t stamp = check::StampParse(buf, len);
  sh->hist->RecordGet(id, key, stamp, stamp == 0, inv, resp);
}

inline void RecordScanBytes(Shared* sh, uint16_t id, Key lo, Key hi,
                            uint32_t count, const uint8_t* buf, uint32_t len,
                            uint32_t vsize, sim::Tick inv, sim::Tick resp) {
  std::vector<uint64_t> stamps;
  bool corrupt = len % vsize != 0;
  if (!corrupt) {
    for (uint32_t off = 0; off < len; off += vsize) {
      const uint64_t s = check::StampParse(buf + off, vsize);
      if (s == 0) {
        corrupt = true;
        break;
      }
      stamps.push_back(s);
    }
  }
  sh->hist->RecordScan(id, lo, hi, count, std::move(stamps), corrupt, inv,
                       resp);
}

inline sim::Fiber Client(sim::ExecCtx* ctx, Shared* sh, uint16_t id) {
  const DstConfig& cfg = *sh->cfg;
  Rng rng(Mix64(cfg.seed) + uint64_t{id} * 1000003 + 7);
  ScrambledZipfian zipf(cfg.num_keys, cfg.zipf_theta);
  ClientRes& mine = (*sh->res)[id];
  const RetryPolicy retry_pol;
  std::vector<uint8_t>& payload = mine.payload;
  std::vector<uint8_t>& out = mine.out;
  uint32_t& resp_len = mine.resp_len;
  resp_len = 0;
  for (uint32_t i = 0; i < cfg.ops_per_client; i++) {
    if (sh->issued >= cfg.max_ops) {
      break;
    }
    sh->issued++;
    const Key key = zipf.Next(rng);
    check::OpKind kind = PickKind(cfg.mix, rng.NextDouble());
    if (kind == check::OpKind::kScan && !sh->supports_scan) {
      kind = check::OpKind::kGet;
    }
    if (kind == check::OpKind::kDelete && !sh->supports_delete) {
      kind = check::OpKind::kPut;
    }
    // Unique writer id per (client, op); writer 0 is the populator.
    const uint64_t stamp =
        check::MakeStamp(key, ((uint32_t{id} + 1) << 12) | (i + 1));
    const uint32_t span =
        1 + static_cast<uint32_t>(rng.NextBounded(2 * cfg.scan_len_avg));
    const Key upper = key + span - 1;
    // The PUT's value size; drawn only in a value-growth run, so fixed-size
    // runs keep their random stream.
    uint32_t put_size = cfg.value_size;
    if (cfg.grow_value_size != 0 && (rng.Next() & 1) != 0) {
      put_size += (cfg.grow_value_size - cfg.value_size) * (i + 1) /
                  cfg.ops_per_client;
    }
    const uint32_t get_size = std::max(cfg.value_size, cfg.grow_value_size);
    resp_len = 0;
    const sim::Tick inv = ctx->Now();
    if (sh->passive != nullptr) {
      switch (kind) {
        case check::OpKind::kGet: {
          resp_len = co_await sh->passive->ClientGet(*ctx, key, cfg.value_size,
                                                     out.data());
          RecordGetBytes(sh, id, key, out.data(), resp_len, cfg.value_size,
                         inv, ctx->Now());
          break;
        }
        case check::OpKind::kPut: {
          check::StampFill(payload.data(), cfg.value_size, stamp);
          const bool ok = co_await sh->passive->ClientPut(
              *ctx, key, payload.data(), cfg.value_size);
          // A failed passive put (lock/CAS retries exhausted) has no effect;
          // it does not enter the history.
          if (ok) {
            sh->hist->RecordPut(id, key, stamp, inv, ctx->Now());
          }
          break;
        }
        case check::OpKind::kScan: {
          resp_len = co_await sh->passive->ClientScan(*ctx, key, upper, span,
                                                      out.data());
          RecordScanBytes(sh, id, key, upper, span, out.data(), resp_len,
                          cfg.value_size, inv, ctx->Now());
          break;
        }
        case check::OpKind::kDelete:
          break;  // unreachable: downgraded above
      }
    } else {
      sim::NicMessage m;
      switch (kind) {
        case check::OpKind::kGet:
          m = EncodeRequest(OpType::kGet, key, get_size, 0, 0);
          m.copy_out = out.data();
          m.resp_len_out = &resp_len;
          break;
        case check::OpKind::kPut:
          check::StampFill(payload.data(), put_size, stamp);
          m = EncodeRequest(OpType::kPut, key, put_size, 0, 0);
          m.payload = payload.data();
          m.payload_len = put_size;
          break;
        case check::OpKind::kDelete:
          m = EncodeRequest(OpType::kDelete, key, 0, 0, 0);
          break;
        case check::OpKind::kScan:
          m = EncodeRequest(OpType::kScan, key, cfg.value_size, span, upper);
          m.copy_out = out.data();
          m.resp_len_out = &resp_len;
          break;
      }
      if (sh->use_retry) {
        // rid stream = client id; retransmits reuse the op's rid so the
        // server's DedupWindow makes the write at-most-once.
        m.rid = ((uint64_t{id} + 1) << 32) | (i + 1);
      }
      m.gate = &mine.gate;
      const unsigned attempts =
          co_await RpcCall(*ctx, *sh->nic, sh->server->RingForKey(key), m,
                           sh->use_retry ? &retry_pol : nullptr);
      sh->retries += attempts - 1;
      const sim::Tick resp = ctx->Now();
      switch (kind) {
        case check::OpKind::kGet:
          RecordGetBytes(sh, id, key, out.data(), resp_len, cfg.value_size,
                         inv, resp);
          break;
        case check::OpKind::kPut:
          sh->hist->RecordPut(id, key, stamp, inv, resp);
          break;
        case check::OpKind::kDelete:
          sh->hist->RecordDelete(id, key, inv, resp);
          break;
        case check::OpKind::kScan:
          RecordScanBytes(sh, id, key, upper, span, out.data(), resp_len,
                          cfg.value_size, inv, resp);
          break;
      }
    }
    sh->completed++;
  }
  sh->active--;
}

// Exercises μTPS thread reassignment mid-run (client-transparent per §3.2.1);
// takes effect at the manager's next refresh.
inline sim::Fiber SplitFiber(sim::ExecCtx* ctx, MuTpsServer* srv,
                             unsigned workers) {
  co_await ctx->Delay(70 * sim::kUsec);
  srv->RequestThreadSplit(std::min(workers - 1, workers / 2 + 1));
  co_await ctx->Delay(90 * sim::kUsec);
  srv->RequestThreadSplit(1);
}

// DstConfig::split_storm's request stream (seeded from cfg.seed).
inline sim::Fiber SplitStormFiber(sim::ExecCtx* ctx, MuTpsServer* srv,
                                  const Shared* sh) {
  const DstConfig& cfg = *sh->cfg;
  Rng rng(Mix64(cfg.seed ^ 0x5b117u));
  const unsigned lo = std::max(1u, cfg.workers / 2);
  while (sh->active > 0) {
    co_await ctx->Delay(2 * sim::kUsec);
    srv->RequestThreadSplit(
        lo + static_cast<unsigned>(rng.NextBounded(cfg.workers - lo)));
  }
}

inline uint64_t HistoryDigest(const check::History& h) {
  uint64_t d = Mix64(h.ops.size() + 0x7bd5c9f1u);
  for (const check::OpRecord& op : h.ops) {
    d = Mix64(d ^ (static_cast<uint64_t>(op.kind) + 1));
    d = Mix64(d ^ (uint64_t{op.client} + 1));
    d = Mix64(d ^ op.key);
    d = Mix64(d ^ op.stamp);
    d = Mix64(d ^ (op.corrupt ? 0xdeadULL : 1));
    d = Mix64(d ^ op.inv);
    d = Mix64(d ^ op.resp);
    for (uint64_t s : op.scan_stamps) {
      d = Mix64(d ^ s);
    }
  }
  return d;
}

}  // namespace internal

inline DstResult RunDst(const DstConfig& cfg) {
  UTPS_CHECK(cfg.value_size >= 8);
  if (cfg.grow_value_size != 0) {
    // Variable sizes on the RPC servers' PUT path only: no scans, and not
    // the passive baselines, whose verbs move fixed-size values.
    UTPS_CHECK(cfg.grow_value_size >= 8 && cfg.mix.scan == 0);
    UTPS_CHECK(cfg.sys != Sys::kSherman);
  }
  UTPS_CHECK(cfg.clients + 1 < 4096 && cfg.ops_per_client + 1 < 4096);
  UTPS_CHECK(cfg.workers >= 2);
  if (cfg.server_crash_at_ns > 0) {
    // Crash recovery replays the WAL into a rebuilt instance; it only makes
    // sense with the log enabled, and only the single-ring systems have a
    // rebuild path here.
    UTPS_CHECK(cfg.wal.enabled);
    UTPS_CHECK(cfg.sys == Sys::kMuTpsH || cfg.sys == Sys::kMuTpsT ||
               cfg.sys == Sys::kBaseKv);
  }
  // Re-arm the mutation hooks (keeps the active mode, resets fire counters)
  // so shrink re-runs of a mutated configuration replay identically. A no-op
  // in normal builds.
  mut::Reset(mut::g_mode);
  ResetItemContention();

  DstResult out;
  const bool tree = cfg.sys == Sys::kMuTpsT || cfg.sys == Sys::kSherman ||
                    (cfg.sys == Sys::kBaseKv && cfg.mix.scan > 0);

  sim::MachineConfig mc = cfg.machine;
  mc.num_cores = std::max(mc.num_cores, cfg.workers + 1);
  sim::Engine eng;
  if (cfg.perturb) {
    eng.EnablePerturbation({.seed = cfg.seed,
                            .permute_ties = true,
                            .max_jitter_ns = cfg.jitter_ns});
  }
  sim::Arena arena(256ull << 20);
  sim::MemoryModel mem(mc);
  SlabAllocator slab(&arena);

  // ---- populate: every key carries a parseable stamp from writer 0 --------
  // Population and index build are factored out because crash recovery
  // re-creates the same base image (the "checkpoint") and replays the WAL on
  // top of it.
  auto populate = [&cfg](SlabAllocator& sl) {
    std::vector<Item*> its(cfg.num_keys);
    for (Key k = 0; k < cfg.num_keys; k++) {
      Item* it = sl.AllocateItem(k, cfg.value_size);
      check::StampFill(it->value(), cfg.value_size, check::MakeStamp(k, 0));
      it->value_len = cfg.value_size;
      its[k] = it;
    }
    return its;
  };
  auto build_index =
      [&](const std::vector<Item*>& its) -> std::unique_ptr<KvIndex> {
    if (tree) {
      auto idx = std::make_unique<BTreeIndex>(&arena);
      idx->BulkLoadDirect(its);
      return idx;
    }
    auto idx = std::make_unique<CuckooIndex>(
        &arena, std::max<uint64_t>(cfg.num_keys * 2, 256), cfg.seed | 1);
    for (Key k = 0; k < cfg.num_keys; k++) {
      UTPS_CHECK(idx->InsertDirect(k, its[k]));
    }
    return idx;
  };
  check::History hist;
  std::vector<Item*> items = populate(slab);
  for (Key k = 0; k < cfg.num_keys; k++) {
    hist.initial[k] = check::MakeStamp(k, 0);
  }
  std::unique_ptr<KvIndex> index = build_index(items);
  std::vector<std::unique_ptr<KvIndex>> shards;
  if (cfg.sys == Sys::kErpcKv) {
    for (unsigned i = 0; i < cfg.workers; i++) {
      shards.push_back(std::make_unique<CuckooIndex>(
          &arena, std::max<uint64_t>(cfg.num_keys * 2, 256),
          cfg.seed + i + 1));
    }
    for (Key k = 0; k < cfg.num_keys; k++) {
      UTPS_CHECK(shards[RtcServer::ShardOf(k, cfg.workers)]->InsertDirect(
          k, items[k]));
    }
  }
  std::unique_ptr<ShermanPassive> sherman;
  if (cfg.sys == Sys::kSherman) {
    sherman = std::make_unique<ShermanPassive>(&arena);
    sherman->BulkLoadDirect(items);
  }

  // ---- server under test --------------------------------------------------
  const unsigned rings = cfg.sys == Sys::kErpcKv ? cfg.workers : 1;
  sim::Nic nic(&mem, sim::NicConfig{}, rings);
  // Fault injection: the plan seed mixes in cfg.seed so a seed sweep is also
  // a fault-schedule sweep, while the whole run stays a pure function of the
  // DstConfig (replayable failures).
  std::unique_ptr<fault::FaultInjector> inj;
  if (cfg.fault.enabled()) {
    fault::FaultConfig fc = cfg.fault;
    fc.seed = Mix64(fc.seed ^ cfg.seed);
    inj = std::make_unique<fault::FaultInjector>(fc);
    inj->Install(&eng, &nic, &mem, nullptr);
  }
  // Durable log: null unless configured, so default runs stay byte-identical.
  std::unique_ptr<wal::WalManager> walm;
  if (cfg.wal.enabled) {
    walm = std::make_unique<wal::WalManager>(cfg.wal);
  }
  ServerEnv env;
  env.eng = &eng;
  env.mem = &mem;
  env.nic = &nic;
  env.fault = inj.get();
  env.arena = &arena;
  env.slab = &slab;
  env.index = index.get();
  env.num_workers = cfg.workers;
  env.wal = walm.get();

  // Factory for the crash-recoverable systems: recovery constructs a second
  // instance over the rebuilt store with identical options.
  auto make_server = [&cfg](const ServerEnv& e) -> std::unique_ptr<KvServer> {
    if (cfg.sys == Sys::kMuTpsH || cfg.sys == Sys::kMuTpsT) {
      MuTpsServer::Options o;
      o.autotune = false;
      o.initial_ncr = std::max(1u, cfg.workers / 2);
      // Cache a fraction of the keyspace so both the CR hot path and the MR
      // path see traffic (and CR reads race MR writes on hot keys).
      o.initial_cache_items = static_cast<uint32_t>(cfg.num_keys / 4 + 1);
      o.refresh_period_ns = 60 * sim::kUsec;
      if (cfg.fast_refresh) {
        o.refresh_period_ns = 8 * sim::kUsec;
        o.tune_window_ns = 2 * sim::kUsec;
      }
      if (cfg.split_storm) {
        o.initial_cache_items = 0;
        o.refresh_period_ns = 2 * sim::kUsec;
        o.tune_window_ns = 2 * sim::kUsec;
        o.rx.max_batch = 2;
      }
      return std::make_unique<MuTpsServer>(e, o);
    }
    UTPS_CHECK(cfg.sys == Sys::kBaseKv);
    return std::make_unique<RtcServer>(e);
  };

  std::unique_ptr<KvServer> server;
  MuTpsServer* mutps = nullptr;
  PassiveKv* passive = nullptr;
  switch (cfg.sys) {
    case Sys::kMuTpsH:
    case Sys::kMuTpsT:
      server = make_server(env);
      mutps = static_cast<MuTpsServer*>(server.get());
      break;
    case Sys::kBaseKv:
      server = make_server(env);
      break;
    case Sys::kErpcKv: {
      std::vector<KvIndex*> sp;
      for (auto& s : shards) {
        sp.push_back(s.get());
      }
      server = std::make_unique<RtcServer>(env, std::move(sp));
      break;
    }
    case Sys::kSherman:
      passive = sherman.get();
      passive->SetNic(&nic);
      break;
  }
  if (server != nullptr) {
    server->Start();
  }

  // ---- recording clients --------------------------------------------------
  internal::Shared sh;
  sh.cfg = &cfg;
  sh.nic = &nic;
  sh.server = server.get();
  sh.passive = passive;
  sh.hist = &hist;
  sh.supports_scan = tree && cfg.sys != Sys::kErpcKv;
  sh.supports_delete = cfg.sys == Sys::kBaseKv || cfg.sys == Sys::kErpcKv;
  // Under faults, two-sided clients must retry or a dropped message would
  // strand the fiber; one-sided verbs model reliable RDMA (no drops). A
  // whole-server crash likewise drops queued requests, so its clients must
  // also be on the retry path.
  sh.use_retry =
      (inj != nullptr || cfg.server_crash_at_ns > 0) && server != nullptr;
  std::vector<internal::ClientRes> client_res(cfg.clients);
  for (auto& r : client_res) {
    r.payload.resize(std::max(cfg.value_size, cfg.grow_value_size));
    r.out.resize(16384);
  }
  sh.res = &client_res;
  sh.active = cfg.clients;
  std::vector<sim::ExecCtx> ctxs(cfg.clients + 1);
  for (unsigned i = 0; i < cfg.clients; i++) {
    ctxs[i] = sim::ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    eng.Spawn(internal::Client(&ctxs[i], &sh, static_cast<uint16_t>(i)));
  }
  if ((cfg.inject_split || cfg.split_storm) && mutps != nullptr) {
    ctxs[cfg.clients] = sim::ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    eng.Spawn(cfg.split_storm
                  ? internal::SplitStormFiber(&ctxs[cfg.clients], mutps, &sh)
                  : internal::SplitFiber(&ctxs[cfg.clients], mutps,
                                         cfg.workers));
  }

  // Run until every client finished its ops. A progress watchdog turns a
  // lost completion into "stuck" instead of a hang: the run is stuck once no
  // operation completes for `quiet_ns` of virtual time while clients still
  // wait. A slow but live run (heavy jitter, a split storm) keeps completing
  // operations and runs on, up to the hard cap `deadline`.
  sim::Tick quiet_ns = 2 * sim::kMsec;
  sim::Tick deadline =
      10 * (2 * sim::kMsec + sim::Tick{cfg.ops_per_client} * 40 * sim::kUsec);
  if (cfg.fault.enabled()) {
    // Retry backoff, crash-restart stalls, and straggler slowdowns stretch
    // completion times; give faulted runs generous (still bounded) headroom.
    quiet_ns *= 8;
    deadline = deadline * 8 + cfg.fault.crash_at_ns +
               cfg.fault.restart_after_ns + cfg.fault.stop_ns;
  }
  if (cfg.server_crash_at_ns > 0) {
    quiet_ns *= 8;
    deadline = deadline * 8 + cfg.server_crash_at_ns;
  }
  uint64_t completed_seen = 0;
  sim::Tick last_progress = 0;
  // Crash-recovery state. The crashed instance is kept alive (not destroyed):
  // responses it already handed to the NIC still deliver after the swap, and
  // the client gates dedup them against retransmitted copies.
  std::unique_ptr<KvServer> dead_server;
  std::unique_ptr<SlabAllocator> slab2;
  std::unique_ptr<KvIndex> index2;
  std::vector<Item*> items2;
  bool crashed = false;
  while (sh.active > 0 && eng.now() < deadline &&
         eng.now() - last_progress < quiet_ns) {
    sim::Tick until = eng.now() + 20 * sim::kUsec;
    if (!crashed && cfg.server_crash_at_ns > 0 &&
        until > cfg.server_crash_at_ns) {
      until = cfg.server_crash_at_ns;  // land exactly on the crash tick
    }
    eng.Run(until);
    if (sh.completed != completed_seen) {
      completed_seen = sh.completed;
      last_progress = eng.now();
    }
    if (!crashed && cfg.server_crash_at_ns > 0 &&
        eng.now() >= cfg.server_crash_at_ns) {
      crashed = true;
      // Crash-stop: workers park at their next loop top; claimed batches
      // drain (every ack they release was WAL-appended first), then the NIC
      // loses everything still queued — those clients time out and retry.
      server->Stop();
      eng.Run(eng.now() + 200 * sim::kUsec);
      nic.DropPending();
      // Recovery: rebuild the populated base image (checkpoint), replay the
      // WAL on top of it through the Direct plane, re-seed the new instance's
      // dedup window from logged rids (a retransmit of an already-applied
      // write gets an ack, not a second application), then rejoin.
      slab2 = std::make_unique<SlabAllocator>(&arena);
      items2 = populate(*slab2);
      index2 = build_index(items2);
      env.slab = slab2.get();
      env.index = index2.get();
      dead_server = std::move(server);
      server = make_server(env);
      mutps = (cfg.sys == Sys::kMuTpsH || cfg.sys == Sys::kMuTpsT)
                  ? static_cast<MuTpsServer*>(server.get())
                  : nullptr;
      out.wal_replayed =
          walm->Replay(index2.get(), slab2.get(), server->MutableDedup());
      server->Start();
      sh.server = server.get();  // clients pick up the new instance per-op
      out.recoveries++;
    }
  }
  const bool stuck = sh.active > 0;
  const sim::Tick stopped_at = eng.now();
  // Quiesce: the server stops only once it holds no request, so the audit
  // can demand drained rings and that every worker acknowledged the
  // published split. A NIC duplicate or retransmit may still be queued or
  // mid-pipeline after its client completed (a CR worker staging it when
  // the server stops would strand it on a CR-MR ring), and a split the
  // manager published after the last completion must finish its handshake.
  while (!stuck && mutps != nullptr &&
         (nic.RingDepth(0) > 0 || !mutps->Idle()) && eng.now() < deadline) {
    eng.Run(eng.now() + sim::kUsec);
  }
  if (server != nullptr) {
    server->Stop();
  }
  eng.Run(eng.now() + 400 * sim::kUsec);  // drain workers + manager
  if (walm != nullptr) {
    // Ask the log-writer to drain pending syncs and exit; gated on the WAL so
    // default runs keep the exact event sequence (byte-identical digests).
    walm->Stop();
    eng.Run(eng.now() + 100 * sim::kUsec);
  }

  // ---- quiesce-time structural audits ------------------------------------
  // After a crash the serving store is the rebuilt one; the dead instance's
  // structures are abandoned and not audited.
  KvIndex* fin_index = crashed ? index2.get() : index.get();
  SlabAllocator& fin_slab = crashed ? *slab2 : slab;
  check::AuditReport rep;
  // Deletes and grown values both leave items the index no longer holds
  // (neither frees them), so the slab's live count is only a lower bound.
  const bool may_delete = sh.supports_delete && cfg.mix.del > 0;
  const bool lax_slab = may_delete || cfg.grow_value_size != 0;
  if (cfg.sys == Sys::kErpcKv) {
    for (size_t i = 0; i < shards.size(); i++) {
      std::string err;
      if (!shards[i]->AuditDirect(&err)) {
        rep.failures.push_back("shard" + std::to_string(i) + ": " + err);
      }
    }
    if (!lax_slab && !slab.AuditLive(cfg.num_keys)) {
      rep.failures.push_back(
          "slab: live_items=" + std::to_string(slab.live_items()) +
          " expected " + std::to_string(cfg.num_keys));
    }
  } else {
    check::AuditStore(*fin_index, fin_slab,
                      lax_slab ? UINT64_MAX : cfg.num_keys, &rep);
  }
  if (mutps != nullptr) {
    std::string err;
    if (!mutps->AuditQuiesced(&err)) {
      rep.failures.push_back(err);
    }
  }

  // ---- durability rule ----------------------------------------------------
  // After a crash + recovery, an auditor client reads every key straight off
  // the recovered store and appends the results to the history. The
  // linearizability checker then enforces the durability rule for free: an
  // acked PUT (or DELETE) that recovery lost shows up as a stale final read
  // with no linearization point, and the history fails.
  if (crashed) {
    const uint16_t auditor = static_cast<uint16_t>(cfg.clients);
    sim::Tick t = eng.now() + 1;
    for (Key k = 0; k < cfg.num_keys; k++) {
      Item* it = fin_index->GetDirect(k);
      if (it == nullptr) {
        hist.RecordGet(auditor, k, 0, false, t, t + 1);  // absent
      } else {
        internal::RecordGetBytes(&sh, auditor, k, it->value(), it->value_len,
                                 cfg.value_size, t, t + 1);
      }
      t += 2;  // keep the auditor's ops sequential in virtual time
    }
  }

  // ---- linearizability ----------------------------------------------------
  const check::CheckResult lin = check::CheckLinearizability(hist, {});

  out.ops_issued = sh.issued;
  out.ops_completed = sh.completed;
  out.retries = sh.retries;
  out.failovers = mutps != nullptr ? mutps->failover_count() : 0;
  out.hot_publishes = mutps != nullptr ? mutps->hotset_publishes() : 0;
  out.home_forwards = mutps != nullptr ? mutps->home_forwards() : 0;
  out.held_publishes = mutps != nullptr ? mutps->held_publishes() : 0;
  out.ops_checked = lin.ops_checked;
  out.inconclusive = lin.inconclusive;
  out.digest = internal::HistoryDigest(hist);
  std::string err;
  if (stuck) {
    out.ops_stuck = sh.issued - sh.completed;
    err = std::to_string(sh.active) + " clients stuck (" +
          std::to_string(out.ops_stuck) +
          " ops never completed; last completion at t=" +
          std::to_string(last_progress) + "ns, gave up at t=" +
          std::to_string(stopped_at) + "ns)";
  }
  if (!rep.ok()) {
    if (!err.empty()) {
      err += "; ";
    }
    err += rep.Joined();
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

// Shrinks a failing configuration to (approximately) the smallest global op
// budget that still fails, by binary search under the usual prefix-
// monotonicity assumption. Returns that budget and fills `at_min` with the
// failure observed there; falls back to the original run when the minimal
// point does not reproduce.
inline uint64_t ShrinkToMinimalPrefix(const DstConfig& cfg,
                                      const DstResult& failing,
                                      DstResult* at_min) {
  uint64_t lo = 1;
  uint64_t hi = failing.ops_issued;
  uint64_t best_ops = hi;
  DstResult best = failing;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    DstConfig c = cfg;
    c.max_ops = mid;
    DstResult r = RunDst(c);
    if (!r.ok) {
      hi = mid;
      best_ops = mid;
      best = std::move(r);
    } else {
      lo = mid + 1;
    }
  }
  *at_min = std::move(best);
  return best_ops;
}

}  // namespace utps::dst

#endif  // UTPS_TESTS_DST_DST_HARNESS_H_
