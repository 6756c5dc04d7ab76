// Per-shard write-ahead log with three commit modes (DESIGN.md §10).
//
// Servers append every applied PUT/DELETE to one of a fixed set of log
// shards (key % shards) and then — depending on the commit mode — wait for
// the record to become durable before acking the client:
//
//   kSync   every op issues its own device sync (covering just its log
//           prefix) and acks only after the sync completes: maximum latency,
//           no batching — each write pays the full fixed flush cost.
//   kGroup  a dedicated log-writer fiber (hung off the μTPS MR/CR split)
//           flushes each shard's pending bytes every group_window_ns; ops
//           wait until the flusher's durable LSN covers them.
//   kAsync  ops ack immediately after the in-memory append; the flusher
//           still drains bytes to the device in the background.
//
// Durability model: the log tail lives in a power-loss-protected device write
// cache, so *appended* records survive a crash in all three modes — the modes
// differ only in when the ack is released, which is what the fig17 sweep
// measures. Recovery replays a shard's records in LSN order through the
// index's Direct plane and re-seeds the server's dedup window from the
// logged request ids, making replay + client retransmits at-most-once.
//
// Header-only on purpose: the mutation smoke-check binary compiles its own
// copies of server translation units without linking libutps. Everything is
// inert until a WalManager is wired into ServerEnv — a null env.wal keeps
// every server path byte-identical to a build without this header.
#ifndef UTPS_WAL_WAL_H_
#define UTPS_WAL_WAL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/macros.h"
#include "index/index.h"
#include "net/rpc.h"
#include "sim/engine.h"
#include "sim/exec.h"
#include "sim/logdev.h"
#include "sim/task.h"
#include "store/item.h"
#include "store/slab.h"

namespace utps::wal {

enum class CommitMode : uint8_t { kSync = 0, kGroup = 1, kAsync = 2 };

inline const char* CommitModeName(CommitMode m) {
  switch (m) {
    case CommitMode::kSync:
      return "sync";
    case CommitMode::kGroup:
      return "group";
    default:
      return "async";
  }
}

struct WalConfig {
  bool enabled = false;
  CommitMode mode = CommitMode::kGroup;
  unsigned shards = 4;                  // log shards; record goes to key % shards
  sim::Tick group_window_ns = 2000;     // flusher wakeup period (group/async)
  sim::Tick append_cpu_ns = 15;         // CPU cost of the in-memory append
  sim::LogDevConfig dev;
};

// Parses an MUTPS_WAL-style profile string: comma-separated key:value tokens.
// Example: "mode:group,shards:4,windowus:2,mbps:2000,syncus:5".
//
//   mode:sync|group|async    commit mode (default group)
//   shards:N                 log shards (default 4)
//   windowus:T               group-commit flush window, µs
//   mbps:B                   log device write bandwidth, MB/s
//   syncus:T                 log device sync latency, µs
inline WalConfig ParseWalProfile(const std::string& profile) {
  WalConfig cfg;
  if (profile.empty()) {
    return cfg;
  }
  cfg.enabled = true;
  ParseProfile("MUTPS_WAL", profile, ':',
               [&cfg](const std::string& key, const std::string& val) {
    if (key == "mode") {
      for (CommitMode m : {CommitMode::kSync, CommitMode::kGroup,
                           CommitMode::kAsync}) {
        if (val == CommitModeName(m)) {
          cfg.mode = m;
          return true;
        }
      }
      return false;
    }
    if (key == "shards") {
      const bool ok = ParseNumber(val, cfg.shards);
      cfg.shards = cfg.shards < 1 ? 1 : cfg.shards;
      return ok;
    }
    if (key == "windowus") return ParseUsAsNs(val, cfg.group_window_ns);
    if (key == "mbps") return ParseNumber(val, cfg.dev.bandwidth_mbps);
    if (key == "syncus") return ParseUsAsNs(val, cfg.dev.sync_latency_ns);
    return false;
  });
  return cfg;
}

// Profile from the MUTPS_WAL environment variable (empty: disabled).
inline WalConfig WalFromEnv() { return ParseWalProfile(EnvStr("MUTPS_WAL", "")); }

// In-memory image of one log record. `op_len` is a PackOpLen word (OpType
// in the top 4 bits, value length below); rid is the client request
// id (0 for ops outside the retry path) used to re-seed dedup on recovery.
struct WalRecord {
  Key key = 0;
  uint64_t rid = 0;
  uint32_t op_len = 0;
  uint32_t payload_off = 0;

  OpType op() const { return OpOf(op_len); }
  uint32_t value_len() const { return LenOf(op_len); }
};

// Handle an append returns; lsn == 0 means "nothing to wait for".
struct WalToken {
  uint32_t shard = 0;
  uint64_t lsn = 0;
};

struct WalCounters {
  uint64_t appends = 0;
  uint64_t appended_bytes = 0;  // wire bytes (header + payload)
  uint64_t flushes = 0;         // device syncs issued (any mode)
  uint64_t flushed_records = 0;
  uint64_t replayed = 0;        // records applied by the last Replay
};

class WalManager {
 public:
  // On-device framing overhead per record (header + checksum).
  static constexpr uint64_t kRecordHeaderBytes = 32;

  explicit WalManager(const WalConfig& cfg)
      : cfg_(cfg),
        dev_(cfg.dev),
        shards_(cfg.shards < 1 ? 1 : cfg.shards),
        flush_ctxs_(shards_.size()) {}

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  const WalConfig& config() const { return cfg_; }
  const WalCounters& counters() const { return ctr_; }
  const sim::LogDevice& device() const { return dev_; }

  // Appends one record to the key's shard (host copy into the shard buffer;
  // the device is only touched by syncs). Returns the token WaitDurable
  // needs. Safe to call from any worker fiber — appends are synchronous.
  WalToken Append(sim::ExecCtx& ctx, Key key, OpType op, const void* payload,
                  uint32_t len, uint64_t rid) {
    ctx.Charge(cfg_.append_cpu_ns);
    Shard& sh = shards_[key % shards_.size()];
    WalRecord rec;
    rec.key = key;
    rec.rid = rid;
    rec.op_len = PackOpLen(op, len);
    rec.payload_off = static_cast<uint32_t>(sh.payloads.size());
    if (len > 0 && payload != nullptr) {
      const uint8_t* p = static_cast<const uint8_t*>(payload);
      sh.payloads.insert(sh.payloads.end(), p, p + len);
    }
    sh.records.push_back(rec);
    sh.appended++;
    const uint64_t prev = sh.cum_bytes.empty() ? 0 : sh.cum_bytes.back();
    sh.cum_bytes.push_back(prev + kRecordHeaderBytes + len);
    ctr_.appends++;
    ctr_.appended_bytes += kRecordHeaderBytes + len;
    return WalToken{static_cast<uint32_t>(key % shards_.size()), sh.appended};
  }

  // Suspends until the record behind `tok` is durable according to the commit
  // mode. kAsync (and a null token) return immediately.
  sim::Task<void> WaitDurable(sim::ExecCtx& ctx, WalToken tok) {
    if (tok.lsn == 0 || cfg_.mode == CommitMode::kAsync) {
      co_return;
    }
    Shard& sh = shards_[tok.shard];
    if (cfg_.mode == CommitMode::kGroup) {
      // The log-writer fiber advances durable; just wait for it.
      while (sh.durable < tok.lsn) {
        co_await ctx.Delay(kWaitPollNs);
      }
      co_return;
    }
    // kSync: the op issues its own sync, covering only the log prefix up to
    // its record (no batching of later appends — that is group commit's
    // job). Syncs on a shard serialize behind the inflight one, and the
    // device serializes flush barriers globally, so per-op sync pays the
    // full fixed flush cost per write.
    while (sh.durable < tok.lsn) {
      if (sh.flush_inflight || sh.synced >= tok.lsn) {
        co_await ctx.Delay(kWaitPollNs);
        continue;
      }
      co_await FlushShard(ctx, sh, tok.lsn);
    }
  }

  // Spawns the dedicated log-writer workers (group/async modes) — one fiber
  // per shard, so shard syncs overlap on the device pipeline instead of
  // serializing behind each other's sync latency. Idempotent: server
  // restarts across crash recovery reuse the same flushers.
  void EnsureFlusher(sim::Engine* eng) {
    if (cfg_.mode == CommitMode::kSync || flusher_spawned_) {
      return;
    }
    flusher_spawned_ = true;
    stop_ = false;
    live_flushers_ = static_cast<unsigned>(shards_.size());
    for (unsigned i = 0; i < shards_.size(); i++) {
      flush_ctxs_[i] = sim::ExecCtx{};
      flush_ctxs_[i].eng = eng;
      eng->Spawn(FlusherMain(i));
    }
  }

  // Asks the flusher to drain pending bytes and exit.
  void Stop() { stop_ = true; }

  // Highest durable LSN of a shard (tests / metrics).
  uint64_t DurableLsn(unsigned shard) const { return shards_[shard].durable; }
  uint64_t AppendedLsn(unsigned shard) const { return shards_[shard].appended; }
  unsigned NumShards() const { return static_cast<unsigned>(shards_.size()); }

  // Crash recovery (host-side, untimed — recovery cost is charged by the
  // harness as a restart delay): replays every shard's records in LSN order
  // through the index Direct plane, rebuilding item/slab state on top of the
  // populated base image, and re-seeds the dedup window from logged rids so
  // a client retransmit of an already-applied op is answered with an ack
  // instead of being re-applied. Under the PLP write-cache model all
  // *appended* records replay, not just synced ones.
  uint64_t Replay(KvIndex* index, SlabAllocator* slab, DedupWindow* dedup) {
    uint64_t n = 0;
    for (Shard& sh : shards_) {
      for (const WalRecord& rec : sh.records) {
        const uint8_t* payload = sh.payloads.data() + rec.payload_off;
        if (rec.op() == OpType::kDelete) {
          EraseItemDirect(*index, *slab, rec.key);
        } else {
          PutItemDirect(*index, *slab, rec.key, payload, rec.value_len());
        }
        if (rec.rid != 0 && dedup != nullptr) {
          dedup->Complete(rec.rid);
        }
        n++;
      }
    }
    ctr_.replayed = n;
    return n;
  }

 private:
  static constexpr sim::Tick kWaitPollNs = 400;

  struct Shard {
    std::vector<WalRecord> records;
    std::vector<uint8_t> payloads;
    std::vector<uint64_t> cum_bytes;  // wire bytes of records [1..i+1]
    uint64_t appended = 0;        // LSN of the newest appended record
    uint64_t durable = 0;         // highest LSN covered by a completed sync
    uint64_t synced = 0;          // highest LSN covered by an *issued* sync
    uint64_t synced_bytes = 0;    // wire bytes covered by issued syncs
    bool flush_inflight = false;
  };

  // Issues one device sync covering the shard's log prefix up to `target`
  // and waits for it. Caller must have checked flush_inflight and that
  // target > sh.synced.
  sim::Task<void> FlushShard(sim::ExecCtx& ctx, Shard& sh, uint64_t target) {
    sh.flush_inflight = true;
    const uint64_t end_bytes = sh.cum_bytes[target - 1];
    const uint64_t bytes = end_bytes - sh.synced_bytes;
    ctr_.flushed_records += target - sh.synced;
    sh.synced = target;
    sh.synced_bytes = end_bytes;
    ctx.Charge(cfg_.dev.submit_cpu_ns);
    const sim::Tick done = dev_.Sync(ctx.Now(), bytes);
    if (done > ctx.Now()) {
      co_await ctx.Delay(done - ctx.Now());
    }
    if (target > sh.durable) {
      sh.durable = target;
    }
    ctr_.flushes++;
    sh.flush_inflight = false;
  }

  // Dedicated log-writer worker for one shard. Self-clocking group commit:
  // while appends are pending it re-syncs back to back (each sync covers
  // everything that accumulated during the previous one), and it only sleeps
  // the group window when the shard is idle. Exits once asked to stop and
  // fully drained.
  sim::Fiber FlusherMain(unsigned idx) {
    Shard& sh = shards_[idx];
    sim::ExecCtx& ctx = flush_ctxs_[idx];
    for (;;) {
      if (sh.synced < sh.appended && !sh.flush_inflight) {
        co_await FlushShard(ctx, sh, sh.appended);
        continue;
      }
      if (stop_ && sh.synced >= sh.appended) {
        break;
      }
      co_await ctx.Delay(cfg_.group_window_ns);
    }
    if (--live_flushers_ == 0) {
      flusher_spawned_ = false;
    }
  }

  WalConfig cfg_;
  sim::LogDevice dev_;
  std::vector<Shard> shards_;
  std::vector<sim::ExecCtx> flush_ctxs_;  // one per shard flusher fiber
  unsigned live_flushers_ = 0;
  bool flusher_spawned_ = false;
  bool stop_ = false;
  WalCounters ctr_;
};

}  // namespace utps::wal

#endif  // UTPS_WAL_WAL_H_
