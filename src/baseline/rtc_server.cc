#include "baseline/rtc_server.h"

#include <algorithm>

#include "core/op_exec.h"
#include "sim/batch.h"

namespace utps {

using sim::ExecCtx;
using sim::StageScope;
using sim::Task;

namespace {
constexpr uint32_t kMaxValueBytes = 1088;
constexpr uint32_t kScanRespCap = 8192;
constexpr unsigned kMaxBatch = 32;  // requests a worker runs from one slot
// Where the layouts' CPU charges differ (DESIGN.md §5): a poll of BaseKV's
// shared ring or of an eRPCKV private ring, and eRPC's leaner parse.
constexpr sim::Tick kSharedPollNs = 4;
constexpr sim::Tick kPrivatePollNs = 3;
constexpr sim::Tick kErpcParseSavingNs = 4;
}  // namespace

RtcServer::RtcServer(const ServerEnv& env, std::vector<KvIndex*> shards)
    : env_(env),
      share_nothing_(!shards.empty()),
      metrics_scope_(share_nothing_ ? "erpckv" : "basekv"),
      poll_cpu_ns_(share_nothing_ ? kPrivatePollNs : kSharedPollNs),
      seq_stride_(share_nothing_ ? 1 : env.num_workers) {
  const unsigned n = env_.num_workers;
  UTPS_CHECK(!share_nothing_ || shards.size() == n);
  RxRing::Config ring_cfg;
  if (share_nothing_) {
    env_.parse_cpu_ns = std::max(env_.parse_cpu_ns, kErpcParseSavingNs + 1) -
                        kErpcParseSavingNs;  // at least 1 ns
    // The default ring geometry, its slots split across the workers.
    ring_cfg.num_slots = std::max(64u, ring_cfg.num_slots / n);
  } else {
    rings_.push_back(std::make_unique<RxRing>(env_.arena, ring_cfg));
  }
  // Arena order decides modeled cache sets, so each layout keeps its own:
  // BaseKV's ring then every response buffer; eRPCKV's ring and response
  // buffer per worker.
  workers_.resize(n);
  for (unsigned i = 0; i < n; i++) {
    Worker& w = workers_[i];
    w.env = env_;
    if (share_nothing_) {
      rings_.push_back(std::make_unique<RxRing>(env_.arena, ring_cfg));
      w.env.index = shards[i];
      w.rx_id = i;
    } else {
      w.next_seq = i;
    }
    w.rx = rings_.back().get();
    w.resp = std::make_unique<RespBuffer>(env_.arena);
    w.ctx = ExecCtx{.eng = env_.eng, .mem = env_.mem,
                    .core = static_cast<sim::CoreId>(i)};
    if (env_.obs != nullptr) {
      w.ctx.stage_ns = env_.obs->StageNs(i);
    }
  }
}

void RtcServer::Start() {
  for (unsigned i = 0; i < env_.num_workers; i++) {
    if (env_.fault != nullptr) {
      workers_[i].ctx.slow_q8 = env_.fault->SlowPtr(i);
    }
    env_.eng->Spawn(WorkerMain(i));
  }
  if (env_.wal != nullptr) {
    env_.wal->EnsureFlusher(env_.eng);
  }
}

uint64_t RtcServer::OpsCompleted() const {
  uint64_t t = 0;
  for (const Worker& w : workers_) {
    t += w.ops;
  }
  return t;
}

void RtcServer::ResetStats() {
  for (Worker& w : workers_) {
    w.ops = 0;
  }
}

void RtcServer::ExportMetrics(obs::MetricsRegistry* m) const {
  if (m == nullptr || env_.fault == nullptr) {
    return;  // gate on the injector: faultless output stays byte-identical
  }
  m->Count(metrics_scope_, "dedup_done", dedup_.dup_done());
  m->Count(metrics_scope_, "dedup_inflight", dedup_.dup_inflight());
}

sim::Fiber RtcServer::WorkerMain(unsigned idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  RxRing& rx = *w.rx;
  while (!stop_) {
    if (UTPS_UNLIKELY(env_.fault != nullptr) && env_.fault->IsCrashed(idx)) {
      // Crash-stop without failover: this worker's slots stall until restart,
      // its residue of BaseKV's shared ring or every key of its eRPCKV shard
      // (μTPS reassigns a dead worker's load instead; see bench/fig15).
      co_await ctx.Delay(sim::kUsec);
      continue;
    }
    bool claimed = false;
    {
      StageScope s(ctx, sim::Stage::kPoll);
      rx.Advance(*env_.nic, w.rx_id, ctx.eng->now());
      ctx.Charge(poll_cpu_ns_);
      co_await ctx.Read(rx.Header(w.next_seq), 16);
      if (rx.IsClosed(w.next_seq)) {
        rx.Claim(w.next_seq);
        ctx.Charge(3);
        claimed = true;
      }
    }
    if (!claimed) {
      co_await ctx.Yield();
      continue;
    }
    const uint64_t seq = w.next_seq;
    w.next_seq += seq_stride_;
    const unsigned cnt = rx.Header(seq)->nreq;
    Task<void> tasks[kMaxBatch];
    UTPS_CHECK(cnt <= kMaxBatch);
    for (unsigned i = 0; i < cnt; i++) {
      tasks[i] = ProcessOne(idx, seq, i);
    }
    co_await sim::RunBatch(ctx, tasks, cnt);
    co_await ctx.Yield();
  }
}

Task<void> RtcServer::ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  RxRing& rx = *w.rx;
  RxRecord* rec = &rx.Records(seq)[rec_idx];
  {
    StageScope s(ctx, sim::Stage::kParse);
    co_await ctx.Read(rec, sizeof(RxRecord));
    ctx.Charge(env_.parse_cpu_ns);
  }
  const sim::NicMessage& msg = rx.Msgs(seq)[rec_idx];
  const OpType op = rec->op();
  const bool is_write = op == OpType::kPut || op == OpType::kDelete;
  // At-most-once writes (DESIGN.md §9): a retransmitted or NIC-duplicated
  // write must not be applied twice. Reads are idempotent and re-execute.
  if (UTPS_UNLIKELY(msg.rid != 0) && is_write) {
    const DedupWindow::Verdict v = dedup_.Begin(msg.rid);
    if (v == DedupWindow::Verdict::kInFlight) {
      // First copy still executing; its response answers the rid.
      rx.CompleteOne(seq);
      co_return;
    }
    if (v == DedupWindow::Verdict::kDone) {
      StageScope s(ctx, sim::Stage::kRespond);
      ctx.Charge(env_.respond_cpu_ns);
      env_.nic->ServerSend(ctx, msg, nullptr, 0);  // replay the empty ack
      rx.CompleteOne(seq);
      w.ops++;
      co_return;
    }
  }
  const uint8_t* resp = nullptr;
  uint32_t resp_len = 0;
  const uint8_t* payload = rx.Data(seq) + rec->payload_off;
  switch (op) {
    case OpType::kGet: {
      uint8_t* r = w.resp->Alloc(std::min(rec->value_len() + 8, kMaxValueBytes));
      resp_len = co_await ExecGet(ctx, w.env, rec->key, r);
      resp = r;
      break;
    }
    case OpType::kPut:
      co_await ExecPut(ctx, w.env, rec->key, payload, rec->value_len(),
                       /*unsynchronized=*/share_nothing_);
      break;
    case OpType::kScan: {
      // A share-nothing scan reads only this worker's shard: it returns the
      // part of the range that hashed there, about 1/n of it.
      uint8_t* r = w.resp->Alloc(kScanRespCap);
      resp_len = co_await ExecScan(ctx, w.env, rec->key, rec->scan_upper,
                                   rec->scan_count, r, kScanRespCap, nullptr, 0);
      resp = r;
      break;
    }
    case OpType::kDelete: {
      StageScope s(ctx, sim::Stage::kIndex);
      co_await w.env.index->CoErase(ctx, rec->key);
      break;
    }
  }
  if (UTPS_UNLIKELY(env_.wal != nullptr) && is_write) {
    // Log the applied write; hold the ack until it is durable per the
    // commit mode.
    const bool put = op == OpType::kPut;
    const wal::WalToken tok =
        env_.wal->Append(ctx, rec->key, op, put ? payload : nullptr,
                         put ? rec->value_len() : 0, msg.rid);
    co_await env_.wal->WaitDurable(ctx, tok);
  }
  {
    StageScope s(ctx, sim::Stage::kRespond);
    ctx.Charge(env_.respond_cpu_ns);
    if (UTPS_UNLIKELY(msg.rid != 0) && is_write) {
      dedup_.Complete(msg.rid);
    }
    env_.nic->ServerSend(ctx, msg, resp, resp_len);
    rx.CompleteOne(seq);
    w.ops++;
  }
}

}  // namespace utps
