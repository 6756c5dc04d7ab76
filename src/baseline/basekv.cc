#include "baseline/basekv.h"

#include <algorithm>

namespace utps {

using sim::ExecCtx;
using sim::Fiber;
using sim::Stage;
using sim::StageScope;
using sim::Task;

namespace {
constexpr uint32_t kMaxValueBytes = 1088;
constexpr uint32_t kScanRespCap = 8192;
}  // namespace

Fiber BaseKvServer::WorkerMain(unsigned idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  uint64_t next_seq = idx;
  const unsigned n = env_.num_workers;
  while (!stop_) {
    if (UTPS_UNLIKELY(env_.fault != nullptr) && env_.fault->IsCrashed(idx)) {
      // Crash-stop: no failover path here — the crashed worker's residue of
      // shared-ring slots simply stalls until restart (contrast with μTPS,
      // which reassigns the dead worker's load; see bench/fig15).
      co_await ctx.Delay(sim::kUsec);
      continue;
    }
    bool claimed = false;
    {
      StageScope s(ctx, Stage::kPoll);
      rx_->Advance(*env_.nic, 0, ctx.eng->now());
      ctx.Charge(4);
      co_await ctx.Read(rx_->Header(next_seq), 16);
      if (rx_->IsClosed(next_seq)) {
        rx_->Claim(next_seq);
        ctx.Charge(3);
        claimed = true;
      }
    }
    if (!claimed) {
      co_await ctx.Yield();
      continue;
    }
    const uint64_t seq = next_seq;
    next_seq += n;
    const unsigned cnt = rx_->Header(seq)->nreq;
    // The run-to-completion worker still batches the slot's requests through
    // the coroutine scheduler (BaseKV has batching + prefetching enabled per
    // §5.1) — what it cannot do is separate stages onto different cores.
    Task<void> tasks[RxRing::Config{}.max_batch <= 32 ? 32 : 64];
    UTPS_CHECK(cnt <= 32);
    for (unsigned i = 0; i < cnt; i++) {
      tasks[i] = ProcessOne(idx, seq, i);
    }
    co_await sim::RunBatch(ctx, tasks, cnt);
    co_await ctx.Yield();
  }
}

Task<void> BaseKvServer::ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  RxRecord* rec = &rx_->Records(seq)[rec_idx];
  {
    StageScope s(ctx, Stage::kParse);
    co_await ctx.Read(rec, sizeof(RxRecord));
    ctx.Charge(env_.parse_cpu_ns);
  }
  const sim::NicMessage& msg = rx_->Msgs(seq)[rec_idx];
  const OpType op = rec->op();
  const bool is_write = op == OpType::kPut || op == OpType::kDelete;
  // At-most-once writes (DESIGN.md §9): a retransmitted or NIC-duplicated
  // write must not be applied twice. Reads are idempotent and re-execute.
  if (UTPS_UNLIKELY(msg.rid != 0) && is_write) {
    const DedupWindow::Verdict v = dedup_.Begin(msg.rid);
    if (v == DedupWindow::Verdict::kInFlight) {
      // First copy still executing; its response answers the rid.
      rx_->CompleteOne(seq);
      co_return;
    }
    if (v == DedupWindow::Verdict::kDone) {
      StageScope s(ctx, Stage::kRespond);
      ctx.Charge(env_.respond_cpu_ns);
      env_.nic->ServerSend(ctx, msg, nullptr, 0);  // replay the empty ack
      rx_->CompleteOne(seq);
      w.ops++;
      co_return;
    }
  }
  const uint8_t* resp = nullptr;
  uint32_t resp_len = 0;
  wal::WalToken wal_tok;
  switch (op) {
    case OpType::kGet: {
      uint8_t* r = w.resp->Alloc(std::min(rec->value_len() + 8, kMaxValueBytes));
      resp_len = co_await ExecGet(ctx, env_, rec->key, r);
      resp = r;
      break;
    }
    case OpType::kPut: {
      const uint8_t* payload = rx_->Data(seq) + rec->payload_off;
      co_await ExecPut(ctx, env_, rec->key, payload, rec->value_len());
      if (UTPS_UNLIKELY(env_.wal != nullptr)) {
        wal_tok = env_.wal->Append(ctx, rec->key, OpType::kPut, payload,
                                   rec->value_len(), msg.rid);
      }
      break;
    }
    case OpType::kScan: {
      uint8_t* r = w.resp->Alloc(kScanRespCap);
      resp_len = co_await ExecScan(ctx, env_, rec->key, rec->scan_upper,
                                   rec->scan_count, r, kScanRespCap, nullptr, 0);
      resp = r;
      break;
    }
    case OpType::kDelete: {
      {
        StageScope s(ctx, Stage::kIndex);
        co_await env_.index->CoErase(ctx, rec->key);
      }
      if (UTPS_UNLIKELY(env_.wal != nullptr)) {
        wal_tok =
            env_.wal->Append(ctx, rec->key, OpType::kDelete, nullptr, 0, msg.rid);
      }
      break;
    }
  }
  if (UTPS_UNLIKELY(env_.wal != nullptr) && wal_tok.lsn != 0) {
    // Hold the ack until the logged write is durable per the commit mode.
    co_await env_.wal->WaitDurable(ctx, wal_tok);
  }
  {
    StageScope s(ctx, Stage::kRespond);
    ctx.Charge(env_.respond_cpu_ns);
    if (UTPS_UNLIKELY(msg.rid != 0) && is_write) {
      dedup_.Complete(msg.rid);
    }
    env_.nic->ServerSend(ctx, msg, resp, resp_len);
    rx_->CompleteOne(seq);
    w.ops++;
  }
}

}  // namespace utps
