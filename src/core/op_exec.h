// The request steps the data planes share: BaseKV workers run a whole
// request through them, μTPS splits them between its CR layer (at-most-once
// preamble, respond) and MR layer (index + data stages), and cluster nodes
// run the index + data stages against a shard's index.
#ifndef UTPS_CORE_OP_EXEC_H_
#define UTPS_CORE_OP_EXEC_H_

#include <algorithm>

#include "core/server.h"
#include "net/rpc.h"
#include "sim/exec.h"
#include "store/item.h"

namespace utps {

// Response region sizes (DESIGN.md §2): a GET's announced value length + 8,
// up to kMaxValueBytes; a scan's kScanRespCap; a write's none.
constexpr uint32_t kMaxValueBytes = 1088;
constexpr uint32_t kScanRespCap = 8192;

inline uint32_t RespCap(OpType op, uint32_t value_len) {
  return op == OpType::kGet    ? std::min(value_len + 8, kMaxValueBytes)
         : op == OpType::kScan ? kScanRespCap
                               : 0;
}

// The ops the at-most-once window guards (DESIGN.md §9).
inline bool IsWrite(const sim::NicMessage& msg) {
  const OpType op = OpOf(msg.h[1]);
  return op == OpType::kPut || op == OpType::kDelete;
}

// The tail of every single-node request: charges the respond step, marks a
// write's rid done, sends `len` bytes of `resp` (the NIC reads them itself,
// §3.3) and completes record `rec_idx` of receive slot `seq`.
inline void SendAndComplete(sim::ExecCtx& ctx, const ServerEnv& env,
                            DedupWindow& dedup, RxRing& rx, uint64_t seq,
                            unsigned rec_idx, const uint8_t* resp, uint32_t len,
                            uint64_t& ops) {
  sim::StageScope s(ctx, sim::Stage::kRespond);
  ctx.Charge(env.respond_cpu_ns);
  const sim::NicMessage& msg = rx.Msgs(seq)[rec_idx];
  if (UTPS_UNLIKELY(msg.rid != 0) && IsWrite(msg)) {
    dedup.Complete(msg.rid);
  }
  env.nic->ServerSend(ctx, msg, resp, len);
  rx.CompleteOne(seq);
  ops++;
}

// The single-node at-most-once preamble (DESIGN.md §9): a duplicate of a
// write still executing completes its record silently (the first copy's
// response answers the rid), and one already applied gets an empty ack.
// Returns true when the caller must execute the request.
inline bool BeginOnce(sim::ExecCtx& ctx, const ServerEnv& env,
                      DedupWindow& dedup, RxRing& rx, uint64_t seq,
                      unsigned rec_idx, uint64_t& ops) {
  const sim::NicMessage& msg = rx.Msgs(seq)[rec_idx];
  if (UTPS_LIKELY(msg.rid == 0) || !IsWrite(msg)) {
    return true;
  }
  const DedupWindow::Verdict v = dedup.Begin(msg.rid);
  if (v == DedupWindow::Verdict::kInFlight) {
    rx.CompleteOne(seq);
  } else if (v == DedupWindow::Verdict::kDone) {
    SendAndComplete(ctx, env, dedup, rx, seq, rec_idx, nullptr, 0, ops);
  }
  return v == DedupWindow::Verdict::kExecute;
}

// GET: index lookup + copy the value into `resp`, a `cap`-byte region (by
// default one that holds any value); a longer value goes to spill(len), which
// `resp` then names. Returns the payload length (0 if the key is absent).
template <typename Spill = uint8_t* (*)(uint32_t)>
inline sim::Task<uint32_t> ExecGet(sim::ExecCtx& ctx, const ServerEnv& env,
                                   Key key, uint8_t*& resp,
                                   uint32_t cap = UINT32_MAX,
                                   Spill spill = nullptr) {
  Item* it;
  {
    sim::StageScope s(ctx, sim::Stage::kIndex);
    it = co_await env.index->CoGet(ctx, key);
  }
  if (it == nullptr) {
    co_return 0;
  }
  sim::StageScope s(ctx, sim::Stage::kData);
  const uint32_t len = co_await ItemRead(ctx, it, resp, cap);
  if (UTPS_UNLIKELY(len > cap)) {
    resp = spill(len);
    ItemReadDirect(it, resp);  // still the value ItemRead validated
  }
  if (UTPS_UNLIKELY(ctx.FastForward())) {
    // Functional mode: the response bytes are already in place; skip the
    // modeled staging write (a timing hook, not a state mutation).
    co_return len;
  }
  co_await ctx.Write(resp, len);
  co_return len;
}

// PUT: index lookup; update in place if present, else allocate + insert.
// `payload` points into the receive slot's data area (modeled memory).
inline sim::Task<void> ExecPut(sim::ExecCtx& ctx, const ServerEnv& env, Key key,
                               const uint8_t* payload, uint32_t len,
                               bool unsynchronized = false) {
  for (;;) {
    Item* it;
    {
      sim::StageScope s(ctx, sim::Stage::kIndex);
      it = co_await env.index->CoGet(ctx, key);
    }
    sim::StageScope s(ctx, sim::Stage::kData);
    if (!ctx.FastForward()) {
      co_await ctx.Read(payload, len);  // fetch the new value from the rx buffer
    }
    if (it != nullptr && len <= it->capacity) {
      if (unsynchronized) {
        co_await ItemWriteUnsynchronized(ctx, it, payload, len);
        co_return;
      }
      if (co_await ItemWrite(ctx, it, payload, len)) {
        co_return;
      }
      continue;  // a grown PUT replaced the item since the lookup
    }
    // Slow path: new key (or grown value): allocate and (re)insert.
    Item* fresh = env.slab->AllocateItem(key, len);
    ItemWriteDirect(fresh, payload, len);
    ctx.Charge(30);  // allocator cost
    co_await ctx.Write(fresh, sizeof(Item) + len);
    sim::StageScope si(ctx, sim::Stage::kIndex);
    if (it != nullptr && co_await env.index->CoReplace(ctx, key, fresh)) {
      co_return;
    }
    // An insert fails only when the key is present: a concurrent PUT of the
    // same key inserted it first, and this PUT is ordered before that one.
    if (!co_await env.index->CoInsert(ctx, key, fresh)) {
      env.slab->FreeItem(fresh);
    }
    co_return;
  }
}

// DELETE: unlinks the key's item, not freed: a reader may still hold it.
inline sim::Task<void> ExecDelete(sim::ExecCtx& ctx, const ServerEnv& env,
                                  Key key) {
  sim::StageScope s(ctx, sim::Stage::kIndex);
  co_await env.index->CoErase(ctx, key);
}

// SCAN: range query [key, upper], up to `count` items, copying values into
// the kScanRespCap-byte region `resp` back to back in key order, up to the
// first item that does not fit. Returns total payload bytes written.
inline sim::Task<uint32_t> ExecScan(sim::ExecCtx& ctx, const ServerEnv& env, Key lo,
                                    Key upper, uint32_t count, uint8_t* resp) {
  Item* items[512];
  if (count > 512) {
    count = 512;
  }
  uint32_t n;
  {
    sim::StageScope s(ctx, sim::Stage::kIndex);
    n = co_await env.index->CoScan(ctx, lo, upper, count, items);
  }
  sim::StageScope s(ctx, sim::Stage::kData);
  uint32_t off = 0;
  for (uint32_t i = 0; i < n; i++) {
    if (off + items[i]->value_len > kScanRespCap) {
      break;
    }
    const uint32_t len =
        co_await ItemRead(ctx, items[i], resp + off, kScanRespCap - off);
    if (len > kScanRespCap - off) {
      break;  // the value grew while it was read
    }
    co_await ctx.Write(resp + off, len);
    off += len;
  }
  co_return off;
}

}  // namespace utps

#endif  // UTPS_CORE_OP_EXEC_H_
