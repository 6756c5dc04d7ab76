// Per-operation execution helpers shared by BaseKV workers (which run the
// whole request) and the μTPS memory-resident layer (which runs index + data
// stages for forwarded requests).
#ifndef UTPS_CORE_OP_EXEC_H_
#define UTPS_CORE_OP_EXEC_H_

#include "core/server.h"
#include "net/rpc.h"
#include "sim/exec.h"
#include "store/item.h"

namespace utps {

// GET: index lookup + copy the value into the response buffer.
// Returns the response payload length (0 if the key is absent).
inline sim::Task<uint32_t> ExecGet(sim::ExecCtx& ctx, const ServerEnv& env, Key key,
                                   uint8_t* resp) {
  Item* it;
  {
    sim::StageScope s(ctx, sim::Stage::kIndex);
    it = co_await env.index->CoGet(ctx, key);
  }
  if (it == nullptr) {
    co_return 0;
  }
  sim::StageScope s(ctx, sim::Stage::kData);
  const uint32_t len = co_await ItemRead(ctx, it, resp);
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

// SCAN: range query [key, upper], up to `count` items, copying values into
// the response buffer back to back in key order, up to the first item that
// would not fit in `resp_cap`. Returns total payload bytes written.
inline sim::Task<uint32_t> ExecScan(sim::ExecCtx& ctx, const ServerEnv& env, Key lo,
                                    Key upper, uint32_t count, uint8_t* resp,
                                    uint32_t resp_cap) {
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
    if (off + items[i]->value_len > resp_cap) {
      break;
    }
    const uint32_t len = co_await ItemRead(ctx, items[i], resp + off);
    co_await ctx.Write(resp + off, len);
    off += len;
  }
  co_return off;
}

}  // namespace utps

#endif  // UTPS_CORE_OP_EXEC_H_
