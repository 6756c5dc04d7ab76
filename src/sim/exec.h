// ExecCtx: per-simulated-thread execution context plus the awaitables that
// charge virtual time.
//
// Fast path: private-cache hits and pure-CPU costs accumulate into
// ctx.pending without suspending (no event-queue traffic); any LLC-level
// access, delay, or synchronization flushes pending and suspends through the
// engine, which is where simulated threads interleave. A fairness guard
// forces a suspension after too many consecutive fast operations so no fiber
// can run unboundedly ahead.
#ifndef UTPS_SIM_EXEC_H_
#define UTPS_SIM_EXEC_H_

#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/cache.h"
#include "sim/engine.h"
#include "sim/types.h"

namespace utps::sim {

struct ExecCtx;

// Batch control block for batched coroutine execution (§3.3 of the paper):
// while a worker drives a batch of traversal coroutines, their memory-stall
// suspensions are parked here (with the virtual time at which the fill
// completes) instead of going through the engine, so the driver can overlap
// outstanding misses across the batch — the simulation-level equivalent of
// prefetch + coroutine yield.
struct BatchCtl {
  struct Parked {
    std::coroutine_handle<> h;
    Tick resume_at;
  };
  // Inline storage: a BatchCtl lives in its driver's coroutine frame and
  // holds at most one parked handle per batched task, so a fixed array
  // covers every batch size in the tree (CrMrRing::kMaxBatch == 20) with no
  // heap allocation — batch drivers run once per ring slot, and the
  // per-batch vector growth used to be the simulator's single largest
  // allocation source (DESIGN.md §13). The capacity check is the
  // regression guard: a future larger batch sweep must raise kInlineCap
  // rather than silently reintroduce churn.
  static constexpr uint32_t kInlineCap = 32;
  Parked waiting[kInlineCap];
  uint32_t count = 0;

  bool Empty() const { return count == 0; }
  void Push(std::coroutine_handle<> h, Tick resume_at) {
    UTPS_CHECK_MSG(count < kInlineCap,
                   "BatchCtl overflow: batch larger than kInlineCap");
    waiting[count++] = Parked{h, resume_at};
  }
  // Swap-removes entry i (order is irrelevant: the driver always scans for
  // the minimum resume_at).
  Parked Take(uint32_t i) {
    const Parked p = waiting[i];
    waiting[i] = waiting[--count];
    return p;
  }
};

// Suspends the fiber and resumes it `extra` ns after its current local time.
// When `batchable` and the context is running a batch, the suspension parks
// in the BatchCtl instead of the engine queue.
struct SuspendAwaiter {
  ExecCtx* ctx;
  Tick extra;
  bool ready;
  bool batchable = true;

  bool await_ready() const noexcept { return ready; }
  inline std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept;
  void await_resume() const noexcept {}
};

struct ExecCtx {
  Engine* eng = nullptr;
  MemoryModel* mem = nullptr;  // nullptr => client-node context (flat costs)
  CoreId core = 0;
  ClosId clos = 0;
  Stage stage = Stage::kIdle;

  Tick pending = 0;      // locally accrued time not yet synced to the engine
  uint32_t fast_ops = 0;  // consecutive non-suspending operations
  bool stop = false;      // cooperative shutdown flag
  BatchCtl* batch = nullptr;  // non-null while driving a coroutine batch

  // Cycle accounting (obs layer): when non-null, points to a kNumStages-long
  // array of per-stage virtual-ns accumulators for this core. Every charged
  // cost — CPU work, cache latencies, fill stalls, delays — is attributed to
  // the Stage active when it is incurred. Null when observability is off.
  Tick* stage_ns = nullptr;

  // Flat per-line cost for contexts without a cache model (client machines).
  Tick flat_line_ns = 4;

  // Straggler hook (src/fault): when non-null, every charged CPU cost and
  // memory-stall is scaled by *slow_q8 / 256 (Q8 fixed point, 256 = 1x) —
  // a frequency-scaled core runs the same work, slower. Delays and yields
  // are wall-clock waits and stay unscaled. Null (the default) is free.
  const uint32_t* slow_q8 = nullptr;

  // Host-side count of the times an item write found the item's lock bit
  // held and backed off (store/item.h ItemWrite). Bookkeeping only: no
  // modeled cost.
  uint64_t item_lock_spins = 0;

  static constexpr uint32_t kMaxFastOps = 64;
  static constexpr Tick kMaxPending = 400;

  Tick Now() const { return eng->now() + pending; }

  Tick ScaleNs(Tick ns) const {
    return slow_q8 == nullptr ? ns : (ns * Tick{*slow_q8}) >> 8;
  }

  // Pure CPU work (parsing, arithmetic); never suspends by itself.
  void Charge(Tick ns) {
    ns = ScaleNs(ns);
    pending += ns;
    if (stage_ns != nullptr) {
      stage_ns[static_cast<unsigned>(stage)] += ns;
    }
  }

  // True while the sampled-simulation engine runs this machine functionally
  // (DESIGN.md §12): accesses charge flat costs and never touch the cache
  // model, so its tags stay warm for the next detailed window. Client-node
  // contexts (mem == nullptr) already use flat costs and are unaffected.
  bool FastForward() const { return mem != nullptr && mem->fast_forward(); }

  // Modeled memory access. Suspends on anything beyond a private-cache hit.
  SuspendAwaiter Access(const void* p, size_t len, bool write, bool rmw = false) {
    if (mem == nullptr) {
      const size_t lines = 1 + (len == 0 ? 0 : (len - 1) / kCachelineBytes);
      Charge(flat_line_ns * lines + (rmw ? 10 : 0));
      return MaybeFast();
    }
    if (UTPS_UNLIKELY(mem->fast_forward())) {
      // Functional mode: flat per-line cost, no tag/counter mutation, no
      // modeled stall. The fairness guard in MaybeFast still forces periodic
      // suspensions, so fibers keep interleaving and virtual time advances.
      const size_t lines = 1 + (len == 0 ? 0 : (len - 1) / kCachelineBytes);
      Charge(flat_line_ns * lines + (rmw ? 10 : 0));
      return MaybeFast();
    }
    const AccessResult r = mem->Access(core, clos, stage, p, len, write, rmw);
    if (r.private_hit && !rmw) {
      Charge(r.latency);
      return MaybeFast();
    }
    // The fill stall (r.latency) can be overlapped by batched execution; the
    // per-miss CPU overhead cannot and is charged serially.
    Charge(mem->config().miss_cpu_ns);
    return SuspendAwaiter{this, ScaleNs(r.latency), false};
  }

  SuspendAwaiter Read(const void* p, size_t len) { return Access(p, len, false); }
  SuspendAwaiter Write(const void* p, size_t len) { return Access(p, len, true); }
  SuspendAwaiter Rmw(const void* p, size_t len = 8) {
    return Access(p, len, true, /*rmw=*/true);
  }

  // Suspend for `ns` of virtual time (flushes pending). Never parks in a
  // batch — this is what batch drivers themselves use.
  SuspendAwaiter Delay(Tick ns) { return SuspendAwaiter{this, ns, false, false}; }

  // Cooperative yield: flush pending, guarantee >= 1ns progress so empty
  // poll loops always advance virtual time.
  SuspendAwaiter Yield() {
    const Tick ns = pending == 0 ? 1 : 0;
    return SuspendAwaiter{this, ns, false};
  }

 private:
  SuspendAwaiter MaybeFast() {
    if (++fast_ops > kMaxFastOps || pending > kMaxPending) {
      return SuspendAwaiter{this, 0, false};
    }
    return SuspendAwaiter{this, 0, true};
  }
};

inline std::coroutine_handle<> SuspendAwaiter::await_suspend(
    std::coroutine_handle<> h) noexcept {
  const Tick t = ctx->eng->now() + ctx->pending + extra;
  ctx->fast_ops = 0;
  // Attribute the suspension's own cost (fill stall / delay) to the stage
  // that incurred it. For batch-parked fills this books the full stall even
  // though fills overlap — cycle accounting reports memory-stall exposure,
  // not wall time (which the engine itself provides).
  if (ctx->stage_ns != nullptr) {
    ctx->stage_ns[static_cast<unsigned>(ctx->stage)] += extra;
  }
  if (batchable && ctx->batch != nullptr) {
    // Park in the batch: only the fill stall (`extra`) overlaps with other
    // coroutines. The accrued CPU time (ctx->pending) stays on the core
    // clock — the driver's next action happens after it. Control must return
    // to the driver's manual resume loop, never jump to another fiber.
    ctx->batch->Push(h, t);
    return std::noop_coroutine();
  }
  ctx->pending = 0;
  ctx->eng->ScheduleAt(t, h);
  // This fiber is fully parked; if another event is due at this exact tick,
  // transfer straight to it instead of unwinding to the dispatch loop.
  return ctx->eng->NextRunnable();
}

// Sets ctx.stage for a scope (RAII), for PCM-style stage attribution.
class StageScope {
 public:
  StageScope(ExecCtx& ctx, Stage s) : ctx_(ctx), saved_(ctx.stage) { ctx_.stage = s; }
  ~StageScope() { ctx_.stage = saved_; }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  ExecCtx& ctx_;
  Stage saved_;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_EXEC_H_
