// Synchronization primitives in virtual time: spinlocks and the RPC
// completion gate.
//
// Because the entire simulation is serialized on one host thread, the *data*
// operations need no host atomics; these primitives model the timing of
// contention (lock handoff latency, cacheline ping-pong via the coherence
// model — the lock word's own address is the modeled cacheline).
#ifndef UTPS_SIM_SYNC_H_
#define UTPS_SIM_SYNC_H_

#include <coroutine>

#include "common/macros.h"
#include "sim/exec.h"

namespace utps::sim {

// Queued spinlock. Acquire charges an atomic RMW on the lock word; contended
// acquisitions park in a FIFO and are handed off in arrival order with a
// configurable handoff latency (models the cacheline transfer to the next
// spinner). The FIFO is intrusive: it links the parked AcquireAwaiters, which
// live in their suspended coroutines' frames until Release resumes them, so
// a lock owns no heap memory and contention allocates nothing.
class SimSpinlock {
 public:
  // Must be awaited: co_await lock.Acquire(ctx);
  struct AcquireAwaiter {
    SimSpinlock* l;
    ExecCtx* ctx;
    // Set only while parked.
    std::coroutine_handle<> parked{};
    AcquireAwaiter* next = nullptr;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      // Charge the atomic access on the lock word.
      const AccessResult r =
          ctx->mem != nullptr
              ? ctx->mem->Access(ctx->core, ctx->clos, ctx->stage, l->word(), 8,
                                 true, /*rmw=*/true)
              : AccessResult{15, false};
      const Tick t = ctx->eng->now() + ctx->pending + r.latency;
      ctx->pending = 0;
      ctx->fast_ops = 0;
      if (!l->held_) {
        l->held_ = true;
        l->owner_ = ctx->core;
        ctx->eng->ScheduleAt(t, h);
      } else {
        parked = h;
        (l->tail_ != nullptr ? l->tail_->next : l->head_) = this;
        l->tail_ = this;
      }
      return ctx->eng->NextRunnable();
    }
    void await_resume() const noexcept {}
  };

  SimSpinlock() = default;
  // Parked awaiters point at the lock.
  SimSpinlock(const SimSpinlock&) = delete;
  SimSpinlock& operator=(const SimSpinlock&) = delete;

  AcquireAwaiter Acquire(ExecCtx& ctx) { return AcquireAwaiter{this, &ctx}; }

  // Binds the cacheline the lock's coherence traffic is modeled at. A lock
  // embedded in a host-heap object must bind an arena word: modeled set
  // indices may not depend on host heap addresses (see sim/arena.h), or
  // cache behaviour varies with ASLR and allocator reuse.
  void BindModeledWord(const void* w) { word_ = w; }

  void Release(ExecCtx& ctx) {
    UTPS_DCHECK(held_);
    if (head_ != nullptr) {
      // Hand off directly to the next waiter after the transfer latency.
      AcquireAwaiter* w = head_;
      head_ = w->next;
      if (head_ == nullptr) {
        tail_ = nullptr;
      }
      const Tick handoff = ctx.mem != nullptr ? ctx.mem->config().coherence_ns : 40;
      ctx.eng->ScheduleAt(ctx.Now() + handoff, w->parked);
      // held_ stays true; ownership moves to the woken fiber.
      owner_ = kNoOwner;
    } else {
      held_ = false;
      owner_ = kNoOwner;
    }
  }

  bool held() const { return held_; }

 private:
  static constexpr CoreId kNoOwner = 0xffff;

  const void* word() const {
    return word_ != nullptr ? word_ : static_cast<const void*>(&held_);
  }

  // The modeled cacheline: the bound arena word, else the lock word itself.
  const void* word_ = nullptr;
  alignas(kCachelineBytes) bool held_ = false;
  CoreId owner_ = kNoOwner;
  // Parked acquirers, oldest first.
  AcquireAwaiter* head_ = nullptr;
  AcquireAwaiter* tail_ = nullptr;
};

// Request-id-guarded RPC completion: the one way a client learns that its
// response landed. The NIC completes it with the response's delivery tick,
// and the client either parks on Wait (one send, no retransmit) or polls
// ReadyAt from a timeout loop (the retry path, src/fault). A gate tolerates
// lost, duplicated and stale responses: the server side must check
// AcceptsResponse(rid) before touching client buffers, only the first
// matching completion latches, and a late response simply finds the gate
// re-armed for a newer request and is discarded at the NIC. rid 0 names a
// request that is never retransmitted.
class RpcGate {
 public:
  // Parks the caller until the response is ready; resumes at its delivery
  // tick. One waiter at a time.
  struct Awaiter {
    RpcGate* g;
    ExecCtx* ctx;
    bool await_ready() const noexcept { return g->ReadyAt(ctx->eng->now()); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      ctx->pending = 0;
      ctx->fast_ops = 0;
      if (g->completed_) {
        ctx->eng->ScheduleAt(g->ready_at_, h);
      } else {
        UTPS_DCHECK(!g->waiter_);
        g->waiter_ = h;
        g->waiter_eng_ = ctx->eng;
      }
      return ctx->eng->NextRunnable();
    }
    void await_resume() const noexcept {}
  };

  // Arm for a new request. Retransmits of the same request must NOT re-arm:
  // a completion raced in by an earlier attempt stays valid (same rid).
  void Arm(uint64_t rid) {
    UTPS_DCHECK(!waiter_);
    rid_ = rid;
    completed_ = false;
    ready_at_ = 0;
  }

  // Server-side response guard: deliver only while the gate is still armed
  // for this rid AND no earlier delivery completed it. Once completed, the
  // client may already have consumed its receive buffer (or exited), so a
  // late duplicate execution's response must be discarded wholesale — not
  // just its completion.
  bool AcceptsResponse(uint64_t rid) const {
    return rid == rid_ && !completed_;
  }

  // First matching completion wins; duplicates are ignored. A parked waiter
  // is woken at `at`; with none, nothing is scheduled.
  void Complete(Tick at) {
    if (completed_) {
      return;
    }
    completed_ = true;
    ready_at_ = at;
    if (waiter_) {
      waiter_eng_->ScheduleAt(ready_at_, waiter_);
      waiter_ = {};
    }
  }

  Awaiter Wait(ExecCtx& ctx) { return Awaiter{this, &ctx}; }

  bool ReadyAt(Tick now) const { return completed_ && ready_at_ <= now; }
  Tick ready_at() const { return ready_at_; }

 private:
  uint64_t rid_ = 0;
  bool completed_ = false;
  Tick ready_at_ = 0;
  std::coroutine_handle<> waiter_{};
  Engine* waiter_eng_ = nullptr;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_SYNC_H_
