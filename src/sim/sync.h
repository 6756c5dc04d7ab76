// Synchronization primitives in virtual time: spinlocks and one-shot
// completions.
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

// One-shot completion: a client fiber waits for its response; the server/NIC
// completes it with a delivery timestamp.
class OneShot {
 public:
  struct Awaiter {
    OneShot* o;
    ExecCtx* ctx;
    bool await_ready() const noexcept {
      return o->ready_ && o->ready_at_ <= ctx->eng->now();
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      ctx->pending = 0;
      ctx->fast_ops = 0;
      if (o->ready_) {
        ctx->eng->ScheduleAt(o->ready_at_, h);
      } else {
        UTPS_DCHECK(!o->waiter_);
        o->waiter_ = h;
        o->waiter_eng_ = ctx->eng;
      }
      return ctx->eng->NextRunnable();
    }
    void await_resume() const noexcept {}
  };

  Awaiter Wait(ExecCtx& ctx) { return Awaiter{this, &ctx}; }

  void Complete(Engine& eng, Tick at) {
    UTPS_DCHECK(!ready_);
    ready_ = true;
    ready_at_ = at < eng.now() ? eng.now() : at;
    if (waiter_) {
      waiter_eng_->ScheduleAt(ready_at_, waiter_);
      waiter_ = {};
    }
  }

  void Reset() {
    ready_ = false;
    ready_at_ = 0;
    UTPS_DCHECK(!waiter_);
  }

  bool ready() const { return ready_; }
  Tick ready_at() const { return ready_at_; }

 private:
  bool ready_ = false;
  Tick ready_at_ = 0;
  std::coroutine_handle<> waiter_{};
  Engine* waiter_eng_ = nullptr;
};

// Multi-shot, request-id-guarded RPC completion for the fault-tolerant
// client path (src/fault). Unlike OneShot (single-assignment, waiter-based),
// a gate tolerates lost, duplicated, and stale responses: the server side
// must check Accepts(rid) before touching client buffers, only the first
// matching completion latches, and the client polls ReadyAt from a timeout
// loop instead of blocking on a waiter — a late response simply finds the
// gate re-armed for a newer request and is discarded at the NIC.
class RpcGate {
 public:
  // Arm for a new request. Retransmits of the same request must NOT re-arm:
  // a completion raced in by an earlier attempt stays valid (same rid).
  void Arm(uint64_t rid) {
    UTPS_DCHECK(rid != 0);
    rid_ = rid;
    completed_ = false;
    ready_at_ = 0;
  }

  bool Accepts(uint64_t rid) const { return rid != 0 && rid == rid_; }

  // Server-side response guard: deliver only while the gate is still armed
  // for this rid AND no earlier delivery completed it. Once completed, the
  // client may already have consumed its receive buffer (or exited), so a
  // late duplicate execution's response must be discarded wholesale — not
  // just its completion.
  bool AcceptsResponse(uint64_t rid) const {
    return Accepts(rid) && !completed_;
  }

  // First matching completion wins; duplicates are ignored.
  void Complete(Tick at) {
    if (!completed_) {
      completed_ = true;
      ready_at_ = at;
    }
  }

  bool ReadyAt(Tick now) const { return completed_ && ready_at_ <= now; }
  Tick ready_at() const { return ready_at_; }
  uint64_t rid() const { return rid_; }

 private:
  uint64_t rid_ = 0;
  bool completed_ = false;
  Tick ready_at_ = 0;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_SYNC_H_
