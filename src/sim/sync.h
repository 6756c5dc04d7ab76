// Synchronization primitives in virtual time: spinlocks, the parked-fiber
// wake slot and the RPC completion gate built on it.
//
// Because the entire simulation is serialized on one host thread, the *data*
// operations need no host atomics; these primitives model the timing of
// contention (lock handoff latency, cacheline ping-pong via the coherence
// model — the lock word's own address is the modeled cacheline).
#ifndef UTPS_SIM_SYNC_H_
#define UTPS_SIM_SYNC_H_

#include <coroutine>
#include <utility>

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

// One parked fiber, resumed once: at the earliest tick WakeAt asked for
// while it was parked, or at the tick WakeFinal names, never before the
// fiber's local time when it parked. The engine has no cancel, so each
// WakeAt that comes earlier than the tick already armed schedules the
// slot's relay fiber once more; the relay may have several events pending,
// and one that finds its park over, or an earlier tick already served,
// resumes no one. The relay is spawned at first use, so the steady state
// allocates nothing. It points at the slot: a slot must not move once used
// and must outlive the engine's last Run.
class WakeSlot {
 public:
  static constexpr Tick kNever = ~Tick{0};

  WakeSlot() = default;
  WakeSlot(const WakeSlot&) = delete;
  WakeSlot& operator=(const WakeSlot&) = delete;

  // Parks the caller; WakeAt(`at`) is asked for at once (kNever: nothing).
  struct Awaiter {
    WakeSlot* s;
    ExecCtx* ctx;
    Tick at;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      s->Park(ctx, h);
      s->WakeAt(at);
      return ctx->eng->NextRunnable();
    }
    void await_resume() const noexcept {}
  };
  Awaiter Wait(ExecCtx& ctx, Tick at = kNever) { return {this, &ctx, at}; }

  bool parked() const { return static_cast<bool>(waiter_); }

  void Park(ExecCtx* ctx, std::coroutine_handle<> h) {
    UTPS_DCHECK(!waiter_ && (!relay_ || eng_ == ctx->eng));
    eng_ = ctx->eng;
    waiter_ = h;
    floor_ = eng_->now() + ctx->pending;
    wake_at_ = kNever;
    ctx->pending = 0;
    ctx->fast_ops = 0;
  }

  void WakeAt(Tick t) {
    if (!waiter_) {
      return;
    }
    t = t < floor_ ? floor_ : t;
    if (t >= wake_at_) {
      return;
    }
    wake_at_ = t;
    if (t < armed_at_) {  // else the armed event comes first and re-arms
      armed_at_ = t;
      if (relay_) {
        eng_->ScheduleAt(t, relay_);
      } else {
        eng_->Spawn(RelayMain(this), t);
      }
    }
  }

  // Like WakeAt, with one direct event, for a caller that knows no later
  // request can be earlier than `t`.
  void WakeFinal(Tick t) {
    if (waiter_ && t <= wake_at_) {
      eng_->ScheduleAt(t < floor_ ? floor_ : t, std::exchange(waiter_, {}));
      wake_at_ = kNever;
    }
  }

 private:
  // Runs each wake-up's check once the relay is suspended, so it can hand
  // the engine the waiter to transfer to.
  struct RelayStep {
    WakeSlot* s;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      s->relay_ = h;
      return s->OnRelay();
    }
    void await_resume() const noexcept {}
  };
  static Fiber RelayMain(WakeSlot* s) {
    for (;;) {
      co_await RelayStep{s};
    }
  }

  // An event at or past the armed tick stands in for the armed one (under
  // DST jitter two events can swap).
  std::coroutine_handle<> OnRelay() {
    const Tick now = eng_->now();
    if (armed_at_ <= now) {
      armed_at_ = kNever;
    }
    if (waiter_ && wake_at_ <= now) {
      wake_at_ = kNever;
      return std::exchange(waiter_, {});
    }
    if (waiter_ && wake_at_ < armed_at_) {  // a later park's tick
      armed_at_ = wake_at_;
      eng_->ScheduleAt(wake_at_, relay_);
    }
    return eng_->NextRunnable();
  }

  Engine* eng_ = nullptr;
  std::coroutine_handle<> waiter_{};
  std::coroutine_handle<> relay_{};
  Tick floor_ = 0;
  Tick wake_at_ = kNever;
  Tick armed_at_ = kNever;  // the earliest tick a relay event is armed for
};

// Request-id-guarded RPC completion: the one way a client learns that its
// response landed. The NIC completes it with the response's delivery tick.
// The client either parks on Wait until then (one send, no retransmit) or on
// WaitUntil, which also ends at a deadline (the retry paths: src/fault,
// src/cluster). A gate tolerates lost, duplicated and stale responses: the
// server side must check AcceptsResponse(rid) before touching client
// buffers, only the first matching completion latches, and a late response
// simply finds the gate re-armed for a newer request and is discarded at the
// NIC. rid 0 names a request that is never retransmitted.
class RpcGate {
 public:
  // Parks the caller until the response is ready or `deadline` passes
  // (kNever for Wait), whichever is first, and resumes it once, then. Yields
  // whether the response landed; one landing later stays for the arm's next
  // wait. One waiter at a time.
  struct Awaiter {
    RpcGate* g;
    ExecCtx* ctx;
    Tick deadline;
    bool await_ready() const noexcept {
      return g->ReadyAt(ctx->Now()) || ctx->Now() >= deadline;
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      g->slot_.Park(ctx, h);
      if (g->completed_ && g->ready_at_ <= deadline) {
        g->slot_.WakeFinal(g->ready_at_);
      } else {
        g->slot_.WakeAt(deadline);
      }
      return ctx->eng->NextRunnable();
    }
    bool await_resume() const noexcept { return g->ReadyAt(ctx->Now()); }
  };

  // Arm for a new request. Retransmits of the same request must NOT re-arm:
  // a completion raced in by an earlier attempt stays valid (same rid).
  void Arm(uint64_t rid) {
    UTPS_DCHECK(!slot_.parked());
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
  // is woken at `at` unless its deadline comes first; with none, nothing is
  // scheduled. A loop that polls the gate instead of waiting on it (a
  // cluster worker's replication slots) is woken at `at` through the slot
  // named by WakeAlso.
  void Complete(Tick at) {
    if (completed_) {
      return;
    }
    completed_ = true;
    ready_at_ = at;
    slot_.WakeFinal(at);
    if (also_ != nullptr) {
      also_->WakeAt(at);
    }
  }

  // Also wakes `s`'s parked fiber (if any) at each completion's tick.
  void WakeAlso(WakeSlot* s) { also_ = s; }

  // Ends a parked WaitUntil now, as if its deadline had passed (the caller
  // crashed). A no-op when nobody waits.
  void Expire(Tick now) { slot_.WakeAt(now); }

  Awaiter Wait(ExecCtx& ctx) { return {this, &ctx, WakeSlot::kNever}; }
  Awaiter WaitUntil(ExecCtx& ctx, Tick deadline) {
    return {this, &ctx, deadline};
  }

  bool ReadyAt(Tick now) const { return completed_ && ready_at_ <= now; }
  bool completed() const { return completed_; }
  Tick ready_at() const { return ready_at_; }

 private:
  uint64_t rid_ = 0;
  bool completed_ = false;
  Tick ready_at_ = 0;
  WakeSlot slot_;
  WakeSlot* also_ = nullptr;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_SYNC_H_
