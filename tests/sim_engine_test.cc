// Tests for the discrete-event engine, coroutine task types, ExecCtx
// awaitables, and synchronization primitives.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/exec.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace utps::sim {
namespace {

Fiber DelayFiber(ExecCtx* ctx, std::vector<Tick>* log) {
  co_await ctx->Delay(10);
  log->push_back(ctx->eng->now());
  co_await ctx->Delay(25);
  log->push_back(ctx->eng->now());
}

TEST(Engine, DelayAdvancesVirtualTime) {
  Engine eng;
  ExecCtx ctx{.eng = &eng};
  std::vector<Tick> log;
  eng.Spawn(DelayFiber(&ctx, &log));
  eng.RunToQuiescence(kSec);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 10u);
  EXPECT_EQ(log[1], 35u);
  EXPECT_EQ(eng.live_fibers(), 0u);
}

Fiber ChargeFiber(ExecCtx* ctx, Tick* done_at) {
  ctx->Charge(7);
  ctx->Charge(3);
  co_await ctx->Yield();  // flushes pending
  *done_at = ctx->eng->now();
}

TEST(Engine, ChargeAccumulatesIntoNextSuspension) {
  Engine eng;
  ExecCtx ctx{.eng = &eng};
  Tick done_at = 0;
  eng.Spawn(ChargeFiber(&ctx, &done_at));
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(done_at, 10u);
}

Task<int> NestedAdd(ExecCtx* ctx, int a, int b) {
  co_await ctx->Delay(5);
  co_return a + b;
}

Task<int> NestedOuter(ExecCtx* ctx) {
  int x = co_await NestedAdd(ctx, 1, 2);
  int y = co_await NestedAdd(ctx, x, 10);
  co_return y;
}

Fiber NestedFiber(ExecCtx* ctx, int* out, Tick* at) {
  *out = co_await NestedOuter(ctx);
  *at = ctx->eng->now();
}

TEST(Engine, NestedTasksReturnValuesAndAccumulateTime) {
  Engine eng;
  ExecCtx ctx{.eng = &eng};
  int out = 0;
  Tick at = 0;
  eng.Spawn(NestedFiber(&ctx, &out, &at));
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(out, 13);
  EXPECT_EQ(at, 10u);
}

// Two fibers interleave deterministically in timestamp order.
Fiber Ticker(ExecCtx* ctx, Tick period, char tag, std::vector<char>* order) {
  for (int i = 0; i < 3; i++) {
    co_await ctx->Delay(period);
    order->push_back(tag);
  }
}

TEST(Engine, DeterministicInterleaving) {
  Engine eng;
  ExecCtx a{.eng = &eng};
  ExecCtx b{.eng = &eng};
  std::vector<char> order;
  eng.Spawn(Ticker(&a, 10, 'a', &order));
  eng.Spawn(Ticker(&b, 15, 'b', &order));
  eng.RunToQuiescence(kSec);
  // a: 10,20,30  b: 15,30,45. At t=30, 'b' scheduled its event first (at
  // t=15, before 'a' scheduled its own at t=20), so FIFO seq puts b first.
  EXPECT_EQ((std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b'}), order);
}

TEST(Engine, RunStopsAtLimitAndResumes) {
  Engine eng;
  ExecCtx ctx{.eng = &eng};
  std::vector<Tick> log;
  eng.Spawn(DelayFiber(&ctx, &log));
  eng.Run(12);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(eng.now(), 12u);
  eng.Run(1000);
  EXPECT_EQ(log.size(), 2u);
}

// A Fiber that is created but never handed to Engine::Spawn must destroy its
// coroutine frame (regression: ~Fiber() used to be defaulted, leaking the
// frame). Coroutine parameters are copied into the frame, so a counting
// parameter type observes whether the frame was destroyed — this catches the
// leak even though FramePool free-listing would hide it from ASan.
struct Token {
  int* live;
  explicit Token(int* l) : live(l) { (*live)++; }
  Token(const Token& o) : live(o.live) { (*live)++; }
  ~Token() { (*live)--; }
};

Fiber TokenFiber(Token t) {
  (void)t;
  co_return;
}

TEST(Engine, DroppedFiberDestroysItsFrame) {
  int live = 0;
  {
    Fiber f = TokenFiber(Token{&live});
    EXPECT_GT(live, 0);  // frame holds a parameter copy
  }
  EXPECT_EQ(live, 0);
}

TEST(Engine, MoveAssignedOverFiberDestroysItsFrame) {
  int live_a = 0;
  int live_b = 0;
  {
    Fiber f = TokenFiber(Token{&live_a});
    f = TokenFiber(Token{&live_b});  // must destroy a's frame
    EXPECT_EQ(live_a, 0);
    EXPECT_GT(live_b, 0);
  }
  EXPECT_EQ(live_b, 0);
}

TEST(Engine, SpawnedFiberStillRunsAfterDtorFix) {
  int live = 0;
  bool ran = false;
  {
    Engine eng;
    auto fib = [](Token t, bool* flag) -> Fiber {
      (void)t;
      *flag = true;
      co_return;
    };
    eng.Spawn(fib(Token{&live}, &ran));  // Spawn takes ownership via release()
    eng.RunToQuiescence(kSec);
    EXPECT_TRUE(ran);
  }
  // The engine owns spawned frames and destroys them in its destructor; no
  // double-destroy from the (now frame-destroying) ~Fiber.
  EXPECT_EQ(live, 0);
}

// Fibers scheduled for the same tick resume in scheduling (spawn) order: the
// event heap breaks timestamp ties with a FIFO sequence number.
Fiber OrderProbe(ExecCtx* ctx, int id, std::vector<int>* order) {
  order->push_back(id);            // first resumption, all at t=0
  co_await ctx->Delay(10);
  order->push_back(id);            // all re-resume at t=10
}

TEST(Engine, SameTickEventsResumeInFifoOrder) {
  Engine eng;
  constexpr int kN = 8;
  std::vector<ExecCtx> ctxs(kN);
  std::vector<int> order;
  for (int i = 0; i < kN; i++) {
    ctxs[i] = ExecCtx{.eng = &eng};
    eng.Spawn(OrderProbe(&ctxs[i], i, &order));
  }
  eng.RunToQuiescence(kSec);
  ASSERT_EQ(order.size(), 2u * kN);
  for (int i = 0; i < kN; i++) {
    EXPECT_EQ(order[i], i) << "first round, slot " << i;
    EXPECT_EQ(order[kN + i], i) << "second round, slot " << i;
  }
}

TEST(Engine, StatsCountEventsAndPeakHeap) {
  Engine eng;
  ExecCtx ctx{.eng = &eng};
  std::vector<Tick> log;
  eng.Spawn(DelayFiber(&ctx, &log));
  eng.RunToQuiescence(kSec);
  const Engine::Stats& s = eng.stats();
  // Spawn + two delays = 3 scheduled and 3 processed resumptions.
  EXPECT_EQ(s.events_scheduled, 3u);
  EXPECT_EQ(s.events_processed, 3u);
  EXPECT_GE(s.peak_heap, 1u);
}

// Events beyond the near-future bucket ring's window (8192 ns) go through
// the far heap; both classes must still dispatch in global timestamp order,
// including ties exactly at the ring boundary.
Fiber StampAt(ExecCtx* ctx, Tick delay, int id,
              std::vector<std::pair<Tick, int>>* log) {
  co_await ctx->Delay(delay);
  log->emplace_back(ctx->eng->now(), id);
}

TEST(Engine, FarHorizonEventsInterleaveWithNearOnes) {
  Engine eng;
  constexpr int kN = 6;
  const Tick delays[kN] = {50, 100000, 8191, 8192, 20000, 3};
  std::vector<ExecCtx> ctxs(kN);
  std::vector<std::pair<Tick, int>> log;
  for (int i = 0; i < kN; i++) {
    ctxs[i] = ExecCtx{.eng = &eng};
    eng.Spawn(StampAt(&ctxs[i], delays[i], i, &log));
  }
  eng.RunToQuiescence(kSec);
  const std::vector<std::pair<Tick, int>> expected = {
      {3, 5}, {50, 0}, {8191, 2}, {8192, 3}, {20000, 4}, {100000, 1}};
  EXPECT_EQ(expected, log);
}

// Same-tick resumptions hand off fiber-to-fiber via symmetric transfer; the
// chain must preserve FIFO seq order and survive chains far longer than the
// engine's handoff depth cap (which periodically bounces through the
// dispatch loop).
Fiber ZeroChain(ExecCtx* ctx, int iters, int id, std::vector<int>* log) {
  for (int i = 0; i < iters; i++) {
    co_await ctx->Delay(0);
    log->push_back(id);
  }
}

TEST(Engine, LongSameTickHandoffChainKeepsFifoOrder) {
  Engine eng;
  constexpr int kN = 3;
  constexpr int kIters = 500;  // 1500 same-tick events >> handoff depth cap
  std::vector<ExecCtx> ctxs(kN);
  std::vector<int> log;
  for (int i = 0; i < kN; i++) {
    ctxs[i] = ExecCtx{.eng = &eng};
    eng.Spawn(ZeroChain(&ctxs[i], kIters, i, &log));
  }
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(eng.now(), 0u);  // everything ran at virtual time zero
  EXPECT_GT(eng.stats().handoffs, 0u);
  ASSERT_EQ(log.size(), size_t{kN} * kIters);
  for (size_t i = 0; i < log.size(); i++) {
    ASSERT_EQ(log[i], static_cast<int>(i % kN)) << "position " << i;
  }
}

// With perturbation enabled the symmetric-transfer fast path must stand
// down: dispatch order is the perturbed (t, prio, seq) order, which the
// handoff shortcut cannot honour.
TEST(Engine, PerturbationDisablesHandoffFastPath) {
  Engine eng;
  Engine::PerturbConfig pcfg;
  pcfg.seed = 1234;
  pcfg.permute_ties = true;
  eng.EnablePerturbation(pcfg);
  constexpr int kN = 3;
  std::vector<ExecCtx> ctxs(kN);
  std::vector<int> log;
  for (int i = 0; i < kN; i++) {
    ctxs[i] = ExecCtx{.eng = &eng};
    eng.Spawn(ZeroChain(&ctxs[i], 100, i, &log));
  }
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(log.size(), size_t{kN} * 100);
  EXPECT_EQ(eng.stats().handoffs, 0u);
}

// Teardown of blocked fibers must not leak or crash.
Fiber BlockedForever(ExecCtx* ctx, RpcGate* never, bool* destroyed) {
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  } sentinel{destroyed};
  co_await never->Wait(*ctx);
}

TEST(Engine, TeardownDestroysBlockedFibers) {
  bool destroyed = false;
  {
    Engine eng;
    ExecCtx ctx{.eng = &eng};
    RpcGate never;  // never completed
    eng.Spawn(BlockedForever(&ctx, &never, &destroyed));
    eng.Run(100);
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

Fiber BlockedUntil(ExecCtx* ctx, RpcGate* gate, Tick deadline) {
  co_await gate->WaitUntil(*ctx, deadline);
}

// A deadline wait parks its caller and leaves a relay fiber sleeping to the
// deadline. Tearing the engine down with both pending is clean whichever of
// gate and engine goes first (ASan checks the frames).
TEST(Engine, TeardownWithParkedDeadlineWaiter) {
  {
    RpcGate outlives;
    Engine eng;
    ExecCtx ctx{.eng = &eng};
    outlives.Arm(1);
    eng.Spawn(BlockedUntil(&ctx, &outlives, 5000));
    eng.Run(100);
  }
  {
    Engine eng;
    ExecCtx ctx{.eng = &eng};
    RpcGate dies_first;
    dies_first.Arm(1);
    eng.Spawn(BlockedUntil(&ctx, &dies_first, 5000));
    eng.Run(100);
    EXPECT_EQ(eng.live_fibers(), 2u);  // the caller and its relay
  }
}

#ifndef NDEBUG
Fiber NopFiber() { co_return; }

TEST(EngineDeath, ScheduleIntoSealedEpochAborts) {
  EXPECT_DEATH(
      {
        Engine eng;
        eng.Run(100);  // epochs [0, 100] are dispatched and sealed
        Fiber f = NopFiber();
        eng.ScheduleAt(50, f.release());
      },
      "sealed");
}
#endif

// Spawn's clamp path stays legal: a start_at in the past rounds up to now
// instead of tripping the sealed-epoch guard.
TEST(Engine, SpawnInThePastClampsToNow) {
  Engine eng;
  eng.Run(100);
  std::vector<Tick> log;
  ExecCtx ctx{.eng = &eng};
  eng.Spawn(DelayFiber(&ctx, &log), /*start_at=*/5);
  eng.Run(kSec);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 110u);
}

// --------------------------------------------------------------- spinlock
Fiber LockUser(ExecCtx* ctx, SimSpinlock* lock, int* shared, int iters,
               Tick hold_ns) {
  for (int i = 0; i < iters; i++) {
    co_await lock->Acquire(*ctx);
    const int v = *shared;
    co_await ctx->Delay(hold_ns);
    *shared = v + 1;
    lock->Release(*ctx);
    co_await ctx->Yield();
  }
}

TEST(Sync, SpinlockSerializesCriticalSections) {
  Engine eng;
  ExecCtx c1{.eng = &eng, .core = 0};
  ExecCtx c2{.eng = &eng, .core = 1};
  SimSpinlock lock;
  int shared = 0;
  eng.Spawn(LockUser(&c1, &lock, &shared, 100, 5));
  eng.Spawn(LockUser(&c2, &lock, &shared, 100, 5));
  eng.RunToQuiescence(kSec);
  // Without mutual exclusion the read-delay-write pattern would lose updates.
  EXPECT_EQ(shared, 200);
}

Fiber ArrivingAcquirer(ExecCtx* ctx, SimSpinlock* lock, Tick arrive, int id,
                       std::vector<int>* granted) {
  co_await ctx->Delay(arrive);
  co_await lock->Acquire(*ctx);
  granted->push_back(id);
  co_await ctx->Delay(10);
  lock->Release(*ctx);
}

TEST(Sync, SpinlockGrantsContendersInArrivalOrder) {
  constexpr int kN = 100;
  Engine eng;
  SimSpinlock lock;
  std::vector<ExecCtx> ctxs(kN, ExecCtx{.eng = &eng});
  std::vector<int> granted;
  // Spawned last-arriving first, so spawn order is not arrival order. Each
  // holds the lock 10 ns and the next arrives 3 ns later: all but the first
  // park, and the handoffs must follow their arrival.
  for (int i = kN - 1; i >= 0; i--) {
    ctxs[i].core = static_cast<CoreId>(i);
    eng.Spawn(ArrivingAcquirer(&ctxs[i], &lock, 1 + 3 * static_cast<Tick>(i),
                               i, &granted));
  }
  eng.RunToQuiescence(kSec);
  ASSERT_EQ(granted.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; i++) {
    EXPECT_EQ(granted[i], i);
  }
  EXPECT_FALSE(lock.held());
}

Fiber GateWaiter(ExecCtx* ctx, RpcGate* gate, Tick* observed) {
  co_await gate->Wait(*ctx);
  *observed = ctx->eng->now();
}

Fiber GateCompleter(ExecCtx* ctx, RpcGate* gate) {
  co_await ctx->Delay(50);
  gate->Complete(ctx->Now() + 100);
}

// A parked waiter wakes at the completion's delivery tick, scheduled by the
// completion itself: one event.
TEST(Sync, GateWakesAtCompletionTime) {
  Engine eng;
  ExecCtx a{.eng = &eng};
  ExecCtx b{.eng = &eng};
  RpcGate gate;
  Tick observed = 0;
  eng.Spawn(GateWaiter(&a, &gate, &observed));
  eng.Spawn(GateCompleter(&b, &gate));
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(observed, 150u);
}

TEST(Sync, GateCompletedBeforeWaitIsImmediate) {
  Engine eng;
  ExecCtx a{.eng = &eng};
  RpcGate gate;
  gate.Complete(5);
  Tick observed = 0;
  eng.Spawn(GateWaiter(&a, &gate, &observed));
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(observed, 5u);
}

// A completion with no parked waiter schedules nothing: a caller that has
// not parked yet finds the response on the gate.
TEST(Sync, GateCompletionWithoutWaiterSchedulesNothing) {
  Engine eng;
  RpcGate gate;
  gate.Arm(7);
  gate.Complete(40);
  EXPECT_EQ(eng.stats().events_scheduled, 0u);
  EXPECT_FALSE(gate.ReadyAt(39));
  EXPECT_TRUE(gate.ReadyAt(40));
}

}  // namespace
}  // namespace utps::sim
