// Batched coroutine driver (the paper's §3.3 "batched indexing").
//
// RunBatch drives a set of Task<void> coroutines on one simulated core,
// resuming whichever parked coroutine's memory fill completes first. While a
// coroutine is stalled on an LLC/DRAM fill, the core executes another one —
// overlapping up to batch-size outstanding misses, exactly the benefit the
// paper obtains from prefetch + coroutine switching. With a batch of one this
// degenerates to serial execution (full stall per miss), which is what the
// Figure 12 ablation sweeps.
#ifndef UTPS_SIM_BATCH_H_
#define UTPS_SIM_BATCH_H_

#include <coroutine>

#include "common/macros.h"
#include "sim/exec.h"
#include "sim/task.h"

namespace utps::sim {

// Resumes `h`, one of a batch's coroutines, on ctx's core and charges the
// context switch. The engine's symmetric-transfer fast path stays off for the
// resume, so the coroutine's next suspension (a park in the batch, an
// engine-level wait such as a lock, or completion) comes straight back to the
// driver.
inline void ResumeBatched(ExecCtx& ctx, std::coroutine_handle<> h,
                          Tick switch_ns) {
  ctx.Charge(switch_ns);
  ctx.eng->EnterNestedResume();
  h.resume();
  ctx.eng->ExitNestedResume();
}

// Takes the parked coroutine whose fill completes first; `ctl` must not be
// empty.
inline BatchCtl::Parked TakeEarliest(BatchCtl& ctl) {
  uint32_t best = 0;
  for (uint32_t i = 1; i < ctl.count; i++) {
    if (ctl.waiting[i].resume_at < ctl.waiting[best].resume_at) {
      best = i;
    }
  }
  return ctl.Take(best);
}

// Drives `tasks[0..n)` to completion. Tasks must suspend only through
// batchable ExecCtx awaitables (memory accesses, yields) or through
// engine-level waits (locks), both of which are handled.
//
// Context-switch cost per resume is charged (`switch_ns`): stackless
// coroutine switches are single-digit ns per the paper.
//
// The tasks' StageScopes interleave on the one ctx and so restore out of
// order; the caller's stage is restored on return, or the batch's last
// restored label would book the caller's later time.
inline Task<void> RunBatch(ExecCtx& ctx, Task<void>* tasks, unsigned n,
                           Tick switch_ns = 4) {
  UTPS_DCHECK(ctx.batch == nullptr);
  const Stage entry_stage = ctx.stage;
  BatchCtl ctl;
  ctx.batch = &ctl;
  // A parked handle may belong to a coroutine nested inside a task, so task
  // completion is tracked by scanning the tasks' own (outermost) handles.
  const auto count_live = [&] {
    unsigned live = 0;
    for (unsigned i = 0; i < n; i++) {
      if (!tasks[i].handle().done()) {
        live++;
      }
    }
    return live;
  };
  // Start every task; each runs until its first stall (parked into ctl),
  // an engine-level wait (lock), or completion.
  for (unsigned i = 0; i < n; i++) {
    ResumeBatched(ctx, tasks[i].handle(), switch_ns);
  }
  while (count_live() > 0) {
    if (ctl.Empty()) {
      // All remaining tasks are blocked at engine level (e.g. lock waits);
      // poll until one parks itself back.
      ctx.batch = nullptr;
      co_await ctx.Delay(20);
      ctx.batch = &ctl;
      continue;
    }
    const BatchCtl::Parked p = TakeEarliest(ctl);
    if (p.resume_at > ctx.Now()) {
      ctx.batch = nullptr;
      co_await ctx.Delay(p.resume_at - ctx.Now());
      ctx.batch = &ctl;
    }
    ResumeBatched(ctx, p.h, switch_ns);
  }
  ctx.batch = nullptr;
  ctx.stage = entry_stage;
}

}  // namespace utps::sim

#endif  // UTPS_SIM_BATCH_H_
