// KV item layout and the per-item concurrency control the paper describes in
// §3.3 ("Concurrency control"): lock + version bits embedded in each item,
// atomic in-place stores for values of 8 bytes or fewer, seqlock-style
// lock-free reads with version validation for larger values.
//
// The ctrl word is a classic seqlock: even = stable, odd = write in progress.
// Writers bump it before and after the update; readers retry if the version
// changed or was odd.
#ifndef UTPS_STORE_ITEM_H_
#define UTPS_STORE_ITEM_H_

#include <cstdint>
#include <cstring>

#include "check/mutation.h"
#include "common/macros.h"
#include "sim/exec.h"
#include "sim/task.h"
#include "store/kv.h"

namespace utps {

struct Item {
  uint64_t ctrl = 0;  // seqlock word: odd = locked/writing
  Key key = 0;
  uint32_t value_len = 0;
  uint32_t capacity = 0;
  // Value bytes follow inline.

  uint8_t* value() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* value() const { return reinterpret_cast<const uint8_t*>(this + 1); }

  static size_t AllocSize(uint32_t capacity) { return sizeof(Item) + capacity; }
};

static_assert(sizeof(Item) == 24, "item header layout");

// Set on an item's ctrl word when a grown PUT replaces it in the index
// (KvIndex::CoReplace), at the instant the index stops pointing at it. The
// item is never freed, so a pointer to it stays safe to follow, but a writer
// that finds the bit must look the key up again, and a reader that kept the
// pointer past a lookup must not serve its value. μTPS's hot table
// (hotset/hotset.h) keeps such pointers until its next refresh. Seqlock
// bumps never carry into bit 63.
constexpr uint64_t kItemRetired = uint64_t{1} << 63;

inline bool ItemRetired(const Item* it) { return (it->ctrl & kItemRetired) != 0; }
inline void RetireItem(Item* it) { it->ctrl |= kItemRetired; }

// Contention tracking: spinning on a contended lock word degrades the
// holder's and the next acquirer's progress roughly linearly in the number
// of spinners (cacheline ping-pong steals the line from the owner). We track
// a per-item saturation counter (hashed table; host-side bookkeeping) that
// failed CAS attempts bump and successful acquisitions pay for and decay.
namespace item_internal {
inline uint8_t g_contention[1 << 16];
inline uint8_t& ContentionOf(const void* p) {
  return g_contention[(reinterpret_cast<uintptr_t>(p) >> 5) & 0xffff];
}
}  // namespace item_internal

// Clears the contention tracking table; the experiment harness calls this
// between measured runs so one run's lock history cannot leak into the next
// (determinism across runs).
inline void ResetItemContention() {
  std::memset(item_internal::g_contention, 0, sizeof(item_internal::g_contention));
}

// Reads the item's value into dst, which holds `cap` bytes, and returns its
// length. A longer value is validated but not copied: it stays as read until
// the caller next suspends (ItemReadDirect copies it). Lock-free, retries
// while a writer is active.
inline sim::Task<uint32_t> ItemRead(sim::ExecCtx& ctx, const Item* it, void* dst,
                                    uint32_t cap = UINT32_MAX) {
  if (UTPS_UNLIKELY(ctx.FastForward())) {
    // Functional apply (DESIGN.md §12): one flat-charged access, then a
    // synchronous copy. The seqlock protocol is still honored — a detailed
    // writer parked odd across the mode switch forces a wait — and because
    // no suspension separates the parity check from the memcpy, the copy can
    // never be torn by another fiber.
    for (;;) {
      co_await ctx.Read(&it->ctrl, sizeof(Item) + it->value_len);
      if ((it->ctrl & 1) == 0) {
        const uint32_t len = it->value_len;
        std::memcpy(dst, it->value(), len <= cap ? len : 0);
        co_return len;
      }
      co_await ctx.Delay(30);
    }
  }
  for (;;) {
    co_await ctx.Read(&it->ctrl, sizeof(Item));
    const uint64_t v1 = it->ctrl;
    if (v1 & 1) {
      co_await ctx.Delay(30);  // writer in progress
      continue;
    }
    const uint32_t len = it->value_len;
    ctx.Charge(8 + len / 16);  // copy compute cost (~16 B/ns streaming)
    if (len > 8) {
      co_await ctx.Read(it->value(), len);
    }
    // The copy and the version recheck happen at the same simulated instant
    // (after the last modeled access), so a torn copy is always detected.
    std::memcpy(dst, it->value(), len <= cap ? len : 0);
    const uint64_t v2 = it->ctrl;
    if (v1 == v2) {
      co_return len;
    }
    co_await ctx.Yield();
  }
}

// Writes `len` bytes into the item. Values of <= 8 bytes are stored with a
// single atomic write (no locking, as in the paper); larger values take the
// item seqlock. Returns false, having written nothing, when the item is
// retired at the instant the write would take effect.
inline sim::Task<bool> ItemWrite(sim::ExecCtx& ctx, Item* it, const void* src,
                                 uint32_t len) {
  UTPS_DCHECK(len <= it->capacity);
  if (UTPS_UNLIKELY(ctx.FastForward())) {
    // Functional apply: take the value in one synchronous step (no awaits
    // between the parity check and the stores, so nothing can observe a torn
    // item), then publish with ctrl += 2 — parity stays even and the version
    // bump makes any detailed reader parked mid-validation retry.
    for (;;) {
      co_await ctx.Access(&it->ctrl, sizeof(Item) + len, /*write=*/true);
      if ((it->ctrl & 1) == 0) {
        break;
      }
      co_await ctx.Delay(30);  // detailed writer parked odd across the switch
    }
    if (ItemRetired(it)) {
      co_return false;
    }
    std::memcpy(it->value(), src, len);
    it->value_len = len;
    it->ctrl += 2;
    co_return true;
  }
  if (len <= 8) {
    if (ItemRetired(it)) {
      co_return false;
    }
    std::memcpy(it->value(), src, len);
    it->value_len = len;
    co_await ctx.Access(&it->ctrl, sizeof(Item), /*write=*/true);
    co_return true;
  }
  ctx.Charge(8 + len / 16);  // copy compute cost
  // Acquire the embedded lock bit: state is mutated synchronously (the CAS
  // linearizes when the code runs), time is charged by the awaited RMW.
  // Contended writers back off exponentially (bounded), like any production
  // spin loop; this is also what keeps the simulated contention cost scaling
  // with the number of spinners rather than with raw retry frequency.
  uint8_t& contention = item_internal::ContentionOf(it);
  for (sim::Tick backoff = 40;;) {
    if (ItemRetired(it)) {
      co_return false;
    }
    const bool locked = (it->ctrl & 1) != 0;
    if (!locked && !mut::DropSeqlockBump()) {
      it->ctrl++;  // even -> odd: write in progress
    }
    co_await ctx.Rmw(&it->ctrl);
    if (!locked) {
      // Pay for the line ping-pong caused by concurrent spinners, then decay.
      ctx.Charge(sim::Tick{6} * contention);
      contention -= contention / 4 + (contention > 0 ? 1 : 0);
      break;
    }
    ctx.item_lock_spins++;
    if (contention < 48) {
      contention++;
    }
    co_await ctx.Delay(backoff);
    backoff = backoff < 320 ? backoff * 2 : 320;
  }
  // The value store spans the awaited Write: half the bytes land before the
  // suspension, half after, so the item is genuinely torn in host memory for
  // the duration of the modeled store — exactly the window the seqlock must
  // cover. Fibers that interleave here observe the torn state iff the ctrl
  // protocol is broken (see check/mutation.h); the charge/await sequence is
  // identical to a single up-front copy, so timing is unchanged.
  const uint32_t half = len / 2;
  std::memcpy(it->value(), src, half);
  it->value_len = len;
  co_await ctx.Write(it->value(), len);
  std::memcpy(it->value() + half, static_cast<const uint8_t*>(src) + half,
              len - half);
  if (!mut::DropSeqlockBump()) {
    it->ctrl++;  // odd -> even: publish new version
  }
  co_await ctx.Write(&it->ctrl, 8);
  co_return true;
}

// Non-atomic write used by share-nothing servers (the shard owner is the only
// writer, so no lock/version traffic is charged beyond the plain stores).
inline sim::Task<void> ItemWriteUnsynchronized(sim::ExecCtx& ctx, Item* it,
                                               const void* src, uint32_t len) {
  UTPS_DCHECK(len <= it->capacity);
  std::memcpy(it->value(), src, len);
  it->value_len = len;
  it->ctrl += 2;
  co_await ctx.Write(&it->ctrl, sizeof(Item) + (len > 8 ? len : 0));
}

// Host-side (untimed) accessors for population and test verification.
inline void ItemWriteDirect(Item* it, const void* src, uint32_t len) {
  UTPS_DCHECK(len <= it->capacity);
  std::memcpy(it->value(), src, len);
  it->value_len = len;
}

inline uint32_t ItemReadDirect(const Item* it, void* dst) {
  std::memcpy(dst, it->value(), it->value_len);
  return it->value_len;
}

}  // namespace utps

#endif  // UTPS_STORE_ITEM_H_
