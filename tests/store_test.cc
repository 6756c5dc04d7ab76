// Tests for the item store: seqlock read/write races under perturbed
// schedules, the <= 8 B atomic update path, the arena's zero-fill contract,
// and slab allocator reuse, alignment, and live accounting.
#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "check/history.h"
#include "sim/arena.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "store/item.h"
#include "store/slab.h"

namespace utps {
namespace {

using sim::Engine;
using sim::ExecCtx;
using sim::Fiber;
using sim::kUsec;

// ----------------------------------------------------- seqlock race fuzzing

struct RaceState {
  Item* it = nullptr;
  uint32_t len = 0;
  std::unordered_set<uint64_t> written;  // every stamp ever (being) written
  unsigned writers_running = 0;
  uint64_t reads = 0;
  uint64_t bad_len = 0;
  uint64_t torn = 0;        // reads whose bytes parse to no stamp
  uint64_t from_thin_air = 0;  // parsed stamp that was never written
};

Fiber WriterFiber(ExecCtx* ctx, RaceState* st, uint32_t writer, int nwrites) {
  std::vector<uint8_t> buf(st->len);
  for (int i = 0; i < nwrites; i++) {
    const uint64_t stamp =
        check::MakeStamp(st->it->key, (writer << 10) | (i + 1));
    check::StampFill(buf.data(), st->len, stamp);
    st->written.insert(stamp);
    co_await ItemWrite(*ctx, st->it, buf.data(), st->len);
    co_await ctx->Delay(40 + writer * 7);
  }
  st->writers_running--;
}

Fiber ReaderFiber(ExecCtx* ctx, RaceState* st) {
  std::vector<uint8_t> buf(st->len);
  while (st->writers_running > 0) {
    const uint32_t len = co_await ItemRead(*ctx, st->it, buf.data());
    if (len != st->len) {
      st->bad_len++;
    }
    st->reads++;
    const uint64_t stamp = check::StampParse(buf.data(), len);
    if (stamp == 0) {
      st->torn++;
    } else if (!st->written.contains(stamp)) {
      st->from_thin_air++;
    }
    co_await ctx->Delay(25);
  }
}

TEST(SeqlockRaceTest, NoTornReadsUnderPerturbedSchedules) {
  for (uint64_t seed = 1; seed <= 6; seed++) {
    Engine eng;
    eng.EnablePerturbation(
        {.seed = seed, .permute_ties = true, .max_jitter_ns = 24});
    sim::Arena arena(8 << 20);
    sim::MachineConfig mc;
    sim::MemoryModel mem(mc);
    SlabAllocator slab(&arena);
    ResetItemContention();

    RaceState st;
    st.len = 128;
    st.it = slab.AllocateItem(7, st.len);
    check::StampFill(st.it->value(), st.len, check::MakeStamp(7, 0));
    st.it->value_len = st.len;
    st.written.insert(check::MakeStamp(7, 0));

    constexpr unsigned kWriters = 2;
    constexpr unsigned kReaders = 3;
    st.writers_running = kWriters;
    std::vector<ExecCtx> ctxs(kWriters + kReaders);
    for (unsigned w = 0; w < kWriters; w++) {
      ctxs[w] = ExecCtx{.eng = &eng, .mem = &mem, .core = w};
      eng.Spawn(WriterFiber(&ctxs[w], &st, w + 1, 40));
    }
    for (unsigned r = 0; r < kReaders; r++) {
      ctxs[kWriters + r] =
          ExecCtx{.eng = &eng, .mem = &mem, .core = kWriters + r};
      eng.Spawn(ReaderFiber(&ctxs[kWriters + r], &st));
    }
    eng.RunToQuiescence(100 * sim::kMsec);

    EXPECT_GT(st.reads, 50u) << "seed " << seed;
    EXPECT_EQ(st.bad_len, 0u) << "seed " << seed;
    EXPECT_EQ(st.torn, 0u) << "seed " << seed << ": torn reads escaped";
    EXPECT_EQ(st.from_thin_air, 0u) << "seed " << seed;
    EXPECT_EQ(st.it->ctrl & 1, 0u) << "seqlock left odd after quiesce";
  }
}

// --------------------------------------------------- <= 8 B atomic updates

Fiber SmallWriter(ExecCtx* ctx, Item* it, unsigned* running,
                  std::unordered_set<uint64_t>* written) {
  for (uint64_t i = 1; i <= 60; i++) {
    const uint64_t v = Mix64(i);
    written->insert(v);
    co_await ItemWrite(*ctx, it, &v, 8);
    co_await ctx->Delay(35);
  }
  (*running)--;
}

Fiber SmallReader(ExecCtx* ctx, Item* it, const unsigned* running,
                  const std::unordered_set<uint64_t>* written, uint64_t* bad) {
  uint64_t v = 0;
  while (*running > 0) {
    const uint32_t len = co_await ItemRead(*ctx, it, &v);
    if (len != 8 || !written->contains(v)) {
      (*bad)++;
    }
    co_await ctx->Delay(20);
  }
}

TEST(SeqlockRaceTest, SmallValueAtomicPathNeverTears) {
  Engine eng;
  eng.EnablePerturbation({.seed = 9, .permute_ties = true, .max_jitter_ns = 16});
  sim::Arena arena(1 << 20);
  sim::MachineConfig mc;
  sim::MemoryModel mem(mc);
  SlabAllocator slab(&arena);
  ResetItemContention();

  Item* it = slab.AllocateItem(1, 8);
  const uint64_t init = Mix64(0);
  std::memcpy(it->value(), &init, 8);
  it->value_len = 8;
  std::unordered_set<uint64_t> written{init};
  unsigned running = 2;
  uint64_t bad = 0;
  ExecCtx w1{.eng = &eng, .mem = &mem, .core = 0};
  ExecCtx w2{.eng = &eng, .mem = &mem, .core = 1};
  ExecCtx r1{.eng = &eng, .mem = &mem, .core = 2};
  // The atomic path writes Mix64 images; any torn mix of two would (with
  // overwhelming probability) not be in the written set.
  eng.Spawn(SmallWriter(&w1, it, &running, &written));
  eng.Spawn(SmallWriter(&w2, it, &running, &written));
  eng.Spawn(SmallReader(&r1, it, &running, &written, &bad));
  eng.RunToQuiescence(100 * sim::kMsec);
  EXPECT_EQ(bad, 0u);
  // The <= 8 B path never takes the seqlock: ctrl stayed even throughout.
  EXPECT_EQ(it->ctrl & 1, 0u);
}

// ----------------------------------------------------------- arena contract

// Arena memory is zero-filled (sim/arena.h); CuckooIndex's constructor relies
// on it instead of initialising its buckets. Holds with huge pages advised
// too, and however the earlier allocations were written.
TEST(ArenaTest, AllocateReturnsZeroedMemoryAfterEarlierWrites) {
  for (const bool huge : {false, true}) {
    sim::Arena arena(32 << 20);
    if (huge) {
      arena.AdviseHugePages();
    }
    for (const size_t bytes : {size_t{8}, size_t{4096}, size_t{3} << 20,
                               size_t{100}, size_t{5} << 20}) {
      auto* p = static_cast<uint8_t*>(arena.Allocate(bytes, 8));
      EXPECT_EQ(std::count(p, p + bytes, 0), static_cast<ptrdiff_t>(bytes))
          << bytes << " B, huge=" << huge;
      std::memset(p, 0xa5, bytes);
    }
  }
}

// ------------------------------------------------------------ slab behavior

TEST(SlabTest, AlignmentAndCapacityRounding) {
  sim::Arena arena(8 << 20);
  SlabAllocator slab(&arena);
  for (uint32_t want : {8u, 30u, 64u, 100u, 500u, 1000u, 4000u}) {
    Item* it = slab.AllocateItem(want, want);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(it) % 32, 0u) << want;
    EXPECT_GE(it->capacity, want);
    // Power-of-two class: header + capacity fills the class exactly.
    const size_t total = sizeof(Item) + it->capacity;
    EXPECT_EQ(total & (total - 1), 0u) << want;
  }
  EXPECT_EQ(slab.live_items(), 7u);
}

TEST(SlabTest, FreeListReusesSameClassMemory) {
  sim::Arena arena(8 << 20);
  SlabAllocator slab(&arena);
  Item* a = slab.AllocateItem(1, 64);
  Item* b = slab.AllocateItem(2, 64);
  EXPECT_EQ(slab.live_items(), 2u);
  slab.FreeItem(a);
  slab.FreeItem(b);
  EXPECT_EQ(slab.live_items(), 0u);
  EXPECT_TRUE(slab.AuditLive(0));
  // LIFO reuse within the class; no fresh arena growth.
  Item* c = slab.AllocateItem(3, 64);
  Item* d = slab.AllocateItem(4, 60);  // same 128 B class
  EXPECT_EQ(c, b);
  EXPECT_EQ(d, a);
  // A different size class does not touch that free list.
  Item* e = slab.AllocateItem(5, 300);
  EXPECT_NE(e, a);
  EXPECT_NE(e, b);
  EXPECT_EQ(slab.live_items(), 3u);
  EXPECT_TRUE(slab.AuditLive(3));
  EXPECT_FALSE(slab.AuditLive(2));
}

#if UTPS_INVARIANTS
TEST(SlabDeathTest, DoubleFreeTripsLiveSetProbe) {
  sim::Arena arena(1 << 20);
  SlabAllocator slab(&arena);
  Item* it = slab.AllocateItem(1, 64);
  slab.FreeItem(it);
  EXPECT_DEATH(slab.FreeItem(it), "double-free");
}

TEST(SlabDeathTest, ForeignPointerTripsLiveSetProbe) {
  sim::Arena arena(1 << 20);
  SlabAllocator slab(&arena);
  slab.AllocateItem(1, 64);
  alignas(32) unsigned char fake[sizeof(Item) + 64] = {};
  Item* foreign = new (fake) Item();
  foreign->capacity = 64;
  EXPECT_DEATH(slab.FreeItem(foreign), "foreign");
}
#endif  // UTPS_INVARIANTS
}  // namespace
}  // namespace utps
