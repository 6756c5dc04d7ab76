// Tests for the CR-MR SPSC batch ring (§3.4): wrap-around, physical slot
// reuse, tail-pointer piggyback completion, full-ring backpressure, and the
// occupancy invariants added for the DST harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/crmr_queue.h"
#include "sim/arena.h"

namespace utps {
namespace {

class CrMrQueueTest : public ::testing::Test {
 protected:
  static constexpr unsigned kBatch = 8;  // MuTpsServer::Options::batch_size

  CrMrQueueTest()
      : arena_(16 << 20),
        host_arena_(CrMrRing::HostBytes(kBatch), kCachelineBytes) {
    ring_.Init(&arena_, &host_arena_, kBatch);
  }

  // Producer side: publish a batch of `count` descriptors.
  void Publish(uint32_t count, Key first_key) {
    CrMrRing::Slot* s = ring_.SlotAt(ring_.head());
    s->count = count;
    for (uint32_t i = 0; i < count; i++) {
      s->descs[i] = CrMrDesc{first_key + i, PackOpLen(OpType::kGet, 8),
                             static_cast<uint32_t>(i)};
    }
    ring_.AdvanceHead();
  }

  sim::Arena arena_;
  sim::Arena host_arena_;  // exactly one ring's companions
  CrMrRing ring_;
};

// Init runs no constructor over the ring: fresh arenas are all zero, and all
// zero is an empty ring (every slot count 0, every companion zero, head ==
// tail == 0).
TEST_F(CrMrQueueTest, FreshArenasReadAsAnEmptyRing) {
  EXPECT_EQ(ring_.head(), 0u);
  EXPECT_EQ(ring_.tail(), 0u);
  EXPECT_TRUE(ring_.AuditQuiesced());
  EXPECT_FALSE(ring_.Full());
  EXPECT_FALSE(ring_.HasWork(0));
  for (uint64_t seq = 0; seq < CrMrRing::kNumSlots; seq++) {
    const CrMrRing::Slot* slot = ring_.SlotAt(seq);
    EXPECT_EQ(slot->count, 0u) << seq;
    for (const CrMrDesc& d : slot->descs) {
      EXPECT_EQ(d.key, 0u);
      EXPECT_EQ(d.op_len, 0u);
      EXPECT_EQ(d.buf, 0u);
    }
  }
  const std::span<const CrMrHostDesc> host = ring_.HostDescs();
  ASSERT_EQ(host.size(), size_t{CrMrRing::kNumSlots} * kBatch);
  const auto* bytes = reinterpret_cast<const unsigned char*>(host.data());
  EXPECT_TRUE(std::all_of(bytes, bytes + host.size_bytes(),
                          [](unsigned char b) { return b == 0; }));
}

TEST_F(CrMrQueueTest, TailPiggybackCompletion) {
  EXPECT_TRUE(ring_.AuditQuiesced());
  Publish(3, 100);
  Publish(2, 200);
  EXPECT_EQ(ring_.head(), 2u);
  EXPECT_EQ(ring_.tail(), 0u);
  EXPECT_TRUE(ring_.HasWork(0));
  EXPECT_FALSE(ring_.AuditQuiesced());  // published but not completed

  // Consumer processes batch 0 and publishes completion via the tail.
  EXPECT_EQ(ring_.SlotAt(0)->count, 3u);
  EXPECT_EQ(ring_.SlotAt(0)->descs[2].key, 102u);
  ring_.AdvanceTail();
  EXPECT_EQ(ring_.tail(), 1u);
  EXPECT_FALSE(ring_.AuditQuiesced());

  ring_.AdvanceTail();
  EXPECT_EQ(ring_.tail(), ring_.head());
  EXPECT_TRUE(ring_.AuditQuiesced());
  EXPECT_FALSE(ring_.HasWork(2));
}

TEST_F(CrMrQueueTest, WrapAroundReusesPhysicalSlots) {
  // Drive the ring through several full laps; sequence numbers keep growing
  // while the physical slot (and its host companion) is reused modulo
  // kNumSlots.
  const uint64_t laps = 3 * CrMrRing::kNumSlots + 5;
  for (uint64_t seq = 0; seq < laps; seq++) {
    EXPECT_EQ(ring_.SlotAt(seq), ring_.SlotAt(seq + CrMrRing::kNumSlots));
    EXPECT_EQ(ring_.HostAt(seq), ring_.HostAt(seq + CrMrRing::kNumSlots));
    Publish(1, seq);
    EXPECT_EQ(ring_.head(), seq + 1);
    ring_.AdvanceTail();
  }
  EXPECT_EQ(ring_.head(), laps);
  EXPECT_EQ(ring_.tail(), laps);
  EXPECT_TRUE(ring_.AuditQuiesced());
}

TEST_F(CrMrQueueTest, BatchSlotReuseOverwritesDescriptors) {
  Publish(CrMrRing::kMaxBatch, 1000);
  ring_.AdvanceTail();
  // One full lap later the same physical slot carries a fresh batch.
  for (unsigned i = 1; i < CrMrRing::kNumSlots; i++) {
    Publish(1, i);
    ring_.AdvanceTail();
  }
  const uint64_t seq = CrMrRing::kNumSlots;  // same physical slot as seq 0
  ASSERT_EQ(ring_.SlotAt(seq), ring_.SlotAt(0));
  Publish(2, 5000);
  EXPECT_EQ(ring_.SlotAt(seq)->count, 2u);
  EXPECT_EQ(ring_.SlotAt(seq)->descs[0].key, 5000u);
  EXPECT_EQ(ring_.SlotAt(seq)->descs[1].key, 5001u);
  // Host descriptors are plain storage: stamping one at seq 0 must be visible
  // at seq kNumSlots (same physical companion array).
  ring_.HostAt(0)->resp_len = 777;
  EXPECT_EQ(ring_.HostAt(seq)->resp_len, 777u);
}

TEST_F(CrMrQueueTest, HostCompanionStrideIsTheBatchSize) {
  // The modeled slot keeps room for kMaxBatch descriptors; the host
  // companions hold batch_size per slot, back to back.
  EXPECT_EQ(ring_.stride(), kBatch);
  for (uint64_t seq = 1; seq < CrMrRing::kNumSlots; seq++) {
    EXPECT_EQ(ring_.HostAt(seq) - ring_.HostAt(seq - 1),
              static_cast<std::ptrdiff_t>(kBatch));
  }
  // The last slot's companions end where the ring's share of the host arena
  // does: a full batch in it stays inside the HostBytes(kBatch) it took.
  CrMrHostDesc* last = ring_.HostAt(CrMrRing::kNumSlots - 1);
  EXPECT_EQ(host_arena_.BytesUsed(), CrMrRing::HostBytes(kBatch));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(last + kBatch),
            host_arena_.base() + host_arena_.BytesUsed());
  for (unsigned i = 0; i < kBatch; i++) {
    last[i].resp_len = i;
  }
  EXPECT_EQ(last[kBatch - 1].resp_len, kBatch - 1);
}

TEST(CrMrRingInitDeathTest, BatchLargerThanASlotFails) {
  sim::Arena arena(1 << 20);
  sim::Arena host_arena(1 << 20, kCachelineBytes);
  CrMrRing ring;
  EXPECT_DEATH(ring.Init(&arena, &host_arena, CrMrRing::kMaxBatch + 1),
               "batch_size");
}

TEST_F(CrMrQueueTest, FullRingBackpressure) {
  for (unsigned i = 0; i < CrMrRing::kNumSlots; i++) {
    EXPECT_FALSE(ring_.Full());
    Publish(1, i);
  }
  EXPECT_TRUE(ring_.Full());
  EXPECT_EQ(ring_.head() - ring_.tail(), uint64_t{CrMrRing::kNumSlots});
  // One completion frees exactly one slot.
  ring_.AdvanceTail();
  EXPECT_FALSE(ring_.Full());
  Publish(1, 99);
  EXPECT_TRUE(ring_.Full());
}

#if !defined(NDEBUG)
using CrMrQueueDeathTest = CrMrQueueTest;

TEST_F(CrMrQueueDeathTest, OverfillTripsOccupancyProbe) {
  for (unsigned i = 0; i < CrMrRing::kNumSlots; i++) {
    Publish(1, i);
  }
  EXPECT_DEATH(ring_.AdvanceHead(), "head");
}

TEST_F(CrMrQueueDeathTest, TailPastHeadTripsOccupancyProbe) {
  Publish(1, 1);
  ring_.AdvanceTail();
  EXPECT_DEATH(ring_.AdvanceTail(), "tail");
}
#endif  // !NDEBUG

}  // namespace
}  // namespace utps
