// Tests for the hot-set machinery: count-min sketch accuracy, top-K
// tracking, sample rings, the hot table, and the epoch switch protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/zipf.h"
#include "hotset/hotset.h"
#include "hotset/sketch.h"
#include "hotset/topk.h"
#include "index/cuckoo.h"
#include "sim/arena.h"
#include "store/slab.h"

namespace utps {
namespace {

TEST(CountMinSketch, NeverUnderestimates) {
  CountMinSketch sketch(1 << 10, 4);
  Rng rng(1);
  std::map<Key, uint32_t> truth;
  for (int i = 0; i < 20000; i++) {
    const Key k = rng.NextBounded(500);
    sketch.Add(k);
    truth[k]++;
  }
  for (const auto& [k, c] : truth) {
    EXPECT_GE(sketch.Estimate(k), c);
  }
}

TEST(CountMinSketch, HotKeysEstimatedAccurately) {
  CountMinSketch sketch;
  for (int i = 0; i < 10000; i++) {
    sketch.Add(42);
  }
  for (Key k = 100; k < 1100; k++) {
    sketch.Add(k);
  }
  // The hot key dominates; overestimation from collisions is bounded.
  EXPECT_GE(sketch.Estimate(42), 10000u);
  EXPECT_LE(sketch.Estimate(42), 10200u);
}

TEST(CountMinSketch, HalveAgesEveryEstimateByHalf) {
  CountMinSketch sketch;
  for (int i = 0; i < 100; i++) {
    sketch.Add(7);
  }
  sketch.Add(8, 9);
  sketch.Halve();
  EXPECT_EQ(sketch.Estimate(7), 50u);
  EXPECT_EQ(sketch.Estimate(8), 4u);
  sketch.Halve();
  EXPECT_EQ(sketch.Estimate(7), 25u);
}

TEST(TopK, KeepsHighestFrequencies) {
  TopK topk(10);
  for (uint32_t i = 0; i < 1000; i++) {
    topk.Offer(i, i);
  }
  std::vector<Key> out;
  topk.ExtractTo(out);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i], 999u - i);  // descending frequency order
  }
}

TEST(SampleRing, DrainsRecentSamples) {
  SampleRing ring;
  for (Key k = 0; k < 100; k++) {
    ring.Push(k);
  }
  Key buf[SampleRing::kCapacity];
  const uint32_t n = ring.Drain(buf, SampleRing::kCapacity);
  ASSERT_EQ(n, 100u);
  EXPECT_EQ(buf[0], 0u);
  EXPECT_EQ(buf[99], 99u);
  EXPECT_EQ(ring.Drain(buf, SampleRing::kCapacity), 0u);  // drained
}

TEST(SampleRing, OverwritesOldestWhenFull) {
  SampleRing ring;
  for (Key k = 0; k < SampleRing::kCapacity + 500; k++) {
    ring.Push(k);
  }
  Key buf[SampleRing::kCapacity];
  const uint32_t n = ring.Drain(buf, SampleRing::kCapacity);
  ASSERT_EQ(n, SampleRing::kCapacity);
  EXPECT_EQ(buf[0], 500u);  // oldest surviving sample
  EXPECT_EQ(ring.dropped(), 500u);
  // A drained ring takes a full ring's samples again before it drops one.
  for (Key k = 0; k < SampleRing::kCapacity; k++) {
    ring.Push(k);
  }
  EXPECT_EQ(ring.dropped(), 500u);
  ring.Push(0);
  EXPECT_EQ(ring.dropped(), 501u);
}

class HotSetManagerTest : public ::testing::Test {
 protected:
  HotSetManagerTest() : arena_(64 << 20), slab_(&arena_), mgr_(&arena_, 4) {}

  Item* MakeItem(Key k) {
    Item* it = slab_.AllocateItem(k, 8);
    it->value_len = 8;
    items_[k] = it;
    return it;
  }

  // Samples keys [0, n) once each, and keys [0, hot) `extra` more times, so
  // the top-`hot` set is exactly [0, hot).
  void SampleKeys(Key n, Key hot, unsigned extra) {
    for (Key k = 0; k < n; k++) {
      MakeItem(k);
      mgr_.Ring(0).Push(k);
    }
    for (unsigned r = 0; r < extra; r++) {
      for (Key k = 0; k < hot; k++) {
        mgr_.Ring(1).Push(k);
      }
    }
    mgr_.DrainSamples();
  }

  // Builds the next hot set of size k after every worker acked the current
  // epoch (the manager's precondition for reusing the inactive buffer).
  void Publish(uint32_t k) {
    for (unsigned w = 0; w < 4; w++) {
      mgr_.AckEpoch(w, mgr_.epoch());
    }
    mgr_.BuildAndPublish(k, [&](Key key) {
      auto it = items_.find(key);
      return it == items_.end() ? nullptr : it->second;
    });
  }

  // One manager period: drains the rings and applies the refresh rule for
  // a set of `k`. Returns whether it published.
  bool Period(uint32_t k) {
    for (unsigned w = 0; w < 4; w++) {
      mgr_.AckEpoch(w, mgr_.epoch());
    }
    mgr_.DrainSamples();
    return mgr_.Refresh(k, /*force=*/false, [&](Key key) {
      auto it = items_.find(key);
      return it == items_.end() ? nullptr : it->second;
    });
  }

  // Samples each key of [first, first + n) `times` times.
  void SampleRange(Key first, Key n, unsigned times) {
    for (unsigned r = 0; r < times; r++) {
      for (Key k = first; k < first + n; k++) {
        if (items_.count(k) == 0) {
          MakeItem(k);
        }
        mgr_.Ring(k % 4).Push(k);
      }
    }
  }

  // The published keys, ascending.
  std::vector<Key> ActiveKeys() const {
    const HotTable* ht = mgr_.ActiveTable();
    std::vector<Key> keys;
    for (uint32_t i = 0; i <= ht->mask; i++) {
      if (ht->slots[i].key != 0) {
        keys.push_back(ht->slots[i].key - 1);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  sim::Arena arena_;
  SlabAllocator slab_;
  HotSetManager mgr_;
  std::map<Key, Item*> items_;
};

TEST_F(HotSetManagerTest, BuildsHotTableFromSkewedSamples) {
  ZipfianGenerator zipf(10000, 0.99);
  Rng rng(5);
  for (int i = 0; i < 30000; i++) {
    const Key k = zipf.Next(rng);
    MakeItem(k);
    mgr_.Ring(i % 4).Push(k);
    if (i % 4000 == 3999) {
      mgr_.DrainSamples();
    }
  }
  mgr_.DrainSamples();
  mgr_.BuildAndPublish(100, [&](Key k) {
    auto it = items_.find(k);
    return it == items_.end() ? nullptr : it->second;
  });
  EXPECT_EQ(mgr_.epoch(), 1u);
  const HotTable* ht = mgr_.ActiveTable();
  EXPECT_GT(ht->count, 50u);
  EXPECT_LE(ht->count, 100u);
  EXPECT_EQ(mgr_.ActiveCount(), ht->count);
  // The hottest key (rank 0) must be in the hot set.
  EXPECT_EQ(ht->FindDirect(0), items_[0]);
  // Each published key maps to its own item, and each appears once.
  const std::vector<Key> keys = ActiveKeys();
  ASSERT_EQ(keys.size(), ht->count);
  for (uint32_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(ht->FindDirect(keys[i]), items_[keys[i]]);
    EXPECT_TRUE(i == 0 || keys[i - 1] < keys[i]) << "key " << keys[i];
  }
  EXPECT_EQ(ht->FindDirect(999999), nullptr);
  std::string err;
  EXPECT_TRUE(mgr_.AuditEpochs(&err)) << err;
}

TEST_F(HotSetManagerTest, EpochSwitchIsDoubleBuffered) {
  MakeItem(1);
  MakeItem(2);
  mgr_.Ring(0).Push(1);
  mgr_.DrainSamples();
  mgr_.BuildAndPublish(10, [&](Key k) { return items_.count(k) ? items_[k] : nullptr; });
  const HotTable* first = mgr_.ActiveTable();
  for (unsigned w = 0; w < 4; w++) {
    mgr_.AckEpoch(w, mgr_.epoch());
  }
  EXPECT_TRUE(mgr_.AllWorkersAt(mgr_.epoch()));
  mgr_.Ring(0).Push(2);
  mgr_.DrainSamples();
  mgr_.BuildAndPublish(10, [&](Key k) { return items_.count(k) ? items_[k] : nullptr; });
  EXPECT_NE(mgr_.ActiveTable(), first);  // flipped to the other buffer
  EXPECT_FALSE(mgr_.AllWorkersAt(mgr_.epoch()));
}

TEST_F(HotSetManagerTest, ZeroCacheSizePublishesEmptySet) {
  MakeItem(1);
  mgr_.Ring(0).Push(1);
  mgr_.DrainSamples();
  mgr_.BuildAndPublish(0, [&](Key k) { return items_.count(k) ? items_[k] : nullptr; });
  EXPECT_EQ(mgr_.ActiveTable()->count, 0u);
  EXPECT_EQ(mgr_.ActiveCount(), 0u);
}

TEST_F(HotSetManagerTest, TableMaskFollowsPublishedCount) {
  // Before any build, and with k = 0, the table is 4 empty slots.
  EXPECT_EQ(mgr_.ActiveTable()->mask + 1, 4u);
  Publish(0);
  EXPECT_EQ(mgr_.ActiveTable()->count, 0u);
  EXPECT_EQ(mgr_.ActiveTable()->mask + 1, 4u);

  SampleKeys(3000, 0, 0);
  // (k, slots): at least 4, else the power of two >= 2k (load <= 0.5).
  const std::pair<uint32_t, uint32_t> cases[] = {
      {1, 4}, {2, 4}, {3, 8}, {100, 256}, {2048, 4096}, {3000, 8192}};
  for (const auto& [k, slots] : cases) {
    Publish(k);
    const HotTable* ht = mgr_.ActiveTable();
    EXPECT_EQ(ht->count, k);
    EXPECT_EQ(ht->mask + 1, slots) << "k=" << k;
    EXPECT_EQ(ht->mask + 1, HotSetManager::TableSlotsFor(k));
    std::string err;
    EXPECT_TRUE(mgr_.AuditEpochs(&err)) << err;
  }
  EXPECT_EQ(HotSetManager::TableSlotsFor(HotSetManager::kMaxHot),
            HotSetManager::kTableCapacity);

  // The table takes the bytes the 8 B-key membership filter it replaced
  // took (at least 8 slots, load <= 0.25), per published count and per
  // buffer, so every arena range carved after the hot set keeps its offset.
  const auto filter_bytes = [](uint32_t n) {
    return size_t{std::bit_ceil(std::max(8u, 4 * n))} * sizeof(Key);
  };
  for (uint32_t n = 0; n <= HotSetManager::kMaxHot; n++) {
    ASSERT_EQ(size_t{HotSetManager::TableSlotsFor(n)} * sizeof(HotTable::Slot),
              filter_bytes(n))
        << "n=" << n;
  }
  EXPECT_EQ(size_t{HotSetManager::kTableCapacity} * sizeof(HotTable::Slot),
            size_t{4} * HotSetManager::kMaxHot * sizeof(Key));
}

// Every occupied slot of a published table carries the item the main index
// maps its key to, and the table holds exactly the published keys.
TEST(HotTableItems, EverySlotMatchesTheIndex) {
  sim::Arena arena(64 << 20);
  SlabAllocator slab(&arena);
  CuckooIndex index(&arena, 20000);
  HotSetManager mgr(&arena, 1);
  ZipfianGenerator zipf(10000, 0.99);
  Rng rng(9);
  for (Key k = 0; k < 10000; k++) {
    ASSERT_TRUE(index.InsertDirect(k, slab.AllocateItem(k, 8)));
  }
  for (int i = 0; i < 3000; i++) {
    mgr.Ring(0).Push(zipf.Next(rng));
  }
  mgr.DrainSamples();
  mgr.BuildAndPublish(2048, [&](Key k) { return index.GetDirect(k); });
  const HotTable* ht = mgr.ActiveTable();
  ASSERT_GT(ht->count, 100u);
  uint32_t occupied = 0;
  for (uint32_t i = 0; i <= ht->mask; i++) {
    const HotTable::Slot& s = ht->slots[i];
    if (s.key == 0) {
      continue;
    }
    occupied++;
    ASSERT_NE(s.item, nullptr);
    EXPECT_EQ(s.item, index.GetDirect(s.key - 1)) << "key " << s.key - 1;
    EXPECT_EQ(s.item->key, s.key - 1);
  }
  EXPECT_EQ(occupied, ht->count);
  EXPECT_EQ(ht->count, mgr.ActiveCount());
  std::string err;
  EXPECT_TRUE(mgr.AuditEpochs(&err)) << err;
}

TEST_F(HotSetManagerTest, ShrinkingTableExposesNoStaleKey) {
  SampleKeys(2000, 2, 50);
  // Fill both buffers with 2000 keys, then rebuild the first one with the
  // two hottest: its slots past the new 4-slot mask still hold old keys.
  Publish(2000);
  const HotTable* big = mgr_.ActiveTable();
  Publish(2000);
  Publish(2);
  const HotTable* ht = mgr_.ActiveTable();
  ASSERT_EQ(ht, big);
  EXPECT_EQ(ht->count, 2u);
  EXPECT_EQ(ht->mask + 1, 4u);
  EXPECT_EQ(ht->FindDirect(0), items_[0]);
  EXPECT_EQ(ht->FindDirect(1), items_[1]);
  for (Key k = 2; k < 2000; k++) {
    EXPECT_EQ(ht->FindDirect(k), nullptr) << "stale key " << k;
  }
  std::string err;
  EXPECT_TRUE(mgr_.AuditEpochs(&err)) << err;
}

TEST_F(HotSetManagerTest, StaleKeysAreSkipped) {
  MakeItem(7);
  mgr_.Ring(0).Push(7);
  mgr_.Ring(0).Push(8);  // never resolves to an item
  mgr_.DrainSamples();
  mgr_.BuildAndPublish(10, [&](Key k) { return items_.count(k) ? items_[k] : nullptr; });
  EXPECT_EQ(mgr_.ActiveTable()->count, 1u);
  EXPECT_EQ(mgr_.ActiveTable()->FindDirect(7), items_[7]);
  EXPECT_EQ(mgr_.ActiveTable()->FindDirect(8), nullptr);
}

// (a) Aging halves the sketch and carries the published keys forward: a
// publish right after it, with no new samples, republishes the same set.
TEST_F(HotSetManagerTest, PublishAfterAgingRepublishesTheSameSet) {
  SampleKeys(500, 50, 3);
  Publish(50);
  const std::vector<Key> before = ActiveKeys();
  ASSERT_EQ(before.size(), 50u);
  mgr_.Age();
  EXPECT_FALSE(mgr_.AgingDue(50));
  Publish(50);
  EXPECT_EQ(ActiveKeys(), before);
}

// (b) With set A published at a steady sampling rate, sampling only set B
// at that rate makes B replace A within two aging intervals.
TEST_F(HotSetManagerTest, ShiftedSamplesReplaceTheSetWithinTwoAgingIntervals) {
  constexpr uint32_t kHot = 100;
  constexpr Key kA = 0;
  constexpr Key kB = 1000;
  // Each period samples every key of the current set once, so an aging
  // interval of kAgingSamplesPerItem·k samples takes that many periods.
  unsigned agings = 0;
  for (unsigned p = 0; p < 6 * HotSetManager::kAgingSamplesPerItem; p++) {
    SampleRange(kA, kHot, 1);
    const uint64_t epoch = mgr_.epoch();
    Period(kHot);
    agings += mgr_.epoch() != epoch && mgr_.ActiveCount() == kHot ? 1 : 0;
  }
  ASSERT_GE(agings, 5u);
  std::vector<Key> a(kHot);
  for (Key k = 0; k < kHot; k++) {
    a[k] = kA + k;
  }
  ASSERT_EQ(ActiveKeys(), a);

  std::vector<Key> b(kHot);
  for (Key k = 0; k < kHot; k++) {
    b[k] = kB + k;
  }
  unsigned periods = 0;
  while (ActiveKeys() != b && periods < 10 * HotSetManager::kAgingSamplesPerItem) {
    SampleRange(kB, kHot, 1);
    Period(kHot);
    periods++;
  }
  EXPECT_EQ(ActiveKeys(), b);
  EXPECT_LE(periods, 2 * HotSetManager::kAgingSamplesPerItem);
}

// (c) The trigger: a full set is not republished before
// kAgingSamplesPerItem·k samples have arrived since the last aging; an
// underfilled set is republished every period.
TEST_F(HotSetManagerTest, FullSetWaitsForAnAgingIntervalUnderfilledDoesNot) {
  constexpr uint32_t kHot = 100;
  SampleRange(0, 2 * kHot, 2);
  ASSERT_TRUE(Period(kHot));  // first publish: the set was empty
  ASSERT_EQ(mgr_.ActiveCount(), kHot);
  // Hot keys keep arriving 10 per period: 16·k = 1600 samples since the
  // last aging take 160 periods, and only the last one publishes.
  const uint32_t interval = HotSetManager::kAgingSamplesPerItem * kHot;
  mgr_.Age();
  const uint64_t epoch = mgr_.epoch();
  for (uint32_t sampled = 10; sampled < interval; sampled += 10) {
    SampleRange(0, 10, 1);
    EXPECT_FALSE(Period(kHot)) << "republished after " << sampled << " samples";
  }
  EXPECT_EQ(mgr_.epoch(), epoch);
  SampleRange(0, 10, 1);
  EXPECT_TRUE(Period(kHot));
  EXPECT_EQ(mgr_.epoch(), epoch + 1);
  EXPECT_FALSE(mgr_.AgingDue(kHot));

  // A set of 4·k items over keys of which only 2·k exist stays underfilled:
  // every period republishes it, however few samples arrived.
  for (int p = 0; p < 5; p++) {
    SampleRange(0, 10, 1);
    const uint64_t e = mgr_.epoch();
    EXPECT_TRUE(Period(4 * kHot));
    EXPECT_EQ(mgr_.epoch(), e + 1);
    EXPECT_LT(mgr_.ActiveCount(), 4 * kHot);
  }
}

// The auto-tuner's forced refreshes publish a full set whatever the count,
// and do not age: the next probe still ranks every sample of the pass.
TEST_F(HotSetManagerTest, ForcedRefreshPublishesWithoutAging) {
  constexpr uint32_t kHot = 100;
  SampleRange(0, 2 * kHot, 1);  // 2·k samples: a filling publish, no aging
  ASSERT_TRUE(Period(kHot));
  ASSERT_EQ(mgr_.ActiveCount(), kHot);
  SampleRange(2 * kHot, 10, 1);
  mgr_.DrainSamples();
  const uint64_t epoch = mgr_.epoch();
  EXPECT_TRUE(mgr_.Refresh(kHot / 2, /*force=*/true, [&](Key key) {
    return items_.count(key) ? items_[key] : nullptr;
  }));
  EXPECT_EQ(mgr_.epoch(), epoch + 1);
  EXPECT_EQ(mgr_.ActiveCount(), kHot / 2);
  // No aging: the candidates still hold all 2·k + 10 sampled keys, so a
  // forced probe at 2·k fills its set.
  EXPECT_TRUE(mgr_.Refresh(2 * kHot, /*force=*/true, [&](Key key) {
    return items_.count(key) ? items_[key] : nullptr;
  }));
  EXPECT_EQ(mgr_.ActiveCount(), 2 * kHot);
}

// The tracker against the true ranks, on the paper's headline cell: Zipf
// 0.99 over 2M keys, a set of 8000 items, and 1M requests (a tuned run of
// that cell serves ~1.4M). Every kSamplePeriod-th request reaches the
// rings, which are drained whenever they could fill, and the tuner's forced
// refresh ranks the whole pass. The published keys must carry most of the
// request mass the true top 8000 carry: 0.589 of the requests against
// 0.624 (coverage 0.943) at 1 sample in 8; 1 in 32 published 0.544
// (0.872).
TEST_F(HotSetManagerTest, PublishedSetCarriesTheTrueTopKeysMass) {
  constexpr uint64_t kKeys = 2'000'000;
  constexpr uint32_t kHot = 8000;
  constexpr uint64_t kRequests = 1'000'000;
  constexpr uint64_t kChunk = 4 * SampleRing::kCapacity;  // one drain's worth
  ScrambledZipfian zipf(kKeys, 0.99);
  Rng rng(43);
  std::vector<uint32_t> count(kKeys, 0);
  uint64_t sampled = 0;
  for (uint64_t i = 0; i < kRequests; i++) {
    const Key k = zipf.Next(rng);
    count[k]++;
    if (i % HotSetManager::kSamplePeriod == 0) {
      mgr_.Ring(sampled % 4).Push(k);
      if (++sampled % kChunk == 0) {
        mgr_.DrainSamples();
      }
    }
  }
  mgr_.DrainSamples();
  EXPECT_EQ(mgr_.SamplesDropped(), 0u);
  Item item;
  ASSERT_TRUE(mgr_.Refresh(kHot, /*force=*/true, [&](Key) { return &item; }));
  ASSERT_EQ(mgr_.ActiveCount(), kHot);

  const auto mass = [&](const std::vector<Key>& keys) {
    uint64_t sum = 0;
    for (Key k : keys) {
      sum += count[k];
    }
    return static_cast<double>(sum) / kRequests;
  };
  std::vector<Key> top;
  for (uint64_t r = 0; r < kHot; r++) {
    top.push_back(zipf.KeyOfRank(r));
  }
  std::sort(top.begin(), top.end());
  top.erase(std::unique(top.begin(), top.end()), top.end());
  const double published = mass(ActiveKeys());
  const double truth = mass(top);
  EXPECT_GE(published / truth, 0.92)
      << "published " << published << " of the requests, the true top "
      << truth;
}

}  // namespace
}  // namespace utps
