// Tests for the cuckoo hash table and the B-link B+-tree: host-plane
// correctness at scale, simulated-plane correctness, and concurrent
// reader/writer interleavings under the simulator.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/btree.h"
#include "index/cuckoo.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "store/slab.h"

namespace utps {
namespace {

using sim::Arena;
using sim::Engine;
using sim::ExecCtx;
using sim::Fiber;
using sim::kSec;
using sim::MachineConfig;
using sim::MemoryModel;

class IndexFixture : public ::testing::TestWithParam<IndexType> {
 protected:
  IndexFixture() : arena_(512ull << 20), slab_(&arena_) {
    MachineConfig cfg;
    cfg.num_cores = 8;
    mem_ = std::make_unique<MemoryModel>(cfg);
    if (GetParam() == IndexType::kHash) {
      index_ = std::make_unique<CuckooIndex>(&arena_, 200000);
    } else {
      index_ = std::make_unique<BTreeIndex>(&arena_);
    }
  }

  Item* MakeItem(Key k, uint64_t payload) {
    Item* it = slab_.AllocateItem(k, 8);
    ItemWriteDirect(it, &payload, 8);
    return it;
  }

  Arena arena_;
  SlabAllocator slab_;
  std::unique_ptr<MemoryModel> mem_;
  std::unique_ptr<KvIndex> index_;
};

TEST_P(IndexFixture, DirectInsertGetErase) {
  Rng rng(7);
  std::map<Key, Item*> model;
  for (int i = 0; i < 50000; i++) {
    const Key k = rng.NextBounded(1u << 20);
    if (model.count(k)) {
      EXPECT_FALSE(index_->InsertDirect(k, nullptr)) << k;
    } else {
      Item* it = MakeItem(k, k * 3);
      ASSERT_TRUE(index_->InsertDirect(k, it));
      model[k] = it;
    }
  }
  EXPECT_EQ(index_->SizeDirect(), model.size());
  for (const auto& [k, it] : model) {
    EXPECT_EQ(index_->GetDirect(k), it);
  }
  // Erase half.
  size_t i = 0;
  for (const auto& [k, it] : model) {
    if (i++ % 2 == 0) {
      EXPECT_TRUE(index_->EraseDirect(k));
      EXPECT_EQ(index_->GetDirect(k), nullptr);
    }
  }
  EXPECT_FALSE(index_->EraseDirect(1 << 21));  // never inserted
}

Fiber GetterFiber(ExecCtx* ctx, KvIndex* idx, std::vector<Key> keys,
                  std::vector<Item*>* out) {
  for (Key k : keys) {
    Item* it = co_await idx->CoGet(*ctx, k);
    out->push_back(it);
  }
}

TEST_P(IndexFixture, SimulatedGetMatchesDirect) {
  std::vector<Key> keys;
  for (Key k = 0; k < 20000; k++) {
    ASSERT_TRUE(index_->InsertDirect(k * 7, MakeItem(k * 7, k)));
    keys.push_back(k * 7);
  }
  keys.push_back(999999999);  // absent
  Engine eng;
  ExecCtx ctx{.eng = &eng, .mem = mem_.get(), .core = 0};
  std::vector<Item*> results;
  std::vector<Key> probe(keys.begin(), keys.begin() + 100);
  probe.push_back(999999999);
  eng.Spawn(GetterFiber(&ctx, index_.get(), probe, &results));
  eng.RunToQuiescence(kSec);
  ASSERT_EQ(results.size(), probe.size());
  for (size_t i = 0; i + 1 < results.size(); i++) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i]->key, probe[i]);
  }
  EXPECT_EQ(results.back(), nullptr);
}

Fiber InserterFiber(ExecCtx* ctx, KvIndex* idx, SlabAllocator* slab, Key base,
                    int n, int* inserted) {
  for (int i = 0; i < n; i++) {
    const Key k = base + static_cast<Key>(i);
    Item* it = slab->AllocateItem(k, 8);
    const uint64_t v = k;
    ItemWriteDirect(it, &v, 8);
    const bool ok = co_await idx->CoInsert(*ctx, k, it);
    if (ok) {
      (*inserted)++;
    }
    co_await ctx->Yield();
  }
}

TEST_P(IndexFixture, ConcurrentSimulatedInserts) {
  Engine eng;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 3000;
  ExecCtx ctxs[kThreads];
  int inserted[kThreads] = {};
  for (int t = 0; t < kThreads; t++) {
    ctxs[t] = ExecCtx{.eng = &eng, .mem = mem_.get(), .core = static_cast<sim::CoreId>(t)};
    // Overlapping ranges: half the keys collide across threads.
    eng.Spawn(InserterFiber(&ctxs[t], index_.get(), &slab_,
                            static_cast<Key>(t) * kPerThread / 2, kPerThread,
                            &inserted[t]));
  }
  eng.RunToQuiescence(100 * kSec);
  int total = 0;
  for (int t = 0; t < kThreads; t++) {
    total += inserted[t];
  }
  // Every distinct key must be present exactly once.
  const Key max_key = (kThreads - 1) * kPerThread / 2 + kPerThread;
  int present = 0;
  for (Key k = 0; k < max_key; k++) {
    Item* it = index_->GetDirect(k);
    if (it != nullptr) {
      present++;
      EXPECT_EQ(it->key, k);
    }
  }
  EXPECT_EQ(present, total);
  EXPECT_EQ(static_cast<uint64_t>(total), index_->SizeDirect());
  EXPECT_EQ(present, static_cast<int>(max_key));  // all keys covered
}

Fiber MixedFiber(ExecCtx* ctx, KvIndex* idx, SlabAllocator* slab, uint64_t seed,
                 int ops, int key_space, int* errors) {
  Rng rng(seed);
  for (int i = 0; i < ops; i++) {
    const Key k = rng.NextBounded(key_space);
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 40) {
      Item* it = co_await idx->CoGet(*ctx, k);
      if (it != nullptr && it->key != k) {
        (*errors)++;
      }
    } else if (dice < 80) {
      Item* it = slab->AllocateItem(k, 8);
      const uint64_t v = k;
      ItemWriteDirect(it, &v, 8);
      const bool ok = co_await idx->CoInsert(*ctx, k, it);
      if (!ok) {
        slab->FreeItem(it);
      }
    } else {
      co_await idx->CoErase(*ctx, k);
    }
    co_await ctx->Yield();
  }
}

TEST_P(IndexFixture, ConcurrentMixedWorkloadInvariants) {
  Engine eng;
  constexpr int kThreads = 8;
  ExecCtx ctxs[kThreads];
  int errors = 0;
  for (int t = 0; t < kThreads; t++) {
    ctxs[t] = ExecCtx{.eng = &eng, .mem = mem_.get(), .core = static_cast<sim::CoreId>(t)};
    eng.Spawn(MixedFiber(&ctxs[t], index_.get(), &slab_, 1000 + t, 4000, 500,
                         &errors));
  }
  eng.RunToQuiescence(100 * kSec);
  EXPECT_EQ(errors, 0);
  // Post-condition: every key resolvable via the direct plane maps to an item
  // with a matching embedded key.
  uint64_t found = 0;
  for (Key k = 0; k < 500; k++) {
    Item* it = index_->GetDirect(k);
    if (it != nullptr) {
      EXPECT_EQ(it->key, k);
      found++;
    }
  }
  EXPECT_EQ(found, index_->SizeDirect());
}

INSTANTIATE_TEST_SUITE_P(BothIndexes, IndexFixture,
                         ::testing::Values(IndexType::kHash, IndexType::kTree),
                         [](const auto& info) {
                           return info.param == IndexType::kHash ? "Cuckoo"
                                                                 : "BTree";
                         });

// ----------------------------------------------------------- tree-specific

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : arena_(256ull << 20), slab_(&arena_), tree_(&arena_) {
    MachineConfig cfg;
    cfg.num_cores = 8;
    mem_ = std::make_unique<MemoryModel>(cfg);
  }

  Item* MakeItem(Key k) {
    Item* it = slab_.AllocateItem(k, 8);
    const uint64_t v = k * 11;
    ItemWriteDirect(it, &v, 8);
    return it;
  }

  Arena arena_;
  SlabAllocator slab_;
  BTreeIndex tree_;
  std::unique_ptr<MemoryModel> mem_;
};

TEST_F(BTreeTest, BulkLoadMatchesInsertSemantics) {
  std::vector<Item*> sorted;
  for (Key k = 0; k < 100000; k++) {
    sorted.push_back(MakeItem(k * 3));
  }
  tree_.BulkLoadDirect(sorted);
  EXPECT_EQ(tree_.SizeDirect(), sorted.size());
  for (Item* it : sorted) {
    ASSERT_EQ(tree_.GetDirect(it->key), it);
  }
  EXPECT_EQ(tree_.GetDirect(1), nullptr);
  EXPECT_GE(tree_.height(), 4u);
}

// Key counts whose bulk load has a level one node past a multiple of the 12
// children per internal node: 20,000 keys (1819 leaves -> 152 -> 13 nodes)
// and 40,000 keys (3637 leaves). The last parent built over that level must
// still get two children.
class BTreeBulkLoadAudit : public BTreeTest,
                           public ::testing::WithParamInterface<Key> {};

TEST_P(BTreeBulkLoadAudit, PassesAudit) {
  std::vector<Item*> sorted;
  for (Key k = 0; k < GetParam(); k++) {
    sorted.push_back(MakeItem(k));
  }
  tree_.BulkLoadDirect(sorted);
  std::string err;
  EXPECT_TRUE(tree_.AuditDirect(&err)) << err;
  EXPECT_EQ(tree_.SizeDirect(), sorted.size());
  for (Item* it : sorted) {
    ASSERT_EQ(tree_.GetDirect(it->key), it);
  }
}

INSTANTIATE_TEST_SUITE_P(OneNodePastAMultiple, BTreeBulkLoadAudit,
                         ::testing::Values(Key{20'000}, Key{40'000}));

// Bulk load reads each key from its item and trusts the order: a repeated or
// descending key would build a tree whose separators lie, so it is refused.
using BTreeDeathTest = BTreeTest;

TEST_F(BTreeDeathTest, BulkLoadRejectsKeysNotStrictlyAscending) {
  const std::vector<Item*> descending = {MakeItem(1), MakeItem(3), MakeItem(2)};
  EXPECT_DEATH(tree_.BulkLoadDirect(descending), "not strictly ascending");
  const std::vector<Item*> repeated = {MakeItem(5), MakeItem(5)};
  EXPECT_DEATH(tree_.BulkLoadDirect(repeated), "not strictly ascending");
}

TEST_F(BTreeTest, ScanDirectReturnsSortedRange) {
  std::vector<Item*> sorted;
  for (Key k = 100; k < 5000; k += 2) {
    sorted.push_back(MakeItem(k));
  }
  tree_.BulkLoadDirect(sorted);
  Item* out[100];
  const uint32_t n = tree_.ScanDirect(200, 400, 100, out);
  // Keys 200, 202, ..., 400 are 101 matches; capped at max = 100.
  EXPECT_EQ(n, 100u);
  for (uint32_t i = 0; i < n; i++) {
    EXPECT_EQ(out[i]->key, 200u + 2 * i);
  }
}

Fiber ScanFiber(ExecCtx* ctx, BTreeIndex* tree, Key lo, Key hi, uint32_t max,
                std::vector<Key>* out) {
  std::vector<Item*> items(max);
  const uint32_t n = co_await tree->CoScan(*ctx, lo, hi, max, items.data());
  for (uint32_t i = 0; i < n; i++) {
    out->push_back(items[i]->key);
  }
}

TEST_F(BTreeTest, SimulatedScan) {
  std::vector<Item*> sorted;
  for (Key k = 0; k < 10000; k++) {
    sorted.push_back(MakeItem(k));
  }
  tree_.BulkLoadDirect(sorted);
  Engine eng;
  ExecCtx ctx{.eng = &eng, .mem = mem_.get(), .core = 0};
  std::vector<Key> out;
  eng.Spawn(ScanFiber(&ctx, &tree_, 5000, 5049, 64, &out));
  eng.RunToQuiescence(kSec);
  ASSERT_EQ(out.size(), 50u);
  for (uint32_t i = 0; i < 50; i++) {
    EXPECT_EQ(out[i], 5000u + i);
  }
}

TEST_F(BTreeTest, InsertDirectRandomOrder) {
  Rng rng(3);
  std::vector<Key> keys;
  for (int i = 0; i < 30000; i++) {
    keys.push_back(rng.Next());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // Shuffle.
  for (size_t i = keys.size(); i > 1; i--) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  for (Key k : keys) {
    ASSERT_TRUE(tree_.InsertDirect(k, MakeItem(k)));
  }
  std::sort(keys.begin(), keys.end());
  for (Key k : keys) {
    ASSERT_NE(tree_.GetDirect(k), nullptr);
  }
  // Scan order equals sorted order.
  std::vector<Item*> out(keys.size());
  const uint32_t n =
      tree_.ScanDirect(0, UINT64_MAX, static_cast<uint32_t>(keys.size()), out.data());
  ASSERT_EQ(n, keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(out[i]->key, keys[i]);
  }
}

// PopulateDirect (TestBed's hash populate path, with its prefetches) must
// build the table an InsertDirect loop over the same keys builds: the same
// version, keys[] and items[] in every slot of every bucket, i.e. equal host
// bucket bytes. Neither may touch its modeled range: each table is the only
// thing in its own fresh arena, which must still be all zero.
void ExpectPopulateMatchesInsertLoop(uint64_t capacity, uint64_t n) {
  Arena item_arena(n * 128 + (1 << 20));
  SlabAllocator slab(&item_arena);
  std::vector<Item*> items(n);
  for (Key k = 0; k < n; k++) {
    items[k] = slab.AllocateItem(k, 8);
  }
  Arena loop_arena(64ull << 20);
  Arena bulk_arena(64ull << 20);
  CuckooIndex loop(&loop_arena, capacity, /*seed=*/3);
  for (Key k = 0; k < n; k++) {
    ASSERT_TRUE(loop.InsertDirect(k, items[k])) << k;
  }
  CuckooIndex bulk(&bulk_arena, capacity, /*seed=*/3);
  bulk.PopulateDirect(items);
  ASSERT_EQ(bulk.SizeDirect(), n);
  const std::span<const uint8_t> a = loop.HostBytes();
  const std::span<const uint8_t> b = bulk.HostBytes();
  ASSERT_EQ(a.size(), b.size());
  const size_t diff = std::mismatch(a.begin(), a.end(), b.begin()).first - a.begin();
  EXPECT_EQ(diff, a.size()) << "tables differ at bucket "
                            << diff / (a.size() / loop.num_buckets());
  for (const Arena* arena : {&loop_arena, &bulk_arena}) {
    const auto* p = reinterpret_cast<const uint8_t*>(arena->base());
    EXPECT_EQ(std::count(p, p + arena->BytesUsed(), 0),
              static_cast<ptrdiff_t>(arena->BytesUsed()));
  }
  for (Key k = 0; k < n; k++) {
    ASSERT_EQ(bulk.GetDirect(k), items[k]) << k;
  }
}

TEST(CuckooPopulate, MatchesInsertLoopAtTestBedSizing) {
  constexpr uint64_t n = 1 << 17;
  ExpectPopulateMatchesInsertLoop(n + n / 4, n);  // TestBed::Populate's sizing
}

TEST(CuckooPopulate, MatchesInsertLoopWithKicks) {
  // 64 buckets x 4 slots loaded to 0.78: far past the first full bucket pair,
  // so inserts evict and relocate victims (and draw from the kick RNG).
  ExpectPopulateMatchesInsertLoop(192, 200);
}

// The sizing rule: the smallest power-of-two bucket count whose load at the
// capacity is at most kMaxLoad.
TEST(CuckooSizing, SmallestPowerOfTwoAtMaxLoad) {
  struct Case {
    uint64_t capacity;
    uint64_t buckets;
  };
  const Case cases[] = {
      {2'500'000, 1u << 20},  // 2 M-key TestBed: load 0.48 after populate
      {250'000, 1u << 17},    // 200 k-key TestBed
      {2112, 1024},           // a cluster shard index
      {3072, 1024},           // exactly kMaxLoad (CuckooLayout)
      {3073, 2048},
      {192, 64},              // MatchesInsertLoopWithKicks
      {0, 2},
  };
  for (const Case& c : cases) {
    Arena arena(512ull << 20);
    CuckooIndex idx(&arena, c.capacity);
    EXPECT_EQ(idx.num_buckets(), c.buckets) << c.capacity;
    const double load = static_cast<double>(c.capacity) / (4 * idx.num_buckets());
    EXPECT_LE(load, CuckooIndex::kMaxLoad) << c.capacity;
    if (c.buckets > 2) {  // half as many buckets would be too few
      EXPECT_GT(2 * load, CuckooIndex::kMaxLoad) << c.capacity;
    }
  }
}

// Host-plane inserts fill a table to its sizing load within the kick
// budget: a 2^17-bucket table populated straight to kMaxLoad.
TEST(CuckooFill, PopulateReachesMaxLoad) {
  constexpr uint64_t kCapacity = 3 << 17;  // load kMaxLoad on 2^17 buckets
  Arena item_arena(kCapacity * 128 + (1 << 20));
  SlabAllocator slab(&item_arena);
  std::vector<Item*> items(kCapacity);
  for (Key k = 0; k < kCapacity; k++) {
    items[k] = slab.AllocateItem(k, 8);
  }
  Arena arena(64ull << 20);
  CuckooIndex idx(&arena, kCapacity, /*seed=*/11);
  ASSERT_EQ(idx.num_buckets(), 1u << 17);
  idx.PopulateDirect(items);
  EXPECT_EQ(idx.SizeDirect(), kCapacity);
  std::string err;
  EXPECT_TRUE(idx.AuditDirect(&err)) << err;
}

Fiber CuckooInsertFiber(ExecCtx* ctx, CuckooIndex* idx, std::span<Item* const> items,
                        int* failed) {
  for (Item* it : items) {
    *failed += !(co_await idx->CoInsert(*ctx, it->key, it));
  }
}

// Simulated inserts fill a table to its sizing load without a failure: a
// 2^17-bucket table populated to load 0.5, then filled to kMaxLoad by four
// concurrent inserters. Past load 0.65 one relocation does not always free a
// slot, so this needs the multi-step path search.
TEST(CuckooFill, CoInsertsReachMaxLoadWithoutFailure) {
  constexpr uint64_t kBuckets = 1u << 17;
  constexpr uint64_t kCapacity = 3 * kBuckets;  // load kMaxLoad
  constexpr uint64_t kPopulated = 2 * kBuckets;  // load 0.5
  constexpr int kInserters = 4;
  static_assert(CuckooIndex::kMaxLoad == 0.75);
  Arena item_arena(kCapacity * 128 + (1 << 20));
  SlabAllocator slab(&item_arena);
  std::vector<Item*> items(kCapacity);
  for (Key k = 0; k < kCapacity; k++) {
    items[k] = slab.AllocateItem(k, 8);
  }
  Arena arena(64ull << 20);
  CuckooIndex idx(&arena, kCapacity, /*seed=*/11);
  ASSERT_EQ(idx.num_buckets(), kBuckets);
  idx.PopulateDirect({items.data(), kPopulated});

  MachineConfig cfg;
  cfg.num_cores = kInserters;
  MemoryModel mem(cfg);
  Engine eng;
  ExecCtx ctxs[kInserters];
  int failed = 0;
  const uint64_t per = (kCapacity - kPopulated) / kInserters;
  for (int t = 0; t < kInserters; t++) {
    ctxs[t] = ExecCtx{.eng = &eng, .mem = &mem, .core = static_cast<sim::CoreId>(t)};
    eng.Spawn(CuckooInsertFiber(
        &ctxs[t], &idx, {items.data() + kPopulated + t * per, per}, &failed));
  }
  eng.RunToQuiescence(100 * kSec);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(idx.SizeDirect(), kCapacity);
  std::string err;
  EXPECT_TRUE(idx.AuditDirect(&err)) << err;
  for (Key k = 0; k < kCapacity; k++) {
    ASSERT_EQ(idx.GetDirect(k), items[k]) << k;
  }
}

// The cuckoo table's modeled layout is libcuckoo's 128 B bucket, while the
// host keeps only {version, keys[4], items[4]} in a 72 B bucket of its own
// (index/cuckoo.h). The host must never touch the modeled range, and the
// cache model must see every access at the field's address in that range.
struct HostBucket {
  uint64_t version;
  Key keys[4];
  Item* items[4];
};
static_assert(sizeof(HostBucket) == 72, "mirrors CuckooIndex's host bucket");

// Where each present key sits: bucket, slot.
std::map<Key, std::pair<uint64_t, unsigned>> Placement(const CuckooIndex& idx) {
  const std::span<const uint8_t> bytes = idx.HostBytes();
  std::map<Key, std::pair<uint64_t, unsigned>> out;
  for (uint64_t i = 0; i < idx.num_buckets(); i++) {
    HostBucket b;
    std::memcpy(&b, bytes.data() + i * sizeof(HostBucket), sizeof(HostBucket));
    for (unsigned s = 0; s < 4; s++) {
      if (b.items[s] != nullptr) {
        out[b.keys[s]] = {i, s};
      }
    }
  }
  return out;
}

Fiber CuckooMixFiber(ExecCtx* ctx, CuckooIndex* idx, std::vector<Item*> fresh,
                     std::vector<Key> erase, std::vector<Key> get,
                     std::vector<Key>* inserted, int* bad) {
  for (Item* it : fresh) {
    if (co_await idx->CoInsert(*ctx, it->key, it)) {
      inserted->push_back(it->key);
    }
  }
  for (Key k : erase) {
    *bad += !(co_await idx->CoErase(*ctx, k));
  }
  for (Key k : get) {
    Item* it = co_await idx->CoGet(*ctx, k);
    *bad += it == nullptr || it->key != k;
  }
}

Fiber CuckooGetFiber(ExecCtx* ctx, CuckooIndex* idx, Key key, Item** out) {
  *out = co_await idx->CoGet(*ctx, key);
}

TEST(CuckooLayout, ModeledRangeUntouchedAndHotInCacheModel) {
  constexpr uint64_t kCapacity = 3072;  // 1024 buckets, 128 KB modeled
  constexpr Key kPopulated = 2800;      // load 0.68: kicks and relocations
  constexpr Key kFresh = kCapacity - kPopulated;  // fill to capacity
  Arena item_arena(8ull << 20);
  SlabAllocator slab(&item_arena);
  std::vector<Item*> items(kPopulated);
  for (Key k = 0; k < kPopulated; k++) {
    items[k] = slab.AllocateItem(k, 8);
  }
  std::vector<Item*> fresh;
  for (Key k = kPopulated; k < kPopulated + kFresh; k++) {
    fresh.push_back(slab.AllocateItem(k, 8));
  }
  // A fresh arena: the modeled table starts at its base.
  Arena arena(4ull << 20);
  CuckooIndex idx(&arena, kCapacity, /*seed=*/5);
  ASSERT_EQ(idx.num_buckets(), 1024u);
  const uintptr_t modeled = arena.base();
  const size_t modeled_bytes = idx.num_buckets() * 2 * kCachelineBytes;
  idx.PopulateDirect(items);
  const auto before = Placement(idx);

  MachineConfig cfg;
  cfg.num_cores = 4;
  MemoryModel mem(cfg);
  Engine eng;
  ExecCtx ctx{.eng = &eng, .mem = &mem, .core = 0};
  std::vector<Key> erase;
  std::vector<Key> get;
  for (Key k = 0; k < kPopulated; k += 16) {
    erase.push_back(k);
    get.push_back(k + 1);
  }
  std::vector<Key> inserted;
  int bad = 0;
  eng.Spawn(CuckooMixFiber(&ctx, &idx, fresh, erase, get, &inserted, &bad));
  eng.RunToQuiescence(kSec);
  EXPECT_EQ(bad, 0);
  EXPECT_EQ(inserted.size(), kFresh);
  for (Key k : inserted) {
    EXPECT_NE(idx.GetDirect(k), nullptr) << k;
  }
  std::string err;
  EXPECT_TRUE(idx.AuditDirect(&err)) << err;

  // Some key that stayed moved buckets: CoInsert's relocation path ran.
  const auto after = Placement(idx);
  int moved = 0;
  for (const auto& [k, where] : before) {
    const auto it = after.find(k);
    moved += it != after.end() && it->second.first != where.first;
  }
  EXPECT_GT(moved, 0);

  // No page of the modeled range is resident: nothing wrote or read it.
  const long page = sysconf(_SC_PAGESIZE);
  const uintptr_t lo = (modeled + page - 1) & ~uintptr_t(page - 1);
  const uintptr_t hi = (modeled + modeled_bytes) & ~uintptr_t(page - 1);
  ASSERT_LT(lo, hi);
  std::vector<unsigned char> resident((hi - lo) / page);
  ASSERT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()), 0);
  EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                          [](unsigned char v) { return (v & 1) != 0; }),
            0);

  // A hit on slot 3 reads the bucket's key line and its items line; a core
  // that ran nothing else now holds both lines at their modeled addresses.
  Key probe = kPopulated;
  for (const auto& [k, where] : after) {
    if (where.second == 3) {
      probe = k;
      break;
    }
  }
  ASSERT_NE(probe, kPopulated);
  const uint64_t b = after.at(probe).first;
  ExecCtx ctx3{.eng = &eng, .mem = &mem, .core = 3};
  Item* got = nullptr;
  eng.Spawn(CuckooGetFiber(&ctx3, &idx, probe, &got));
  eng.RunToQuiescence(2 * kSec);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->key, probe);
  for (const size_t off : {size_t{0}, size_t{kCachelineBytes}}) {
    const auto* line = reinterpret_cast<const void*>(modeled + b * 128 + off);
    EXPECT_TRUE(mem.Access(3, 0, sim::Stage::kIndex, line, 8, false).private_hit)
        << "bucket " << b << " +" << off;
  }
}

// AuditDirect finds a duplicate without a set of every key: a key that
// passes the candidate-bucket check can only sit in its two candidate
// buckets, so it is stored twice iff it fills more than one of their slots.
// Corruption is planted straight into the host buckets.
class CuckooAuditTest : public ::testing::Test {
 protected:
  static constexpr Key kKeys = 800;

  CuckooAuditTest()
      : item_arena_(8ull << 20), slab_(&item_arena_), arena_(4ull << 20),
        idx_(&arena_, 1600, /*seed=*/5) {
    std::vector<Item*> items(kKeys);
    for (Key k = 0; k < kKeys; k++) {
      items[k] = slab_.AllocateItem(k, 8);
    }
    idx_.PopulateDirect(items);
  }

  // Puts key's own item into a free slot of bucket b; false if b is full.
  bool Plant(uint64_t b, Key key) {
    const std::span<uint8_t> bytes = idx_.MutableHostBytesForTest();
    HostBucket bk;
    std::memcpy(&bk, bytes.data() + b * sizeof(HostBucket), sizeof(bk));
    for (unsigned s = 0; s < 4; s++) {
      if (bk.items[s] == nullptr) {
        bk.keys[s] = key;
        bk.items[s] = idx_.GetDirect(key);
        std::memcpy(bytes.data() + b * sizeof(HostBucket), &bk, sizeof(bk));
        return true;
      }
    }
    return false;
  }

  Arena item_arena_;
  SlabAllocator slab_;
  Arena arena_;
  CuckooIndex idx_;
};

TEST_F(CuckooAuditTest, ReportsAKeyStoredInBothCandidateBuckets) {
  std::string err;
  ASSERT_TRUE(idx_.AuditDirect(&err)) << err;
  Key planted = kKeys;
  for (const auto& [k, where] : Placement(idx_)) {
    const auto [i1, i2] = idx_.CandidateBuckets(k);
    ASSERT_TRUE(where.first == i1 || where.first == i2);
    if (i1 != i2 && Plant(where.first == i1 ? i2 : i1, k)) {
      planted = k;
      break;
    }
  }
  ASSERT_NE(planted, kKeys);
  EXPECT_FALSE(idx_.AuditDirect(&err));
  EXPECT_EQ(err, "cuckoo: duplicate key " + std::to_string(planted));
}

TEST_F(CuckooAuditTest, ReportsAKeyInANonCandidateBucket) {
  // A stray copy outside the candidates: the copy in its own bucket still
  // counts once among the candidate slots, and the stray one is caught by
  // the candidate check.
  const Key key = 7;
  const auto [i1, i2] = idx_.CandidateBuckets(key);
  uint64_t b = 0;
  while (b == i1 || b == i2 || !Plant(b, key)) {
    b++;
    ASSERT_LT(b, idx_.num_buckets());
  }
  std::string err;
  EXPECT_FALSE(idx_.AuditDirect(&err));
  EXPECT_EQ(err, "cuckoo: key 7 in non-candidate bucket");
}

}  // namespace
}  // namespace utps
