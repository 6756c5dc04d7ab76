#include "index/cuckoo.h"

#include <bit>
#include <string>

namespace utps {

// CPU cost of probing one bucket (fingerprint/key compares).
constexpr sim::Tick kBucketCpuNs = 20;

namespace {

uint64_t NextPow2(uint64_t v) {
  if (v < 2) {
    return 2;
  }
  return std::bit_ceil(v);
}

}  // namespace

CuckooIndex::CuckooIndex(sim::Arena* arena, uint64_t capacity_items, uint64_t seed)
    // 4 slots per bucket; load factor <= 0.4 at capacity (see cuckoo.h).
    : nbuckets_(NextPow2(capacity_items / 2 + capacity_items / 8 + 4)),
      mask_(nbuckets_ - 1),
      hash_seed_(seed),
      modeled_(arena->AllocateArray<uint8_t>(nbuckets_ * kModeledBucketBytes,
                                             kModeledBucketBytes)),
      host_(nbuckets_ * sizeof(Bucket), kCachelineBytes),
      // Arena memory is zero-filled (sim/arena.h): every bucket starts empty.
      buckets_(host_.AllocateArray<Bucket>(nbuckets_)),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 1) {
  host_.AdviseHugePages();
  // Stripe lock words live in the arena (one cacheline each, like the locks'
  // own alignas layout) so their modeled set indices don't follow the host
  // heap address of this index object.
  uint8_t* lw = arena->AllocateArray<uint8_t>(
      size_t{kNumStripes} * kCachelineBytes, kCachelineBytes);
  for (unsigned s = 0; s < kNumStripes; s++) {
    stripes_[s].BindModeledWord(lw + size_t{s} * kCachelineBytes);
  }
}

// ----------------------------------------------------------- host plane

Item* CuckooIndex::GetDirect(Key key) const {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  int s = FindSlot(buckets_[i1], key);
  if (s >= 0) {
    return buckets_[i1].items[s];
  }
  const uint64_t i2 = Index2(i1, h);
  s = FindSlot(buckets_[i2], key);
  return s >= 0 ? buckets_[i2].items[s] : nullptr;
}

bool CuckooIndex::InsertDirect(Key key, Item* item) {
  return InsertDirectInternal(key, item, 0);
}

bool CuckooIndex::PopulateDirect(std::span<Item* const> items) {
  UTPS_CHECK(size_ == 0);
  const uint64_t n = items.size();
  for (Key k = 0; k < n; k++) {
    if (k + kPopulateAhead < n) {
      // First and last byte: a 72 B bucket may straddle two lines.
      const Bucket* next = &buckets_[Index1(Hash(k + kPopulateAhead))];
      const char* p = reinterpret_cast<const char*>(next);
      __builtin_prefetch(p, /*rw=*/1);
      __builtin_prefetch(p + sizeof(Bucket) - 1, /*rw=*/1);
    }
    // Key k is not in the table (it holds exactly keys 0..k-1), so
    // InsertDirect's duplicate probes of both buckets would find nothing and
    // it would take the first free slot of the first bucket: do that without
    // touching the second bucket. A full first bucket takes InsertDirect's
    // path, kicks included.
    Bucket& b = buckets_[Index1(Hash(k))];
    const int s = FreeSlot(b);
    if (s >= 0) {
      b.keys[s] = k;
      b.items[s] = items[k];
      size_++;
    } else if (!InsertDirect(k, items[k])) {
      return false;
    }
  }
  return true;
}

bool CuckooIndex::InsertDirectInternal(Key key, Item* item, unsigned depth) {
  if (depth > kMaxKicks) {
    return false;
  }
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  if (FindSlot(buckets_[i1], key) >= 0 || FindSlot(buckets_[i2], key) >= 0) {
    return false;  // already present
  }
  int s = FreeSlot(buckets_[i1]);
  uint64_t target = i1;
  if (s < 0) {
    s = FreeSlot(buckets_[i2]);
    target = i2;
  }
  if (s >= 0) {
    buckets_[target].keys[s] = key;
    buckets_[target].items[s] = item;
    size_++;
    return true;
  }
  // Both buckets full: evict a random victim from i2 and reinsert it (the
  // recursion relocates it to its alternate bucket, possibly cascading).
  const unsigned vs = static_cast<unsigned>(rng_.NextBounded(kSlots));
  const Key vkey = buckets_[i2].keys[vs];
  Item* vitem = buckets_[i2].items[vs];
  buckets_[i2].keys[vs] = key;
  buckets_[i2].items[vs] = item;
  size_++;
  // Reinsert the victim, preferring its alternate bucket.
  const uint64_t vh = Hash(vkey);
  const uint64_t vi1 = Index1(vh);
  const uint64_t vi2 = Index2(vi1, vh);
  const uint64_t valt = (vi1 == i2) ? vi2 : vi1;
  int fs = FreeSlot(buckets_[valt]);
  if (fs >= 0) {
    buckets_[valt].keys[fs] = vkey;
    buckets_[valt].items[fs] = vitem;
    return true;
  }
  size_--;  // the recursive call re-increments on success
  return InsertDirectInternal(vkey, vitem, depth + 1);
}

bool CuckooIndex::EraseDirect(Key key) {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  for (uint64_t b : {i1, i2}) {
    const int s = FindSlot(buckets_[b], key);
    if (s >= 0) {
      buckets_[b].items[s] = nullptr;
      buckets_[b].keys[s] = 0;
      size_--;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------- simulated plane

sim::Task<Item*> CuckooIndex::CoGet(sim::ExecCtx& ctx, Key key) {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  for (;;) {
    Bucket& b1 = buckets_[i1];
    ctx.Charge(kBucketCpuNs);
    co_await ctx.Read(Modeled(i1), kProbeBytes);
    const uint64_t v1 = b1.version;
    if (v1 & 1) {
      co_await ctx.Yield();
      continue;
    }
    int s = FindSlot(b1, key);
    if (s >= 0) {
      co_await ctx.Read(Modeled(i1, ItemOffset(s)), sizeof(Item*));
      Item* it = b1.items[s];
      if (b1.version == v1 && it != nullptr && b1.keys[s] == key) {
        co_return it;
      }
      continue;  // raced with a mutation; retry
    }
    Bucket& b2 = buckets_[i2];
    ctx.Charge(kBucketCpuNs);
    co_await ctx.Read(Modeled(i2), kProbeBytes);
    const uint64_t v2 = b2.version;
    if (v2 & 1) {
      co_await ctx.Yield();
      continue;
    }
    s = FindSlot(b2, key);
    if (s >= 0) {
      co_await ctx.Read(Modeled(i2, ItemOffset(s)), sizeof(Item*));
      Item* it = b2.items[s];
      if (b2.version == v2 && it != nullptr && b2.keys[s] == key) {
        co_return it;
      }
      continue;
    }
    // Negative result is valid only if both buckets were stable.
    if (b1.version == v1 && b2.version == v2) {
      co_return nullptr;
    }
  }
}

sim::Task<void> CuckooIndex::LockPair(sim::ExecCtx& ctx, uint64_t b1, uint64_t b2) {
  const uint64_t s1 = b1 & (kNumStripes - 1);
  const uint64_t s2 = b2 & (kNumStripes - 1);
  if (s1 == s2) {
    co_await stripes_[s1].Acquire(ctx);
    co_return;
  }
  const uint64_t lo = s1 < s2 ? s1 : s2;
  const uint64_t hi = s1 < s2 ? s2 : s1;
  co_await stripes_[lo].Acquire(ctx);
  co_await stripes_[hi].Acquire(ctx);
}

void CuckooIndex::UnlockPair(sim::ExecCtx& ctx, uint64_t b1, uint64_t b2) {
  const uint64_t s1 = b1 & (kNumStripes - 1);
  const uint64_t s2 = b2 & (kNumStripes - 1);
  if (s1 == s2) {
    stripes_[s1].Release(ctx);
    return;
  }
  stripes_[s1].Release(ctx);
  stripes_[s2].Release(ctx);
}

sim::Task<bool> CuckooIndex::CoInsert(sim::ExecCtx& ctx, Key key, Item* item) {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  for (unsigned attempt = 0; attempt < 64; attempt++) {
    co_await LockPair(ctx, i1, i2);
    Bucket& b1 = buckets_[i1];
    Bucket& b2 = buckets_[i2];
    co_await ctx.Read(Modeled(i1), kModeledBucketBytes);
    co_await ctx.Read(Modeled(i2), kModeledBucketBytes);
    if (FindSlot(b1, key) >= 0 || FindSlot(b2, key) >= 0) {
      UnlockPair(ctx, i1, i2);
      co_return false;  // already present
    }
    int s = FreeSlot(b1);
    uint64_t target = i1;
    if (s < 0) {
      s = FreeSlot(b2);
      target = i2;
    }
    if (s >= 0) {
      Bucket& tb = buckets_[target];
      tb.version++;
      tb.keys[s] = key;
      tb.items[s] = item;
      tb.version++;
      size_++;
      co_await ctx.Write(Modeled(target), kModeledBucketBytes);
      UnlockPair(ctx, i1, i2);
      co_return true;
    }
    // Both full: find a relocatable entry — some slot in i1 or i2 whose
    // alternate bucket has space (depth-1 BFS is sufficient below the sizing
    // load factor).
    uint64_t src = 0;
    uint64_t dst = 0;
    int src_slot = -1;
    for (uint64_t b : {i1, i2}) {
      for (unsigned sl = 0; sl < kSlots && src_slot < 0; sl++) {
        const Key k = buckets_[b].keys[sl];
        const uint64_t kh = Hash(k);
        const uint64_t k1 = Index1(kh);
        const uint64_t alt = (k1 == b) ? Index2(k1, kh) : k1;
        if (alt == i1 || alt == i2) {
          continue;
        }
        co_await ctx.Read(Modeled(alt), kProbeBytes);
        if (FreeSlot(buckets_[alt]) >= 0) {
          src = b;
          dst = alt;
          src_slot = static_cast<int>(sl);
        }
      }
      if (src_slot >= 0) {
        break;
      }
    }
    UnlockPair(ctx, i1, i2);
    if (src_slot < 0) {
      co_return false;  // no space within depth-1 BFS
    }
    // Relocate src_slot from src to dst under pair locks, re-validating.
    co_await LockPair(ctx, src, dst);
    Bucket& sb = buckets_[src];
    Bucket& db = buckets_[dst];
    const int fs = FreeSlot(db);
    if (fs >= 0 && sb.items[src_slot] != nullptr) {
      db.version++;
      db.keys[fs] = sb.keys[src_slot];
      db.items[fs] = sb.items[src_slot];
      db.version++;
      sb.version++;
      sb.items[src_slot] = nullptr;
      sb.keys[src_slot] = 0;
      sb.version++;
      co_await ctx.Write(Modeled(dst), kModeledBucketBytes);
      co_await ctx.Write(Modeled(src), kModeledBucketBytes);
    }
    UnlockPair(ctx, src, dst);
    // Loop retries the placement with the freed slot.
  }
  co_return false;
}

sim::Task<bool> CuckooIndex::CoErase(sim::ExecCtx& ctx, Key key) {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  co_await LockPair(ctx, i1, i2);
  bool erased = false;
  for (uint64_t b : {i1, i2}) {
    Bucket& bk = buckets_[b];
    co_await ctx.Read(Modeled(b), kProbeBytes);
    const int s = FindSlot(bk, key);
    if (s >= 0) {
      bk.version++;
      bk.items[s] = nullptr;
      bk.keys[s] = 0;
      bk.version++;
      size_--;
      co_await ctx.Write(Modeled(b), kModeledBucketBytes);
      erased = true;
      break;
    }
  }
  UnlockPair(ctx, i1, i2);
  co_return erased;
}

bool CuckooIndex::AuditDirect(std::string* err) const {
  auto fail = [err](std::string msg) {
    if (err != nullptr) {
      *err = "cuckoo: " + std::move(msg);
    }
    return false;
  };
  for (unsigned s = 0; s < kNumStripes; s++) {
    if (stripes_[s].held()) {
      return fail("stripe lock " + std::to_string(s) + " held at quiesce");
    }
  }
  uint64_t counted = 0;
  for (uint64_t b = 0; b < nbuckets_; b++) {
    const Bucket& bk = buckets_[b];
    if (bk.version & 1) {
      return fail("bucket " + std::to_string(b) + " version odd at quiesce");
    }
    for (unsigned s = 0; s < kSlots; s++) {
      const Item* it = bk.items[s];
      if (it == nullptr) {
        continue;
      }
      counted++;
      const Key key = bk.keys[s];
      if (it->key != key) {
        return fail("slot key mismatch in bucket " + std::to_string(b));
      }
      if (it->ctrl & 1) {
        return fail("item seqlock odd at quiesce, key " + std::to_string(key));
      }
      const auto [i1, i2] = CandidateBuckets(key);
      if (b != i1 && b != i2) {
        return fail("key " + std::to_string(key) + " in non-candidate bucket");
      }
      // A key that passes the check above can only sit in its two candidate
      // buckets, so it is stored twice iff it fills more than one of their
      // slots: exact, and no O(keys) set on the heap (DESIGN.md §13).
      const unsigned copies =
          SlotsHolding(buckets_[i1], key) +
          (i2 != i1 ? SlotsHolding(buckets_[i2], key) : 0);
      if (copies > 1) {
        return fail("duplicate key " + std::to_string(key));
      }
    }
  }
  if (counted != size_) {
    return fail("size_=" + std::to_string(size_) + " but counted " +
                std::to_string(counted));
  }
  return true;
}

}  // namespace utps
