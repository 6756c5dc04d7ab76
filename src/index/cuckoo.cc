#include "index/cuckoo.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

namespace utps {

// CPU cost of probing one bucket (fingerprint/key compares).
constexpr sim::Tick kBucketCpuNs = 20;

namespace {

// The smallest power-of-two bucket count (at least 2) whose load at
// `capacity_items` is at most kMaxLoad.
uint64_t BucketsFor(uint64_t capacity_items, unsigned slots, double max_load) {
  const auto min_buckets = static_cast<uint64_t>(
      std::ceil(static_cast<double>(capacity_items) / (slots * max_load)));
  return std::bit_ceil(std::max<uint64_t>(min_buckets, 2));
}

}  // namespace

CuckooIndex::CuckooIndex(sim::Arena* arena, uint64_t capacity_items, uint64_t seed)
    : nbuckets_(BucketsFor(capacity_items, kSlots, kMaxLoad)),
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

void CuckooIndex::PopulateDirect(std::span<Item* const> items) {
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
    } else {
      InsertDirect(k, items[k]);
    }
  }
}

bool CuckooIndex::InsertDirect(Key key, Item* item) {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  if (FindSlot(buckets_[i1], key) >= 0 || FindSlot(buckets_[i2], key) >= 0) {
    return false;  // already present
  }
  int s = FreeSlot(buckets_[i1]);
  uint64_t b = i1;
  if (s < 0) {
    s = FreeSlot(buckets_[i2]);
    b = i2;
  }
  // Both full: a random walk. The homeless entry takes a random slot of b,
  // and the entry it evicts becomes homeless and heads for its other bucket.
  for (unsigned kick = 0; s < 0; kick++) {
    // Past the kick budget the table is fuller than it was sized for.
    UTPS_CHECK_MSG(kick < kMaxKicks,
                   "cuckoo: %u kicks without a free slot at %llu/%llu slots",
                   kMaxKicks, static_cast<unsigned long long>(size_),
                   static_cast<unsigned long long>(nbuckets_ * kSlots));
    const unsigned vs = static_cast<unsigned>(rng_.NextBounded(kSlots));
    std::swap(key, buckets_[b].keys[vs]);
    std::swap(item, buckets_[b].items[vs]);
    b = AltBucket(key, b);
    s = FreeSlot(buckets_[b]);
  }
  buckets_[b].keys[s] = key;
  buckets_[b].items[s] = item;
  size_++;
  return true;
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
  for (;;) {
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
    // Both full: shift entries along a cuckoo path to free a slot in i1 or
    // i2, then retry the placement. Below kMaxLoad a path of kMaxPathLen
    // buckets always exists.
    const CuckooPath path = co_await SearchPath(ctx, i1, i2);
    UnlockPair(ctx, i1, i2);
    UTPS_CHECK_MSG(path.len > 0,
                   "cuckoo: no path of %u buckets for key %llu at %llu/%llu slots",
                   kMaxPathLen, static_cast<unsigned long long>(key),
                   static_cast<unsigned long long>(size_),
                   static_cast<unsigned long long>(nbuckets_ * kSlots));
    co_await MovePath(ctx, path);
  }
}

// Breadth-first from i1 and i2 (both full, their stripes held by the caller)
// to the nearest bucket with a free slot. Each bucket it reaches costs one
// probe read, which also yields the keys that expanding that bucket needs.
// The first level is a depth-1 search (each entry of i1, then of i2, probes
// its other bucket), so an insert that one move serves reads exactly what a
// depth-1 search reads; deeper levels run only where that finds no room.
// Buckets other than i1 and i2 are read unlocked: MovePath re-validates.
sim::Task<CuckooIndex::CuckooPath> CuckooIndex::SearchPath(sim::ExecCtx& ctx,
                                                           uint64_t i1,
                                                           uint64_t i2) {
  // A bucket the search may move an entry out of: levels 0 .. kMaxPathLen - 2
  // of the search tree, at most 2 * kSlots^d buckets at level d.
  struct Node {
    uint64_t bucket : 48;
    uint64_t parent : 8;  // nodes[] index of the bucket this entry moves from
    uint64_t slot : 8;    // the parent slot whose entry moves here
  };
  static constexpr unsigned kMaxNodes = 2 * (1 + 4 + 16 + 64);
  static_assert(kSlots == 4 && kMaxPathLen == 5 && kMaxNodes <= 256,
                "kMaxNodes counts levels 0..3 of a 4-ary search from 2 roots");
  Node nodes[kMaxNodes];
  nodes[0] = {i1, 0, 0};
  nodes[1] = {i2, 0, 0};
  unsigned n = 2;
  unsigned depth = 0;  // of nodes[head]
  unsigned level_end = n;
  for (unsigned head = 0; head < n; head++) {
    if (head == level_end) {
      depth++;
      level_end = n;
    }
    const uint64_t b = nodes[head].bucket;
    for (unsigned sl = 0; sl < kSlots; sl++) {
      if (buckets_[b].items[sl] == nullptr) {
        continue;  // emptied since it was probed
      }
      const uint64_t alt = AltBucket(buckets_[b].keys[sl], b);
      if (alt == i1 || alt == i2) {
        continue;
      }
      co_await ctx.Read(Modeled(alt), kProbeBytes);
      if (FreeSlot(buckets_[alt]) >= 0) {
        CuckooPath path;
        path.len = depth + 2;
        path.bucket[depth + 1] = alt;
        unsigned at = head;
        unsigned from = sl;
        for (unsigned d = depth + 1; d-- > 0;) {
          path.bucket[d] = nodes[at].bucket;
          path.slot[d] = from;
          from = nodes[at].slot;
          at = nodes[at].parent;
        }
        co_return path;
      }
      if (depth + 3 <= kMaxPathLen) {
        nodes[n++] = {alt, head, sl};
      }
    }
  }
  co_return CuckooPath{};
}

// Moves the path's entries one step each, from its far end back to
// bucket[0], under the pair lock of each step's two buckets. A step first
// re-validates what the search saw: the entry is still there and still
// belongs in the next bucket, which still has a free slot. A failed check
// ends the walk; the moves made so far are valid relocations by themselves,
// and CoInsert searches again.
sim::Task<void> CuckooIndex::MovePath(sim::ExecCtx& ctx, const CuckooPath& path) {
  for (unsigned d = path.len - 1; d-- > 0;) {
    const uint64_t src = path.bucket[d];
    const uint64_t dst = path.bucket[d + 1];
    const unsigned ss = path.slot[d];
    co_await LockPair(ctx, src, dst);
    Bucket& sb = buckets_[src];
    Bucket& db = buckets_[dst];
    const int fs = FreeSlot(db);
    const bool valid = fs >= 0 && sb.items[ss] != nullptr &&
                       AltBucket(sb.keys[ss], src) == dst;
    if (valid) {
      db.version++;
      db.keys[fs] = sb.keys[ss];
      db.items[fs] = sb.items[ss];
      db.version++;
      sb.version++;
      sb.items[ss] = nullptr;
      sb.keys[ss] = 0;
      sb.version++;
      co_await ctx.Write(Modeled(dst), kModeledBucketBytes);
      co_await ctx.Write(Modeled(src), kModeledBucketBytes);
    }
    UnlockPair(ctx, src, dst);
    if (!valid) {
      co_return;
    }
  }
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

sim::Task<bool> CuckooIndex::CoReplace(sim::ExecCtx& ctx, Key key, Item* item) {
  const uint64_t h = Hash(key);
  const uint64_t i1 = Index1(h);
  const uint64_t i2 = Index2(i1, h);
  co_await LockPair(ctx, i1, i2);
  bool replaced = false;
  for (uint64_t b : {i1, i2}) {
    Bucket& bk = buckets_[b];
    co_await ctx.Read(Modeled(b), kProbeBytes);
    const int s = FindSlot(bk, key);
    if (s >= 0) {
      bk.version++;
      RetireItem(bk.items[s]);
      bk.items[s] = item;
      bk.version++;
      co_await ctx.Write(Modeled(b, ItemOffset(s)), sizeof(Item*));
      replaced = true;
      break;
    }
  }
  UnlockPair(ctx, i1, i2);
  co_return replaced;
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
