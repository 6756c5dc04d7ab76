// Concurrent cuckoo hash table (libcuckoo-flavoured): 2 candidate buckets per
// key, 4 slots per bucket, optimistic bucket-version reads, striped spinlocks
// for mutations. Simulated inserts make room along a breadth-first cuckoo
// path of at most kMaxPathLen buckets, as libcuckoo does; host-plane inserts
// use a bounded random walk.
//
// Modeled layout vs host storage (DESIGN.md §13): the modeled table is
// libcuckoo's, one 128 B bucket per two cachelines with {version, keys[4]} on
// the first line, so a negative probe costs one line and a positive probe of
// slot 3 two. The table takes that range from the caller's arena, but the
// host never touches it: the buckets' real state lives in a dense 72 B-per-
// bucket array of its own, and every modeled access names the arena address
// the field has in the 128 B layout (Modeled()).
#ifndef UTPS_INDEX_CUCKOO_H_
#define UTPS_INDEX_CUCKOO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "index/index.h"
#include "sim/arena.h"
#include "sim/sync.h"

namespace utps {

class CuckooIndex final : public KvIndex {
 public:
  // The load factor (items / slots) the table is sized for. An insert below
  // it always finds room; one that does not is a broken invariant and aborts,
  // so a false return from an insert only ever means "already present".
  static constexpr double kMaxLoad = 0.75;

  // `capacity_items` is the expected maximum item count. The table gets the
  // smallest power-of-two number of 4-slot buckets whose load at
  // `capacity_items` is at most kMaxLoad, and never resizes. A 2M-key TestBed
  // (capacity 2.5M) gets 2^20 buckets at load 0.48 after populate: 128 MB
  // modeled and 72 MB on the host.
  CuckooIndex(sim::Arena* arena, uint64_t capacity_items, uint64_t seed = 1);

  Item* GetDirect(Key key) const override;
  bool InsertDirect(Key key, Item* item) override;
  // Fills an empty table with key k -> items[k] for every k, in key order:
  // the same table, byte for byte, as an InsertDirect loop. It skips the
  // duplicate probes (every key is new) and, while inserting key k,
  // prefetches the first candidate bucket of key k + kPopulateAhead, a
  // host-side hint that issues no modeled access.
  void PopulateDirect(std::span<Item* const> items);
  bool EraseDirect(Key key) override;
  uint64_t SizeDirect() const override { return size_; }
  bool AuditDirect(std::string* err) const override;

  // Bucket-array order: deterministic because bucket placement is a pure
  // function of the (seeded) hash and the insertion/kick history.
  void ForEachDirect(
      const std::function<void(Key, const Item*)>& fn) const override {
    for (uint64_t b = 0; b < nbuckets_; b++) {
      for (unsigned s = 0; s < kSlots; s++) {
        if (buckets_[b].items[s] != nullptr) {
          fn(buckets_[b].keys[s], buckets_[b].items[s]);
        }
      }
    }
  }

  sim::Task<Item*> CoGet(sim::ExecCtx& ctx, Key key) override;
  sim::Task<bool> CoInsert(sim::ExecCtx& ctx, Key key, Item* item) override;
  sim::Task<bool> CoErase(sim::ExecCtx& ctx, Key key) override;
  sim::Task<bool> CoReplace(sim::ExecCtx& ctx, Key key, Item* item) override;

  uint64_t num_buckets() const { return nbuckets_; }
  // The buckets' host state in bucket order, 72 B each: {version, keys[4],
  // items[4]}. Two tables hold the same entries in the same slots iff these
  // bytes are equal.
  std::span<const uint8_t> HostBytes() const {
    return {reinterpret_cast<const uint8_t*>(buckets_),
            nbuckets_ * sizeof(Bucket)};
  }
  // Test hook: the same bytes, writable, so audit tests can corrupt them.
  std::span<uint8_t> MutableHostBytesForTest() {
    return {reinterpret_cast<uint8_t*>(buckets_), nbuckets_ * sizeof(Bucket)};
  }
  // The two buckets `key` may occupy (equal when its hashes collide).
  std::pair<uint64_t, uint64_t> CandidateBuckets(Key key) const {
    const uint64_t h = Hash(key);
    const uint64_t i1 = Index1(h);
    return {i1, Index2(i1, h)};
  }

 private:
  static constexpr unsigned kSlots = 4;
  static constexpr unsigned kNumStripes = 4096;
  static constexpr unsigned kMaxKicks = 256;
  // Longest cuckoo path CoInsert searches, in buckets: the first is one of
  // the key's candidates, the last has a free slot, so at most
  // kMaxPathLen - 1 entries move (libcuckoo's MAX_BFS_PATH_LEN).
  static constexpr unsigned kMaxPathLen = 5;
  // PopulateDirect's prefetch distance in keys: far enough ahead that a
  // bucket's DRAM miss overlaps the inserts in between.
  static constexpr uint64_t kPopulateAhead = 16;

  // A bucket's host state, laid out as the first 72 B of its modeled 128 B
  // bucket. An aggregate, so the host mapping's zero bytes already are an
  // empty bucket.
  struct Bucket {
    uint64_t version = 0;  // seqlock over membership; odd = mutating
    Key keys[kSlots] = {};
    Item* items[kSlots] = {};
  };
  static_assert(sizeof(Bucket) == 72, "host bucket layout");
  static constexpr size_t kModeledBucketBytes = 2 * kCachelineBytes;
  // {version, keys[4]}: what a probe reads, all on the first line.
  static constexpr size_t kProbeBytes = offsetof(Bucket, items);

  static constexpr size_t ItemOffset(unsigned slot) {
    return offsetof(Bucket, items) + slot * sizeof(Item*);
  }

  // The modeled address of the field at `offset` in bucket b: what every
  // ctx.Read/Write of the table passes to the cache model.
  const void* Modeled(uint64_t b, size_t offset = 0) const {
    return modeled_ + b * kModeledBucketBytes + offset;
  }

  uint64_t Hash(Key key) const { return Mix64(key + hash_seed_); }
  uint64_t Index1(uint64_t h) const { return h & mask_; }
  // Alternate index is an involution: alt(alt(i)) == i.
  uint64_t Index2(uint64_t i1, uint64_t h) const {
    const uint64_t fp = (h >> 48) | 1;  // non-zero fingerprint
    return (i1 ^ Mix64(fp)) & mask_;
  }
  // The other candidate bucket of `key`, which sits in bucket b.
  uint64_t AltBucket(Key key, uint64_t b) const {
    const uint64_t h = Hash(key);
    const uint64_t k1 = Index1(h);
    return k1 == b ? Index2(k1, h) : k1;
  }

  // Finds key in bucket; returns slot index or -1 (host-side scan).
  int FindSlot(const Bucket& b, Key key) const {
    for (unsigned s = 0; s < kSlots; s++) {
      if (b.items[s] != nullptr && b.keys[s] == key) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  unsigned SlotsHolding(const Bucket& b, Key key) const {
    unsigned n = 0;
    for (unsigned s = 0; s < kSlots; s++) {
      n += b.items[s] != nullptr && b.keys[s] == key;
    }
    return n;
  }

  int FreeSlot(const Bucket& b) const {
    for (unsigned s = 0; s < kSlots; s++) {
      if (b.items[s] == nullptr) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  // Locks two bucket stripes in address order (handles same-stripe case).
  sim::Task<void> LockPair(sim::ExecCtx& ctx, uint64_t b1, uint64_t b2);
  void UnlockPair(sim::ExecCtx& ctx, uint64_t b1, uint64_t b2);

  // A cuckoo path: moving the entry in slot[d] of bucket[d] to bucket[d + 1],
  // for d from len - 2 down to 0, frees slot[0] of bucket[0], a candidate of
  // the key being inserted. bucket[len - 1] had a free slot when searched.
  struct CuckooPath {
    uint64_t bucket[kMaxPathLen];
    unsigned slot[kMaxPathLen];
    unsigned len = 0;
  };
  sim::Task<CuckooPath> SearchPath(sim::ExecCtx& ctx, uint64_t i1, uint64_t i2);
  sim::Task<void> MovePath(sim::ExecCtx& ctx, const CuckooPath& path);

  const uint64_t nbuckets_;
  const uint64_t mask_;
  const uint64_t hash_seed_;
  // nbuckets_ x kModeledBucketBytes of the caller's arena; never dereferenced.
  const uint8_t* modeled_;
  // The buckets' own zero-filled mapping, advised onto huge pages. Only
  // cacheline-aligned: a 4 MB-aligned one would give each small index (one
  // per cluster shard replica) a whole huge page.
  sim::Arena host_;
  Bucket* const buckets_;
  uint64_t size_ = 0;
  Rng rng_;
  sim::SimSpinlock stripes_[kNumStripes];
};

}  // namespace utps

#endif  // UTPS_INDEX_CUCKOO_H_
