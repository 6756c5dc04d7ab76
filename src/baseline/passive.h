// Passive KVS baselines: clients access server memory with one-sided verbs,
// bypassing the server CPU entirely (§5.1's RaceHash and Sherman).
//
//  - RaceHashPassive: RACE-hashing-style index — bucket groups of two
//    adjacent 8-slot buckets (one 128 B doorbell read fetches both), slots
//    packed as {8-bit fingerprint | 48-bit item pointer}. GET = group read +
//    item read (2 RTT); PUT = group read + item write + version CAS (3 RTT).
//  - ShermanPassive: B+-tree with client-side caching of internal nodes
//    (traversal over the cached internals costs client CPU only); GET = leaf
//    read + item read; PUT = lock CAS + combined item write. Scans stream
//    leaves. Values co-located with leaves are approximated by reading the
//    item's 256 B neighbourhood as "the leaf".
//
// Both operate on the same Item records as the server systems, so population
// is shared; their index structures are their own.
#ifndef UTPS_BASELINE_PASSIVE_H_
#define UTPS_BASELINE_PASSIVE_H_

#include <vector>

#include "common/rng.h"
#include "index/btree.h"
#include "sim/arena.h"
#include "sim/nic.h"
#include "store/item.h"

namespace utps {

class PassiveKv {
 public:
  virtual ~PassiveKv() = default;
  // All client ops run on a client ExecCtx and model every verb round trip.
  virtual sim::Task<uint32_t> ClientGet(sim::ExecCtx& cli, Key key,
                                        uint32_t expected_len, uint8_t* out) = 0;
  virtual sim::Task<bool> ClientPut(sim::ExecCtx& cli, Key key,
                                    const uint8_t* value, uint32_t len) = 0;
  virtual sim::Task<uint32_t> ClientScan(sim::ExecCtx& cli, Key lo, Key upper,
                                         uint32_t count, uint8_t* out) {
    (void)cli;
    (void)lo;
    (void)upper;
    (void)count;
    (void)out;
    co_return 0;
  }
  virtual bool InsertDirect(Key key, Item* item) = 0;
  // The NIC is a per-run object; the harness attaches it before each run.
  virtual void SetNic(sim::Nic* nic) = 0;
};

class RaceHashPassive final : public PassiveKv {
 public:
  RaceHashPassive(sim::Arena* arena, uint64_t capacity_items);
  void SetNic(sim::Nic* nic) override { nic_ = nic; }

  sim::Task<uint32_t> ClientGet(sim::ExecCtx& cli, Key key, uint32_t expected_len,
                                uint8_t* out) override;
  sim::Task<bool> ClientPut(sim::ExecCtx& cli, Key key, const uint8_t* value,
                            uint32_t len) override;
  bool InsertDirect(Key key, Item* item) override;

 private:
  static constexpr unsigned kSlotsPerBucket = 8;
  struct Bucket {
    uint64_t slots[kSlotsPerBucket];  // fp(8b) << 48 | ptr(48b); 0 = empty
  };
  static_assert(sizeof(Bucket) == kCachelineBytes, "bucket layout");

  static uint64_t Pack(uint8_t fp, const Item* it) {
    return (uint64_t{fp} << 48) | (reinterpret_cast<uintptr_t>(it) & 0xffffffffffffULL);
  }
  static Item* Unpack(uint64_t slot) {
    return reinterpret_cast<Item*>(slot & 0xffffffffffffULL);
  }
  static uint8_t Fp(uint64_t h) { return static_cast<uint8_t>(h >> 40) | 1; }

  // Each key hashes to one group of two adjacent buckets.
  uint64_t GroupOf(Key key) const { return Mix64(key + 77) & group_mask_; }

  sim::Nic* nic_ = nullptr;
  Bucket* buckets_ = nullptr;  // 2 * num_groups buckets
  uint64_t group_mask_ = 0;
  // Overflow chaining: when a group fills, inserts spill into the next group
  // (RACE's overflow-bucket scheme); clients follow the chain, paying one
  // extra group read per hop. Hop counts are bounded by kMaxSpill.
  static constexpr unsigned kMaxSpill = 8;
  std::vector<uint8_t> spill_;  // per-group: hops used by spilled keys
};

class ShermanPassive final : public PassiveKv {
 public:
  explicit ShermanPassive(sim::Arena* arena) : tree_(arena) {}
  void SetNic(sim::Nic* nic) override { nic_ = nic; }

  sim::Task<uint32_t> ClientGet(sim::ExecCtx& cli, Key key, uint32_t expected_len,
                                uint8_t* out) override;
  sim::Task<bool> ClientPut(sim::ExecCtx& cli, Key key, const uint8_t* value,
                            uint32_t len) override;
  sim::Task<uint32_t> ClientScan(sim::ExecCtx& cli, Key lo, Key upper,
                                 uint32_t count, uint8_t* out) override;
  bool InsertDirect(Key key, Item* item) override {
    return tree_.InsertDirect(key, item);
  }
  void BulkLoadDirect(std::span<Item* const> sorted) {
    tree_.BulkLoadDirect(sorted);
  }

 private:
  // Client-side cached-internal traversal: resolves the item on the host and
  // charges flat client CPU per cached level.
  Item* CachedTraverse(sim::ExecCtx& cli, Key key) {
    cli.Charge(8 * tree_.height());
    return tree_.GetDirect(key);
  }

  sim::Nic* nic_ = nullptr;
  BTreeIndex tree_;
};

}  // namespace utps

#endif  // UTPS_BASELINE_PASSIVE_H_
