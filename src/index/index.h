// Index interface implemented by the cuckoo hash table (libcuckoo-style) and
// the MassTree-flavoured B+-tree.
//
// Two access planes:
//  - Direct*: host-side, untimed. Used for database population and test
//    verification only.
//  - Co*: coroutine operations that charge the cache model for every node
//    touch and honour the index's concurrency-control protocol. These are
//    what server workers execute; when run under sim::RunBatch they
//    interleave at memory stalls (batched indexing, §3.3).
#ifndef UTPS_INDEX_INDEX_H_
#define UTPS_INDEX_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>

#include "sim/exec.h"
#include "sim/task.h"
#include "store/item.h"
#include "store/kv.h"

namespace utps {

class KvIndex {
 public:
  virtual ~KvIndex() = default;

  // ------------------------------------------------------------- host plane
  virtual Item* GetDirect(Key key) const = 0;
  virtual bool InsertDirect(Key key, Item* item) = 0;
  virtual bool EraseDirect(Key key) = 0;
  virtual uint64_t SizeDirect() const = 0;

  // Structural audit, host-side, to be run after the simulation quiesces: no
  // seqlock may be mid-write, membership bookkeeping must match the structure,
  // and implementation invariants (bucket placement / key ordering) must
  // hold. Returns false and describes the violation in `err` on failure.
  virtual bool AuditDirect(std::string* err) const {
    (void)err;
    return true;
  }

  // Host-side iteration over every live (key, item) pair, in an order that is
  // deterministic for a deterministic mutation history (bucket-array order for
  // the hash index, key order for the tree). Used by cluster shard migration
  // to snapshot a frozen shard and by replica audits; never called while
  // simulated ops are in flight.
  virtual void ForEachDirect(
      const std::function<void(Key, const Item*)>& fn) const = 0;

  // -------------------------------------------------------- simulated plane
  // Returns the item pointer or nullptr.
  virtual sim::Task<Item*> CoGet(sim::ExecCtx& ctx, Key key) = 0;
  // Insert-if-absent; returns false only if the key already exists. An index
  // that runs out of room aborts instead: a PUT is never acknowledged without
  // its key.
  virtual sim::Task<bool> CoInsert(sim::ExecCtx& ctx, Key key, Item* item) = 0;
  virtual sim::Task<bool> CoErase(sim::ExecCtx& ctx, Key key) = 0;
  // Points a present key at `item` and retires the item it displaces
  // (RetireItem) at the same instant, so no reader finds the key absent
  // between the two and none serves the old value after the swap. Returns
  // false, changing nothing, if the key is absent.
  virtual sim::Task<bool> CoReplace(sim::ExecCtx& ctx, Key key, Item* item) = 0;

  // Range scan (tree index only; the default finds nothing). Collects up to `max` items with key in [lo, hi], ascending; returns count.
  virtual sim::Task<uint32_t> CoScan(sim::ExecCtx& ctx, Key lo, Key hi,
                                     uint32_t max, Item** out) {
    (void)ctx;
    (void)lo;
    (void)hi;
    (void)max;
    (void)out;
    co_return 0;
  }
};

enum class IndexType : uint8_t { kHash = 0, kTree = 1 };

inline const char* IndexName(IndexType t) {
  return t == IndexType::kHash ? "hash" : "tree";
}

}  // namespace utps

#endif  // UTPS_INDEX_INDEX_H_
