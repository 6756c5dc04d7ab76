// MassTree-flavoured concurrent B+-tree over 8-byte keys.
//
// Concurrency control follows MassTree's recipe specialized to one key layer:
//  - readers descend optimistically, validating per-node seqlock versions and
//    retrying from the root on instability;
//  - writers use top-down lock coupling with preemptive splits (a full child
//    is split while the parent is still locked), so structural changes never
//    propagate upward;
//  - nodes are never freed (arena-backed), which makes optimistic reads safe
//    without an epoch reclamation scheme.
//
// Leaves are linked for range scans. Node size is 4 cachelines (fanout 14),
// giving the pointer-chase depth that makes tree indexes the cache-miss-heavy
// case the paper exploits.
#ifndef UTPS_INDEX_BTREE_H_
#define UTPS_INDEX_BTREE_H_

#include <cstdint>
#include <span>

#include "common/macros.h"
#include "index/index.h"
#include "sim/arena.h"

namespace utps {

class BTreeIndex final : public KvIndex {
 public:
  explicit BTreeIndex(sim::Arena* arena);

  // Host plane.
  Item* GetDirect(Key key) const override;
  bool InsertDirect(Key key, Item* item) override;
  bool EraseDirect(Key key) override;
  uint64_t SizeDirect() const override { return size_; }
  bool AuditDirect(std::string* err) const override;

  // Ascending key order via the leaf chain.
  void ForEachDirect(
      const std::function<void(Key, const Item*)>& fn) const override {
    const Node* n = root_;
    while (n->is_leaf == 0) {
      n = static_cast<const Node*>(n->ptrs[0]);
    }
    for (; n != nullptr; n = n->right) {
      for (int i = 0; i < n->nkeys; i++) {
        fn(n->keys[i], static_cast<const Item*>(n->ptrs[i]));
      }
    }
  }

  // Bulk load from items in strictly ascending key order (each keyed by its
  // own `key`); much faster than repeated InsertDirect for population. Must
  // be called on an empty tree.
  void BulkLoadDirect(std::span<Item* const> sorted);

  // Simulated plane.
  sim::Task<Item*> CoGet(sim::ExecCtx& ctx, Key key) override;
  sim::Task<bool> CoInsert(sim::ExecCtx& ctx, Key key, Item* item) override;
  sim::Task<bool> CoErase(sim::ExecCtx& ctx, Key key) override;
  sim::Task<bool> CoReplace(sim::ExecCtx& ctx, Key key, Item* item) override;
  bool SupportsScan() const override { return true; }
  sim::Task<uint32_t> CoScan(sim::ExecCtx& ctx, Key lo, Key hi, uint32_t max,
                             Item** out) override;

  // Host-plane scan for verification.
  uint32_t ScanDirect(Key lo, Key hi, uint32_t max, Item** out) const;

  unsigned height() const { return height_; }

  static constexpr unsigned kFanout = 13;

 private:
  struct Node {
    uint64_t version = 0;  // seqlock: odd = locked
    uint16_t nkeys = 0;
    uint8_t is_leaf = 0;
    uint8_t has_high = 0;  // 1 if high_key bounds this node (has right sibling)
    uint8_t pad0[4] = {};
    Key high_key = 0;       // lowest key of the right sibling's subtree
    Node* right = nullptr;  // B-link right sibling (leaf chain for leaves)
    Key keys[kFanout] = {};
    // Internal node: ptrs[0..nkeys] are children.
    // Leaf: ptrs[0..nkeys-1] are Item*.
    void* ptrs[kFanout + 1] = {};
    uint64_t pad1 = 0;
  };
  static_assert(sizeof(Node) == 4 * kCachelineBytes, "node layout");

  Node* NewNode(bool leaf);
  static int LowerBound(const Node* n, Key key);
  // `prev_leaf` is the last leaf the in-order walk visited (null before the
  // first) and `leaves` counts them: the leaf chain is checked as the walk
  // reaches each leaf, with nothing on the heap.
  bool AuditNode(const Node* n, unsigned depth, const Key* lo, const Key* hi,
                 uint64_t* counted, const Node** prev_leaf, uint64_t* leaves,
                 std::string* err) const;
  // Splits full child `ci` of locked, non-full parent `p`.
  void SplitChild(Node* p, int ci, Node* c);
  // Simulated helpers.
  sim::Task<void> LockNode(sim::ExecCtx& ctx, Node* n);
  sim::Task<void> UnlockNode(sim::ExecCtx& ctx, Node* n);
  // Descends from the root under lock coupling and returns the leaf that
  // holds (or would hold) `key`, still locked.
  sim::Task<Node*> LockLeaf(sim::ExecCtx& ctx, Key key);

  sim::Arena* arena_;
  Node* root_;
  // Arena mirror of root_: the modeled address of the root pointer word.
  // &root_ is on the host heap, and modeled set indices may not depend on
  // host heap addresses (see sim/arena.h).
  Node** root_word_ = nullptr;
  unsigned height_ = 1;  // number of levels (1 = root is a leaf)
  uint64_t size_ = 0;
  uint64_t root_version_ = 0;  // bumped when root_ changes (reader validation)
};

}  // namespace utps

#endif  // UTPS_INDEX_BTREE_H_
