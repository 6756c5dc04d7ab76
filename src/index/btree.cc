#include "index/btree.h"

#include <algorithm>
#include <string>
#include <vector>

namespace utps {

// CPU cost of searching one node (binary search + key compares + version
// handling) — calibrated so a full traversal costs a few hundred ns of
// compute, as real MassTree lookups do.
constexpr sim::Tick kNodeCpuNs = 30;
// An optimistic reader that finds a node locked (odd version) waits this long
// in virtual time before re-reading it. A yield would not do: inside a
// coroutine batch whose core has accrued CPU time, a yield resumes at once,
// so a reader spinning there never lets the lock holder (another fiber) run.
constexpr sim::Tick kLockedWaitNs = 30;

// Node layout keeps an explicit right-sibling link (B-link)
// (B-link): readers that race with a split follow the link instead of missing
// migrated keys. high_key/has_high bound the node's key range.

BTreeIndex::BTreeIndex(sim::Arena* arena) : arena_(arena) {
  root_word_ = static_cast<Node**>(
      arena_->Allocate(kCachelineBytes, kCachelineBytes));
  root_ = NewNode(/*leaf=*/true);
  *root_word_ = root_;
}

BTreeIndex::Node* BTreeIndex::NewNode(bool leaf) {
  Node* n = static_cast<Node*>(arena_->Allocate(sizeof(Node), sizeof(Node)));
  new (n) Node();
  n->is_leaf = leaf ? 1 : 0;
  return n;
}

// First index i in [0, nkeys) with keys[i] >= key; nkeys if none.
int BTreeIndex::LowerBound(const Node* n, Key key) {
  int lo = 0;
  int hi = n->nkeys;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (n->keys[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

// Child index for routing `key` through an internal node: first i with
// key < keys[i] (keys equal to a separator belong to the right subtree).
int ChildIndex(const BTreeIndex* /*unused*/, const uint16_t nkeys, const Key* keys,
               Key key) {
  int lo = 0;
  int hi = nkeys;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (keys[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void BTreeIndex::SplitChild(Node* p, int ci, Node* c) {
  UTPS_DCHECK(c->nkeys == kFanout);
  UTPS_DCHECK(p->nkeys < kFanout);
  Node* r = NewNode(c->is_leaf != 0);
  const unsigned m = kFanout / 2;
  Key separator;
  if (c->is_leaf) {
    // Right leaf takes keys [m, kFanout); separator is its first key.
    r->nkeys = static_cast<uint16_t>(kFanout - m);
    for (unsigned i = m; i < kFanout; i++) {
      r->keys[i - m] = c->keys[i];
      r->ptrs[i - m] = c->ptrs[i];
    }
    separator = r->keys[0];
    c->nkeys = static_cast<uint16_t>(m);
  } else {
    // Internal: key at m moves up; right takes keys (m, kFanout) and children
    // (m, kFanout].
    separator = c->keys[m];
    r->nkeys = static_cast<uint16_t>(kFanout - m - 1);
    for (unsigned i = 0; i < r->nkeys; i++) {
      r->keys[i] = c->keys[m + 1 + i];
    }
    for (unsigned i = 0; i <= r->nkeys; i++) {
      r->ptrs[i] = c->ptrs[m + 1 + i];
    }
    c->nkeys = static_cast<uint16_t>(m);
  }
  // B-link maintenance.
  r->right = c->right;
  r->has_high = c->has_high;
  r->high_key = c->high_key;
  c->right = r;
  c->has_high = 1;
  c->high_key = separator;
  // Insert separator + right child into the parent at position ci.
  for (int i = p->nkeys; i > ci; i--) {
    p->keys[i] = p->keys[i - 1];
    p->ptrs[i + 1] = p->ptrs[i];
  }
  p->keys[ci] = separator;
  p->ptrs[ci + 1] = r;
  p->nkeys++;
}

// ------------------------------------------------------------- host plane

Item* BTreeIndex::GetDirect(Key key) const {
  const Node* n = root_;
  for (;;) {
    while (n->has_high && key >= n->high_key) {
      n = n->right;
    }
    if (n->is_leaf) {
      const int i = LowerBound(n, key);
      if (i < n->nkeys && n->keys[i] == key) {
        return static_cast<Item*>(n->ptrs[i]);
      }
      return nullptr;
    }
    n = static_cast<const Node*>(n->ptrs[ChildIndex(this, n->nkeys, n->keys, key)]);
  }
}

bool BTreeIndex::InsertDirect(Key key, Item* item) {
  if (root_->nkeys == kFanout) {
    Node* new_root = NewNode(/*leaf=*/false);
    new_root->ptrs[0] = root_;
    SplitChild(new_root, 0, root_);
    root_ = new_root;
    *root_word_ = root_;
    root_version_++;
    height_++;
  }
  Node* n = root_;
  for (;;) {
    while (n->has_high && key >= n->high_key) {
      n = n->right;
    }
    if (n->is_leaf) {
      const int i = LowerBound(n, key);
      if (i < n->nkeys && n->keys[i] == key) {
        return false;  // duplicate
      }
      UTPS_DCHECK(n->nkeys < kFanout);
      for (int j = n->nkeys; j > i; j--) {
        n->keys[j] = n->keys[j - 1];
        n->ptrs[j] = n->ptrs[j - 1];
      }
      n->keys[i] = key;
      n->ptrs[i] = item;
      n->nkeys++;
      size_++;
      return true;
    }
    const int ci = ChildIndex(this, n->nkeys, n->keys, key);
    Node* c = static_cast<Node*>(n->ptrs[ci]);
    if (c->nkeys == kFanout) {
      SplitChild(n, ci, c);
      continue;  // re-route within n (separator may redirect us)
    }
    n = c;
  }
}

bool BTreeIndex::EraseDirect(Key key) {
  Node* n = root_;
  for (;;) {
    while (n->has_high && key >= n->high_key) {
      n = n->right;
    }
    if (n->is_leaf) {
      const int i = LowerBound(n, key);
      if (i >= n->nkeys || n->keys[i] != key) {
        return false;
      }
      for (int j = i; j < n->nkeys - 1; j++) {
        n->keys[j] = n->keys[j + 1];
        n->ptrs[j] = n->ptrs[j + 1];
      }
      n->nkeys--;
      size_--;
      return true;  // no rebalancing: underfull leaves are tolerated
    }
    n = static_cast<Node*>(n->ptrs[ChildIndex(this, n->nkeys, n->keys, key)]);
  }
}

void BTreeIndex::BulkLoadDirect(std::span<Item* const> sorted) {
  UTPS_CHECK(size_ == 0);
  if (sorted.empty()) {
    return;
  }
  // Build leaves at ~85% fill.
  const unsigned per_leaf = kFanout - 2;
  std::vector<Node*> level;
  std::vector<Key> level_min;
  size_t i = 0;
  Node* prev = nullptr;
  while (i < sorted.size()) {
    Node* leaf = NewNode(true);
    unsigned cnt = 0;
    while (i < sorted.size() && cnt < per_leaf) {
      const Key key = sorted[i]->key;
      UTPS_CHECK_MSG(i == 0 || key > sorted[i - 1]->key,
                     "bulk load keys not strictly ascending at index %zu", i);
      leaf->keys[cnt] = key;
      leaf->ptrs[cnt] = sorted[i];
      cnt++;
      i++;
    }
    leaf->nkeys = static_cast<uint16_t>(cnt);
    if (prev != nullptr) {
      prev->right = leaf;
      prev->has_high = 1;
      prev->high_key = leaf->keys[0];
    }
    level.push_back(leaf);
    level_min.push_back(leaf->keys[0]);
    prev = leaf;
  }
  height_ = 1;
  // Build internal levels.
  while (level.size() > 1) {
    std::vector<Node*> up;
    std::vector<Key> up_min;
    const size_t per_node = kFanout - 2 + 1;  // children per internal node
    size_t j = 0;
    Node* iprev = nullptr;
    while (j < level.size()) {
      // An internal node needs at least two children (one separator): when
      // a full node would leave a single child for the last one, this node
      // takes one child fewer and the last gets two.
      const size_t left = level.size() - j;
      const size_t take = left == per_node + 1 ? per_node - 1
                                               : std::min(left, per_node);
      Node* n = NewNode(false);
      n->ptrs[0] = level[j];
      const Key nmin = level_min[j];
      for (size_t c = 1; c < take; c++) {
        n->keys[c - 1] = level_min[j + c];
        n->ptrs[c] = level[j + c];
      }
      j += take;
      n->nkeys = static_cast<uint16_t>(take - 1);
      if (iprev != nullptr) {
        iprev->right = n;
        iprev->has_high = 1;
        iprev->high_key = nmin;
      }
      up.push_back(n);
      up_min.push_back(nmin);
      iprev = n;
    }
    level = std::move(up);
    level_min = std::move(up_min);
    height_++;
  }
  root_ = level[0];
  *root_word_ = root_;
  root_version_++;
  size_ = sorted.size();
}

uint32_t BTreeIndex::ScanDirect(Key lo, Key hi, uint32_t max, Item** out) const {
  const Node* n = root_;
  while (!n->is_leaf) {
    while (n->has_high && lo >= n->high_key) {
      n = n->right;
    }
    n = static_cast<const Node*>(n->ptrs[ChildIndex(this, n->nkeys, n->keys, lo)]);
  }
  uint32_t cnt = 0;
  while (n != nullptr && cnt < max) {
    for (int i = 0; i < n->nkeys && cnt < max; i++) {
      if (n->keys[i] < lo) {
        continue;
      }
      if (n->keys[i] > hi) {
        return cnt;
      }
      out[cnt++] = static_cast<Item*>(n->ptrs[i]);
    }
    n = n->right;
  }
  return cnt;
}

// --------------------------------------------------------- simulated plane

sim::Task<void> BTreeIndex::LockNode(sim::ExecCtx& ctx, Node* n) {
  for (;;) {
    const bool locked = (n->version & 1) != 0;
    if (!locked) {
      n->version++;
    }
    co_await ctx.Rmw(&n->version);
    if (!locked) {
      co_return;
    }
    co_await ctx.Delay(kLockedWaitNs);
  }
}

sim::Task<void> BTreeIndex::UnlockNode(sim::ExecCtx& ctx, Node* n) {
  UTPS_DCHECK(n->version & 1);
  n->version++;
  co_await ctx.Write(&n->version, 8);
}

sim::Task<Item*> BTreeIndex::CoGet(sim::ExecCtx& ctx, Key key) {
  for (;;) {
    co_await ctx.Read(root_word_, 8);
    Node* n = root_;
    bool restart = false;
    while (!restart) {
      // Header + keys occupy the first three cachelines.
      ctx.Charge(kNodeCpuNs);
      co_await ctx.Read(n, 24 + sizeof(Key) * kFanout);
      const uint64_t v = n->version;
      if (v & 1) {
        co_await ctx.Delay(kLockedWaitNs);
        continue;  // re-read this node
      }
      if (n->has_high && key >= n->high_key) {
        Node* right = n->right;
        co_await ctx.Read(&n->right, 8);
        if (n->version != v || right == nullptr) {
          restart = true;
          break;
        }
        n = right;
        continue;
      }
      if (n->is_leaf) {
        const int i = LowerBound(n, key);
        if (i < n->nkeys && n->keys[i] == key) {
          co_await ctx.Read(&n->ptrs[i], 8);
          Item* it = static_cast<Item*>(n->ptrs[i]);
          if (n->version == v && it != nullptr) {
            co_return it;
          }
          continue;  // unstable; re-read leaf
        }
        if (n->version == v) {
          co_return nullptr;
        }
        continue;
      }
      const int ci = ChildIndex(this, n->nkeys, n->keys, key);
      co_await ctx.Read(&n->ptrs[ci], 8);
      Node* c = static_cast<Node*>(n->ptrs[ci]);
      if (n->version != v || c == nullptr) {
        restart = true;
        break;
      }
      n = c;
    }
  }
}

sim::Task<bool> BTreeIndex::CoInsert(sim::ExecCtx& ctx, Key key, Item* item) {
  for (unsigned attempt = 0;; attempt++) {
    UTPS_CHECK_MSG(attempt < 1000, "btree insert livelock");
    // Lock the root; retry if the root pointer moved underneath us.
    Node* r = root_;
    co_await LockNode(ctx, r);
    if (r != root_) {
      co_await UnlockNode(ctx, r);
      co_await ctx.Yield();
      continue;
    }
    if (r->nkeys == kFanout) {
      Node* new_root = NewNode(false);
      new_root->ptrs[0] = r;
      SplitChild(new_root, 0, r);
      root_ = new_root;
      *root_word_ = root_;
      root_version_++;
      height_++;
      co_await ctx.Write(new_root, sizeof(Node));
      co_await UnlockNode(ctx, r);
      co_await ctx.Yield();
      continue;  // re-descend from the new root
    }
    Node* n = r;  // locked, not full
    bool done = false;
    bool ok = false;
    bool restart = false;
    while (!done && !restart) {
      ctx.Charge(kNodeCpuNs);
      co_await ctx.Read(n, 24 + sizeof(Key) * kFanout);
      // B-link move-right under locks.
      if (n->has_high && key >= n->high_key) {
        Node* right = n->right;
        co_await LockNode(ctx, right);
        co_await UnlockNode(ctx, n);
        n = right;
        if (n->nkeys == kFanout) {
          // Cannot split without the parent; back off and retry.
          co_await UnlockNode(ctx, n);
          restart = true;
        }
        continue;
      }
      if (n->is_leaf) {
        const int i = LowerBound(n, key);
        if (i < n->nkeys && n->keys[i] == key) {
          ok = false;
        } else {
          n->version++;  // odd: mutating (readers retry)
          for (int j = n->nkeys; j > i; j--) {
            n->keys[j] = n->keys[j - 1];
            n->ptrs[j] = n->ptrs[j - 1];
          }
          n->keys[i] = key;
          n->ptrs[i] = item;
          n->nkeys++;
          n->version++;
          size_++;
          ok = true;
          co_await ctx.Write(n, sizeof(Node));
        }
        co_await UnlockNode(ctx, n);
        done = true;
        continue;
      }
      int ci = ChildIndex(this, n->nkeys, n->keys, key);
      Node* c = static_cast<Node*>(n->ptrs[ci]);
      co_await LockNode(ctx, c);
      if (c->nkeys == kFanout) {
        n->version++;
        SplitChild(n, ci, c);
        n->version++;
        co_await ctx.Write(n, sizeof(Node));
        co_await ctx.Write(c, sizeof(Node));
        // Re-route: the new separator may redirect us to the right node.
        Node* right = c->right;
        if (key >= c->high_key) {
          co_await LockNode(ctx, right);
          co_await UnlockNode(ctx, c);
          c = right;
        }
      }
      co_await UnlockNode(ctx, n);
      n = c;
    }
    if (restart) {
      co_await ctx.Yield();
      continue;
    }
    co_return ok;
  }
}

sim::Task<BTreeIndex::Node*> BTreeIndex::LockLeaf(sim::ExecCtx& ctx, Key key) {
  Node* r = root_;
  co_await LockNode(ctx, r);
  while (r != root_) {
    co_await UnlockNode(ctx, r);
    r = root_;
    co_await LockNode(ctx, r);
  }
  Node* n = r;
  for (;;) {
    ctx.Charge(kNodeCpuNs);
    co_await ctx.Read(n, 24 + sizeof(Key) * kFanout);
    if (n->has_high && key >= n->high_key) {
      Node* right = n->right;
      co_await LockNode(ctx, right);
      co_await UnlockNode(ctx, n);
      n = right;
      continue;
    }
    if (n->is_leaf) {
      co_return n;
    }
    Node* c = static_cast<Node*>(n->ptrs[ChildIndex(this, n->nkeys, n->keys, key)]);
    co_await LockNode(ctx, c);
    co_await UnlockNode(ctx, n);
    n = c;
  }
}

sim::Task<bool> BTreeIndex::CoErase(sim::ExecCtx& ctx, Key key) {
  Node* n = co_await LockLeaf(ctx, key);
  const int i = LowerBound(n, key);
  bool ok = false;
  if (i < n->nkeys && n->keys[i] == key) {
    n->version++;
    for (int j = i; j < n->nkeys - 1; j++) {
      n->keys[j] = n->keys[j + 1];
      n->ptrs[j] = n->ptrs[j + 1];
    }
    n->nkeys--;
    n->version++;
    size_--;
    ok = true;
    co_await ctx.Write(n, sizeof(Node));
  }
  co_await UnlockNode(ctx, n);
  co_return ok;
}

sim::Task<bool> BTreeIndex::CoReplace(sim::ExecCtx& ctx, Key key, Item* item) {
  Node* n = co_await LockLeaf(ctx, key);
  const int i = LowerBound(n, key);
  const bool found = i < n->nkeys && n->keys[i] == key;
  if (found) {
    n->version++;
    RetireItem(static_cast<Item*>(n->ptrs[i]));
    n->ptrs[i] = item;
    n->version++;
    co_await ctx.Write(&n->ptrs[i], 8);
  }
  co_await UnlockNode(ctx, n);
  co_return found;
}

sim::Task<uint32_t> BTreeIndex::CoScan(sim::ExecCtx& ctx, Key lo, Key hi,
                                       uint32_t max, Item** out) {
  // Descend optimistically to the leaf containing `lo`.
  Node* n = nullptr;
  for (;;) {
    co_await ctx.Read(root_word_, 8);
    n = root_;
    bool restart = false;
    while (!n->is_leaf && !restart) {
      ctx.Charge(kNodeCpuNs);
      co_await ctx.Read(n, 24 + sizeof(Key) * kFanout);
      const uint64_t v = n->version;
      if (v & 1) {
        co_await ctx.Delay(kLockedWaitNs);
        continue;
      }
      if (n->has_high && lo >= n->high_key) {
        Node* right = n->right;
        if (n->version != v || right == nullptr) {
          restart = true;
          break;
        }
        n = right;
        continue;
      }
      const int ci = ChildIndex(this, n->nkeys, n->keys, lo);
      co_await ctx.Read(&n->ptrs[ci], 8);
      Node* c = static_cast<Node*>(n->ptrs[ci]);
      if (n->version != v || c == nullptr) {
        restart = true;
        break;
      }
      n = c;
    }
    if (!restart) {
      break;
    }
  }
  // Walk the leaf chain collecting items; `last` dedupes across retries.
  uint32_t cnt = 0;
  bool have_last = false;
  Key last = 0;
  while (n != nullptr && cnt < max) {
    ctx.Charge(kNodeCpuNs);
    co_await ctx.Read(n, sizeof(Node));
    const uint64_t v = n->version;
    if (v & 1) {
      co_await ctx.Delay(kLockedWaitNs);
      continue;
    }
    const uint32_t start_cnt = cnt;
    bool overrun = false;
    for (int i = 0; i < n->nkeys && cnt < max; i++) {
      const Key k = n->keys[i];
      if (k < lo || (have_last && k <= last)) {
        continue;
      }
      if (k > hi) {
        overrun = true;
        break;
      }
      out[cnt++] = static_cast<Item*>(n->ptrs[i]);
      last = k;
      have_last = true;
    }
    if (n->version != v) {
      cnt = start_cnt;  // torn leaf read: discard and re-read this leaf
      continue;
    }
    if (overrun) {
      break;
    }
    n = n->right;
  }
  co_return cnt;
}

namespace {
bool BtFail(std::string* err, std::string msg) {
  if (err != nullptr) {
    *err = "btree: " + std::move(msg);
  }
  return false;
}
}  // namespace

bool BTreeIndex::AuditNode(const Node* n, unsigned depth, const Key* lo,
                           const Key* hi, uint64_t* counted,
                           const Node** prev_leaf, uint64_t* leaves,
                           std::string* err) const {
  if (n->version & 1) {
    return BtFail(err, "node seqlock odd at quiesce");
  }
  if (n->nkeys > kFanout) {
    return BtFail(err, "nkeys out of range");
  }
  // has_high marks exactly the nodes with a bounded key range, and the bound
  // must agree with the separator the parent routes by.
  if ((n->has_high != 0) != (hi != nullptr)) {
    return BtFail(err, "has_high inconsistent with parent separator");
  }
  if (hi != nullptr && n->high_key != *hi) {
    return BtFail(err, "high_key != parent separator");
  }
  for (unsigned i = 0; i < n->nkeys; i++) {
    const Key k = n->keys[i];
    if (i > 0 && n->keys[i - 1] >= k) {
      return BtFail(err, "keys not strictly ascending in node");
    }
    if (lo != nullptr && k < *lo) {
      return BtFail(err, "key below subtree lower bound");
    }
    if (hi != nullptr && k >= *hi) {
      return BtFail(err, "key >= subtree upper bound");
    }
  }
  if (n->is_leaf) {
    if (depth != height_) {
      return BtFail(err, "leaf at wrong depth (unbalanced tree)");
    }
    for (unsigned i = 0; i < n->nkeys; i++) {
      const Item* it = static_cast<const Item*>(n->ptrs[i]);
      if (it == nullptr) {
        return BtFail(err, "null item in leaf");
      }
      if (it->key != n->keys[i]) {
        return BtFail(err, "leaf slot key != item key");
      }
      if (it->ctrl & 1) {
        return BtFail(err, "item seqlock odd at quiesce, key " +
                               std::to_string(n->keys[i]));
      }
    }
    *counted += n->nkeys;
    // The B-link leaf chain must visit exactly the in-order leaves.
    if (*prev_leaf != nullptr && (*prev_leaf)->right != n) {
      return BtFail(err, "leaf chain broken at leaf " +
                             std::to_string(*leaves - 1));
    }
    *prev_leaf = n;
    ++*leaves;
    return true;
  }
  if (n->nkeys == 0) {
    return BtFail(err, "internal node with no separators");
  }
  for (unsigned i = 0; i <= n->nkeys; i++) {
    const Node* c = static_cast<const Node*>(n->ptrs[i]);
    if (c == nullptr) {
      return BtFail(err, "null child pointer");
    }
    const Key* clo = i == 0 ? lo : &n->keys[i - 1];
    const Key* chi = i == n->nkeys ? hi : &n->keys[i];
    if (!AuditNode(c, depth + 1, clo, chi, counted, prev_leaf, leaves,
                   err)) {
      return false;
    }
  }
  return true;
}

bool BTreeIndex::AuditDirect(std::string* err) const {
  if (root_ == nullptr || *root_word_ != root_) {
    return BtFail(err, "root pointer / arena mirror mismatch");
  }
  uint64_t counted = 0;
  const Node* last_leaf = nullptr;
  uint64_t leaves = 0;
  if (!AuditNode(root_, 1, nullptr, nullptr, &counted, &last_leaf, &leaves,
                 err)) {
    return false;
  }
  if (counted != size_) {
    return BtFail(err, "size_=" + std::to_string(size_) + " but counted " +
                           std::to_string(counted));
  }
  if (last_leaf != nullptr && last_leaf->right != nullptr) {
    return BtFail(err, "last leaf has dangling right link");
  }
  return true;
}

}  // namespace utps
