// Hot-set tracking and the CR layer's epoch-switched hot table
// (§3.2.2 "Resizable Cache").
//
//  - CR workers sample every kSamplePeriod-th key they serve into per-worker
//    rings (cheap, wait-free: single producer, single consumer).
//  - The management thread periodically drains samples through a count-min
//    sketch + top-K heap. It builds a fresh hot table (an open-addressed
//    item-pointer table, which answers the CR layer's point lookups for both
//    indexes) while the published set is short of its target, and otherwise
//    once kAgingSamplesPerItem samples per hot item have arrived. That build
//    is followed by aging (Age): the sketch is halved and the published keys
//    are carried forward as the next candidates, so a steadily hot key stays
//    published (DESIGN.md §2 "Hot-set aging"). The auto-tuner's per-size
//    builds rank its whole pass's samples and age once, after its pick.
//  - Publication is epoch-based: the manager publishes the new table and
//    epoch; workers adopt it at their next loop iteration; the manager reuses
//    the retired buffer only after all workers have advanced (Nap-style
//    non-blocking switch).
//  - Stale-pointer rule: the table maps a hot key to the item the index
//    held at build time, so one lookup serves a hit. A grown PUT may replace
//    that item before the next refresh; the pointer stays safe to follow
//    (items are never freed), and the CR layer turns a hit on a retired item
//    into a miss (kItemRetired, store/item.h).
#ifndef UTPS_HOTSET_HOTSET_H_
#define UTPS_HOTSET_HOTSET_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/macros.h"
#include "hotset/sketch.h"
#include "hotset/topk.h"
#include "sim/arena.h"
#include "sim/exec.h"
#include "store/item.h"
#include "store/kv.h"

namespace utps {

// Wait-free SPSC ring of sampled keys (producer: one CR worker; consumer:
// the manager). Overwrites oldest samples when full — sampling is lossy by
// design — and counts each overwritten sample (host-only).
class SampleRing {
 public:
  static constexpr uint32_t kCapacity = 4096;

  void Push(Key key) {
    dropped_ += head_ - tail_ >= kCapacity ? 1 : 0;
    buf_[head_ & (kCapacity - 1)] = key;
    head_++;
  }

  // Samples overwritten before the manager drained them.
  uint64_t dropped() const { return dropped_; }

  // Drains up to `max` recent samples into `out`; returns count.
  uint32_t Drain(Key* out, uint32_t max) {
    uint64_t h = head_;
    const uint64_t available = h - tail_ > kCapacity ? kCapacity : h - tail_;
    const uint64_t n = available < max ? available : max;
    for (uint64_t i = 0; i < n; i++) {
      out[i] = buf_[(h - n + i) & (kCapacity - 1)];
    }
    tail_ = h;
    return static_cast<uint32_t>(n);
  }

 private:
  Key buf_[kCapacity] = {};
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t dropped_ = 0;
};

// Open-addressed item-pointer table, 16 B slots, four to a cacheline: one
// probe answers "is this key hot" and yields its item, so the CR layer serves
// a hot hit of either index without looking the key up in the main index.
// Its item pointers follow the stale-pointer rule above.
struct HotTable {
  struct Slot {
    Key key;  // key+1; 0 = empty
    Item* item;
  };
  Slot* slots = nullptr;
  uint32_t mask = 0;
  uint32_t count = 0;

  // Host-side lookup (audits and tests).
  Item* FindDirect(Key key) const {
    uint32_t i = static_cast<uint32_t>(Mix64(key)) & mask;
    for (uint32_t probes = 0; probes <= mask; probes++) {
      const Slot& s = slots[i];
      if (s.key == 0) {
        return nullptr;
      }
      if (s.key == key + 1) {
        return s.item;
      }
      i = (i + 1) & mask;
    }
    return nullptr;
  }
};

// Simulated linear probe of a HotTable: charges each probed slot.
inline sim::Task<Item*> HotTableLookup(sim::ExecCtx& ctx, const HotTable* ht,
                                       Key key) {
  uint32_t i = static_cast<uint32_t>(Mix64(key)) & ht->mask;
  for (uint32_t probes = 0; probes <= ht->mask; probes++) {
    const HotTable::Slot* s = &ht->slots[i];
    co_await ctx.Read(s, sizeof(HotTable::Slot));
    if (s->key == 0) {
      co_return nullptr;
    }
    if (s->key == key + 1) {
      co_return s->item;
    }
    i = (i + 1) & ht->mask;
  }
  co_return nullptr;
}

// Double-buffered, epoch-published hot table. The manager builds into the
// inactive buffer and publishes; CR workers re-read {epoch, pointer} at each
// FSM loop iteration.
class HotSetManager {
 public:
  static constexpr uint32_t kMaxHot = 16384;  // >= paper's 10K hot items
  static constexpr uint32_t kTableCapacity = 2 * kMaxHot;
  // CR workers sample every kSamplePeriod-th request into their ring.
  static constexpr uint32_t kSamplePeriod = 8;
  static_assert(std::has_single_bit(kSamplePeriod));
  // Aging interval of a set of k items (TinyLFU's W): 128·k requests, so
  // the sampling rate sets how many counts an interval holds, not how fast
  // the set tracks a shift.
  static constexpr uint32_t kAgingRequestsPerItem = 128;
  static constexpr uint32_t kAgingSamplesPerItem =
      kAgingRequestsPerItem / kSamplePeriod;  // 16·k samples

  // Table slots for `n` published keys: a power of two, at least 4 (one
  // cacheline), with load factor <= 0.5. A small hot set then probes a few
  // cachelines instead of a kTableCapacity-sized table.
  static uint32_t TableSlotsFor(uint32_t n) {
    return std::bit_ceil(std::max(4u, 2 * n));
  }

  // `max_drains` bounds the drains between two agings: 1 for the manager
  // loop, which checks the trigger after each drain, or the auto-tuner's
  // forced refreshes per pass, which do not age.
  HotSetManager(sim::Arena* arena, unsigned num_workers, size_t max_drains = 1)
      : num_workers_(num_workers),
        rings_(num_workers),
        sketch_(1u << 15, 4),
        max_candidates_(size_t{kMaxHot} +
                        size_t{kAgingSamplesPerItem} * kMaxHot +
                        std::max<size_t>(1, max_drains) * num_workers *
                            SampleRing::kCapacity),
        scratch_(max_candidates_ * sizeof(Key) +
                     DedupCapacity(max_candidates_) * sizeof(Key) +
                     2 * kCachelineBytes,
                 kCachelineBytes) {
    for (int b = 0; b < 2; b++) {
      // Room for kMaxHot keys at load factor 0.5; BuildAndPublish uses only
      // the prefix the published count needs.
      tables_[b].slots = arena->AllocateArray<HotTable::Slot>(
          kTableCapacity, kCachelineBytes);
      tables_[b].mask = TableSlotsFor(0) - 1;
    }
    worker_epochs_.assign(num_workers, 0);
    // Between two agings the candidates are the carried set (<= kMaxHot),
    // fewer than kAgingSamplesPerItem * kMaxHot samples, and at most
    // max_drains drains of a full ring per worker: max_candidates_. The list
    // and its dedup table take that worst case from a host-only mapping of
    // their own, so no refresh allocates and only the pages a run touches
    // become resident.
    candidates_ = scratch_.AllocateArray<Key>(max_candidates_);
    dedup_keys_ = scratch_.AllocateArray<Key>(DedupCapacity(max_candidates_));
  }

  // ---------------------------------------------------------- worker side
  SampleRing& Ring(unsigned worker) { return rings_[worker]; }

  uint64_t epoch() const { return epoch_; }
  const HotTable* ActiveTable() const { return &tables_[epoch_ & 1]; }
  void AckEpoch(unsigned worker, uint64_t e) { worker_epochs_[worker] = e; }

  // --------------------------------------------------------- manager side
  bool AllWorkersAt(uint64_t e) const {
    for (unsigned w = 0; w < num_workers_; w++) {
      if (worker_epochs_[w] < e) {
        return false;
      }
    }
    return true;
  }

  // Drains worker samples into the sketch and refreshes the top-K candidates.
  // Returns the number of samples consumed.
  uint32_t DrainSamples() {
    Key buf[SampleRing::kCapacity];
    uint32_t total = 0;
    for (auto& ring : rings_) {
      const uint32_t n = ring.Drain(buf, SampleRing::kCapacity);
      UTPS_CHECK(num_candidates_ + n <= max_candidates_);
      for (uint32_t i = 0; i < n; i++) {
        sketch_.Add(buf[i]);
        candidates_[num_candidates_++] = buf[i];
      }
      total += n;
    }
    samples_since_aging_ += total;
    return total;
  }

  // True once the set of `k` items has seen its aging interval of samples
  // since the last Age.
  bool AgingDue(uint32_t k) const {
    return samples_since_aging_ >= uint64_t{kAgingSamplesPerItem} * k;
  }

  // The manager's refresh rule (DESIGN.md §2 "Hot-set aging"), run after
  // each drain: builds and publishes the `k` hottest keys while the active
  // set holds fewer than k, or once an aging interval of samples arrived,
  // and then ages. `force` publishes regardless and does not age (the
  // tuner's per-size probes). Returns whether it published.
  template <typename Resolver>
  bool Refresh(uint32_t k, bool force, Resolver&& resolve) {
    const bool age = !force && AgingDue(k);
    if (!force && !age && ActiveCount() >= k) {
      return false;
    }
    BuildAndPublish(k, resolve);
    if (age) {
      Age();
    }
    return true;
  }

  // Builds the next hot table with the `k` hottest keys (k <= kMaxHot),
  // resolving keys to items via `resolve`, and publishes a new epoch.
  // Items that no longer resolve are skipped.
  //
  // Host-performance notes (DESIGN.md §13) — every shortcut below is exact,
  // not approximate, because the published table must be byte-identical to
  // the straightforward form:
  //  - Candidates are deduplicated before the top-K pass, in first-occurrence
  //    order: TopK requires distinct keys, and this is the only check. The
  //    sketch is frozen during the pass, so a key has one estimate.
  //  - Scratch vectors persist across refreshes: steady state performs no
  //    heap allocation here.
  template <typename Resolver>
  void BuildAndPublish(uint32_t k, Resolver&& resolve) {
    UTPS_CHECK(k <= kMaxHot);
    topk_.Reset(k == 0 ? 1 : k);
    DedupBegin(num_candidates_);
    for (size_t i = 0; i < num_candidates_; i++) {
      const Key c = candidates_[i];
      if (DedupInsert(c)) {
        topk_.Offer(c, sketch_.Estimate(c));
      }
    }
    topk_.ExtractTo(hot_scratch_);
    if (k == 0) {
      hot_scratch_.clear();
    }
    HotTable& ht = tables_[(epoch_ + 1) & 1];
    published_.clear();
    published_.reserve(hot_scratch_.size());
    for (Key key : hot_scratch_) {
      if (Item* it = resolve(key)) {
        published_.push_back({key, it});
      }
    }
    // Reset the inactive buffer (safe: all workers are on `epoch_`). Slots
    // past the new mask may hold keys of an earlier, larger build; probes
    // never reach them.
    ht.mask = TableSlotsFor(static_cast<uint32_t>(published_.size())) - 1;
    UTPS_DCHECK(ht.mask < kTableCapacity);
    std::memset(ht.slots, 0, (size_t{ht.mask} + 1) * sizeof(HotTable::Slot));
    ht.count = 0;
    for (const Published& e : published_) {
      uint32_t i = static_cast<uint32_t>(Mix64(e.key)) & ht.mask;
      while (ht.slots[i].key != 0) {
        i = (i + 1) & ht.mask;
      }
      ht.slots[i] = {e.key + 1, e.item};
      ht.count++;
    }
    epoch_++;
  }

  // Ages the tracker after a publish: halves the sketch, so the hot set
  // tracks shifts, and restarts the candidates from the published keys, in
  // publication order, so a key that stays hot is carried forward instead
  // of forgotten. Samples drained since the last Age count toward the next
  // aging interval.
  void Age() {
    sketch_.Halve();
    for (size_t i = 0; i < published_.size(); i++) {
      candidates_[i] = published_[i].key;
    }
    num_candidates_ = published_.size();
    samples_since_aging_ = 0;
  }

  uint32_t ActiveCount() const { return tables_[epoch_ & 1].count; }

  // Samples overwritten in any ring before a drain reached them.
  uint64_t SamplesDropped() const {
    uint64_t total = 0;
    for (const SampleRing& r : rings_) {
      total += r.dropped();
    }
    return total;
  }

  // Epoch-switch safety audit. The double-buffering contract is: the manager
  // may only touch the inactive buffer once every worker has acked the
  // current epoch, and no worker may ever be ahead of the published epoch.
  // `err` describes the violation on failure.
  bool AuditEpochs(std::string* err) const {
    for (unsigned w = 0; w < num_workers_; w++) {
      if (worker_epochs_[w] > epoch_) {
        if (err != nullptr) {
          *err = "hotset: worker " + std::to_string(w) +
                 " acked epoch ahead of published epoch";
        }
        return false;
      }
    }
    // The active table's count must equal its occupied slots, and a probe
    // for each occupied slot's key must reach that slot (no key is published
    // twice or stored past an empty slot on its probe path).
    const HotTable& ht = tables_[epoch_ & 1];
    uint32_t occupied = 0;
    bool reachable = true;
    for (uint32_t i = 0; i <= ht.mask; i++) {
      const HotTable::Slot& s = ht.slots[i];
      if (s.key != 0) {
        occupied++;
        reachable = reachable && ht.FindDirect(s.key - 1) == s.item;
      }
    }
    if (occupied != ht.count || !reachable) {
      if (err != nullptr) {
        *err = "hotset: active table holds " + std::to_string(occupied) +
               " keys for count " + std::to_string(ht.count) +
               (reachable ? "" : ", and a probe misses one of them");
      }
      return false;
    }
    return true;
  }

 private:
  // Open-addressing dedup set of key+1 (0 = empty). Each pass sizes the
  // table to its own candidate count, at load <= 3/4, and clears only that
  // prefix: the pass touches about as many slots as it clears.
  static size_t DedupCapacity(size_t n) {
    return std::bit_ceil(std::max<size_t>(16, (4 * n + 2) / 3));
  }

  void DedupBegin(size_t n) {
    dedup_mask_ = static_cast<uint32_t>(DedupCapacity(n) - 1);
    std::memset(dedup_keys_, 0, (size_t{dedup_mask_} + 1) * sizeof(Key));
  }

  // Returns true on first occurrence of `key` in this pass.
  bool DedupInsert(Key key) {
    uint32_t i = static_cast<uint32_t>(Mix64(key)) & dedup_mask_;
    while (dedup_keys_[i] != 0) {
      if (dedup_keys_[i] == key + 1) {
        return false;
      }
      i = (i + 1) & dedup_mask_;
    }
    dedup_keys_[i] = key + 1;
    return true;
  }

  unsigned num_workers_;
  std::vector<SampleRing> rings_;
  CountMinSketch sketch_;
  size_t max_candidates_;
  sim::Arena scratch_;  // host-only: candidates_, dedup_keys_
  Key* candidates_ = nullptr;
  size_t num_candidates_ = 0;
  uint64_t samples_since_aging_ = 0;
  HotTable tables_[2];
  uint64_t epoch_ = 0;
  std::vector<uint64_t> worker_epochs_;

  // Persistent scratch for BuildAndPublish (see its host-performance notes).
  TopK topk_{1};
  std::vector<Key> hot_scratch_;
  // The last build's published keys and items, in publication order: the
  // table is sized from their count, and Age carries their keys forward.
  struct Published {
    Key key;
    Item* item;
  };
  std::vector<Published> published_;
  Key* dedup_keys_ = nullptr;
  uint32_t dedup_mask_ = 0;
};

}  // namespace utps

#endif  // UTPS_HOTSET_HOTSET_H_
