// Top-K hottest-key tracking: a bounded min-heap over sketch-estimated
// frequencies (§3.2.2).
//
// Precondition: within one pass (Reset to ExtractTo) every offered key is
// distinct. The heap keeps no key -> slot map and cannot update an entry in
// place; HotSetManager::BuildAndPublish deduplicates its candidates before
// offering them, and that is the only distinctness check (DESIGN.md §13).
#ifndef UTPS_HOTSET_TOPK_H_
#define UTPS_HOTSET_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "store/kv.h"

namespace utps {

class TopK {
 public:
  explicit TopK(uint32_t k) { Reset(k); }

  // Re-arms the tracker for a fresh top-`k` pass, reusing the heap storage
  // from previous passes: a steady-state refresh performs no heap allocation.
  void Reset(uint32_t k) {
    k_ = k;
    heap_.clear();
    heap_.reserve(k_);
  }

  // Offers a key not yet offered this pass with its estimated frequency.
  // Keeps the K highest.
  void Offer(Key key, uint32_t freq) {
    if (heap_.size() < k_) {
      heap_.push_back({key, freq});
      SiftUp(heap_.size() - 1);
      return;
    }
    if (freq <= heap_[0].freq) {
      return;
    }
    heap_[0] = {key, freq};
    SiftDown(0);
  }

  // Keys ordered by descending frequency, appended to `out` (cleared first).
  // Ends the pass: the heap array is sorted in place. Ties keep the exact
  // order std::sort gives them on the heap array — the hot-set publication
  // order (and therefore the simulated filter layout) depends on it.
  void ExtractTo(std::vector<Key>& out) {
    std::sort(heap_.begin(), heap_.end(),
              [](const Entry& a, const Entry& b) { return a.freq > b.freq; });
    out.clear();
    out.reserve(heap_.size());
    for (const Entry& e : heap_) {
      out.push_back(e.key);
    }
  }

 private:
  struct Entry {
    Key key;
    uint32_t freq;
  };

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t p = (i - 1) / 2;
      if (heap_[p].freq <= heap_[i].freq) {
        break;
      }
      std::swap(heap_[p], heap_[i]);
      i = p;
    }
  }

  void SiftDown(size_t i) {
    for (;;) {
      const size_t l = 2 * i + 1;
      const size_t r = 2 * i + 2;
      size_t m = i;
      if (l < heap_.size() && heap_[l].freq < heap_[m].freq) {
        m = l;
      }
      if (r < heap_.size() && heap_[r].freq < heap_[m].freq) {
        m = r;
      }
      if (m == i) {
        return;
      }
      std::swap(heap_[m], heap_[i]);
      i = m;
    }
  }

  uint32_t k_ = 0;
  std::vector<Entry> heap_;  // min-heap by freq
};

}  // namespace utps

#endif  // UTPS_HOTSET_TOPK_H_
