// Count-min sketch for approximate per-key access frequencies (§3.2.2:
// "a combination of count-min sketch and min heap to track the hottest
// items", following Nap's hot-set identification).
#ifndef UTPS_HOTSET_SKETCH_H_
#define UTPS_HOTSET_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "store/kv.h"

namespace utps {

class CountMinSketch {
 public:
  // width must be a power of two.
  explicit CountMinSketch(uint32_t width = 1u << 14, uint32_t depth = 4)
      : width_(width), depth_(depth), counts_(size_t{width} * depth, 0) {
    UTPS_CHECK((width & (width - 1)) == 0);
    uint64_t s = 0x5eed5eed5eed5eedULL;
    for (uint32_t d = 0; d < depth; d++) {
      seeds_.push_back(SplitMix64(s));
    }
  }

  void Add(Key key, uint32_t count = 1) {
    for (uint32_t d = 0; d < depth_; d++) {
      counts_[Cell(d, key)] += count;
    }
  }

  uint32_t Estimate(Key key) const {
    uint32_t m = UINT32_MAX;
    for (uint32_t d = 0; d < depth_; d++) {
      const uint32_t c = counts_[Cell(d, key)];
      if (c < m) {
        m = c;
      }
    }
    return m;
  }

  // Ages every counter by half (TinyLFU's reset): recent samples then
  // outweigh old ones while a steadily hot key keeps a high estimate.
  void Halve() {
    for (uint32_t& c : counts_) {
      c >>= 1;
    }
  }

 private:
  size_t Cell(uint32_t d, Key key) const {
    return size_t{d} * width_ + (Mix64(key ^ seeds_[d]) & (width_ - 1));
  }

  uint32_t width_;
  uint32_t depth_;
  std::vector<uint32_t> counts_;
  std::vector<uint64_t> seeds_;
};

}  // namespace utps

#endif  // UTPS_HOTSET_SKETCH_H_
