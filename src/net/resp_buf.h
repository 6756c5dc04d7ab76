// Per-worker response buffer: a small (64 KB by default, per §3.2.1) cyclic
// arena region that response payloads are staged in before the NIC reads them
// out. Reuse across batches keeps the footprint cache-sized.
#ifndef UTPS_NET_RESP_BUF_H_
#define UTPS_NET_RESP_BUF_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "sim/arena.h"

namespace utps {

class RespBuffer {
 public:
  RespBuffer(sim::Arena* arena, uint32_t bytes = 64 * 1024)
      : base_(arena->AllocateArray<uint8_t>(bytes, kCachelineBytes)),
        size_(bytes),
        held_((bytes / kCachelineBytes + 63) / 64, 0) {}

  // Allocates a cacheline-aligned region; wraps around cyclically. For
  // callers that send each response before allocating the next one.
  uint8_t* Alloc(uint32_t len) {
    const uint32_t rounded = Rounded(len);
    UTPS_DCHECK(rounded <= size_);
    if (cursor_ + rounded > size_) {
      cursor_ = 0;
    }
    uint8_t* p = base_ + cursor_;
    cursor_ += rounded;
    return p;
  }

  // For callers whose responses stay pending across later allocations (a
  // μTPS MR worker, whose responses wait for the CR layer to send them):
  // takes the region Alloc would and holds it until Release, or returns
  // nullptr if it overlaps a region still held. Either way the cursor moves
  // as Alloc's does, so only the overlapping requests see different
  // addresses.
  uint8_t* TryHold(uint32_t len) {
    uint8_t* p = Alloc(len);
    const uint32_t first = LineOf(p);
    const uint32_t end = first + Rounded(len) / kCachelineBytes;
    if (!Free(first, end)) {
      return nullptr;
    }
    for (uint32_t l = first; l < end; l++) {
      held_[l / 64] |= uint64_t{1} << (l % 64);
    }
    return p;
  }

  // True when TryHold(len) would hold the region it takes next. Moves
  // nothing.
  bool CanHold(uint32_t len) const {
    const uint32_t rounded = Rounded(len);
    const uint32_t first =
        (cursor_ + rounded > size_ ? 0 : cursor_) / kCachelineBytes;
    return Free(first, first + rounded / kCachelineBytes);
  }

  // Lines currently held by TryHold (a quiesced server holds none).
  uint32_t HeldLines() const {
    uint32_t n = 0;
    for (uint64_t word : held_) {
      n += static_cast<uint32_t>(std::popcount(word));
    }
    return n;
  }

  // Releases a TryHold region; `p` outside this buffer is ignored.
  void Release(const uint8_t* p, uint32_t len) {
    const uintptr_t off = reinterpret_cast<uintptr_t>(p) -
                          reinterpret_cast<uintptr_t>(base_);
    if (off >= size_) {
      return;
    }
    const uint32_t first = LineOf(p);
    const uint32_t end = first + Rounded(len) / kCachelineBytes;
    for (uint32_t l = first; l < end; l++) {
      held_[l / 64] &= ~(uint64_t{1} << (l % 64));
    }
  }

 private:
  static uint32_t Rounded(uint32_t len) {
    return (len + kCachelineBytes - 1) & ~(kCachelineBytes - 1);
  }
  uint32_t LineOf(const uint8_t* p) const {
    return static_cast<uint32_t>(p - base_) / kCachelineBytes;
  }
  // True when no line in [first, end) is held.
  bool Free(uint32_t first, uint32_t end) const {
    for (uint32_t l = first; l < end; l++) {
      if (((held_[l / 64] >> (l % 64)) & 1) != 0) {
        return false;
      }
    }
    return true;
  }

  uint8_t* base_;
  uint32_t size_;
  uint32_t cursor_ = 0;
  std::vector<uint64_t> held_;  // bit per cacheline: held by TryHold
};

}  // namespace utps

#endif  // UTPS_NET_RESP_BUF_H_
