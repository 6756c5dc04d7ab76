// Arena allocator for all memory whose cache behaviour is modeled.
//
// Determinism: the cache model maps host addresses to cache sets. By carving
// every modeled object (KV items, index nodes, network buffers, queues) out of
// one arena whose base is aligned to the LLC set period, the *offsets* within
// the arena fully determine set indices, making cache behaviour reproducible
// across runs regardless of ASLR.
//
// Zero fill: the arena only bump-allocates from a fresh anonymous mapping and
// never reuses memory, so Allocate always returns all-zero bytes that nobody
// has written. Callers rely on this: an aggregate whose members are all zero
// (e.g. an empty cuckoo bucket) needs no constructor run over it.
//
// Modeled layout vs host storage: a modeled address needs backing only if the
// host reads or writes it. The mapping is MAP_NORESERVE, so a range that is
// only ever passed to the cache model is never resident; CuckooIndex takes its
// 128 B-per-bucket modeled table from the arena that way and keeps the
// buckets' real state in a denser Arena of its own. An arena that holds only
// host state never feeds set indices, so it needs no set-period alignment.
#ifndef UTPS_SIM_ARENA_H_
#define UTPS_SIM_ARENA_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace utps::sim {

class Arena {
 public:
  // alignment must be a power of two; for modeled memory, >= the LLC set
  // period (num_sets * cacheline). A host-only arena may use a cacheline.
  explicit Arena(size_t bytes, size_t alignment = 4ull << 20) {
    size_t padded = bytes + alignment;
    void* raw = ::mmap(nullptr, padded, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    UTPS_CHECK_MSG(raw != MAP_FAILED, "arena mmap of %zu bytes failed", padded);
    raw_ = raw;
    raw_bytes_ = padded;
    uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    base_ = (base + alignment - 1) & ~(alignment - 1);
    end_ = reinterpret_cast<uintptr_t>(raw) + padded;
    cursor_ = base_;
  }

  ~Arena() {
    if (raw_ != nullptr) {
      ::munmap(raw_, raw_bytes_);
    }
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Best-effort transparent huge pages for the whole mapping (failure is
  // ignored: the arena then stays on 4 KB pages). Worth it only for an arena
  // filled densely from its base, where each 2 MB fault replaces 512 4 KB
  // ones; a sparsely touched arena would pay RSS for the untouched rest of
  // each huge page. Modeled addresses do not change: cache sets come from
  // offsets to the aligned base.
  void AdviseHugePages() { (void)::madvise(raw_, raw_bytes_, MADV_HUGEPAGE); }

  void* Allocate(size_t bytes, size_t align = kCachelineBytes) {
    uintptr_t p = (cursor_ + align - 1) & ~(uintptr_t{align} - 1);
    UTPS_CHECK_MSG(p + bytes <= end_, "arena exhausted (need %zu bytes)", bytes);
    cursor_ = p + bytes;
    return reinterpret_cast<void*>(p);
  }

  template <typename T>
  T* AllocateArray(size_t count, size_t align = kCachelineBytes) {
    return static_cast<T*>(Allocate(sizeof(T) * count, align));
  }

  size_t BytesUsed() const { return cursor_ - base_; }
  uintptr_t base() const { return base_; }

 private:
  void* raw_ = nullptr;
  size_t raw_bytes_ = 0;
  uintptr_t base_ = 0;
  uintptr_t end_ = 0;
  uintptr_t cursor_ = 0;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_ARENA_H_
