// The CR-MR queue (§3.4): all-to-all mapping of cache-resident-layer threads
// to memory-resident-layer threads; each (CR, MR) pair has a dedicated SPSC
// ring whose slots carry a batch of compact 16-byte request descriptors.
//
// Completion is piggybacked on the tail pointer: the MR consumer advances
// `tail` only after every request in the slot has been processed and its
// response bytes placed in the response region `resp` names; the CR producer
// polls `tail` and then delivers the responses to clients.
//
// Modeled memory: the descriptor slots and head/tail words live in the arena
// and are charged through the cache model. Full-size host bookkeeping (the
// response region and the receive record that routes the completion) rides
// in a parallel unmodeled array, exactly mirroring the paper's trick of
// keeping the on-ring descriptor at 16 bytes.
//
// Residency (DESIGN.md §13): the queue is all-to-all, W² rings, but a split
// uses only ncr × nmr of them. Init runs no constructor: the slots, control
// words and companions are all-zero arena bytes (sim/arena.h), which already
// read as an empty ring. The companions come from a host-only arena of their
// own, so a ring that never carries a batch costs no resident page.
#ifndef UTPS_CORE_CRMR_QUEUE_H_
#define UTPS_CORE_CRMR_QUEUE_H_

#include <cstdint>
#include <span>

#include "common/macros.h"
#include "net/rpc.h"
#include "sim/arena.h"
#include "store/kv.h"

namespace utps {

// The paper's Figure 6 16-byte descriptor.
struct CrMrDesc {
  Key key;           // 8 B (longer keys would be hashed into this field)
  uint32_t op_len;   // type (4 bits) | KV size (28 bits)
  uint32_t buf;      // receive record: slot index << 8 | index in the slot
};
static_assert(sizeof(CrMrDesc) == 16, "descriptor layout");

// Host-side companion of a descriptor: what the MR layer sends back and the
// receive record it answers. The request itself (payload, scan bounds,
// routing) stays in that record until the response completes it.
struct CrMrHostDesc {
  // Response payload target, set by the MR worker that runs a GET or scan: a
  // region held in its RespBuffer (the CR layer releases it on sending), or
  // the receive record's own region.
  uint8_t* resp = nullptr;
  uint64_t rx_seq = 0;    // receive slot to credit (a sequence or slot index)
  // Durability (src/wal): token of the WAL append the MR layer performed for
  // this request; the CR layer waits on it before releasing the response.
  // lsn == 0 (the default, and always with WAL off) means nothing to wait on.
  // MuTpsServer checks that every shard number fits wal_shard.
  uint64_t wal_lsn = 0;
  uint32_t resp_len = 0;   // filled by the MR layer
  uint16_t wal_shard = 0;
  uint16_t rec_idx = 0;    // record within the receive slot
};
static_assert(sizeof(CrMrHostDesc) == 32, "host companion layout");

class CrMrRing {
 public:
  static constexpr unsigned kMaxBatch = 20;  // matches the paper's sweep limit
  static constexpr unsigned kNumSlots = 32;
  static_assert((kNumSlots & (kNumSlots - 1)) == 0,
                "slot indexing masks the sequence number");

  struct Slot {
    uint32_t count = 0;
    uint32_t pad = 0;
    CrMrDesc descs[kMaxBatch];
  };

  // Cacheline-aligned modeled control words.
  struct Control {
    alignas(kCachelineBytes) uint64_t head = 0;  // producer-advanced
    alignas(kCachelineBytes) uint64_t tail = 0;  // consumer-advanced (= completion)
  };

  // Bytes Init takes from `host_arena` for one ring's companions.
  static constexpr size_t HostBytes(unsigned batch_size) {
    return size_t{kNumSlots} * batch_size * sizeof(CrMrHostDesc);
  }

  // `batch_size` is the most descriptors a producer ever puts in one slot.
  // The modeled slots keep room for kMaxBatch (their arena layout does not
  // depend on it); the host companions hold only batch_size per slot. Both
  // arenas must hand out fresh, zero-filled bytes.
  void Init(sim::Arena* arena, sim::Arena* host_arena, unsigned batch_size) {
    UTPS_CHECK(batch_size >= 1 && batch_size <= kMaxBatch);
    slots_ = arena->AllocateArray<Slot>(kNumSlots, kCachelineBytes);
    ctl_ = arena->AllocateArray<Control>(1, kCachelineBytes);
    stride_ = batch_size;
    host_ = host_arena->AllocateArray<CrMrHostDesc>(size_t{kNumSlots} *
                                                    stride_);
  }

  bool Full() const { return ctl_->head - ctl_->tail >= kNumSlots; }
  bool HasWork(uint64_t pop_cursor) const { return ctl_->head > pop_cursor; }

  // Descriptors one slot holds: the batch_size given to Init.
  unsigned stride() const { return stride_; }

  Slot* SlotAt(uint64_t seq) { return &slots_[seq & (kNumSlots - 1)]; }
  const Slot* SlotAt(uint64_t seq) const {
    return &slots_[seq & (kNumSlots - 1)];
  }
  CrMrHostDesc* HostAt(uint64_t seq) {
    return &host_[(seq & (kNumSlots - 1)) * stride_];
  }
  // Every slot's companions, slot by slot.
  std::span<const CrMrHostDesc> HostDescs() const {
    return {host_, size_t{kNumSlots} * stride_};
  }

  uint64_t head() const { return ctl_->head; }
  uint64_t tail() const { return ctl_->tail; }

  // Occupancy probes: the producer's flow control (against its own completion
  // cursor, which trails `tail`) guarantees head-tail can never reach the
  // slot count, and the consumer must never complete slots the producer has
  // not published.
  void AdvanceHead() {
    UTPS_DCHECK(ctl_->head - ctl_->tail < kNumSlots);
    ctl_->head++;
  }
  void AdvanceTail() {
    UTPS_DCHECK(ctl_->tail < ctl_->head);
    ctl_->tail++;
  }

  const uint64_t* head_addr() const { return &ctl_->head; }
  const uint64_t* tail_addr() const { return &ctl_->tail; }

  // Quiesce audit: with no requests in flight the tail-pointer piggyback must
  // have caught up with the head (every published batch completed). Returns
  // false instead of aborting so test drivers can report which ring failed.
  bool AuditQuiesced() const {
    return ctl_ == nullptr || ctl_->head == ctl_->tail;
  }

 private:
  Slot* slots_ = nullptr;
  Control* ctl_ = nullptr;
  unsigned stride_ = 0;
  CrMrHostDesc* host_ = nullptr;  // kNumSlots x stride_, in the host arena
};

}  // namespace utps

#endif  // UTPS_CORE_CRMR_QUEUE_H_
