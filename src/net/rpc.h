// Server-side RPC receive machinery.
//
// ReconfigurableRpc (§3.2.1): ONE receive ring shared by all worker threads.
// The NIC appends arriving requests into the current MP-RQ slot (multiple
// requests per slot) in address order; the i-th worker claims slots whose
// sequence number satisfies seq mod n == i. Changing the worker count n is a
// server-local operation (workers switch at a predefined slot sequence), with
// no client coordination — the property the auto-tuner's thread reassignment
// relies on.
//
// The same RxRing, one per worker, models an eRPC-style RPC (clients address
// a specific worker): the eRPCKV layout of the run-to-completion server
// (baseline/rtc_server.h).
//
// Modeled memory: slot headers and request records live in the arena and are
// DMA-written via the cache model's DDIO path; host-only bookkeeping (client
// completion handles) lives in parallel unmodeled arrays.
#ifndef UTPS_NET_RPC_H_
#define UTPS_NET_RPC_H_

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "check/mutation.h"
#include "common/macros.h"
#include "common/rng.h"
#include "sim/arena.h"
#include "sim/nic.h"
#include "sim/task.h"
#include "store/kv.h"

namespace utps {

// On-wire request header (modeled bytes inside a receive slot).
struct RxRecord {
  Key key;
  uint32_t op_len;       // OpType (4 bits) | value_len (28 bits)
  uint32_t scan_count;   // scans: number of items requested
  uint64_t scan_upper;   // scans: upper bound of the key range
  uint32_t payload_off;  // offset of put payload within the slot data area
  uint32_t pad;

  OpType op() const { return OpOf(op_len); }
  uint32_t value_len() const { return LenOf(op_len); }
};
static_assert(sizeof(RxRecord) == 32, "wire record layout");

// Header word encoding for NicMessage.h[]:
//   h[0] = key, h[1] = op_len, h[2] = scan_count, h[3] = scan_upper.
inline sim::NicMessage EncodeRequest(OpType op, Key key, uint32_t value_len,
                                     uint32_t scan_count, uint64_t scan_upper) {
  sim::NicMessage m;
  m.h[0] = key;
  m.h[1] = PackOpLen(op, value_len);
  m.h[2] = scan_count;
  m.h[3] = scan_upper;
  return m;
}

enum class SlotState : uint32_t {
  kFree = 0,
  kFilling = 1,
  kClosed = 2,
  kClaimed = 3,
};

class RxRing {
 public:
  struct Config {
    unsigned num_slots = 512;       // physical slots in the ring
    unsigned max_batch = 8;         // requests per MP-RQ slot
    unsigned slot_data_bytes = 12288;  // payload area per slot
    sim::Tick close_timeout_ns = 1000;  // close a non-empty slot after this
  };

  // One modeled cacheline per slot header.
  struct SlotHeader {
    SlotState state = SlotState::kFree;
    uint32_t nreq = 0;
    uint32_t data_bytes = 0;
    uint32_t outstanding = 0;
    sim::Tick first_fill = 0;
    // Sequence the slot was last opened for. Claim checks it, so a worker
    // a full lap behind aborts instead of serving another sequence's
    // requests. Host-side only: workers read (and are charged for) the
    // header's first 16 bytes.
    uint64_t opened_seq = 0;
    uint64_t pad[4] = {};
  };
  static_assert(sizeof(SlotHeader) == kCachelineBytes, "slot header layout");

  RxRing(sim::Arena* arena, const Config& cfg) : cfg_(cfg) {
    headers_ = arena->AllocateArray<SlotHeader>(cfg.num_slots, kCachelineBytes);
    records_ = arena->AllocateArray<RxRecord>(size_t{cfg.num_slots} * cfg.max_batch,
                                              kCachelineBytes);
    data_ = arena->AllocateArray<uint8_t>(size_t{cfg.num_slots} * cfg.slot_data_bytes,
                                          kCachelineBytes);
    for (unsigned i = 0; i < cfg.num_slots; i++) {
      new (&headers_[i]) SlotHeader();
    }
    msgs_.resize(size_t{cfg.num_slots} * cfg.max_batch);
  }

  const Config& config() const { return cfg_; }

  SlotHeader* Header(uint64_t seq) { return &headers_[seq % cfg_.num_slots]; }
  RxRecord* Records(uint64_t seq) {
    return &records_[(seq % cfg_.num_slots) * cfg_.max_batch];
  }
  uint8_t* Data(uint64_t seq) {
    return &data_[(seq % cfg_.num_slots) * size_t{cfg_.slot_data_bytes}];
  }
  sim::NicMessage* Msgs(uint64_t seq) {
    return &msgs_[(seq % cfg_.num_slots) * cfg_.max_batch];
  }

  // NIC-side: materialize messages that have arrived by `now` from NIC ring
  // `ring_id` into receive slots. Charges DDIO writes on the cache model.
  // Returns false if it stalled on backpressure (ring full); the stalled
  // message is stashed and retried first on the next Advance (models the NIC
  // holding the packet until a recv WQE is reposted).
  bool Advance(sim::Nic& nic, unsigned ring_id, sim::Tick now) {
    if (has_stash_) {
      if (!TryPlace(nic, stash_)) {
        return false;
      }
      has_stash_ = false;
    }
    sim::NicMessage msg;
    while (nic.PopArrived(ring_id, now, &msg)) {
      if (!TryPlace(nic, msg)) {
        stash_ = msg;
        has_stash_ = true;
        return false;
      }
    }
    // Close the filling slot on timeout so low load doesn't strand requests.
    SlotHeader* cur = Header(fill_seq_);
    if (cur->state == SlotState::kFilling && cur->nreq > 0 &&
        now - cur->first_fill >= cfg_.close_timeout_ns) {
      cur->state = SlotState::kClosed;
      fill_seq_++;
    }
    return true;
  }

  // Worker-side: is the slot at `seq` ready to claim?
  bool IsClosed(uint64_t seq) const {
    if (seq >= fill_seq_) {
      return false;
    }
    return headers_[seq % cfg_.num_slots].state == SlotState::kClosed;
  }

  void Claim(uint64_t seq) {
    SlotHeader* h = Header(seq);
    UTPS_DCHECK(h->state == SlotState::kClosed);
    UTPS_CHECK_MSG(h->opened_seq == seq,
                   "claim of rx seq %llu found its slot holding seq %llu",
                   static_cast<unsigned long long>(seq),
                   static_cast<unsigned long long>(h->opened_seq));
    h->state = SlotState::kClaimed;
    h->outstanding = h->nreq;
  }

  // Marks one request of the slot completed; frees the slot when all are.
  void CompleteOne(uint64_t seq) {
    SlotHeader* h = Header(seq);
    UTPS_DCHECK(h->state == SlotState::kClaimed);
    UTPS_DCHECK(h->outstanding > 0);
    if (--h->outstanding == 0) {
      h->state = SlotState::kFree;  // management thread reposts the recv
    }
  }

  uint64_t fill_seq() const { return fill_seq_; }

  // True when no received request waits for or is held by a worker: nothing
  // stashed, and every slot is free or an empty filling slot.
  bool Idle() const {
    if (has_stash_) {
      return false;
    }
    for (unsigned i = 0; i < cfg_.num_slots; i++) {
      const SlotHeader& h = headers_[i];
      if (h.state == SlotState::kClosed || h.state == SlotState::kClaimed ||
          (h.state == SlotState::kFilling && h.nreq > 0)) {
        return false;
      }
    }
    return true;
  }

  bool HasStash() const { return has_stash_; }

 private:
  // Places one message into the current fill slot, opening/closing slots as
  // needed. Returns false only when the target physical slot has not been
  // recycled yet (backpressure).
  bool TryPlace(sim::Nic& nic, const sim::NicMessage& msg) {
    for (;;) {
      SlotHeader* h = Header(fill_seq_);
      if (h->state == SlotState::kClosed || h->state == SlotState::kClaimed) {
        return false;  // physical slot still owned by a worker
      }
      if (h->state == SlotState::kFree) {
        h->state = SlotState::kFilling;
        h->nreq = 0;
        h->data_bytes = 0;
        h->outstanding = 0;
        h->first_fill = msg.arrival_tick;
        h->opened_seq = fill_seq_;
      }
      const uint32_t payload_len =
          OpOf(msg.h[1]) == OpType::kPut ? LenOf(msg.h[1]) : 0;
      if (h->data_bytes + payload_len > cfg_.slot_data_bytes) {
        h->state = SlotState::kClosed;  // no room: close and use the next slot
        fill_seq_++;
        continue;
      }
      RxRecord* rec = &Records(fill_seq_)[h->nreq];
      rec->key = msg.h[0];
      rec->op_len = static_cast<uint32_t>(msg.h[1]);
      rec->scan_count = static_cast<uint32_t>(msg.h[2]);
      rec->scan_upper = msg.h[3];
      rec->payload_off = h->data_bytes;
      Msgs(fill_seq_)[h->nreq] = msg;
      if (nic.mem() != nullptr) {
        nic.mem()->IoWrite(rec, sizeof(RxRecord));
      }
      if (payload_len > 0 && msg.payload != nullptr) {
        uint8_t* dst = Data(fill_seq_) + h->data_bytes;
        std::memcpy(dst, msg.payload, payload_len);
        if (nic.mem() != nullptr) {
          nic.mem()->IoWrite(dst, payload_len);
        }
        h->data_bytes += (payload_len + 7u) & ~7u;
      }
      h->nreq++;
      if (h->nreq == cfg_.max_batch) {
        h->state = SlotState::kClosed;
        fill_seq_++;
      }
      return true;
    }
  }

  Config cfg_;
  SlotHeader* headers_;
  RxRecord* records_;
  uint8_t* data_;
  std::vector<sim::NicMessage> msgs_;  // host-only bookkeeping
  uint64_t fill_seq_ = 0;
  sim::NicMessage stash_{};
  bool has_stash_ = false;
};

// ------------------------------------------------------------------ retries
// Client-side timeout/retry with exponential backoff (fault tolerance,
// DESIGN.md §9). The message's gate is armed once per *operation* and
// retransmits reuse its non-zero rid, so the server's DedupWindow can make
// non-idempotent ops at-most-once and a completion raced in by an earlier
// attempt stays valid. Retries continue until the response lands — an
// abandoned operation would leave an open history entry, so giving up is the
// harness deadline's job, not ours.
struct RetryPolicy {
  sim::Tick timeout_ns = 30 * sim::kUsec;       // first-attempt timeout
  sim::Tick max_timeout_ns = 500 * sim::kUsec;  // backoff cap
  sim::Tick poll_ns = 2 * sim::kUsec;           // completion poll quantum
  // Backoff jitter: each backed-off timeout is stretched by a uniform draw in
  // [0, jitter_frac * timeout], taken from `rng` — which MUST be the caller's
  // own per-stream generator. Drawing from a shared sequence would entangle
  // retry schedules across streams: adding cluster-internal replication RPCs
  // (src/cluster) would shift every client's draws and perturb fig15's
  // committed rows. Null rng or zero frac is pure exponential doubling.
  double jitter_frac = 0.0;
  Rng* rng = nullptr;
};

// One backoff step: double `timeout` up to `max_timeout`, then stretch it by
// a uniform draw in [0, jitter_frac * doubled) from `rng` (see RetryPolicy;
// null rng or zero frac draws nothing).
inline sim::Tick BackoffStep(sim::Tick timeout, sim::Tick max_timeout,
                             double jitter_frac, Rng* rng) {
  sim::Tick next = timeout * 2 < max_timeout ? timeout * 2 : max_timeout;
  if (rng != nullptr && jitter_frac > 0.0) {
    const auto span =
        static_cast<sim::Tick>(jitter_frac * static_cast<double>(next));
    if (span > 0) {
      next += rng->NextBounded(span);
    }
  }
  return next;
}

// How a polled wait's last poll ends: clamped to the deadline, or a whole
// poll that may overshoot it.
enum class LastPoll : uint8_t { kClamped, kWhole };

// The polled wait of every timeout loop but ReliableCall's (cluster.h says
// why): checks `gate` every `poll_ns` until the response is ready or
// `deadline` passes. Returns whether the response landed.
inline sim::Task<bool> PollGate(sim::ExecCtx& ctx, const sim::RpcGate& gate,
                                sim::Tick deadline, sim::Tick poll_ns,
                                LastPoll last = LastPoll::kClamped) {
  while (!gate.ReadyAt(ctx.Now()) && ctx.Now() < deadline) {
    const sim::Tick left = deadline - ctx.Now();
    co_await ctx.Delay(last == LastPoll::kClamped && left < poll_ns ? left
                                                                    : poll_ns);
  }
  co_return gate.ReadyAt(ctx.Now());
}

// One request end to end: arms the message's gate for its rid and sends.
// With a null `retry` it sends once and parks on the gate until the response
// lands (rid 0, no fault plan). With a policy it polls and retransmits on
// each timeout, backing off, until the response lands. Returns the number of
// send attempts (1 = no retransmit).
inline sim::Task<unsigned> RpcCall(sim::ExecCtx& ctx, sim::Nic& nic,
                                   unsigned ring, const sim::NicMessage& msg,
                                   const RetryPolicy* retry) {
  UTPS_DCHECK(msg.gate != nullptr);
  sim::RpcGate& gate = *msg.gate;
  gate.Arm(msg.rid);
  if (retry == nullptr) {
    nic.ClientSend(ctx, ring, msg);
    co_await gate.Wait(ctx);
    co_return 1;
  }
  UTPS_DCHECK(msg.rid != 0);
  sim::Tick timeout = retry->timeout_ns;
  for (unsigned attempts = 1;; attempts++) {
    nic.ClientSend(ctx, ring, msg);
    if (co_await PollGate(ctx, gate, ctx.Now() + timeout, retry->poll_ns)) {
      co_return attempts;
    }
    timeout = BackoffStep(timeout, retry->max_timeout_ns, retry->jitter_frac,
                          retry->rng);
  }
}

// -------------------------------------------------------------------- dedup
// Server-side at-most-once window (DESIGN.md §9). Request ids are
// per-client-stream monotone: rid = (stream + 1) << 32 | seq with seq >= 1.
// Each client stream runs one operation at a time and retransmits reuse the
// operation's rid, so one {highest started, highest done} pair per stream is
// a complete dedup record — no per-rid table growth, O(1) per request.
//
// Contract: Begin() before applying a non-idempotent op (PUT/DELETE);
// kExecute means apply it, kInFlight means an earlier delivery of the same
// rid is still executing (swallow the duplicate — its response will answer
// the client), kDone means it already executed (replay an empty ack, never
// re-apply). Complete() when the response for the rid is posted. Idempotent
// ops (GET/SCAN) bypass the window and simply re-execute.
class DedupWindow {
 public:
  enum class Verdict : uint8_t { kExecute, kInFlight, kDone };

  Verdict Begin(uint64_t rid) {
    if (mut::DropDedupWindow()) {
      return Verdict::kExecute;  // seeded bug: duplicates re-apply
    }
    const uint32_t stream = static_cast<uint32_t>(rid >> 32);
    const uint32_t seq = static_cast<uint32_t>(rid);
    Ent& e = ents_[stream];
    if (seq <= e.done) {
      dup_done_++;
      return Verdict::kDone;
    }
    if (seq <= e.started) {
      dup_inflight_++;
      return Verdict::kInFlight;
    }
    e.started = seq;
    return Verdict::kExecute;
  }

  void Complete(uint64_t rid) {
    const uint32_t stream = static_cast<uint32_t>(rid >> 32);
    const uint32_t seq = static_cast<uint32_t>(rid);
    Ent& e = ents_[stream];
    if (seq > e.done) {
      e.done = seq;
    }
  }

  // Duplicate deliveries suppressed after/before the first apply completed.
  uint64_t dup_done() const { return dup_done_; }
  uint64_t dup_inflight() const { return dup_inflight_; }

  // ------------------------------------------------- migration handoff
  // Shard migration (src/cluster) moves a shard's dedup knowledge to the new
  // owner so a retransmit that lands after the ownership flip still reads
  // kDone. Per-stream watermarks are global maxima over the ops a node saw,
  // and client streams run one op at a time, so max-merging a source node's
  // whole table into the destination is safe: any rid still retryable is
  // strictly above every watermark recorded for its stream anywhere except
  // at nodes that applied that exact op.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [stream, e] : ents_) {
      fn(stream, e.started, e.done);
    }
  }

  void MergeFloor(uint32_t stream, uint32_t started, uint32_t done) {
    Ent& e = ents_[stream];
    if (started > e.started) {
      e.started = started;
    }
    if (done > e.done) {
      e.done = done;
    }
  }

 private:
  struct Ent {
    uint32_t started = 0;
    uint32_t done = 0;
  };
  std::unordered_map<uint32_t, Ent> ents_;
  uint64_t dup_done_ = 0;
  uint64_t dup_inflight_ = 0;
};

}  // namespace utps

#endif  // UTPS_NET_RPC_H_
