// NIC model: a ConnectX-class RNIC connecting simulated client machines to
// the server.
//
//  - Two-sided path: clients post sends; messages serialize through an
//    ingress link (token-bucket for message rate and 200 Gbps byte rate),
//    travel RTT/2, and land in one of the server's receive rings in arrival
//    order (the RPC layer decides slot placement and performs the DDIO DMA
//    write via the cache model). Responses serialize through the egress link
//    and complete the request's RpcGate at delivery time: the one completion
//    every client uses, whether it parks on the gate or polls it.
//  - One-sided verbs (READ/WRITE/CAS): executed as client coroutines; the
//    remote memory operation is performed exactly at the simulated
//    server-side time, linearizing one-sided ops against server CPU ops.
//
// The NIC does not interpret message headers: NicMessage carries four opaque
// 64-bit words that the RPC/KVS layers encode.
#ifndef UTPS_SIM_NIC_H_
#define UTPS_SIM_NIC_H_

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "sim/cache.h"
#include "sim/exec.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace utps::sim {

struct NicConfig {
  Tick rtt_ns = 2000;               // client <-> server round trip
  double msg_rate_mops = 150.0;     // per-direction message rate cap (M msg/s)
  double bandwidth_gbps = 200.0;    // per-direction line rate
  Tick client_send_cpu_ns = 30;     // client CPU cost to post a send
  Tick verb_cpu_ns = 40;            // client CPU cost to post a one-sided verb
  unsigned verb_header_bytes = 30;  // RDMA header overhead per message
};

struct NicMessage {
  uint64_t h[4] = {0, 0, 0, 0};     // opaque app header words
  const void* payload = nullptr;    // client-side payload (put value bytes)
  uint32_t payload_len = 0;
  uint32_t wire_bytes = 0;          // total on-wire size
  void* copy_out = nullptr;         // client buffer for response payload
  uint32_t* resp_len_out = nullptr; // client-owned: receives the payload length
  Tick issue_tick = 0;
  Tick arrival_tick = 0;
  // The response completes `gate` (owned by the client) if it still accepts
  // `rid`. rid 0 means the request is never retransmitted: servers skip
  // their dedup window for it, and a fault plan never drops its response.
  // A non-zero rid is shared by every retransmit of one operation; the
  // server dedup window and the gate's AcceptsResponse guard make delivery
  // at-most-once from the client's point of view.
  uint64_t rid = 0;
  RpcGate* gate = nullptr;
};

// Per-message fault decision, produced by a NicFaultHook at send time.
struct NicFault {
  bool drop = false;       // message lost on the wire
  bool dup = false;        // a duplicate copy is also delivered
  Tick extra_delay = 0;    // delay spike added to the delivery time
  Tick dup_delay = 0;      // additional delay of the duplicate (reordering)
};

// Boundary hook for deterministic fault injection (implemented by
// fault::FaultInjector). Decisions are drawn from a seeded RNG in message
// order, so the same seed and plan reproduce the same fault schedule.
// Two-sided messages only: one-sided verbs model reliable RDMA transport and
// see only link-rate degradation.
class NicFaultHook {
 public:
  virtual ~NicFaultHook() = default;
  virtual NicFault OnRequest(Tick now) = 0;
  virtual NicFault OnResponse(Tick now) = 0;
  virtual double LinkCostScale(Tick now) = 0;
};

// Serializes messages through a link: departure time respects both a
// per-message rate cap and the byte rate.
class LinkSerializer {
 public:
  LinkSerializer(double msg_rate_mops, double bandwidth_gbps)
      : ns_per_msg_(1000.0 / msg_rate_mops),
        ns_per_byte_(8.0 / bandwidth_gbps) {}

  // `scale` > 1 models link-rate degradation (fault injection); the default
  // leaves the cost arithmetic bit-identical to the scale-free form.
  Tick Depart(Tick now, size_t bytes, double scale = 1.0) {
    double cost_d = ns_per_msg_ > ns_per_byte_ * static_cast<double>(bytes)
                        ? ns_per_msg_
                        : ns_per_byte_ * static_cast<double>(bytes);
    if (scale != 1.0) {
      cost_d *= scale;
    }
    // Accumulate fractional cost so sub-ns message costs are not lost.
    frac_ += cost_d;
    const Tick cost = static_cast<Tick>(frac_);
    frac_ -= static_cast<double>(cost);
    const Tick dep = now > next_free_ ? now : next_free_;
    next_free_ = dep + cost;
    return dep;
  }

  // Functional fast-forward (DESIGN.md §12): departure without token-bucket
  // accounting. Clamping to next_free_ keeps departures monotonic across a
  // detailed-to-functional mode switch. The 1 ns bump per message keeps
  // per-link departures strictly increasing; it is kept because dropping it
  // would move every sampled-mode result (fig16's estimates, kvbench's
  // sampled-2048c). Messages flow far slower than 1/ns, so unlike the token
  // buckets this accrues no link debt for the next detailed window.
  Tick Pass(Tick now) {
    const Tick dep = now > next_free_ ? now : next_free_;
    next_free_ = dep + 1;
    return dep;
  }

  void Reset() {
    next_free_ = 0;
    frac_ = 0.0;
  }

 private:
  double ns_per_msg_;
  double ns_per_byte_;
  Tick next_free_ = 0;
  double frac_ = 0.0;
};

// Power-of-two ring buffer of in-flight NicMessages: the slot array is the
// message slab — messages live by value in pre-allocated slots recycled
// through the head/tail cursors, so the steady state performs zero heap
// allocations per message (a deque would churn one ~512B chunk every four
// messages; DESIGN.md §13). Capacity doubles on overflow and then sticks:
// after the warm-up high-water mark no allocation ever happens again.
class MsgRing {
 public:
  bool empty() const { return head_ == tail_; }
  size_t size() const { return head_ - tail_; }

  NicMessage& front() { return slots_[tail_ & mask_]; }
  const NicMessage& front() const { return slots_[tail_ & mask_]; }

  void push_back(const NicMessage& m) {
    if (UTPS_UNLIKELY(head_ - tail_ == slots_.size())) {
      Grow();
    }
    slots_[head_++ & mask_] = m;
  }

  void pop_front() { tail_++; }  // NicMessage is trivially destructible

  // Fault-path insert keeping the ring sorted by arrival tick: equivalent to
  // std::upper_bound + insert (equal ticks keep FIFO order among themselves).
  // Shifts from the back — fault delays are bounded, so the scan is short,
  // and the path only runs with a fault hook installed.
  void insert_sorted(const NicMessage& m) {
    if (UTPS_UNLIKELY(head_ - tail_ == slots_.size())) {
      Grow();
    }
    uint64_t i = head_++;
    while (i != tail_ && slots_[(i - 1) & mask_].arrival_tick > m.arrival_tick) {
      slots_[i & mask_] = slots_[(i - 1) & mask_];
      i--;
    }
    slots_[i & mask_] = m;
  }

  void clear() { tail_ = head_; }

 private:
  void Grow() {
    const size_t cap = slots_.empty() ? kInitialCap : slots_.size() * 2;
    std::vector<NicMessage> next(cap);
    const size_t n = head_ - tail_;
    for (size_t i = 0; i < n; i++) {
      next[i] = slots_[(tail_ + i) & mask_];
    }
    slots_.swap(next);
    mask_ = cap - 1;
    tail_ = 0;
    head_ = n;
  }

  static constexpr size_t kInitialCap = 64;
  std::vector<NicMessage> slots_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;  // push cursor (monotonic; slot = cursor & mask_)
  uint64_t tail_ = 0;  // pop cursor
};

class Nic {
 public:
  Nic(MemoryModel* mem, const NicConfig& cfg, unsigned num_rings)
      : mem_(mem),
        cfg_(cfg),
        rx_link_(cfg.msg_rate_mops, cfg.bandwidth_gbps),
        tx_link_(cfg.msg_rate_mops, cfg.bandwidth_gbps),
        rings_(num_rings) {}

  const NicConfig& config() const { return cfg_; }

  // Fault-injection hook (src/fault). Null (the default) keeps every path
  // byte-identical to a build without fault support.
  void SetFaultHook(NicFaultHook* hook) { hook_ = hook; }

  // ------------------------------------------------------------- two-sided
  // Client posts a request toward server receive ring `ring`.
  void ClientSend(ExecCtx& cli, unsigned ring, NicMessage msg) {
    UTPS_DCHECK(ring < rings_.size());
    cli.Charge(cfg_.client_send_cpu_ns);
    msg.wire_bytes = cfg_.verb_header_bytes + 32 + msg.payload_len;
    msg.issue_tick = cli.Now();
    if (UTPS_UNLIKELY(hook_ != nullptr)) {
      ApplySendFaulty(ring, msg);
      return;
    }
    // Fast-forward bypasses the token buckets but keeps the RTT/2 delivery
    // delay: a functional segment models the same wire, only cheaper to
    // simulate, so requests still take half a round trip to arrive.
    const Tick dep = UTPS_UNLIKELY(FastForward())
                         ? rx_link_.Pass(msg.issue_tick)
                         : rx_link_.Depart(msg.issue_tick, msg.wire_bytes);
    msg.arrival_tick = dep + cfg_.rtt_ns / 2;
    rx_messages_++;
    rx_bytes_ += msg.wire_bytes;
    rings_[ring].push_back(msg);
    if (rings_[ring].size() > peak_ring_depth_) {
      peak_ring_depth_ = rings_[ring].size();  // ingress queueing high-water
    }
  }

  // Fault-path send: the wire is used either way (serialization happens), but
  // delivery can be dropped, delayed, or duplicated. Arrivals are kept sorted
  // so PopArrived's front-of-queue contract survives reordering. Fault
  // decisions are drawn here, at send time and in send order, so a seed
  // reproduces the same per-message fault schedule.
  void ApplySendFaulty(unsigned ring, NicMessage msg) {
    const NicFault f = hook_->OnRequest(msg.issue_tick);
    const Tick dep = rx_link_.Depart(msg.issue_tick, msg.wire_bytes,
                                     hook_->LinkCostScale(msg.issue_tick));
    rx_messages_++;
    rx_bytes_ += msg.wire_bytes;
    const Tick base = dep + cfg_.rtt_ns / 2 + f.extra_delay;
    if (!f.drop) {
      msg.arrival_tick = base;
      InsertArrival(ring, msg);
    }
    if (f.dup) {
      msg.arrival_tick = base + f.dup_delay;
      InsertArrival(ring, msg);
    }
  }

  // Pop the next message that has arrived at the server by `now`.
  bool PopArrived(unsigned ring, Tick now, NicMessage* out) {
    MsgRing& q = rings_[ring];
    if (q.empty() || q.front().arrival_tick > now) {
      return false;
    }
    *out = q.front();
    q.pop_front();
    return true;
  }

  size_t RingDepth(unsigned ring) const { return rings_[ring].size(); }

  // Crash-restart support (src/wal recovery): models a NIC reset — requests
  // queued toward the server but not yet placed into receive slots are lost.
  // Clients on the retry path retransmit them with the same rid. Responses
  // already scheduled as engine events still deliver; the client-side gate
  // discards duplicates. Unused in fault-free runs (byte-identical).
  void DropPending() {
    for (MsgRing& q : rings_) {
      q.clear();
    }
  }

  // Server posts a response of `resp_payload_len` bytes. Deliver copies
  // `resp_src` out now (host-level copy for correctness validation; timing
  // is carried by the wire model) and completes the client's gate.
  void ServerSend(ExecCtx& srv, const NicMessage& req, const void* resp_src,
                  uint32_t resp_payload_len) {
    const size_t bytes = cfg_.verb_header_bytes + 16 + resp_payload_len;
    if (UTPS_UNLIKELY(hook_ != nullptr)) {
      ServerSendFaulty(srv, req, resp_src, resp_payload_len, bytes);
      return;
    }
    const Tick dep = UTPS_UNLIKELY(FastForward())
                         ? tx_link_.Pass(srv.Now())
                         : tx_link_.Depart(srv.Now(), bytes);
    tx_messages_++;
    tx_bytes_ += bytes;
    Deliver(srv, req, resp_src, resp_payload_len, dep + cfg_.rtt_ns / 2);
  }

  // ------------------------------------------------------------- one-sided
  // RDMA READ: remote memory is read (and copied into dst) at the simulated
  // server-side time.
  Task<Tick> ReadVerb(ExecCtx& cli, void* dst, const void* src, size_t len) {
    cli.Charge(cfg_.verb_cpu_ns);
    const Tick dep =
        rx_link_.Depart(cli.Now(), cfg_.verb_header_bytes, LinkScale(cli.Now()));
    rx_messages_++;
    co_await cli.Delay(dep - cli.Now() + cfg_.rtt_ns / 2);
    // Server-side moment: DMA read.
    const Tick dma = mem_ != nullptr ? mem_->IoRead(src, len) : 20;
    std::memcpy(dst, src, len);
    const Tick dep2 = tx_link_.Depart(cli.Now() + dma, cfg_.verb_header_bytes + len,
                                      LinkScale(cli.Now()));
    tx_messages_++;
    tx_bytes_ += cfg_.verb_header_bytes + len;
    co_await cli.Delay(dep2 - cli.Now() + cfg_.rtt_ns / 2);
    co_return cli.Now();
  }

  // RDMA WRITE (with completion; models write + remote ack).
  Task<Tick> WriteVerb(ExecCtx& cli, void* dst, const void* src, size_t len) {
    cli.Charge(cfg_.verb_cpu_ns);
    const Tick dep = rx_link_.Depart(cli.Now(), cfg_.verb_header_bytes + len,
                                     LinkScale(cli.Now()));
    rx_messages_++;
    rx_bytes_ += cfg_.verb_header_bytes + len;
    co_await cli.Delay(dep - cli.Now() + cfg_.rtt_ns / 2);
    // Server-side moment: DDIO write.
    const Tick dma = mem_ != nullptr ? mem_->IoWrite(dst, len) : 20;
    std::memcpy(dst, src, len);
    const Tick dep2 = tx_link_.Depart(cli.Now() + dma, cfg_.verb_header_bytes,
                                      LinkScale(cli.Now()));
    tx_messages_++;
    co_await cli.Delay(dep2 - cli.Now() + cfg_.rtt_ns / 2);
    co_return cli.Now();
  }

  // RDMA CAS on an 8-byte word; returns the old value. Linearized at the
  // simulated server-side time.
  Task<uint64_t> CasVerb(ExecCtx& cli, uint64_t* addr, uint64_t expect,
                         uint64_t desired) {
    cli.Charge(cfg_.verb_cpu_ns);
    const Tick dep = rx_link_.Depart(cli.Now(), cfg_.verb_header_bytes + 16,
                                     LinkScale(cli.Now()));
    rx_messages_++;
    co_await cli.Delay(dep - cli.Now() + cfg_.rtt_ns / 2);
    const Tick dma = mem_ != nullptr
                         ? mem_->IoRead(addr, 8) + mem_->IoWrite(addr, 8)
                         : 40;
    const uint64_t old = *addr;
    if (old == expect) {
      *addr = desired;
    }
    const Tick dep2 = tx_link_.Depart(cli.Now() + dma, cfg_.verb_header_bytes + 8,
                                      LinkScale(cli.Now()));
    tx_messages_++;
    co_await cli.Delay(dep2 - cli.Now() + cfg_.rtt_ns / 2);
    co_return old;
  }

  // ----------------------------------------------------------------- stats
  uint64_t rx_messages() const { return rx_messages_; }
  uint64_t tx_messages() const { return tx_messages_; }
  uint64_t rx_bytes() const { return rx_bytes_; }
  uint64_t tx_bytes() const { return tx_bytes_; }
  size_t peak_ring_depth() const { return peak_ring_depth_; }

  MemoryModel* mem() const { return mem_; }

 private:
  // Sampled-simulation functional mode (DESIGN.md §12): the cache model's
  // fast-forward flag is the single mode switch for the whole machine; the
  // NIC reads it through its mem_ pointer. The fault path (hook_ != nullptr)
  // deliberately ignores it — fault schedules stay fully modeled.
  bool FastForward() const { return mem_ != nullptr && mem_->fast_forward(); }

  void ServerSendFaulty(ExecCtx& srv, const NicMessage& req,
                        const void* resp_src, uint32_t resp_payload_len,
                        size_t bytes) {
    const NicFault f = hook_->OnResponse(srv.Now());
    const Tick dep =
        tx_link_.Depart(srv.Now(), bytes, hook_->LinkCostScale(srv.Now()));
    tx_messages_++;
    tx_bytes_ += bytes;
    // Only a retransmitted request (rid != 0) can lose its response: a
    // request sent once would wait forever, so for those only the delay
    // spike applies.
    if (req.rid != 0 && f.drop) {
      return;
    }
    Deliver(srv, req, resp_src, resp_payload_len,
            dep + cfg_.rtt_ns / 2 + f.extra_delay);
  }

  // Hands a response to its client at tick `at`: copies the payload out and
  // completes the gate. A gate takes only a response to the rid it still
  // waits for, so a late or duplicate execution cannot write into a reused
  // client buffer; it records `at` now, and RpcGate::ReadyAt keeps the
  // client from seeing the response before then. A message without a gate
  // expects no answer.
  void Deliver(ExecCtx& srv, const NicMessage& req, const void* resp_src,
               uint32_t len, Tick at) {
    if (req.gate == nullptr || !req.gate->AcceptsResponse(req.rid)) {
      return;
    }
    if (req.copy_out != nullptr && resp_src != nullptr) {
      std::memcpy(req.copy_out, resp_src, len);
    }
    if (req.resp_len_out != nullptr) {
      *req.resp_len_out = len;
    }
    req.gate->Complete(at < srv.Now() ? srv.Now() : at);
  }

  // Sorted insert by arrival tick: fault delays/duplicates can reorder
  // deliveries relative to send order, but the queue itself stays ordered.
  void InsertArrival(unsigned ring, const NicMessage& msg) {
    MsgRing& q = rings_[ring];
    q.insert_sorted(msg);
    if (q.size() > peak_ring_depth_) {
      peak_ring_depth_ = q.size();
    }
  }

  double LinkScale(Tick now) const {
    return hook_ != nullptr ? hook_->LinkCostScale(now) : 1.0;
  }

  MemoryModel* mem_;
  NicConfig cfg_;
  NicFaultHook* hook_ = nullptr;
  LinkSerializer rx_link_;
  LinkSerializer tx_link_;
  std::vector<MsgRing> rings_;
  uint64_t rx_messages_ = 0;
  uint64_t tx_messages_ = 0;
  uint64_t rx_bytes_ = 0;
  uint64_t tx_bytes_ = 0;
  size_t peak_ring_depth_ = 0;
};

}  // namespace utps::sim

#endif  // UTPS_SIM_NIC_H_
