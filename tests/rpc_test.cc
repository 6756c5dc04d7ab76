// Tests for the NIC model and the reconfigurable RPC receive ring: slot
// filling/closing, MP-RQ batching, timeout close, claim/complete recycling,
// backpressure, link serialization, one-sided verbs, the gate's deadline
// wait and loops parked on an empty ring.
#include <gtest/gtest.h>

#include <cstring>

#include "net/rpc.h"
#include "sim/arena.h"
#include "sim/engine.h"

namespace utps {
namespace {

using sim::Engine;
using sim::ExecCtx;
using sim::Fiber;
using sim::kMsec;
using sim::kUsec;
using sim::Nic;
using sim::NicConfig;
using sim::NicMessage;

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : arena_(64 << 20), nic_(nullptr, NicConfig{}, 1) {}

  NicMessage Req(Key key, OpType op = OpType::kGet, uint32_t len = 8) {
    return EncodeRequest(op, key, len, 0, 0);
  }

  Engine eng_;
  sim::Arena arena_;
  Nic nic_;
};

TEST_F(RpcTest, LinkSerializerEnforcesMessageRate) {
  sim::LinkSerializer link(/*mops=*/100.0, /*gbps=*/200.0);
  // 100 M msg/s => 10 ns per small message.
  sim::Tick last = 0;
  for (int i = 0; i < 100; i++) {
    last = link.Depart(0, 64);
  }
  EXPECT_NEAR(static_cast<double>(last), 990.0, 20.0);
}

TEST_F(RpcTest, LinkSerializerEnforcesByteRate) {
  sim::LinkSerializer link(/*mops=*/1000.0, /*gbps=*/200.0);
  // 200 Gb/s = 25 GB/s => 1 KB costs 40 ns.
  sim::Tick last = 0;
  for (int i = 0; i < 10; i++) {
    last = link.Depart(0, 1000);
  }
  EXPECT_NEAR(static_cast<double>(last), 360.0, 10.0);
}

TEST_F(RpcTest, SlotClosesAtMaxBatch) {
  RxRing::Config cfg;
  cfg.max_batch = 4;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  for (int i = 0; i < 4; i++) {
    nic_.ClientSend(cli, 0, Req(i));
  }
  rx.Advance(nic_, 0, 10 * kUsec);
  EXPECT_EQ(rx.fill_seq(), 1u);  // slot 0 closed with 4 requests
  EXPECT_TRUE(rx.IsClosed(0));
  EXPECT_EQ(rx.Header(0)->nreq, 4u);
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(rx.Records(0)[i].key, static_cast<Key>(i));
  }
}

TEST_F(RpcTest, PartialSlotClosesOnTimeout) {
  RxRing::Config cfg;
  cfg.max_batch = 8;
  cfg.close_timeout_ns = 1000;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  nic_.ClientSend(cli, 0, Req(5));
  rx.Advance(nic_, 0, 3 * kUsec);  // arrival (~1us) + timeout elapsed
  EXPECT_TRUE(rx.IsClosed(0));
  EXPECT_EQ(rx.Header(0)->nreq, 1u);
}

TEST_F(RpcTest, PutPayloadLandsInSlotData) {
  RxRing rx(&arena_, RxRing::Config{});
  ExecCtx cli{.eng = &eng_};
  uint8_t payload[64];
  std::memset(payload, 0xab, sizeof(payload));
  NicMessage m = Req(9, OpType::kPut, 64);
  m.payload = payload;
  m.payload_len = 64;
  nic_.ClientSend(cli, 0, m);
  rx.Advance(nic_, 0, 10 * kUsec);
  const RxRecord& rec = rx.Records(0)[0];
  EXPECT_EQ(rec.op(), OpType::kPut);
  EXPECT_EQ(rec.value_len(), 64u);
  EXPECT_EQ(rx.Data(0)[rec.payload_off], 0xab);
}

TEST_F(RpcTest, SlotRecyclingAfterCompleteOne) {
  RxRing::Config cfg;
  cfg.num_slots = 2;
  cfg.max_batch = 2;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  // Fill both physical slots.
  for (int i = 0; i < 4; i++) {
    nic_.ClientSend(cli, 0, Req(i));
  }
  rx.Advance(nic_, 0, 10 * kUsec);
  EXPECT_EQ(rx.fill_seq(), 2u);
  // A fifth message has nowhere to go: backpressure.
  nic_.ClientSend(cli, 0, Req(4));
  EXPECT_FALSE(rx.Advance(nic_, 0, 20 * kUsec));
  EXPECT_TRUE(rx.HasStash());
  // Claim slot 0, complete its requests: physical slot is recycled and the
  // stashed message is placed on the next Advance.
  rx.Claim(0);
  rx.CompleteOne(0);
  rx.CompleteOne(0);
  EXPECT_TRUE(rx.Advance(nic_, 0, 30 * kUsec));
  // The stashed message landed in slot seq 2 (physical slot 0), which then
  // closed on timeout.
  EXPECT_EQ(rx.Header(2)->nreq, 1u);
  EXPECT_TRUE(rx.IsClosed(2));
}

// Lap tripwire: a claim one lap late would find the physical slot closed
// again, for a sequence num_slots later, and serve that sequence's requests
// under the wrong number. Claim must abort instead.
using RpcDeathTest = RpcTest;

TEST_F(RpcDeathTest, ClaimOneLapLateAborts) {
  RxRing::Config cfg;
  cfg.num_slots = 2;
  cfg.max_batch = 1;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  for (int i = 0; i < 3; i++) {
    nic_.ClientSend(cli, 0, Req(i));
  }
  EXPECT_FALSE(rx.Advance(nic_, 0, 10 * kUsec));  // seqs 0 and 1; key 2 stashed
  rx.Claim(0);
  rx.CompleteOne(0);
  EXPECT_TRUE(rx.Advance(nic_, 0, 10 * kUsec));  // key 2 opens seq 2 in slot 0
  ASSERT_EQ(rx.Header(0), rx.Header(2));
  EXPECT_EQ(rx.Header(0)->state, SlotState::kClosed);
  EXPECT_DEATH(rx.Claim(0), "rx seq 0 found its slot holding seq 2");
  rx.Claim(2);  // the slot's own sequence claims fine
  EXPECT_EQ(rx.Records(2)[0].key, 2u);
}

TEST_F(RpcTest, RecordPacksOpAndLength) {
  const uint32_t w = PackOpLen(OpType::kScan, 12345);
  EXPECT_EQ(w, (static_cast<uint32_t>(OpType::kScan) << 28) | 12345u);
  EXPECT_EQ(OpOf(w), OpType::kScan);
  EXPECT_EQ(LenOf(w), 12345u);
}

// ------------------------------------------------------- one-sided verbs

Fiber VerbFiber(ExecCtx* ctx, Nic* nic, uint64_t* server_word, bool* done,
                sim::Tick* read_latency) {
  uint64_t local = 0;
  const sim::Tick t0 = ctx->Now();
  co_await nic->ReadVerb(*ctx, &local, server_word, 8);
  *read_latency = ctx->Now() - t0;
  EXPECT_EQ(local, 0xdeadbeefULL);
  // CAS succeeds with the right expected value.
  uint64_t old = co_await nic->CasVerb(*ctx, server_word, 0xdeadbeefULL, 7);
  EXPECT_EQ(old, 0xdeadbeefULL);
  EXPECT_EQ(*server_word, 7u);
  // CAS fails with a stale expected value.
  old = co_await nic->CasVerb(*ctx, server_word, 0xdeadbeefULL, 9);
  EXPECT_EQ(old, 7u);
  EXPECT_EQ(*server_word, 7u);
  const uint64_t v = 42;
  co_await nic->WriteVerb(*ctx, server_word, &v, 8);
  EXPECT_EQ(*server_word, 42u);
  *done = true;
}

TEST_F(RpcTest, OneSidedVerbsRoundTrip) {
  uint64_t* word = arena_.AllocateArray<uint64_t>(1);
  *word = 0xdeadbeefULL;
  ExecCtx cli{.eng = &eng_};
  bool done = false;
  sim::Tick read_lat = 0;
  eng_.Spawn(VerbFiber(&cli, &nic_, word, &done, &read_lat));
  eng_.RunToQuiescence(kMsec);
  EXPECT_TRUE(done);
  // A read verb costs at least one RTT.
  EXPECT_GE(read_lat, NicConfig{}.rtt_ns);
  EXPECT_LE(read_lat, NicConfig{}.rtt_ns + 500);
}

// Client completion delivery timing through ServerSend.
Fiber PingClient(ExecCtx* ctx, Nic* nic, sim::Tick* latency, bool* done) {
  sim::RpcGate gate;
  NicMessage m = EncodeRequest(OpType::kGet, 1, 8, 0, 0);
  m.gate = &gate;
  const sim::Tick t0 = ctx->Now();
  co_await RpcCall(*ctx, *nic, 0, m, nullptr);
  *latency = ctx->Now() - t0;
  *done = true;
}

Fiber PongServer(ExecCtx* ctx, Nic* nic, RxRing* rx, bool* stop) {
  while (!*stop) {
    rx->Advance(*nic, 0, ctx->eng->now());
    if (rx->IsClosed(0)) {
      rx->Claim(0);
      nic->ServerSend(*ctx, rx->Msgs(0)[0], nullptr, 8);
      rx->CompleteOne(0);
      co_return;
    }
    co_await ctx->Yield();
  }
}

// ------------------------------------------------------------ backpressure

TEST_F(RpcTest, AdvanceStallsWhenRingIsFull) {
  RxRing::Config cfg;
  cfg.num_slots = 2;
  cfg.max_batch = 1;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  for (int i = 0; i < 3; i++) {
    nic_.ClientSend(cli, 0, Req(i));
  }
  // Both physical slots close; the third message cannot be placed: Advance
  // stalls and stashes it (the NIC holds the packet).
  EXPECT_FALSE(rx.Advance(nic_, 0, 10 * kUsec));
  EXPECT_TRUE(rx.HasStash());
  EXPECT_EQ(rx.fill_seq(), 2u);
  EXPECT_EQ(nic_.RingDepth(0), 0u);  // all three left the NIC queue
}

TEST_F(RpcTest, StashedMessageIsPlacedFirstAfterRecycle) {
  RxRing::Config cfg;
  cfg.num_slots = 2;
  cfg.max_batch = 1;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  for (int i = 0; i < 4; i++) {
    nic_.ClientSend(cli, 0, Req(i));
  }
  EXPECT_FALSE(rx.Advance(nic_, 0, 10 * kUsec));  // key 2 stashed, key 3 queued

  // While stalled, repeated Advance makes no progress and stays stalled.
  EXPECT_FALSE(rx.Advance(nic_, 0, 10 * kUsec));
  EXPECT_TRUE(rx.HasStash());

  // Worker drains slot 0: the recv WQE is reposted, the stash goes first and
  // key 3 follows, preserving arrival order.
  rx.Claim(0);
  rx.CompleteOne(0);
  EXPECT_FALSE(rx.Advance(nic_, 0, 10 * kUsec));  // key 2 placed, key 3 stashed
  EXPECT_EQ(rx.Records(2)[0].key, 2u);
  rx.Claim(1);
  rx.CompleteOne(1);
  EXPECT_TRUE(rx.Advance(nic_, 0, 10 * kUsec));
  EXPECT_FALSE(rx.HasStash());
  EXPECT_EQ(rx.Records(3)[0].key, 3u);
}

// --------------------------------------------------- link-model edge cases

TEST_F(RpcTest, LinkSerializerZeroLengthMessagesPayMessageRate) {
  sim::LinkSerializer link(/*mops=*/100.0, /*gbps=*/200.0);
  // Zero bytes on the wire still occupy a message slot: 10 ns apiece.
  sim::Tick last = 0;
  for (int i = 0; i < 10; i++) {
    last = link.Depart(0, 0);
  }
  EXPECT_NEAR(static_cast<double>(last), 90.0, 1.0);
}

TEST_F(RpcTest, LinkSerializerExactlyAtRateArrivalsNeverQueue) {
  sim::LinkSerializer link(/*mops=*/100.0, /*gbps=*/200.0);
  // Arrivals spaced at exactly the service interval (10 ns) depart at their
  // arrival instants: the token bucket is full each time, nothing queues.
  for (int i = 0; i < 50; i++) {
    const sim::Tick now = static_cast<sim::Tick>(i) * 10;
    EXPECT_EQ(link.Depart(now, 64), now) << "message " << i;
  }
}

TEST_F(RpcTest, LinkSerializerIdleGapDoesNotAccumulateCredit) {
  sim::LinkSerializer link(/*mops=*/100.0, /*gbps=*/200.0);
  // A long idle gap must not bank capacity: after the gap, a burst still
  // serializes at the message rate from the first post-gap departure.
  EXPECT_EQ(link.Depart(0, 64), 0u);
  EXPECT_EQ(link.Depart(1000, 64), 1000u);  // idle gap, departs immediately
  EXPECT_EQ(link.Depart(1000, 64), 1010u);  // burst: spaced by 10 ns
  EXPECT_EQ(link.Depart(1000, 64), 1020u);
}

TEST_F(RpcTest, EndToEndLatencyIsAtLeastOneRtt) {
  RxRing::Config cfg;
  cfg.max_batch = 1;
  RxRing rx(&arena_, cfg);
  ExecCtx cli{.eng = &eng_};
  ExecCtx srv{.eng = &eng_};
  sim::Tick latency = 0;
  bool done = false;
  bool stop = false;
  eng_.Spawn(PingClient(&cli, &nic_, &latency, &done));
  eng_.Spawn(PongServer(&srv, &nic_, &rx, &stop));
  eng_.Run(kMsec);
  stop = true;
  eng_.Run(eng_.now() + kUsec);
  EXPECT_TRUE(done);
  EXPECT_GE(latency, NicConfig{}.rtt_ns);
}

// ----------------------------------------------------------- deadline wait

Fiber WaitFor(ExecCtx* ctx, sim::RpcGate* gate, sim::Tick deadline,
              bool* landed, sim::Tick* at, unsigned* resumes) {
  *landed = co_await gate->WaitUntil(*ctx, deadline);
  *at = ctx->eng->now();
  (*resumes)++;
}

Fiber CompleteAt(sim::RpcGate* gate, sim::Tick ready) {
  gate->Complete(ready);
  co_return;
}

// Without a response the wait resumes at exactly its deadline.
TEST_F(RpcTest, DeadlineWaitEndsAtDeadlineWithoutResponse) {
  ExecCtx cli{.eng = &eng_};
  sim::RpcGate gate;
  gate.Arm(1);
  bool landed = true;
  sim::Tick at = 0;
  unsigned resumes = 0;
  eng_.Spawn(WaitFor(&cli, &gate, 1000, &landed, &at, &resumes));
  eng_.RunToQuiescence(kMsec);
  EXPECT_FALSE(landed);
  EXPECT_EQ(at, 1000u);
  EXPECT_EQ(resumes, 1u);
}

// A response delivered at 1700, completed while the caller is parked with a
// 3000 deadline, resumes it at exactly 1700. The deadline's relay still
// fires at 3000 but finds the wait over and resumes no one: four events in
// all (the two fibers' starts, the delivery wake-up, the relay), and the
// caller ran once.
TEST_F(RpcTest, DeadlineWaitResumesAtDeliveryNotAgainAtDeadline) {
  ExecCtx cli{.eng = &eng_};
  sim::RpcGate gate;
  gate.Arm(1);
  bool landed = false;
  sim::Tick at = 0;
  unsigned resumes = 0;
  eng_.Spawn(WaitFor(&cli, &gate, 3000, &landed, &at, &resumes), 1000);
  eng_.Spawn(CompleteAt(&gate, 1700), 1200);
  eng_.RunToQuiescence(kMsec);
  EXPECT_TRUE(landed);
  EXPECT_EQ(at, 1700u);
  EXPECT_EQ(resumes, 1u);
  EXPECT_EQ(eng_.stats().events_processed, 4u);
  EXPECT_EQ(eng_.now(), 3000u);
}

// Sends, times out, retransmits under the same arm and waits again.
Fiber TwoAttempts(ExecCtx* ctx, sim::RpcGate* gate, bool* first,
                  bool* second, sim::Tick* at) {
  *first = co_await gate->WaitUntil(*ctx, ctx->Now() + 1000);
  *second = co_await gate->WaitUntil(*ctx, ctx->Now() + 4000);
  *at = ctx->eng->now();
}

// The first attempt's response is delivered at 1200, after the first wait's
// 1000 deadline: that wait times out, and the response completes the
// retransmit's wait at its delivery tick.
TEST_F(RpcTest, ResponseAfterTimeoutCompletesTheRetransmitsWait) {
  ExecCtx cli{.eng = &eng_};
  sim::RpcGate gate;
  gate.Arm(7);
  bool first = true;
  bool second = false;
  sim::Tick at = 0;
  eng_.Spawn(TwoAttempts(&cli, &gate, &first, &second, &at));
  eng_.Spawn(CompleteAt(&gate, 1200), 800);
  eng_.RunToQuiescence(kMsec);
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
  EXPECT_EQ(at, 1200u);
}

// A later deadline first, then an earlier one on the same gate: the relay
// sleeping to the first cannot be moved, so the second deadline is still
// kept exactly.
Fiber ShorterSecondDeadline(ExecCtx* ctx, sim::RpcGate* gate, sim::Tick* at) {
  co_await gate->WaitUntil(*ctx, 10000);  // ended at 1000 by a completion
  gate->Arm(2);
  const bool landed = co_await gate->WaitUntil(*ctx, ctx->Now() + 500);
  EXPECT_FALSE(landed);
  *at = ctx->eng->now();
}

TEST_F(RpcTest, EarlierDeadlineAfterALaterOneIsKept) {
  ExecCtx cli{.eng = &eng_};
  sim::RpcGate gate;
  gate.Arm(1);
  sim::Tick at = 0;
  eng_.Spawn(ShorterSecondDeadline(&cli, &gate, &at));
  eng_.Spawn(CompleteAt(&gate, 1000), 500);
  eng_.RunToQuiescence(kMsec);
  EXPECT_EQ(at, 1500u);
}

// ------------------------------------------------------------ parked loops

// Serves one message from ring 0, parking while the ring is empty.
Fiber ServeOne(ExecCtx* ctx, Nic* nic, NicMessage* got, sim::Tick* at) {
  while (!nic->PopArrived(0, ctx->Now(), got)) {
    co_await nic->WaitArrival(*ctx, 0);
  }
  *at = ctx->eng->now();
}

Fiber SendAt(ExecCtx* ctx, Nic* nic, Key key) {
  nic->ClientSend(*ctx, 0, EncodeRequest(OpType::kGet, key, 8, 0, 0));
  co_return;
}

// The loop parks on the empty ring and is served at the message's arrival
// tick: sent at 5000, +30 ns send CPU, +RTT/2.
TEST_F(RpcTest, ParkedLoopIsServedAtArrival) {
  ExecCtx cli{.eng = &eng_};
  ExecCtx srv{.eng = &eng_};
  NicMessage got;
  sim::Tick at = 0;
  eng_.Spawn(ServeOne(&srv, &nic_, &got, &at));
  eng_.Spawn(SendAt(&cli, &nic_, 9), 5000);
  eng_.RunToQuiescence(kMsec);
  EXPECT_EQ(got.h[0], 9u);
  EXPECT_EQ(at, got.arrival_tick);
  EXPECT_EQ(at, 5000u + 30 + NicConfig{}.rtt_ns / 2);
  // The loop's start, the send, the arrival wake-up: no polls.
  EXPECT_EQ(eng_.stats().events_processed, 3u);
}

// Delays the first request by 10 us, the rest not at all.
class DelayFirst final : public sim::NicFaultHook {
 public:
  sim::NicFault OnRequest(sim::Tick) override {
    sim::NicFault f;
    f.extra_delay = n_++ == 0 ? 10 * kUsec : 0;
    return f;
  }
  sim::NicFault OnResponse(sim::Tick) override { return {}; }
  double LinkCostScale(sim::Tick) override { return 1.0; }

 private:
  unsigned n_ = 0;
};

// A message that overtakes a delayed one on the wire wakes the parked loop
// at its own arrival, not at the delayed message's.
TEST_F(RpcTest, OvertakingArrivalWakesParkedLoopFirst) {
  DelayFirst hook;
  nic_.SetFaultHook(&hook);
  ExecCtx a{.eng = &eng_};
  ExecCtx b{.eng = &eng_};
  ExecCtx srv{.eng = &eng_};
  NicMessage got;
  sim::Tick at = 0;
  eng_.Spawn(ServeOne(&srv, &nic_, &got, &at));
  eng_.Spawn(SendAt(&a, &nic_, 1), 1000);
  eng_.Spawn(SendAt(&b, &nic_, 2), 1100);
  eng_.Run(20 * kUsec);
  EXPECT_EQ(got.h[0], 2u);
  EXPECT_EQ(at, 1100u + 30 + NicConfig{}.rtt_ns / 2);
  EXPECT_EQ(nic_.RingDepth(0), 1u);  // the delayed message is still queued
}

}  // namespace
}  // namespace utps
