// Tests for the deterministic fault-injection subsystem (src/fault): profile
// parsing (with the MUTPS_WAL and MUTPS_SAMPLE profiles, which share its
// tokenizer), schedule determinism, the NIC fault hooks (drop/dup/reorder), the
// timed plan fiber (crash/restart, straggler window, LLC steal), and the
// client/server fault-tolerance primitives (RpcGate, DedupWindow, retry).
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "net/rpc.h"
#include "sim/arena.h"
#include "sim/engine.h"
#include "sim/sample.h"
#include "wal/wal.h"

namespace utps {
namespace {

using fault::FaultConfig;
using fault::FaultInjector;
using fault::ParseFaultProfile;
using sim::Engine;
using sim::ExecCtx;
using sim::Fiber;
using sim::kUsec;
using sim::Nic;
using sim::NicConfig;
using sim::NicFault;
using sim::NicFaultHook;
using sim::NicMessage;
using sim::RpcGate;
using sim::Tick;

// ----------------------------------------------------------------- profiles

TEST(FaultProfile, ParsesAllTokens) {
  const FaultConfig cfg = ParseFaultProfile(
      "loss:0.01,dup:0.02,delay:0.1,delayus:50,link:4,straggler:3,slow:8,,"
      "crash:7,crashus:200,restartus:300,llc:6,startus:10,stopus:900,seed:42,");
  EXPECT_DOUBLE_EQ(cfg.drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(cfg.dup_prob, 0.02);
  EXPECT_DOUBLE_EQ(cfg.delay_prob, 0.1);
  EXPECT_EQ(cfg.delay_ns, 50 * kUsec);
  EXPECT_DOUBLE_EQ(cfg.link_scale, 4.0);
  EXPECT_EQ(cfg.straggler_core, 3);
  EXPECT_DOUBLE_EQ(cfg.slow_factor, 8.0);
  EXPECT_EQ(cfg.crash_worker, 7);
  EXPECT_EQ(cfg.crash_at_ns, 200 * kUsec);
  EXPECT_EQ(cfg.restart_after_ns, 300 * kUsec);
  EXPECT_EQ(cfg.llc_steal_ways, 6u);
  EXPECT_EQ(cfg.start_ns, 10 * kUsec);
  EXPECT_EQ(cfg.stop_ns, 900 * kUsec);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultProfile, EmptyProfileIsDisabled) {
  const FaultConfig cfg = ParseFaultProfile("");
  EXPECT_FALSE(cfg.enabled());
}

TEST(WalAndSampleProfiles, ParseAllTokens) {
  const wal::WalConfig w =
      wal::ParseWalProfile("mode:sync,shards:0,windowus:3,mbps:500,syncus:7,");
  EXPECT_TRUE(w.enabled);
  EXPECT_EQ(w.mode, wal::CommitMode::kSync);
  EXPECT_EQ(w.shards, 1u);  // clamped: a log needs a shard
  EXPECT_EQ(w.group_window_ns, 3 * kUsec);
  EXPECT_DOUBLE_EQ(w.dev.bandwidth_mbps, 500.0);
  EXPECT_EQ(w.dev.sync_latency_ns, 7 * kUsec);
  const sim::SampleConfig s = sim::ParseSampleProfile(
      "off,sampled,period=5000,window=600,rewarm=200,plan=random,seed=3,");
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.period_ns, 5000u);
  EXPECT_EQ(s.window_ns, 600u);
  EXPECT_EQ(s.rewarm_ns, 200u);
  EXPECT_EQ(s.plan, sim::SamplePlan::kRandom);
  EXPECT_EQ(s.plan_seed, 3u);
  EXPECT_FALSE(sim::ParseSampleProfile("on,off").enabled);
}

// The profiles come from outside the program, so a typo aborts, naming the
// variable and the token, instead of running a different experiment.
TEST(ProfileDeathTest, FaultProfileRejectsUnknownKeysAndBadValues) {
  EXPECT_DEATH(ParseFaultProfile("los:0.01"), "MUTPS_FAULTS.*'los:0.01'");
  EXPECT_DEATH(ParseFaultProfile("loss:1e"), "MUTPS_FAULTS.*'loss:1e'");
  EXPECT_DEATH(ParseFaultProfile("loss"), "MUTPS_FAULTS.*'loss'");
  EXPECT_DEATH(ParseFaultProfile("dup:0.5,:3"), "MUTPS_FAULTS.*':3'");
  EXPECT_DEATH(ParseFaultProfile("crashus:-5"), "MUTPS_FAULTS.*'crashus:-5'");
}

TEST(ProfileDeathTest, WalProfileRejectsUnknownKeysAndBadValues) {
  EXPECT_DEATH(wal::ParseWalProfile("mode:snyc"), "MUTPS_WAL.*'mode:snyc'");
  EXPECT_DEATH(wal::ParseWalProfile("shards:four"), "MUTPS_WAL.*'shards:four'");
  EXPECT_DEATH(wal::ParseWalProfile("window:2"), "MUTPS_WAL.*'window:2'");
}

TEST(ProfileDeathTest, SampleProfileRejectsUnknownKeysAndBadValues) {
  EXPECT_DEATH(sim::ParseSampleProfile("on,plan=rand"),
               "MUTPS_SAMPLE.*'plan=rand'");
  EXPECT_DEATH(sim::ParseSampleProfile("on,periods=5"),
               "MUTPS_SAMPLE.*'periods=5'");
  EXPECT_DEATH(sim::ParseSampleProfile("on=1"), "MUTPS_SAMPLE.*'on=1'");
  EXPECT_DEATH(sim::ParseSampleProfile("window=2us"),
               "MUTPS_SAMPLE.*'window=2us'");
}

TEST(FaultProfile, SeedAloneDoesNotEnable) {
  EXPECT_FALSE(ParseFaultProfile("seed:9").enabled());
}

// ---------------------------------------------------------------- injector

std::vector<NicFault> Schedule(const FaultConfig& cfg, int n) {
  FaultInjector inj(cfg);
  std::vector<NicFault> out;
  for (int i = 0; i < n; i++) {
    out.push_back(i % 2 == 0 ? inj.OnRequest(Tick{0}) : inj.OnResponse(Tick{0}));
  }
  return out;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.dup_prob = 0.2;
  cfg.delay_prob = 0.3;
  cfg.seed = 7;
  const auto a = Schedule(cfg, 200);
  const auto b = Schedule(cfg, 200);
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(a[i].drop, b[i].drop) << i;
    EXPECT_EQ(a[i].dup, b[i].dup) << i;
    EXPECT_EQ(a[i].extra_delay, b[i].extra_delay) << i;
    EXPECT_EQ(a[i].dup_delay, b[i].dup_delay) << i;
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultConfig cfg;
  cfg.drop_prob = 0.5;
  cfg.seed = 1;
  const auto a = Schedule(cfg, 200);
  cfg.seed = 2;
  const auto b = Schedule(cfg, 200);
  int diff = 0;
  for (int i = 0; i < 200; i++) {
    diff += a[i].drop != b[i].drop;
  }
  EXPECT_GT(diff, 0);
}

// The injector draws a fixed number of RNG values per message regardless of
// which gates fire, so one gate's probability cannot shift another gate's
// schedule — turning drops on must not move the delay spikes.
TEST(FaultInjector, GatesDrawIndependently) {
  FaultConfig base;
  base.delay_prob = 0.4;
  base.seed = 11;
  FaultConfig dropping = base;
  dropping.drop_prob = 1.0;
  const auto a = Schedule(base, 200);
  const auto b = Schedule(dropping, 200);
  for (int i = 0; i < 200; i++) {
    EXPECT_TRUE(b[i].drop);
    EXPECT_EQ(a[i].extra_delay, b[i].extra_delay) << i;
  }
}

TEST(FaultInjector, InactiveOutsideWindow) {
  FaultConfig cfg;
  cfg.drop_prob = 1.0;
  cfg.start_ns = 1000;
  cfg.stop_ns = 2000;
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.OnRequest(Tick{500}).drop);
  EXPECT_TRUE(inj.OnRequest(Tick{1000}).drop);   // start inclusive
  EXPECT_TRUE(inj.OnRequest(Tick{1999}).drop);
  EXPECT_FALSE(inj.OnRequest(Tick{2000}).drop);  // stop exclusive
  EXPECT_DOUBLE_EQ(inj.LinkCostScale(Tick{500}), 1.0);
}

TEST(FaultInjector, LinkScaleOnlyInsideWindow) {
  FaultConfig cfg;
  cfg.link_scale = 4.0;
  cfg.start_ns = 100;
  cfg.stop_ns = 200;
  FaultInjector inj(cfg);
  EXPECT_DOUBLE_EQ(inj.LinkCostScale(Tick{50}), 1.0);
  EXPECT_DOUBLE_EQ(inj.LinkCostScale(Tick{150}), 4.0);
  EXPECT_DOUBLE_EQ(inj.LinkCostScale(Tick{250}), 1.0);
}

TEST(FaultInjector, CrashRestartTimeline) {
  Engine eng;
  Nic nic(nullptr, NicConfig{}, 1);
  FaultConfig cfg;
  cfg.crash_worker = 2;
  cfg.crash_at_ns = 100 * kUsec;
  cfg.restart_after_ns = 50 * kUsec;
  FaultInjector inj(cfg);
  inj.Install(&eng, &nic, nullptr, nullptr);
  eng.Run(99 * kUsec);
  EXPECT_FALSE(inj.IsCrashed(2));
  eng.Run(101 * kUsec);
  EXPECT_TRUE(inj.IsCrashed(2));
  EXPECT_FALSE(inj.IsCrashed(1));
  eng.Run(151 * kUsec);
  EXPECT_FALSE(inj.IsCrashed(2));
  EXPECT_EQ(inj.counters().crashes, 1u);
  EXPECT_EQ(inj.counters().restarts, 1u);
}

TEST(FaultInjector, StragglerWindowScalesSlowPtr) {
  Engine eng;
  Nic nic(nullptr, NicConfig{}, 1);
  FaultConfig cfg;
  cfg.straggler_core = 1;
  cfg.slow_factor = 4.0;
  cfg.start_ns = 10 * kUsec;
  cfg.stop_ns = 20 * kUsec;
  FaultInjector inj(cfg);
  inj.Install(&eng, &nic, nullptr, nullptr);
  ExecCtx slow{.eng = &eng};
  slow.slow_q8 = inj.SlowPtr(1);
  ExecCtx fast{.eng = &eng};
  fast.slow_q8 = inj.SlowPtr(0);
  eng.Run(5 * kUsec);
  EXPECT_EQ(slow.ScaleNs(100), 100u);
  eng.Run(15 * kUsec);
  EXPECT_EQ(slow.ScaleNs(100), 400u);  // 4x inside the window
  EXPECT_EQ(fast.ScaleNs(100), 100u);  // other cores untouched
  eng.Run(25 * kUsec);
  EXPECT_EQ(slow.ScaleNs(100), 100u);
}

TEST(FaultInjector, LlcStealWindowOnMemoryModel) {
  Engine eng;
  sim::MachineConfig mc;
  sim::MemoryModel mem(mc);
  Nic nic(&mem, NicConfig{}, 1);
  FaultConfig cfg;
  cfg.llc_steal_ways = 6;
  cfg.start_ns = 10 * kUsec;
  cfg.stop_ns = 20 * kUsec;
  FaultInjector inj(cfg);
  inj.Install(&eng, &nic, &mem, nullptr);
  eng.Run(5 * kUsec);
  EXPECT_EQ(mem.StolenWays(), 0u);
  eng.Run(15 * kUsec);
  EXPECT_EQ(mem.StolenWays(), 6u);
  eng.Run(25 * kUsec);
  EXPECT_EQ(mem.StolenWays(), 0u);
}

TEST(NoisyNeighbor, StolenWaysClampsBelowTotal) {
  sim::MachineConfig mc;
  sim::MemoryModel mem(mc);
  mem.SetStolenWays(100);  // never steal every way: CAT keeps classes nonempty
  EXPECT_EQ(mem.StolenWays(), mc.llc_ways - 1);
  mem.SetStolenWays(0);
  EXPECT_EQ(mem.StolenWays(), 0u);
}

// --------------------------------------------------------------- NIC faults

// Scripted hook: pops one fault decision per send, in order.
class ScriptedHook final : public NicFaultHook {
 public:
  NicFault OnRequest(Tick) override { return Next(); }
  NicFault OnResponse(Tick) override { return Next(); }
  double LinkCostScale(Tick) override { return 1.0; }
  void Push(NicFault f) { script_.push_back(f); }

 private:
  NicFault Next() {
    if (pos_ >= script_.size()) {
      return NicFault{};
    }
    return script_[pos_++];
  }
  std::vector<NicFault> script_;
  size_t pos_ = 0;
};

NicMessage Req(Key key) { return EncodeRequest(OpType::kGet, key, 8, 0, 0); }

TEST(NicFaults, DropLosesDeliveryButUsesTheWire) {
  Engine eng;
  Nic nic(nullptr, NicConfig{}, 1);
  ScriptedHook hook;
  hook.Push(NicFault{.drop = true});
  nic.SetFaultHook(&hook);
  ExecCtx cli{.eng = &eng};
  nic.ClientSend(cli, 0, Req(1));
  EXPECT_EQ(nic.RingDepth(0), 0u);     // never delivered
  EXPECT_EQ(nic.rx_messages(), 1u);    // but serialized on the link
}

TEST(NicFaults, DupDeliversTwoCopies) {
  Engine eng;
  Nic nic(nullptr, NicConfig{}, 1);
  ScriptedHook hook;
  hook.Push(NicFault{.dup = true, .dup_delay = 500});
  nic.SetFaultHook(&hook);
  ExecCtx cli{.eng = &eng};
  nic.ClientSend(cli, 0, Req(1));
  ASSERT_EQ(nic.RingDepth(0), 2u);
  NicMessage a, b;
  ASSERT_TRUE(nic.PopArrived(0, Tick{1} << 40, &a));
  ASSERT_TRUE(nic.PopArrived(0, Tick{1} << 40, &b));
  EXPECT_EQ(a.h[0], 1u);
  EXPECT_EQ(b.h[0], 1u);
  EXPECT_EQ(b.arrival_tick, a.arrival_tick + 500);
}

TEST(NicFaults, DelaySpikeReordersButQueueStaysSorted) {
  Engine eng;
  Nic nic(nullptr, NicConfig{}, 1);
  ScriptedHook hook;
  hook.Push(NicFault{.extra_delay = 50 * kUsec});  // first send delayed
  hook.Push(NicFault{});                           // second send on time
  nic.SetFaultHook(&hook);
  ExecCtx cli{.eng = &eng};
  nic.ClientSend(cli, 0, Req(1));
  nic.ClientSend(cli, 0, Req(2));
  NicMessage m;
  ASSERT_TRUE(nic.PopArrived(0, Tick{1} << 40, &m));
  EXPECT_EQ(m.h[0], 2u);  // the undelayed message overtook the spiked one
  ASSERT_TRUE(nic.PopArrived(0, Tick{1} << 40, &m));
  EXPECT_EQ(m.h[0], 1u);
}

// ----------------------------------------------------------------- RpcGate

TEST(RpcGateTest, FirstCompletionWinsAndStaleRidRejected) {
  RpcGate gate;
  gate.Arm(5);
  EXPECT_TRUE(gate.AcceptsResponse(5));
  EXPECT_FALSE(gate.AcceptsResponse(4));
  EXPECT_FALSE(gate.AcceptsResponse(0));  // rid 0 is a rid like any other
  gate.Complete(100);
  EXPECT_FALSE(gate.AcceptsResponse(5));  // a duplicate response is dropped
  gate.Complete(50);  // duplicate completion ignored, first wins
  EXPECT_EQ(gate.ready_at(), 100u);
  EXPECT_FALSE(gate.ReadyAt(99));
  EXPECT_TRUE(gate.ReadyAt(100));
  gate.Arm(6);  // next operation: the old rid must no longer land
  EXPECT_FALSE(gate.AcceptsResponse(5));
  EXPECT_FALSE(gate.ReadyAt(Tick{1} << 40));
  gate.Arm(0);  // a request that is never retransmitted
  EXPECT_TRUE(gate.AcceptsResponse(0));
}

// ------------------------------------------------------------- DedupWindow

TEST(DedupWindowTest, VerdictLifecycle) {
  DedupWindow w;
  const uint64_t rid = (uint64_t{1} << 32) | 1;
  EXPECT_EQ(w.Begin(rid), DedupWindow::Verdict::kExecute);
  EXPECT_EQ(w.Begin(rid), DedupWindow::Verdict::kInFlight);  // still executing
  w.Complete(rid);
  EXPECT_EQ(w.Begin(rid), DedupWindow::Verdict::kDone);  // replay an ack
  const uint64_t next = (uint64_t{1} << 32) | 2;
  EXPECT_EQ(w.Begin(next), DedupWindow::Verdict::kExecute);
  EXPECT_EQ(w.dup_inflight(), 1u);
  EXPECT_EQ(w.dup_done(), 1u);
}

TEST(DedupWindowTest, StreamsAreIndependent) {
  DedupWindow w;
  const uint64_t a = (uint64_t{1} << 32) | 1;
  const uint64_t b = (uint64_t{2} << 32) | 1;
  EXPECT_EQ(w.Begin(a), DedupWindow::Verdict::kExecute);
  EXPECT_EQ(w.Begin(b), DedupWindow::Verdict::kExecute);
  w.Complete(a);
  EXPECT_EQ(w.Begin(a), DedupWindow::Verdict::kDone);
  EXPECT_EQ(w.Begin(b), DedupWindow::Verdict::kInFlight);
}

// ------------------------------------------------------- retry, end to end

struct RetryRig {
  Engine eng;
  Nic nic;
  ScriptedHook hook;
  RpcGate gate;
  unsigned attempts = 0;
  bool server_stop = false;

  RetryRig() : nic(nullptr, NicConfig{}, 1) { nic.SetFaultHook(&hook); }
};

Fiber RetryClient(RetryRig* r) {
  ExecCtx ctx{.eng = &r->eng};
  NicMessage m = Req(42);
  m.rid = (uint64_t{1} << 32) | 1;
  m.gate = &r->gate;
  const RetryPolicy pol;
  r->attempts = co_await RpcCall(ctx, r->nic, 0, m, &pol);
  r->server_stop = true;
}

Fiber EchoServer(RetryRig* r) {
  ExecCtx ctx{.eng = &r->eng};
  while (!r->server_stop) {
    NicMessage m;
    while (r->nic.PopArrived(0, ctx.Now(), &m)) {
      r->nic.ServerSend(ctx, m, nullptr, 0);
    }
    co_await ctx.Delay(kUsec);
  }
}

TEST(Retry, RetransmitAfterRequestDrop) {
  RetryRig r;
  r.hook.Push(NicFault{.drop = true});  // first request lost; rest clean
  r.eng.Spawn(RetryClient(&r));
  r.eng.Spawn(EchoServer(&r));
  r.eng.RunToQuiescence(Tick{1} << 40);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(r.gate.ReadyAt(r.eng.now()));
}

TEST(Retry, DuplicateResponsesCompleteOnce) {
  RetryRig r;
  // Request delayed past the first timeout => retransmit => two executions,
  // two responses racing back to the same gate. First completion wins.
  r.hook.Push(NicFault{.extra_delay = 40 * kUsec});
  r.eng.Spawn(RetryClient(&r));
  r.eng.Spawn(EchoServer(&r));
  r.eng.RunToQuiescence(Tick{1} << 40);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(r.gate.ReadyAt(r.eng.now()));
}

TEST(Retry, NoFaultsSingleAttempt) {
  RetryRig r;
  r.eng.Spawn(RetryClient(&r));
  r.eng.Spawn(EchoServer(&r));
  r.eng.RunToQuiescence(Tick{1} << 40);
  EXPECT_EQ(r.attempts, 1u);
}

}  // namespace
}  // namespace utps
