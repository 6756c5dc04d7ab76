// End-to-end server tests: every system (μTPS-H/T, BaseKV, eRPCKV, RaceHash,
// Sherman) serves a workload through the simulated NIC; data correctness is
// verified with copy-out clients; μTPS-specific machinery (thread
// reassignment, hot-set refresh) is exercised directly.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "harness/experiment.h"
#include "index/cuckoo.h"
#include "result_row.h"

namespace utps {
namespace {

using sim::kMsec;

WorkloadSpec SmallSpec(uint32_t vsize = 64, double theta = 0.99) {
  WorkloadSpec s = WorkloadSpec::YcsbA(20000, vsize, theta > 0);
  s.zipf_theta = theta;
  return s;
}

ExperimentConfig SmallConfig(SystemKind sys, const WorkloadSpec& w) {
  ExperimentConfig cfg;
  cfg.system = sys;
  cfg.workload = w;
  cfg.client_threads = 8;
  cfg.pipeline_depth = 2;
  cfg.warmup_ns = 1 * kMsec;
  cfg.measure_ns = 2 * kMsec;
  cfg.max_warmup_ns = 30 * kMsec;
  cfg.mutps.autotune = false;
  cfg.mutps.refresh_period_ns = 500 * sim::kUsec;
  return cfg;
}

class ServerSmokeTest : public ::testing::TestWithParam<
                            std::tuple<SystemKind, IndexType>> {};

TEST_P(ServerSmokeTest, ServesTrafficAndReportsLatency) {
  const auto [sys, index] = GetParam();
  if (sys == SystemKind::kRaceHash && index == IndexType::kTree) {
    GTEST_SKIP() << "RaceHash is hash-only";
  }
  if (sys == SystemKind::kSherman && index == IndexType::kHash) {
    GTEST_SKIP() << "Sherman is tree-only";
  }
  sim::MachineConfig mc;
  mc.num_cores = 10;
  const auto run = [&](SystemKind s) {
    return TestBed(index, SmallSpec(), /*server_workers=*/8, mc)
        .Run(SmallConfig(s, SmallSpec()));
  };
  const ExperimentResult res = run(sys);
  EXPECT_GT(res.ops, 1000u) << SystemName(sys);
  EXPECT_GT(res.mops, 0.05) << SystemName(sys);
  EXPECT_GT(res.p50_ns, 1000u);   // at least the NIC RTT
  EXPECT_GE(res.p99_ns, res.p50_ns);
  // A point depends only on its own bed: after a different system has run
  // on another bed in this process, the same point on a fresh bed gives the
  // same row, so no process-global state leaks from one bed into the next.
  run(sys == SystemKind::kMuTps ? SystemKind::kBaseKv : SystemKind::kMuTps);
  EXPECT_EQ(FormatRow("smoke", SystemName(sys), IndexName(index), run(sys)),
            FormatRow("smoke", SystemName(sys), IndexName(index), res));
}

// A TestBed serves one point: a second Run on the same bed aborts.
TEST(TestBedDeathTest, SecondRunAborts) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(IndexType::kHash, SmallSpec(), /*server_workers=*/8, mc);
  ExperimentConfig cfg = SmallConfig(SystemKind::kBaseKv, SmallSpec());
  cfg.warmup_ns = 100 * sim::kUsec;
  cfg.measure_ns = 100 * sim::kUsec;
  EXPECT_GT(bed.Run(cfg).ops, 0u);
  EXPECT_DEATH(bed.Run(cfg), "a TestBed runs one point");
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, ServerSmokeTest,
    ::testing::Combine(::testing::Values(SystemKind::kMuTps, SystemKind::kBaseKv,
                                         SystemKind::kErpcKv,
                                         SystemKind::kRaceHash,
                                         SystemKind::kSherman),
                       ::testing::Values(IndexType::kHash, IndexType::kTree)),
    [](const auto& info) {
      return std::string(SystemName(std::get<0>(info.param))) + "_" +
             IndexName(std::get<1>(info.param));
    });

// ------------------------------------------------------- data correctness

// A hand-rolled client that round-trips values with copy-out verification.
sim::Fiber VerifyingClient(sim::ExecCtx* ctx, sim::Nic* nic, KvServer* server,
                           uint64_t keys, int rounds, int* failures,
                           bool* done) {
  sim::RpcGate gate;
  std::vector<uint8_t> put_buf(256);
  std::vector<uint8_t> get_buf(1536);
  Rng rng(99);
  for (int r = 0; r < rounds; r++) {
    const Key k = rng.NextBounded(keys);
    // Write a recognizable pattern.
    for (size_t i = 0; i < put_buf.size(); i++) {
      put_buf[i] = static_cast<uint8_t>(k * 7 + i + r);
    }
    const uint32_t len = 64;
    sim::NicMessage put = EncodeRequest(OpType::kPut, k, len, 0, 0);
    put.payload = put_buf.data();
    put.payload_len = len;
    put.gate = &gate;
    co_await RpcCall(*ctx, *nic, server->RingForKey(k), put, nullptr);
    // Read it back with copy-out.
    sim::NicMessage get = EncodeRequest(OpType::kGet, k, len, 0, 0);
    get.gate = &gate;
    get.copy_out = get_buf.data();
    co_await RpcCall(*ctx, *nic, server->RingForKey(k), get, nullptr);
    if (std::memcmp(get_buf.data(), put_buf.data(), len) != 0) {
      (*failures)++;
    }
  }
  *done = true;
}

// A hand-built server machine: 512 keys of zeroed 64 B values in a cuckoo
// index, an engine, and a NIC with `rings` receive rings.
struct HandBed {
  static constexpr uint64_t kKeys = 512;

  HandBed(unsigned workers, unsigned rings)
      : mem(Machine(workers + 2)), nic(&mem, sim::NicConfig{}, rings) {
    for (Key k = 0; k < kKeys; k++) {
      Item* it = slab.AllocateItem(k, 64);
      std::memset(it->value(), 0, 64);
      it->value_len = 64;
      index.InsertDirect(k, it);
    }
    env = ServerEnv{.eng = &eng, .mem = &mem, .nic = &nic, .arena = &arena,
                    .slab = &slab, .index = &index, .num_workers = workers};
  }
  static sim::MachineConfig Machine(unsigned cores) {
    sim::MachineConfig mc;
    mc.num_cores = cores;
    return mc;
  }

  // eRPCKV over the bed's keys, one cuckoo shard per worker; `shards` owns
  // them and must outlive the server.
  std::unique_ptr<KvServer> ErpcKv(
      std::vector<std::unique_ptr<KvIndex>>* shards) {
    std::vector<KvIndex*> views;
    for (unsigned i = 0; i < env.num_workers; i++) {
      shards->push_back(std::make_unique<CuckooIndex>(&arena, 2048, 7 + i));
      views.push_back(shards->back().get());
    }
    for (Key k = 0; k < kKeys; k++) {
      views[RtcServer::ShardOf(k, env.num_workers)]->InsertDirect(
          k, index.GetDirect(k));
    }
    return std::make_unique<RtcServer>(env, std::move(views));
  }

  // Runs one VerifyingClient of `rounds` PUT+GET pairs to completion.
  void Verify(KvServer* server, int rounds) {
    sim::ExecCtx cli{.eng = &eng, .mem = nullptr};
    int failures = 0;
    bool done = false;
    eng.Spawn(VerifyingClient(&cli, &nic, server, kKeys, rounds, &failures,
                              &done));
    while (!done && eng.now() < 500 * kMsec) {
      eng.Run(eng.now() + kMsec);
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(failures, 0);
  }

  sim::Arena arena{1ull << 30};
  sim::MemoryModel mem;
  SlabAllocator slab{&arena};
  CuckooIndex index{&arena, 4096};
  sim::Engine eng;
  sim::Nic nic;
  ServerEnv env;
};

class RoundTripTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(RoundTripTest, PutThenGetReturnsWrittenBytes) {
  const SystemKind sys = GetParam();
  HandBed bed(4, sys == SystemKind::kErpcKv ? 4u : 1u);
  std::vector<std::unique_ptr<KvIndex>> shards;
  std::unique_ptr<KvServer> server;
  if (sys == SystemKind::kMuTps) {
    MuTpsServer::Options opt;
    opt.autotune = false;
    opt.initial_ncr = 2;
    opt.refresh_period_ns = 200 * sim::kUsec;
    server = std::make_unique<MuTpsServer>(bed.env, opt);
  } else if (sys == SystemKind::kBaseKv) {
    server = std::make_unique<RtcServer>(bed.env);
  } else {
    server = bed.ErpcKv(&shards);
  }
  server->Start();
  bed.Verify(server.get(), 300);
  server->Stop();
  bed.eng.Run(bed.eng.now() + kMsec);
}

INSTANTIATE_TEST_SUITE_P(Systems, RoundTripTest,
                         ::testing::Values(SystemKind::kMuTps,
                                           SystemKind::kBaseKv,
                                           SystemKind::kErpcKv),
                         [](const auto& info) {
                           return std::string(SystemName(info.param));
                         });

// eRPCKV logs its writes as BaseKV does: under group commit each
// acknowledged PUT was appended to the WAL and made durable before its ack.
TEST(ErpcKvWal, AcknowledgedWritesAreLogged) {
  HandBed bed(4, 4);
  wal::WalConfig wc;
  wc.enabled = true;
  wc.mode = wal::CommitMode::kGroup;
  wal::WalManager walm(wc);
  bed.env.wal = &walm;
  std::vector<std::unique_ptr<KvIndex>> shards;
  const std::unique_ptr<KvServer> server = bed.ErpcKv(&shards);
  server->Start();
  constexpr int kRounds = 300;  // one PUT per round
  bed.Verify(server.get(), kRounds);
  EXPECT_EQ(walm.counters().appends, uint64_t{kRounds});
  for (unsigned s = 0; s < walm.NumShards(); s++) {
    EXPECT_EQ(walm.DurableLsn(s), walm.AppendedLsn(s)) << "wal shard " << s;
  }
  server->Stop();
  walm.Stop();
  bed.eng.Run(bed.eng.now() + kMsec);
}

// ------------------------------------------------- CR-MR ring residency

// The CR-MR queue is all-to-all (W² rings), but a split only uses the rings
// from a CR worker to an MR worker. Their host companions share one
// zero-filled mapping, so an untuned run with a fixed split may make only the
// companion pages of rings (p, c) with p < ncr <= c resident (DESIGN.md §13).
TEST(MuTpsRings, OnlyRingsTheSplitUsesGetCompanionPages) {
  constexpr unsigned kWorkers = 8;
  constexpr unsigned kNcr = 3;
  HandBed bed(kWorkers, 1);
  MuTpsServer::Options opt;
  opt.autotune = false;
  opt.initial_ncr = kNcr;
  MuTpsServer server(bed.env, opt);
  server.Start();
  constexpr int kClients = 8;
  std::array<sim::ExecCtx, kClients> cli{};
  std::array<bool, kClients> done{};
  int failures = 0;
  for (int i = 0; i < kClients; i++) {
    cli[i].eng = &bed.eng;
    bed.eng.Spawn(VerifyingClient(&cli[i], &bed.nic, &server, HandBed::kKeys,
                                  200, &failures, &done[i]));
  }
  while (!std::all_of(done.begin(), done.end(), [](bool d) { return d; }) &&
         bed.eng.now() < 500 * kMsec) {
    bed.eng.Run(bed.eng.now() + kMsec);
  }
  // The clients only drive traffic: they share keys, so concurrent puts may
  // race their own read-backs (RoundTripTest checks the data).
  ASSERT_TRUE(std::all_of(done.begin(), done.end(), [](bool d) { return d; }));
  ASSERT_EQ(server.ncr(), kNcr);

  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  unsigned used_with_pages = 0;
  for (unsigned p = 0; p < kWorkers; p++) {
    for (unsigned c = 0; c < kWorkers; c++) {
      const std::span<const CrMrHostDesc> host = server.ring(p, c).HostDescs();
      const auto start = reinterpret_cast<uintptr_t>(host.data());
      const uintptr_t lo = (start + page - 1) & ~(page - 1);
      const uintptr_t hi = (start + host.size_bytes()) & ~(page - 1);
      ASSERT_LT(lo, hi);
      std::vector<unsigned char> resident((hi - lo) / page);
      ASSERT_EQ(mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()),
                0);
      const auto pages = static_cast<size_t>(
          std::count_if(resident.begin(), resident.end(),
                        [](unsigned char v) { return (v & 1) != 0; }));
      if (p < kNcr && c >= kNcr) {
        used_with_pages += pages > 0;
      } else {
        EXPECT_EQ(pages, 0u) << "ring (" << p << ", " << c << ")";
      }
    }
  }
  // Round-robin routing sent batches down every ring the split uses.
  EXPECT_EQ(used_with_pages, kNcr * (kWorkers - kNcr));
  server.Stop();
  bed.eng.Run(bed.eng.now() + kMsec);
}

// --------------------------------------------------- μTPS thread movement

TEST(MuTpsReconfig, ThreadSplitChangesWithoutLosingRequests) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(IndexType::kHash, SmallSpec(), 8, mc);
  ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, SmallSpec());
  cfg.mutps.autotune = true;
  cfg.mutps.tune_llc = false;
  cfg.mutps.cache_sizes = {0};  // quick tune: threads only
  cfg.mutps.initial_cache_items = 0;
  cfg.mutps.tune_window_ns = 100 * sim::kUsec;
  cfg.max_warmup_ns = 100 * kMsec;
  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.reconfigs, 0u);   // the tuner actually moved threads
  EXPECT_GT(res.ops, 1000u);      // and traffic kept flowing
  EXPECT_GE(res.ncr, 1u);
  EXPECT_GE(res.nmr, 1u);
}

// μTPS-H's CR layer probes the hot filter only when the published set is
// non-empty: with cache size 0 the cache-check stage costs nothing, and with
// a hot set it is charged.
TEST(MuTpsHotSet, EmptyHashHotSetSkipsTheCacheCheck) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  double check_ns[2];
  for (uint32_t items : {0u, 2048u}) {
    ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, SmallSpec(64, 0.99));
    cfg.mutps.initial_cache_items = items;
    cfg.obs.cycle_accounting = true;
    const ExperimentResult res =
        TestBed(IndexType::kHash, SmallSpec(64, 0.99), 8, mc).Run(cfg);
    ASSERT_TRUE(res.cycles.valid);
    EXPECT_GT(res.ops, 1000u);
    EXPECT_EQ(res.cache_items > 0, items > 0);
    check_ns[items == 0 ? 0 : 1] =
        res.cycles.ns_per_op[static_cast<unsigned>(sim::Stage::kCacheCheck)];
  }
  EXPECT_EQ(check_ns[0], 0.0);
  EXPECT_GT(check_ns[1], 0.0);
}

TEST(MuTpsHotSet, SkewedLoadPopulatesCache) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  TestBed bed(IndexType::kTree, SmallSpec(64, 0.99), 8, mc);
  ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, SmallSpec(64, 0.99));
  cfg.mutps.initial_cache_items = 2048;
  cfg.measure_ns = 4 * kMsec;
  const ExperimentResult res = bed.Run(cfg);
  EXPECT_GT(res.cache_items, 100u);  // hot set was identified and published
}

// The CR layer runs a claimed slot's records as one batch (DESIGN.md §2).
// Here every request is a CR hot hit: uniform GETs over 64 keys under a
// 2048-item hot set and a fixed split, so the MR layer does no work. The
// private caches are shrunk to 10 KB so the hot items and their index
// buckets are LLC hits, stalls a batch can overlap. Batches of eight must
// then serve at least 10% faster than batches of one, which run the CR loop
// serially.
TEST(MuTpsCrBatch, HotHitsServeFasterInBatches) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  mc.priv_sets_log2 = 4;
  const WorkloadSpec spec = WorkloadSpec::GetOnly(64, 64, /*skewed=*/false);
  double mops[2];
  for (const unsigned batch : {1u, 8u}) {
    ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, spec);
    cfg.client_threads = 32;
    cfg.pipeline_depth = 8;
    cfg.warmup_ns = 3 * kMsec;
    cfg.mutps.initial_ncr = 3;
    cfg.mutps.initial_cache_items = 2048;
    cfg.mutps.refresh_period_ns = 1 * kMsec;
    cfg.mutps.batch_size = batch;
    const ExperimentResult res =
        TestBed(IndexType::kHash, spec, 8, mc).Run(cfg);
    EXPECT_GT(res.ops, 1000u);
    EXPECT_EQ(res.hot_misses, 0u) << "batch " << batch;
    mops[batch == 1 ? 0 : 1] = res.mops;
  }
  EXPECT_GT(mops[1], 1.10 * mops[0])
      << "batch 1: " << mops[0] << " Mops, batch 8: " << mops[1] << " Mops";
}

// μTPS-T forwards every scan whole, and the MR layer's ExecScan copies the
// range into an 8 KB response region. With 1088 B values, 8 items take
// 8704 B, so every YCSB-E scan here overflows the region: ExecScan must stop
// at the first item that does not fit. This is the only scan test whose
// values overflow the region, with a published hot set and most workers MR.
TEST(MuTpsScan, OverflowingScanStaysInsideItsRegion) {
  const WorkloadSpec spec = WorkloadSpec::YcsbE(4096, 1088);
  ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, spec);
  cfg.client_threads = 16;
  cfg.mutps.initial_ncr = 9;
  cfg.mutps.initial_cache_items = 4096;
  const ExperimentResult res = TestBed(IndexType::kTree, spec).Run(cfg);
  EXPECT_GT(res.ops, 100u);
  EXPECT_GE(res.cache_items, 8u);
}

// ------------------------------------------------------ response regions

// A GET's response region is sized from the value length it announces
// (DESIGN.md §2 "Response regions"). Here a GET announces 8 B for a 512 B
// item, and three GETs of 64 B items arrive in the same receive slot, so
// their regions come right after its own. It must return the whole value
// and leave their regions, and so their responses, intact.
constexpr Key kBigKey = HandBed::kKeys;
constexpr uint32_t kBigLen = 512;
constexpr unsigned kBurst = 4;  // the 512 B GET and its three neighbours

uint8_t BigByte(uint32_t i) { return static_cast<uint8_t>(i % 251 + 1); }

void AddBigItem(HandBed& bed) {
  Item* it = bed.slab.AllocateItem(kBigKey, kBigLen);
  for (uint32_t i = 0; i < kBigLen; i++) {
    it->value()[i] = BigByte(i);
  }
  it->value_len = kBigLen;
  ASSERT_TRUE(bed.index.InsertDirect(kBigKey, it));
}

// Request i of a burst: the big key, then keys 1, 2, 3 (zeroed 64 B values).
Key BurstKey(unsigned i) { return i == 0 ? kBigKey : Key{i}; }

struct Burst {
  std::array<std::array<uint8_t, 1536>, kBurst> out{};
  std::array<uint32_t, kBurst> len{};
  bool done = false;
};

// Sends the burst's GETs at one instant, the first announcing 8 B and the
// others their true 64 B, and waits for the four responses.
sim::Fiber SendBurst(sim::ExecCtx* ctx, sim::Nic* nic, Burst* b) {
  std::array<sim::RpcGate, kBurst> gates;
  for (unsigned i = 0; i < kBurst; i++) {
    sim::NicMessage m =
        EncodeRequest(OpType::kGet, BurstKey(i), i == 0 ? 8 : 64, 0, 0);
    m.gate = &gates[i];
    m.copy_out = b->out[i].data();
    m.resp_len_out = &b->len[i];
    nic->ClientSend(*ctx, 0, m);
  }
  for (sim::RpcGate& g : gates) {
    co_await g.Wait(*ctx);
  }
  b->done = true;
}

void RunBurstIntact(HandBed& bed) {
  Burst b;
  sim::ExecCtx cli{.eng = &bed.eng, .mem = nullptr};
  bed.eng.Spawn(SendBurst(&cli, &bed.nic, &b));
  bed.eng.Run(bed.eng.now() + kMsec);
  ASSERT_TRUE(b.done);
  EXPECT_EQ(b.len[0], kBigLen);
  for (uint32_t i = 0; i < kBigLen; i++) {
    if (b.out[0][i] != BigByte(i)) {
      ADD_FAILURE() << "the 512 B value differs from byte " << i;
      break;
    }
  }
  for (unsigned n = 1; n < kBurst; n++) {
    EXPECT_EQ(b.len[n], 64u) << "neighbour " << n;
    EXPECT_TRUE(std::all_of(b.out[n].begin(), b.out[n].begin() + 64,
                            [](uint8_t v) { return v == 0; }))
        << "neighbour " << n << "'s response was overwritten";
  }
}

TEST(ResponseRegion, BaseKvGetLongerThanAnnouncedStaysInItsRegion) {
  HandBed bed(4, 1);
  AddBigItem(bed);
  RtcServer server(bed.env);
  server.Start();
  RunBurstIntact(bed);
  server.Stop();
  bed.eng.Run(bed.eng.now() + kMsec);
}

TEST(ResponseRegion, MuTpsForwardedGetLongerThanAnnouncedStaysInItsRegion) {
  HandBed bed(4, 1);
  AddBigItem(bed);
  MuTpsServer::Options opt;
  opt.autotune = false;
  opt.initial_ncr = 2;
  opt.initial_cache_items = 0;  // every GET goes to the MR layer
  MuTpsServer server(bed.env, opt);
  server.Start();
  RunBurstIntact(bed);
  EXPECT_EQ(server.hot_hits(), 0u);
  std::string err;
  EXPECT_TRUE(server.AuditQuiesced(&err)) << err;
  server.Stop();
  bed.eng.Run(bed.eng.now() + kMsec);
}

// GETs of the burst's keys, each announcing its true length, until `stop`.
sim::Fiber WarmBurstKeys(sim::ExecCtx* ctx, sim::Nic* nic, const bool* stop) {
  sim::RpcGate gate;
  std::array<uint8_t, kBigLen> buf{};
  for (unsigned i = 0; !*stop; i++) {
    const Key key = BurstKey(i % kBurst);
    sim::NicMessage m = EncodeRequest(OpType::kGet, key,
                                      key == kBigKey ? kBigLen : 64, 0, 0);
    m.gate = &gate;
    m.copy_out = buf.data();
    co_await RpcCall(*ctx, *nic, 0, m, nullptr);
  }
}

TEST(ResponseRegion, MuTpsHotGetLongerThanAnnouncedStaysInItsRegion) {
  HandBed bed(4, 1);
  AddBigItem(bed);
  MuTpsServer::Options opt;
  opt.autotune = false;
  opt.initial_ncr = 2;
  opt.initial_cache_items = kBurst;
  opt.refresh_period_ns = 100 * sim::kUsec;
  MuTpsServer server(bed.env, opt);
  server.Start();
  // Only the burst's keys are requested, so they make up the hot set.
  sim::ExecCtx cli{.eng = &bed.eng, .mem = nullptr};
  bool stop = false;
  bed.eng.Spawn(WarmBurstKeys(&cli, &bed.nic, &stop));
  while (server.cache_items() < kBurst && bed.eng.now() < 100 * kMsec) {
    bed.eng.Run(bed.eng.now() + 100 * sim::kUsec);
  }
  ASSERT_EQ(server.cache_items(), kBurst);
  stop = true;
  bed.eng.Run(bed.eng.now() + kMsec);
  const uint64_t hits = server.hot_hits();
  RunBurstIntact(bed);
  EXPECT_EQ(server.hot_hits() - hits, kBurst);
  std::string err;
  EXPECT_TRUE(server.AuditQuiesced(&err)) << err;
  server.Stop();
  bed.eng.Run(bed.eng.now() + kMsec);
}

// μTPS executes GETs, PUTs and scans. The op nibble comes off the wire, and
// any other op aborts in the CR layer before the hot path could serve it as
// a PUT or the MR layer as a scan. A DELETE of a key in the published hot
// set and of a key outside it both abort.
sim::Fiber SendOne(sim::ExecCtx* ctx, sim::Nic* nic, unsigned ring,
                   sim::NicMessage msg) {
  nic->ClientSend(*ctx, ring, msg);
  co_return;
}

TEST(MuTpsDeathTest, DeleteAborts) {
  for (const Key key : {Key{0}, Key{HandBed::kKeys - 1}}) {
    const auto run = [key] {
      HandBed bed(4, 1);
      MuTpsServer::Options opt;
      opt.autotune = false;
      opt.initial_ncr = 2;
      opt.initial_cache_items = 1;
      opt.refresh_period_ns = 100 * sim::kUsec;
      MuTpsServer server(bed.env, opt);
      server.Start();
      // Make key 0 hot: PUTs and GETs of it until the manager publishes it.
      // Exiting with 0 fails the death test.
      sim::ExecCtx cli{.eng = &bed.eng, .mem = nullptr};
      int failures = 0;
      bool done = false;
      bed.eng.Spawn(VerifyingClient(&cli, &bed.nic, &server, 1, 200,
                                    &failures, &done));
      while ((!done || server.cache_items() == 0) &&
             bed.eng.now() < 100 * kMsec) {
        bed.eng.Run(bed.eng.now() + kMsec);
      }
      if (server.cache_items() != 1 || server.hot_hits() == 0) {
        std::exit(0);
      }
      bed.eng.Spawn(SendOne(&cli, &bed.nic, server.RingForKey(key),
                            EncodeRequest(OpType::kDelete, key, 0, 0, 0)));
      bed.eng.Run(bed.eng.now() + kMsec);
    };
    EXPECT_DEATH(run(), "uTPS cannot execute op 2") << "key " << key;
  }
}

// Both indexes look a point key up in the hot table, whose slots carry each
// hot key's item pointer, so a hot hit is one table probe: the CR layer does
// not look the key up in the main index again. On the all-hits setup above,
// no op reaches the MR layer either, so the index stage costs nothing at
// all, and μTPS-T's cache check costs what μTPS-H's does.
TEST(MuTpsHotSet, HotHitsSkipTheIndex) {
  sim::MachineConfig mc;
  mc.num_cores = 10;
  mc.priv_sets_log2 = 4;
  const WorkloadSpec spec = WorkloadSpec::GetOnly(64, 64, /*skewed=*/false);
  double check_ns[2];
  for (const IndexType index : {IndexType::kHash, IndexType::kTree}) {
    ExperimentConfig cfg = SmallConfig(SystemKind::kMuTps, spec);
    cfg.client_threads = 32;
    cfg.pipeline_depth = 8;
    cfg.warmup_ns = 3 * kMsec;
    cfg.mutps.initial_ncr = 3;
    cfg.mutps.initial_cache_items = 2048;
    cfg.mutps.refresh_period_ns = 1 * kMsec;
    cfg.obs.cycle_accounting = true;
    const ExperimentResult res = TestBed(index, spec, 8, mc).Run(cfg);
    ASSERT_TRUE(res.cycles.valid) << IndexName(index);
    EXPECT_GT(res.ops, 1000u) << IndexName(index);
    EXPECT_GT(res.hot_hits, 1000u) << IndexName(index);
    EXPECT_EQ(res.hot_misses, 0u) << IndexName(index);
    EXPECT_EQ(res.cycles.ns_per_op[static_cast<unsigned>(sim::Stage::kIndex)],
              0.0)
        << IndexName(index);
    check_ns[index == IndexType::kHash ? 0 : 1] =
        res.cycles.ns_per_op[static_cast<unsigned>(sim::Stage::kCacheCheck)];
  }
  EXPECT_GT(check_ns[0], 0.0);
  EXPECT_NEAR(check_ns[1], check_ns[0], 0.10 * check_ns[0])
      << "cache check ns/op, hash: " << check_ns[0] << ", tree: " << check_ns[1];
}

}  // namespace
}  // namespace utps
