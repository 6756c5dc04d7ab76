// Figure 2 (§2.2): the motivation experiments.
//
//  (a) NP-TPS vs NP-TPQ vs NP-TPQ+CAT, 100% get, uniform keys, item sizes
//      8 B – 1 KB. The TPS variant removes inter-stage communication by
//      deterministic replay: network-stage workers respond immediately while
//      a separate pool replays the identical key sequence against the index
//      (thread counts tuned so stage rates match, as in the paper). Also
//      reports the stage-1 vs TPQ LLC miss rates (paper: 2% vs 33%).
//  (b) MassTree index-lookup throughput with the hottest 0.1‰ of queries
//      redirected to a dedicated thread pool, Zipfian keys.
//  (c) Share-everything vs share-nothing vs TPS, 100% put, skewed, 64 B
//      items, varying worker threads.
#include "core/op_exec.h"
#include "harness/bench_util.h"
#include "index/btree.h"
#include "index/cuckoo.h"

using namespace utps;
using namespace utps::bench;
using sim::ExecCtx;
using sim::Fiber;
using sim::kMsec;
using sim::Stage;
using sim::StageScope;

namespace {

// ---------------------------------------------------------------- part (a)

// Network-stage-only worker: polls the shared ring and responds immediately
// (index/data stages replayed elsewhere).
Fiber NetStageWorker(ExecCtx* ctx, RxRing* rx, sim::Nic* nic, unsigned idx,
                     unsigned n, const ServerEnv* env, uint64_t* ops,
                     const bool* stop) {
  uint64_t next_seq = idx;
  DedupWindow dedup;  // stays empty: the echo clients never retry (rid 0)
  while (!*stop) {
    bool claimed = false;
    {
      StageScope s(*ctx, Stage::kPoll);
      rx->Advance(*nic, 0, ctx->eng->now());
      ctx->Charge(4);
      co_await ctx->Read(rx->Header(next_seq), 16);
      if (rx->IsClosed(next_seq)) {
        rx->Claim(next_seq);
        claimed = true;
      }
    }
    if (!claimed) {
      co_await ctx->Yield();
      continue;
    }
    const uint64_t seq = next_seq;
    next_seq += n;
    const unsigned cnt = rx->Header(seq)->nreq;
    for (unsigned i = 0; i < cnt; i++) {
      RxRecord* rec = &rx->Records(seq)[i];
      {
        StageScope s(*ctx, Stage::kParse);
        co_await ctx->Read(rec, sizeof(RxRecord));
        ctx->Charge(env->parse_cpu_ns);
      }
      SendAndComplete(*ctx, *env, dedup, *rx, seq, i, nullptr,
                      rec->value_len(), *ops);
    }
    co_await ctx->Yield();
  }
}

// Deterministic-replay index worker: regenerates the same request stream
// locally and performs full index lookups + value reads, batched through the
// coroutine scheduler exactly like the TPQ baseline's workers.
sim::Task<void> ReplayOne(ExecCtx* ctx, KvIndex* index, Key key, uint8_t* buf) {
  Item* it;
  {
    StageScope s(*ctx, Stage::kIndex);
    it = co_await index->CoGet(*ctx, key);
  }
  if (it != nullptr) {
    StageScope s(*ctx, Stage::kData);
    co_await ItemRead(*ctx, it, buf);
  }
}

Fiber ReplayIndexWorker(ExecCtx* ctx, KvIndex* index, uint64_t keys,
                        uint32_t vsize, uint64_t seed, uint64_t* ops,
                        const bool* stop) {
  WorkloadGenerator gen(WorkloadSpec::GetOnly(keys, vsize, false), seed);
  constexpr unsigned kBatch = 8;
  std::vector<uint8_t> buf((vsize + 16) * kBatch);
  while (!*stop) {
    sim::Task<void> tasks[kBatch];
    for (unsigned i = 0; i < kBatch; i++) {
      tasks[i] = ReplayOne(ctx, index, gen.Next().key, buf.data() + i * (vsize + 16));
    }
    co_await sim::RunBatch(*ctx, tasks, kBatch);
    *ops += kBatch;
    co_await ctx->Yield();
  }
}

// Simple load clients for the net-stage-only server.
Fiber EchoClient(ExecCtx* ctx, sim::Nic* nic, uint64_t keys, uint32_t vsize,
                 uint64_t seed, const bool* stop) {
  WorkloadGenerator gen(WorkloadSpec::GetOnly(keys, vsize, false), seed);
  sim::RpcGate gate;
  while (!*stop) {
    const Op op = gen.Next();
    sim::NicMessage m = EncodeRequest(OpType::kGet, op.key, vsize, 0, 0);
    m.gate = &gate;
    co_await RpcCall(*ctx, *nic, 0, m, nullptr);
  }
}

// Runs the deterministic-replay TPS configuration: n1 network workers + the
// rest replaying index lookups; returns min(stage rates) over the best n1 as
// mops, with the network and index stages' LLC miss rates as poll_miss_rate
// and index_miss_rate.
ExperimentResult RunTpsReplay(TestBed& bed, uint32_t vsize, unsigned workers) {
  ExperimentResult best;
  const double scale = BenchScale();
  for (unsigned n1 : {2u, 4u, 6u}) {
    sim::Engine eng;
    sim::Arena run_arena(256ull << 20);
    bed.mem()->FlushAll();
    bed.mem()->ResetCounters();
    sim::Nic nic(bed.mem(), sim::NicConfig{}, 1);
    ServerEnv env;
    env.eng = &eng;
    env.mem = bed.mem();
    env.nic = &nic;
    env.arena = &run_arena;
    env.index = bed.index();
    env.num_workers = workers;
    RxRing rx(&run_arena, RxRing::Config{});
    bool stop = false;
    std::vector<ExecCtx> ctxs(workers);
    std::vector<uint64_t> ops(workers, 0);
    const uint64_t keys = bed.populate_spec().num_keys;
    for (unsigned i = 0; i < workers; i++) {
      ctxs[i] = ExecCtx{.eng = &eng, .mem = bed.mem(),
                        .core = static_cast<sim::CoreId>(i)};
      if (i < n1) {
        ctxs[i].clos = 1;
        eng.Spawn(NetStageWorker(&ctxs[i], &rx, &nic, i, n1, &env, &ops[i], &stop));
      } else {
        ctxs[i].clos = 2;
        eng.Spawn(ReplayIndexWorker(&ctxs[i], bed.index(), keys, vsize, 77 + i,
                                    &ops[i], &stop));
      }
    }
    std::vector<ExecCtx> cli(192);
    for (unsigned c = 0; c < cli.size(); c++) {
      cli[c] = ExecCtx{.eng = &eng, .mem = nullptr};
      eng.Spawn(EchoClient(&cli[c], &nic, keys, vsize, 1000 + c, &stop));
    }
    eng.Run(static_cast<sim::Tick>(1.0 * scale * kMsec));
    bed.mem()->ResetCounters();
    std::vector<uint64_t> base = ops;
    const sim::Tick t0 = eng.now();
    eng.Run(t0 + static_cast<sim::Tick>(2.0 * scale * kMsec));
    const sim::Tick dt = eng.now() - t0;
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    for (unsigned i = 0; i < workers; i++) {
      const uint64_t d = ops[i] - base[i];
      (i < n1 ? s1 : s2) += d;
    }
    // Stage rates must match (deterministic replay): report the min.
    const double m1 = static_cast<double>(s1) * 1000.0 / static_cast<double>(dt);
    const double m2 = static_cast<double>(s2) * 1000.0 / static_cast<double>(dt);
    const double mops = m1 < m2 ? m1 : m2;
    if (mops > best.mops) {
      sim::StageCounters net{};
      sim::StageCounters idx{};
      for (unsigned c = 0; c < workers; c++) {
        const auto& cc = bed.mem()->Counters(c);
        net.Add(cc.by_stage[static_cast<unsigned>(Stage::kPoll)]);
        net.Add(cc.by_stage[static_cast<unsigned>(Stage::kParse)]);
        net.Add(cc.by_stage[static_cast<unsigned>(Stage::kRespond)]);
        idx.Add(cc.by_stage[static_cast<unsigned>(Stage::kIndex)]);
        idx.Add(cc.by_stage[static_cast<unsigned>(Stage::kData)]);
      }
      best.mops = mops;
      best.poll_miss_rate = net.LlcMissRate();
      best.index_miss_rate = idx.LlcMissRate();
    }
    stop = true;
    eng.Run(eng.now() + 200 * sim::kUsec);
  }
  return best;
}

// ---------------------------------------------------------------- part (b)

Fiber LookupFiber(ExecCtx* ctx, KvIndex* index, const std::vector<Key>* seq,
                  uint64_t* pos, uint64_t* ops, const bool* stop) {
  while (!*stop) {
    const Key k = (*seq)[(*pos)++ % seq->size()];
    StageScope s(*ctx, Stage::kIndex);
    Item* it = co_await index->CoGet(*ctx, k);
    (void)it;
    (*ops)++;
    co_await ctx->Yield();
  }
}

// Index-lookup throughput with/without hot-query separation. When
// `separate`, the hottest 0.1 permille of KEYS are redirected to a dedicated
// pool sized proportionally to their traffic share (the paper tuned thread
// counts manually).
double RunLookupSplit(TestBed& bed, unsigned workers, bool separate,
                      uint64_t seed, unsigned* dedicated_out = nullptr) {
  const uint64_t keys = bed.populate_spec().num_keys;
  // Pre-generate key sequences: hot queries (hottest keys) vs the rest.
  WorkloadGenerator gen(WorkloadSpec::GetOnly(keys, 8, true), seed);
  const uint64_t hot_count = std::max<uint64_t>(1, keys / 10000);
  std::vector<Key> hot_keys;
  for (uint64_t r = 0; r < hot_count; r++) {
    hot_keys.push_back(gen.KeyOfRank(r));
  }
  std::sort(hot_keys.begin(), hot_keys.end());
  hot_keys.erase(std::unique(hot_keys.begin(), hot_keys.end()), hot_keys.end());
  std::vector<Key> hot_seq;
  std::vector<Key> cold_seq;
  for (int i = 0; i < 400000; i++) {
    const Op op = gen.Next();
    const bool hot = separate &&
                     std::binary_search(hot_keys.begin(), hot_keys.end(), op.key);
    (hot ? hot_seq : cold_seq).push_back(op.key);
  }
  const double hot_share =
      static_cast<double>(hot_seq.size()) / (hot_seq.size() + cold_seq.size());
  unsigned dedicated = 0;
  if (separate) {
    dedicated = std::max(1u, static_cast<unsigned>(hot_share * workers + 0.5));
    hot_seq.push_back(hot_keys[0]);  // never empty
  }
  if (dedicated_out != nullptr) {
    *dedicated_out = dedicated;
  }
  sim::Engine eng;
  bed.mem()->FlushAll();
  bed.mem()->ResetCounters();
  bool stop = false;
  std::vector<ExecCtx> ctxs(workers);
  std::vector<uint64_t> ops(workers, 0);
  std::vector<uint64_t> pos(workers, 0);
  for (unsigned i = 0; i < workers; i++) {
    ctxs[i] = ExecCtx{.eng = &eng, .mem = bed.mem(),
                      .core = static_cast<sim::CoreId>(i),
                      .clos = static_cast<sim::ClosId>(i < dedicated ? 1 : 0)};
    const auto* seq = i < dedicated ? &hot_seq : &cold_seq;
    eng.Spawn(LookupFiber(&ctxs[i], bed.index(), seq, &pos[i], &ops[i], &stop));
  }
  const double scale = BenchScale();
  eng.Run(static_cast<sim::Tick>(0.5 * scale * kMsec));
  std::vector<uint64_t> base = ops;
  const sim::Tick t0 = eng.now();
  eng.Run(t0 + static_cast<sim::Tick>(1.5 * scale * kMsec));
  const sim::Tick dt = eng.now() - t0;
  uint64_t total = 0;
  for (unsigned i = 0; i < workers; i++) {
    total += ops[i] - base[i];
  }
  stop = true;
  eng.Run(eng.now() + 100 * sim::kUsec);
  return static_cast<double>(total) * 1000.0 / static_cast<double>(dt);
}

}  // namespace

int main() {
  const uint64_t keys = DbKeys();
  std::vector<uint32_t> sizes = Quick() ? std::vector<uint32_t>{64}
                                        : std::vector<uint32_t>{8, 64, 256, 1024};

  // ------------------------------------------------------------- Fig 2a
  Figure fig;
  fig.Table("== Figure 2a: NP-TPS vs NP-TPQ vs NP-TPQ+CAT "
            "(100% get, uniform, tree index) ==",
            {"size", "system"},
            {kMops,
             {"stage1-miss", "%-14.3f",
              [](const auto& r) { return r.poll_miss_rate; }},
             {"index-miss", "%-14.3f",
              [](const auto& r) { return r.index_miss_rate; }}});
  for (uint32_t size : sizes) {
    const WorkloadSpec spec = WorkloadSpec::GetOnly(keys, size, false);
    const std::string cell = std::to_string(size);
    // NP-TPQ: BaseKV (run to completion).
    fig.Point({cell, "NP-TPQ"}, [&] {
      return TestBed(IndexType::kTree, spec)
          .Run(StdConfig(SystemKind::kBaseKv, spec));
    });
    // NP-TPQ + CAT: workers may not allocate in the two DDIO ways.
    fig.Point({cell, "NP-TPQ+CAT"}, [&] {
      TestBed bed(IndexType::kTree, spec);
      const sim::MachineConfig& mc = bed.mem()->config();
      bed.mem()->SetClosMask(0, mc.AllWaysMask() & ~mc.DdioMask());
      return bed.Run(StdConfig(SystemKind::kBaseKv, spec));
    });
    // NP-TPS (deterministic replay, no inter-stage queues).
    fig.Point({cell, "NP-TPS"}, [&] {
      TestBed bed(IndexType::kTree, spec);
      return RunTpsReplay(bed, size, bed.server_workers());
    });
  }

  // ------------------------------------------------------------- Fig 2b
  std::printf("\n== Figure 2b: MassTree lookup with hot-query separation "
              "(Zipfian) ==\n");
  PrintTableHeader({"config", "Mlookups", "speedup"});
  {
    TestBed bed(IndexType::kTree, WorkloadSpec::GetOnly(keys, 8, true));
    const unsigned w = bed.server_workers();
    const double base = RunLookupSplit(bed, w, false, 5);
    // Redirect queries for the 0.1 permille hottest keys to a dedicated pool.
    unsigned dedicated = 0;
    const double split = RunLookupSplit(bed, w, true, 5, &dedicated);
    std::printf("%-14s%-14.2f%-14s\n", "unified", base, "1.00x");
    std::printf("hot-split(%u) %-14.2f%.2fx\n", dedicated, split, split / base);
  }

  // ------------------------------------------------------------- Fig 2c
  fig.Table("\n== Figure 2c: SE vs SN vs TPS (100% put, skewed, 64 B, hash "
            "index) ==",
            {"threads", "system"}, {kMops});
  std::vector<unsigned> threads = Quick() ? std::vector<unsigned>{8, 28}
                                          : std::vector<unsigned>{4, 8, 12, 16,
                                                                  20, 24, 28};
  const WorkloadSpec puts = WorkloadSpec::PutOnly(keys, 64, true);
  for (unsigned w : threads) {
    for (const auto& [sys, label] : {std::pair{SystemKind::kBaseKv, "SE(RTC)"},
                                     std::pair{SystemKind::kErpcKv, "SN(RTC)"},
                                     std::pair{SystemKind::kMuTps, "TPS"}}) {
      fig.Point({std::to_string(w), label}, [&] {
        return TestBed(IndexType::kHash, puts, w).Run(StdConfig(sys, puts));
      });
    }
  }
  return 0;
}
