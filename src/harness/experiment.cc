#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "index/btree.h"
#include "index/cuckoo.h"
#include "net/rpc.h"
#include "stats/streaming.h"

namespace utps {

uint64_t (*g_alloc_probe)() = nullptr;

using sim::Engine;
using sim::ExecCtx;
using sim::Fiber;
using sim::Nic;
using sim::NicMessage;
using sim::OneShot;
using sim::Tick;

namespace {

// Shared state between the harness and the client fibers of one run.
// Per-fiber client resources hoisted out of the coroutine frame: under a
// fault plan, delayed/duplicated messages can outlive the fiber, and the
// NIC-held NicMessage points at the gate and these buffers.
struct ClientRes {
  sim::RpcGate gate;
  std::vector<uint8_t> scratch;
  std::vector<uint8_t> out;  // passive systems only: they copy values out
};

struct ClientShared {
  Nic* nic = nullptr;
  KvServer* server = nullptr;    // null for passive systems
  PassiveKv* passive = nullptr;  // null for server systems
  const WorkloadSpec* spec = nullptr;  // swapped for dynamic workloads
  bool supports_scan = true;
  bool measuring = false;
  bool stop = false;
  // Fault tolerance: rid-tagged timeout/retry sends (DESIGN.md §9).
  bool use_retry = false;
  uint64_t retries = 0;  // client retransmits, all fibers
  std::vector<ClientRes>* res = nullptr;
};

Fiber ClientFiber(ExecCtx* ctx, ClientShared* sh, RunRecorder* rec, uint64_t id,
                  uint64_t seed) {
  WorkloadGenerator gen(*sh->spec, seed + id * 1000003);
  const WorkloadSpec* cur = sh->spec;
  OneShot done;
  ClientRes& mine = (*sh->res)[id];
  sim::RpcGate& gate = mine.gate;
  uint64_t rid_seq = 1;  // rid stream: this fiber; retransmits reuse the rid
  const RetryPolicy retry_pol;
  std::vector<uint8_t>& scratch = mine.scratch;
  std::vector<uint8_t>& out = mine.out;
  while (!sh->stop) {
    if (cur != sh->spec) {  // dynamic workload switch (Figure 14)
      cur = sh->spec;
      gen = WorkloadGenerator(*cur, seed + id * 1000003 + 17);
    }
    Op op = gen.Next();
    if (op.type == OpType::kScan && !sh->supports_scan) {
      op.type = OpType::kGet;
    }
    const Tick t0 = ctx->Now();
    if (sh->passive != nullptr) {
      switch (op.type) {
        case OpType::kGet:
          co_await sh->passive->ClientGet(*ctx, op.key, op.value_size, out.data());
          break;
        case OpType::kPut:
          co_await sh->passive->ClientPut(*ctx, op.key, scratch.data(),
                                          op.value_size);
          break;
        case OpType::kScan:
          co_await sh->passive->ClientScan(*ctx, op.key,
                                           op.key + op.scan_count - 1,
                                           op.scan_count, out.data());
          break;
        default:
          break;
      }
    } else {
      NicMessage m;
      if (op.type == OpType::kScan) {
        m = EncodeRequest(OpType::kScan, op.key, op.value_size, op.scan_count,
                          op.key + op.scan_count - 1);
      } else {
        m = EncodeRequest(op.type, op.key, op.value_size, 0, 0);
      }
      if (op.type == OpType::kPut) {
        m.payload = scratch.data();
        m.payload_len = op.value_size;
      }
      if (sh->use_retry) {
        m.rid = (uint64_t{id + 1} << 32) | static_cast<uint32_t>(rid_seq++);
        m.gate = &gate;
        const unsigned attempts = co_await RpcCallWithRetry(
            *ctx, *sh->nic, sh->server->RingForKey(op.key), m, retry_pol);
        sh->retries += attempts - 1;
      } else {
        m.completion = &done;
        sh->nic->ClientSend(*ctx, sh->server->RingForKey(op.key), m);
        co_await done.Wait(*ctx);
        done.Reset();
      }
    }
    rec->Record(ctx->Now(), ctx->Now() - t0, sh->measuring);
  }
}

}  // namespace

void FillRecorded(RunRecorder& rec, Tick window_ns, ExperimentResult* res) {
  const Histogram& hist = rec.Latency();
  res->ops = rec.ops();
  res->mops = window_ns == 0 ? 0.0
                             : static_cast<double>(res->ops) * 1000.0 /
                                   static_cast<double>(window_ns);
  res->p50_ns = hist.Percentile(0.5);
  res->p99_ns = hist.Percentile(0.99);
  res->mean_ns = static_cast<Tick>(hist.Mean());
  if (!rec.timeline()) {
    return;
  }
  res->timeline_bucket_ns = rec.bucket_ns();
  for (size_t i = 0; i < rec.NumBuckets(); i++) {
    res->timeline_mops.push_back(rec.MopsAt(i));
    if (rec.latency_timeline()) {
      res->timeline_p99_ns.push_back(rec.LatencyAt(i).Percentile(0.99));
    }
  }
}

TestBed::TestBed(IndexType index_type, const WorkloadSpec& populate_spec,
                 unsigned server_workers, const sim::MachineConfig& machine,
                 const sim::NicConfig& nic, uint64_t seed)
    : index_type_(index_type),
      populate_spec_(populate_spec),
      server_workers_(server_workers),
      machine_(machine),
      nic_cfg_(nic),
      seed_(seed) {
  machine_.num_cores = std::max<unsigned>(machine_.num_cores, server_workers + 1);
  // Size the arena: items + index + shards + passive structures + headroom.
  const uint64_t n = populate_spec.num_keys;
  uint64_t avg_item = 64;
  for (int probe = 0; probe < 256; probe++) {
    avg_item += Item::AllocSize(ValueSizeOfKey(populate_spec, probe * 1315423911u % n));
  }
  avg_item /= 256;
  const size_t bytes = n * (avg_item + 32) * 2 + n * 160 + (1ull << 30);
  arena_ = std::make_unique<sim::Arena>(bytes);
  // Populate fills the bed arena densely from its base (DESIGN.md §13 "Bed
  // construction"), so 2 MB pages cut its first-touch faults 512-fold.
  arena_->AdviseHugePages();
  mem_ = std::make_unique<sim::MemoryModel>(machine_);
  slab_ = std::make_unique<SlabAllocator>(arena_.get());
  Populate();
}

TestBed::~TestBed() = default;

void TestBed::Populate() {
  const uint64_t n = populate_spec_.num_keys;
  std::vector<Item*> items(n);  // by key
  for (Key k = 0; k < n; k++) {
    const uint32_t len = ValueSizeOfKey(populate_spec_, k);
    Item* it = slab_->AllocateItem(k, len);
    // Deterministic value pattern for verification.
    for (uint32_t b = 0; b < len; b++) {
      it->value()[b] = static_cast<uint8_t>(k + b);
    }
    it->value_len = len;
    items[k] = it;
  }
  if (index_type_ == IndexType::kHash) {
    auto idx = std::make_unique<CuckooIndex>(arena_.get(), n + n / 4, seed_);
    idx->PopulateDirect(items);
    index_ = std::move(idx);
  } else {
    auto idx = std::make_unique<BTreeIndex>(arena_.get());
    idx->BulkLoadDirect(items);
    index_ = std::move(idx);
  }
}

// eRPCKV's shards and the passive structures take each key's item from the
// populated index, in key order. One ForEachDirect pass costs a quarter of a
// GetDirect per key on a tree (a sequential leaf walk).
std::vector<Item*> TestBed::IndexedItems() const {
  const uint64_t n = populate_spec_.num_keys;
  std::vector<Item*> by_key(n);
  index_->ForEachDirect([&by_key, n](Key k, const Item* it) {
    UTPS_CHECK(k < n && it->key == k);
    by_key[k] = const_cast<Item*>(it);
  });
  return by_key;
}

std::vector<std::unique_ptr<KvIndex>> TestBed::BuildShards() {
  const uint64_t n = populate_spec_.num_keys;
  const unsigned w = server_workers_;
  std::vector<std::unique_ptr<KvIndex>> shards;
  for (unsigned i = 0; i < w; i++) {
    if (index_type_ == IndexType::kHash) {
      shards.push_back(
          std::make_unique<CuckooIndex>(arena_.get(), n / w + n / w / 2 + 64,
                                        seed_ + i + 1));
    } else {
      shards.push_back(std::make_unique<BTreeIndex>(arena_.get()));
    }
  }
  const std::vector<Item*> items = IndexedItems();
  if (index_type_ == IndexType::kHash) {
    for (Item* it : items) {
      UTPS_CHECK(
          shards[RtcServer::ShardOf(it->key, w)]->InsertDirect(it->key, it));
    }
  } else {
    std::vector<std::vector<Item*>> per(w);
    for (Item* it : items) {
      per[RtcServer::ShardOf(it->key, w)].push_back(it);
    }
    for (unsigned i = 0; i < w; i++) {
      static_cast<BTreeIndex*>(shards[i].get())->BulkLoadDirect(per[i]);
    }
  }
  return shards;
}

ExperimentResult TestBed::Run(const ExperimentConfig& cfg) {
  UTPS_CHECK(cfg.workload.num_keys == populate_spec_.num_keys);
  UTPS_CHECK(cfg.sim_threads == 1);  // the serial engine is the only engine
  UTPS_CHECK_MSG(!ran_, "a TestBed runs one point; build a fresh bed per Run");
  ran_ = true;
  Engine eng;
  // Per-run arena for server-side structures (rings, response buffers).
  sim::Arena run_arena(512ull << 20);
  ResetItemContention();  // process-global, unlike the bed's memory model
  const unsigned rings =
      cfg.system == SystemKind::kErpcKv ? server_workers_ : 1;
  Nic nic(&eng, mem_.get(), nic_cfg_, rings);

  // Observability bundle: one per run so traces/metrics cover exactly this
  // point. Cores [0, W) are server workers, core W the μTPS manager.
  std::unique_ptr<obs::Observer> observer;
  if (cfg.obs.any()) {
    observer = std::make_unique<obs::Observer>(cfg.obs, server_workers_ + 1);
    if (obs::Tracer* trc = observer->tracer()) {
      trc->SetProcessName(obs::Tracer::kServerPid, "server");
      trc->SetProcessName(obs::Tracer::kClientPid, "clients");
      trc->SetProcessName(obs::Tracer::kNicPid, "nic");
    }
  }

  // Fault injection (DESIGN.md §9): armed before the server is built so
  // worker loops see the injector from their first iteration.
  std::unique_ptr<fault::FaultInjector> inj;
  if (cfg.fault.enabled()) {
    inj = std::make_unique<fault::FaultInjector>(cfg.fault);
    inj->Install(&eng, &nic, mem_.get(),
                 observer != nullptr ? observer->tracer() : nullptr);
  }

  // Durable log (DESIGN.md §10): one per run, like the NIC. Null unless
  // configured so default points stay byte-identical.
  std::unique_ptr<wal::WalManager> walm;
  if (cfg.wal.enabled) {
    walm = std::make_unique<wal::WalManager>(cfg.wal);
  }

  ServerEnv env;
  env.eng = &eng;
  env.mem = mem_.get();
  env.nic = &nic;
  env.fault = inj.get();
  env.arena = &run_arena;
  env.slab = slab_.get();
  env.index = index_.get();
  env.index_type = index_type_;
  env.num_workers = server_workers_;
  env.obs = observer.get();
  env.wal = walm.get();

  std::vector<std::unique_ptr<KvIndex>> shards;  // eRPCKV: one per worker
  std::unique_ptr<PassiveKv> passive;
  std::unique_ptr<KvServer> server;
  MuTpsServer* mutps = nullptr;
  switch (cfg.system) {
    case SystemKind::kMuTps: {
      auto s = std::make_unique<MuTpsServer>(env, cfg.mutps);
      mutps = s.get();
      server = std::move(s);
      break;
    }
    case SystemKind::kBaseKv: {
      server = std::make_unique<RtcServer>(env);
      break;
    }
    case SystemKind::kErpcKv: {
      shards = BuildShards();
      std::vector<KvIndex*> views;
      for (auto& s : shards) {
        views.push_back(s.get());
      }
      server = std::make_unique<RtcServer>(env, std::move(views));
      break;
    }
    case SystemKind::kRaceHash: {
      auto rh = std::make_unique<RaceHashPassive>(arena_.get(),
                                                  populate_spec_.num_keys);
      for (Item* it : IndexedItems()) {
        UTPS_CHECK(rh->InsertDirect(it->key, it));
      }
      passive = std::move(rh);
      break;
    }
    case SystemKind::kSherman: {
      auto tree = std::make_unique<ShermanPassive>(arena_.get());
      tree->BulkLoadDirect(IndexedItems());
      passive = std::move(tree);
      break;
    }
  }
  if (passive != nullptr) {
    passive->SetNic(&nic);
  }
  if (server != nullptr) {
    server->Start();
  }

  // Clients.
  ClientShared sh;
  sh.nic = &nic;
  sh.server = server.get();
  sh.passive = passive.get();
  sh.spec = &cfg.workload;
  sh.supports_scan = index_type_ == IndexType::kTree &&
                     cfg.system != SystemKind::kRaceHash;
  // Under faults, two-sided clients must retry (a dropped message would
  // otherwise hang the fiber). One-sided verbs model reliable RDMA.
  sh.use_retry = inj != nullptr && server != nullptr;
  RunRecorder rec(kTimelineBucketNs, cfg.record_timeline,
                  cfg.record_latency_timeline);
  const unsigned num_fibers = cfg.client_threads * cfg.pipeline_depth;
  // Gates and I/O buffers live here, not in the fiber frames: a fault plan
  // can deliver delayed/duplicated messages after a fiber has exited.
  std::vector<ClientRes> client_res(num_fibers);
  for (unsigned i = 0; i < num_fibers; i++) {
    client_res[i].scratch.assign(1536, static_cast<uint8_t>(i + 1));
    if (passive != nullptr) {
      client_res[i].out.resize(16384);
    }
  }
  sh.res = &client_res;
  std::vector<ExecCtx> cli_ctxs(num_fibers);
  for (unsigned i = 0; i < num_fibers; i++) {
    cli_ctxs[i] = ExecCtx{.eng = &eng, .mem = nullptr, .core = 0};
    eng.Spawn(ClientFiber(&cli_ctxs[i], &sh, &rec, i, cfg.seed));
  }

  // Warm up; for auto-tuned μTPS, wait until the first tuning pass finishes.
  eng.Run(cfg.warmup_ns);
  if (mutps != nullptr) {
    while (!mutps->tuned() && eng.now() < cfg.max_warmup_ns) {
      eng.Run(eng.now() + sim::kMsec);
    }
    eng.Run(eng.now() + sim::kMsec);  // settle after tuning
  }

  // Measure.
  if (server != nullptr) {
    server->ResetStats();
  }
  mem_->ResetCounters();
  if (observer != nullptr) {
    observer->ResetCycles();  // cycle accounting covers the window only
  }
  const bool sampled = cfg.sample.enabled;
  const uint64_t allocs0 = g_alloc_probe != nullptr ? g_alloc_probe() : 0;
  const Tick t0 = eng.now();
  stats::StreamingCi win_rate;  // per-window throughput observations (Mops)
  Tick detail_ns = 0;
  if (sampled) {
    // Sampled simulation (DESIGN.md §12): alternate functional fast-forward
    // segments with detailed windows placed by the seeded plan. The window
    // plan is a pure function of (sample config, period index), and every
    // mode flip and counter read happens between Run calls, so the whole
    // measure phase is deterministic per (seed, plan).
    UTPS_CHECK(cfg.phase2 == nullptr);  // phase switch would race the plan
    const sim::SampleConfig& sc = cfg.sample;
    UTPS_CHECK(sc.period_ns >= sc.DetailPerPeriod());
    const Tick end = t0 + cfg.measure_ns;
    uint64_t period = 0;
    for (Tick pstart = t0; pstart < end; pstart += sc.period_ns, period++) {
      const Tick pend = std::min(pstart + sc.period_ns, end);
      const Tick dstart = pstart + sim::SampleWindowOffset(sc, period);
      const Tick wstart = dstart + sc.rewarm_ns;
      const Tick wend = wstart + sc.window_ns;
      if (wend > pend) {
        // Tail period too short for a full window: fast-forward through it
        // rather than biasing the estimate with a truncated sample.
        mem_->SetFastForward(true);
        eng.Run(pend);
        continue;
      }
      mem_->SetFastForward(true);
      eng.Run(dstart);
      // Rewarm prefix: detailed but unmeasured — absorbs cache re-warm and
      // drains requests issued under functional costs. The biased negative-
      // control plan skips the switch and "measures" functional execution.
      if (sc.plan != sim::SamplePlan::kBiased) {
        mem_->SetFastForward(false);
      }
      eng.Run(wstart);
      const uint64_t before = rec.ops();
      sh.measuring = true;
      eng.Run(wend);
      sh.measuring = false;
      const uint64_t delta = rec.ops() - before;
      win_rate.Add(static_cast<double>(delta) * 1000.0 /
                   static_cast<double>(sc.window_ns));
      detail_ns += sc.window_ns;
      mem_->SetFastForward(true);
      eng.Run(pend);
    }
    mem_->SetFastForward(false);  // drain and shutdown run fully detailed
  } else {
    sh.measuring = true;
    eng.Run(t0 + cfg.measure_ns);
    // Dynamic-workload phase (Figure 14): switch the spec and keep running.
    if (cfg.phase2 != nullptr) {
      eng.Run(t0 + cfg.phase2_at_ns);
      sh.spec = cfg.phase2;
      eng.Run(t0 + cfg.phase2_at_ns + cfg.phase2_extra_ns);
    }
    sh.measuring = false;
  }
  const Tick t1 = eng.now();
  const uint64_t measure_allocs =
      g_alloc_probe != nullptr ? g_alloc_probe() - allocs0 : 0;

  ExperimentResult res;
  FillRecorded(rec, t1 - t0, &res);
  if (sampled) {
    // Extrapolation: mean per-window rate projects onto the full interval;
    // P50/P99 come from the merged in-window histograms below.
    res.sampled = true;
    res.est_mops = win_rate.Mean();
    res.est_mops_ci95 = win_rate.Ci95();
    res.detail_windows = win_rate.Count();
    res.detail_ns = detail_ns;
    res.mops = res.est_mops;
  }
  // Stage-attributed cache stats over the server cores.
  sim::StageCounters net{};
  sim::StageCounters idx{};
  sim::StageCounters all{};
  for (unsigned c = 0; c < server_workers_; c++) {
    const auto& cc = mem_->Counters(c);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kPoll)]);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kParse)]);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kRespond)]);
    net.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kCacheCheck)]);
    idx.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kIndex)]);
    idx.Add(cc.by_stage[static_cast<unsigned>(sim::Stage::kData)]);
    all.Add(cc.Total());
  }
  res.poll_miss_rate = net.LlcMissRate();
  res.index_miss_rate = idx.LlcMissRate();
  res.llc_miss_rate = all.LlcMissRate();
  if (mutps != nullptr) {
    res.ncr = mutps->ncr();
    res.nmr = mutps->nmr();
    res.cache_items = mutps->cache_items();
    res.cache_target = mutps->target_cache_items();
    res.cache_min_items = mutps->min_cache_items();
    res.mr_ways = mutps->mr_ways();
    res.reconfigs = mutps->reconfig_count();
  }
  if (mutps != nullptr) {
    res.hot_hits = mutps->hot_hits();
    res.hot_misses = mutps->hot_misses();
  }
  res.retries = sh.retries;
  if (inj != nullptr) {
    res.fault_counters = inj->counters();
  }
  if (mutps != nullptr) {
    res.failovers = mutps->failover_count();
    res.salvaged_slots = mutps->salvaged_slots();
    res.dedup_suppressed = mutps->dedup_suppressed();
  }
  if (walm != nullptr) {
    res.wal_counters = walm->counters();
  }

  // Observability outputs — built at t1, before the drain below, so the
  // report covers exactly the measurement window.
  if (observer != nullptr) {
    const uint64_t server_ops =
        server != nullptr ? server->OpsCompleted() : res.ops;
    res.cycles = observer->BuildCycleReport(server_workers_ + 1, server_ops);
    if (obs::MetricsRegistry* m = observer->metrics()) {
      const Engine::Stats& es = eng.stats();
      m->Count("engine", "events_processed", es.events_processed);
      m->Count("engine", "events_scheduled", es.events_scheduled);
      m->SetGauge("engine", "peak_heap", es.peak_heap);
      m->Count("nic", "rx_messages", nic.rx_messages());
      m->Count("nic", "tx_messages", nic.tx_messages());
      m->Count("nic", "rx_bytes", nic.rx_bytes());
      m->Count("nic", "tx_bytes", nic.tx_bytes());
      m->SetGauge("nic", "peak_ring_depth", nic.peak_ring_depth());
      const sim::StageCounters mc = mem_->TotalCounters();
      m->Count("cache", "accesses", mc.accesses);
      m->Count("cache", "priv_hits", mc.priv_hits);
      m->Count("cache", "llc_hits", mc.llc_hits);
      m->Count("cache", "llc_misses", mc.llc_misses);
      m->Count("cache", "io_reads", mem_->io_reads());
      m->Count("cache", "io_writes", mem_->io_writes());
      if (server != nullptr) {
        server->ExportMetrics(m);
      }
      res.metrics_dump = m->ToString();
    }
    if (obs::Tracer* trc = observer->tracer()) {
      res.trace_events = trc->num_events();
      res.trace_dropped = trc->dropped();
      // Skip event-less traces (passive systems have no instrumented server),
      // so a sweep's shared trace path keeps the last point that recorded
      // anything instead of a metadata-only file.
      if (!cfg.obs.trace_path.empty() && trc->num_events() > 0) {
        if (trc->WriteFile(cfg.obs.trace_path)) {
          res.trace_file = cfg.obs.trace_path;
        } else {
          std::fprintf(stderr, "obs: failed to write trace to %s\n",
                       cfg.obs.trace_path.c_str());
        }
      }
    }
  }

  // Drain and shut down.
  sh.stop = true;
  eng.Run(eng.now() + 500 * sim::kUsec);
  if (server != nullptr) {
    server->Stop();
  }
  eng.Run(eng.now() + 200 * sim::kUsec);
  if (walm != nullptr) {
    walm->Stop();  // log-writer drains pending syncs and exits
    eng.Run(eng.now() + 100 * sim::kUsec);
  }
  const Engine::Stats& sched = eng.stats();
  res.sched_events = sched.events_processed;
  res.sched_clamps = sched.sealed_clamps;
  res.measure_allocs = measure_allocs;
  // Tear the fibers down before the server, observer and client state they
  // point into: an auto-tuner search the run cut off is still suspended
  // inside obs::SpanScopes, which read the server's ExecCtx and the tracer
  // when their frames go.
  eng.DestroyFibers();
  return res;
}

}  // namespace utps
