#include "core/mutps.h"

#include <algorithm>
#include <string>

#include "check/mutation.h"
#include "common/rng.h"
#include "store/item.h"

namespace utps {

using sim::ExecCtx;
using sim::Fiber;
using sim::Stage;
using sim::StageScope;
using sim::Task;
using sim::Tick;

MuTpsServer::MuTpsServer(const ServerEnv& env, const Options& opt)
    : env_(env),
      opt_(opt),
      ring_host_(size_t{env.num_workers} * env.num_workers *
                     CrMrRing::HostBytes(opt.batch_size),
                 kCachelineBytes),
      cache_k_(opt.initial_cache_items) {
  rx_ = std::make_unique<RxRing>(env_.arena, opt_.rx);
  const unsigned w = env_.num_workers;
  UTPS_CHECK(w >= 2);   // at least one core per layer
  UTPS_CHECK(w <= 32);  // ready masks (cr_inflight / mr_ready_) are 32-bit
  UTPS_CHECK(env_.wal == nullptr ||
             env_.wal->NumShards() <= UINT16_MAX);  // CrMrHostDesc::wal_shard
  // CrMrDesc::buf packs a record's receive slot and its index in the slot.
  UTPS_CHECK(opt_.rx.num_slots <= (1u << 24) && opt_.rx.max_batch <= 256);
  rings_.resize(size_t{w} * w);
  mr_ready_.assign(w, 0);
  for (auto& r : rings_) {
    r.Init(env_.arena, &ring_host_, opt_.batch_size);
  }
  // A tuner pass drains once per probed size and once for its pick, and
  // ages only after the pick.
  hot_ = std::make_unique<HotSetManager>(
      env_.arena, w, opt_.autotune ? opt_.cache_sizes.size() + 1 : 1);
  workers_.resize(w);
  for (unsigned i = 0; i < w; i++) {
    Worker& wk = workers_[i];
    wk.ctx = ExecCtx{.eng = env_.eng, .mem = env_.mem,
                     .core = static_cast<sim::CoreId>(i)};
    if (env_.obs != nullptr) {
      wk.ctx.stage_ns = env_.obs->StageNs(i);
    }
    resp_bufs_.push_back(std::make_unique<RespBuffer>(env_.arena));
    wk.resp = resp_bufs_.back().get();
    wk.staging.resize(w);
    for (Worker::Staging& st : wk.staging) {
      // A staging buffer flushes once it holds batch_size descriptors, so
      // this capacity is never outgrown: the first batch a worker sends to a
      // target late in a run allocates nothing (DESIGN.md §13).
      st.descs.reserve(opt_.batch_size);
    }
    wk.seen_tail.assign(w, 0);
    wk.pop_cursor.assign(w, 0);
  }
  mgr_ctx_ = ExecCtx{.eng = env_.eng, .mem = env_.mem,
                     .core = static_cast<sim::CoreId>(w < 32 ? w : 0)};
  // The health probe salvages rings on the management core under the MR CLOS
  // (it substitutes for a dead MR worker).
  probe_ctx_ = ExecCtx{.eng = env_.eng, .mem = env_.mem,
                       .core = static_cast<sim::CoreId>(w < 32 ? w : 0),
                       .clos = kMrClos};
  hb_seen_.assign(w, 0);
  mgr_tid_ = w;  // distinct tracer lane even when the sim core id wraps
  if (env_.obs != nullptr) {
    mgr_ctx_.stage_ns = env_.obs->StageNs(w);
    trc_ = env_.obs->tracer();
  }
  unsigned ncr = opt_.initial_ncr;
  if (ncr == 0) {
    ncr = std::max(1u, w / 3);
  }
  ncr = std::min(ncr, w - 1);
  cfg_ = Config{ncr, ncr, 0, 1};
  // Default LLC policy before tuning: CR owns all ways; MR reuses all ways.
  env_.mem->SetClosMask(kCrClos, env_.mem->config().AllWaysMask());
  env_.mem->SetClosMask(kMrClos, env_.mem->config().AllWaysMask());
  mr_ways_ = env_.mem->config().llc_ways;
  // Each receive record gets a response region of its own, free until the
  // record completes. A GET or scan answers from a RespBuffer region when
  // one is free to hold (the MR worker's, or the CR worker's for a hot hit)
  // and falls back to its record's region, which also takes a GET value
  // longer than announced. Carved last, so every earlier arena offset is
  // unchanged.
  record_regions_ = env_.arena->AllocateArray<uint8_t>(
      size_t{opt_.rx.num_slots} * opt_.rx.max_batch * kScanRespCap,
      kCachelineBytes);
}

uint8_t* MuTpsServer::RecordRegion(uint64_t rx_seq, unsigned rec_idx) const {
  const size_t record =
      (rx_seq % opt_.rx.num_slots) * opt_.rx.max_batch + rec_idx;
  return record_regions_ + record * kScanRespCap;
}

void MuTpsServer::ReserveCrBatchFrames() {
  // Every frame the CR batches can hold at once: batch_size records per
  // worker, each a CrFront frame plus its nested coroutines (over-counted:
  // one of each). Frames are created unstarted, then all destroyed, which
  // leaves them on the frame pool's free lists.
  const size_t n = size_t{env_.num_workers} * opt_.batch_size;
  ExecCtx& ctx = workers_[0].ctx;
  const RxRecord rec{};
  std::vector<Task<void>> fronts;
  std::vector<Task<bool>> bools;
  std::vector<Task<uint32_t>> reads;
  std::vector<Task<Item*>> lookups;
  fronts.reserve(n + env_.num_workers);
  bools.reserve(2 * n);
  reads.reserve(n);
  lookups.reserve(n);
  for (size_t i = 0; i < n; i++) {
    fronts.push_back(CrFront(0, 0, 0, nullptr));
    bools.push_back(CrServeHot(0, nullptr, rec, 0, 0));
    bools.push_back(ItemWrite(ctx, nullptr, nullptr, 0));
    reads.push_back(ItemRead(ctx, nullptr, nullptr));
    lookups.push_back(HotTableLookup(ctx, nullptr, 0));
  }
  for (unsigned i = 0; i < env_.num_workers; i++) {
    fronts.push_back(sim::RunBatch(ctx, nullptr, 0));
  }
}

void MuTpsServer::Start() {
  ReserveCrBatchFrames();
  if (trc_ != nullptr) {
    for (unsigned i = 0; i < env_.num_workers; i++) {
      trc_->SetThreadName(obs::Tracer::kServerPid, i, "worker" + std::to_string(i));
      out_ctr_name_.push_back(
          trc_->Intern("outstanding_w" + std::to_string(i)));
    }
    trc_->SetThreadName(obs::Tracer::kServerPid, mgr_tid_, "manager");
  }
  if (env_.fault != nullptr) {
    for (unsigned i = 0; i < env_.num_workers; i++) {
      workers_[i].ctx.slow_q8 = env_.fault->SlowPtr(i);
    }
  }
  for (unsigned i = 0; i < env_.num_workers; i++) {
    Worker& w = workers_[i];
    w.acked_version = cfg_.version;
    w.is_cr = i < cfg_.ncr;
    w.next_seq = i;  // AlignSeq(switch_seq = 0, ncr, i) for a CR worker
    env_.eng->Spawn(WorkerMain(i));
  }
  env_.eng->Spawn(ManagerMain());
  if (env_.fault != nullptr) {
    env_.eng->Spawn(HealthProbeMain());
  }
  if (env_.wal != nullptr) {
    // Dedicated log-writer worker, hung off the MR/CR split on the management
    // core: group/async commit modes drain shard buffers off the critical
    // path. No-op in sync mode (ops issue their own syncs).
    env_.wal->EnsureFlusher(env_.eng);
  }
}

uint64_t MuTpsServer::Sum(uint64_t Worker::*counter) const {
  uint64_t total = 0;
  for (const Worker& w : workers_) {
    total += w.*counter;
  }
  return total;
}

void MuTpsServer::ResetStats() {
  ops_before_reset_ += OpsCompleted();
  for (Worker& w : workers_) {
    w.ops = 0;
    w.hot_hits = 0;
    w.hot_misses = 0;
    w.peak_outstanding = 0;
  }
  peak_ring_occ_ = 0;
  min_cache_items_ = hot_->ActiveCount();
}

void MuTpsServer::ExportMetrics(obs::MetricsRegistry* m) const {
  if (m == nullptr) {
    return;
  }
  m->Count("mutps", "hot_hits", hot_hits());
  m->Count("mutps", "hot_misses", hot_misses());
  m->Count("mutps", "reconfigs", reconfig_count_);
  m->SetGauge("mutps", "ncr", cfg_.ncr);
  m->SetGauge("mutps", "nmr", env_.num_workers - cfg_.ncr);
  m->SetGauge("mutps", "cache_items", hot_->ActiveCount());
  m->SetGauge("mutps", "hotset_target", target_cache_items());
  m->Count("mutps", "hotset_publishes", hot_->epoch());
  m->Count("mutps", "hotset_samples_dropped", hot_->SamplesDropped());
  m->SetGauge("mutps", "mr_llc_ways", mr_ways_);
  m->SetGauge("mutps", "peak_ring_occ", peak_ring_occ_);
  if (env_.fault != nullptr) {
    // Only under an installed injector, so faultless metric output is
    // byte-identical to pre-fault builds.
    m->Count("mutps", "failovers", failover_count_);
    m->Count("mutps", "restores", restore_count_);
    m->Count("mutps", "salvaged_slots", salvaged_slots_);
    m->Count("mutps", "dedup_done", dedup_.dup_done());
    m->Count("mutps", "dedup_inflight", dedup_.dup_inflight());
  }
  for (unsigned i = 0; i < env_.num_workers; i++) {
    const Worker& w = workers_[i];
    m->Count("mutps", "ops", w.ops, static_cast<int>(i));
    if (w.peak_outstanding > 0) {
      m->SetGauge("mutps", "peak_outstanding", w.peak_outstanding,
                  static_cast<int>(i));
    }
  }
}

Fiber MuTpsServer::WorkerMain(unsigned idx) {
  Worker& w = workers_[idx];
  while (!stop_) {
    if (w.is_cr) {
      co_await CrRun(idx);
    } else {
      co_await MrRun(idx);
    }
    co_await w.ctx.Yield();
  }
}

// =========================================================================
// Cache-resident layer (§3.2): FSM over {poll rx, serve the claimed slot in
// batches (front halves interleaved: parse, hot lookup, hot serve; then the
// misses forwarded in record order), flush timed-out staging, poll CR-MR
// completions}.
// =========================================================================

Task<void> MuTpsServer::CrRun(unsigned idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  ctx.clos = kCrClos;
  // next_seq was set where this worker took the CR role (Start, or its
  // acknowledgement in MrRun). It starts at the switch sequence, NOT at the
  // current fill sequence: slots in [switch_seq, fill_seq) with this worker's
  // residue arrived while the worker was still draining its MR role and
  // belong to it.
  w.cr_inflight = 0;
  for (unsigned t = 0; t < env_.num_workers; t++) {
    w.seen_tail[t] = RingAt(idx, t).tail();
    if (w.seen_tail[t] < RingAt(idx, t).head()) {
      w.cr_inflight |= 1u << t;
    }
  }
  uint64_t hot_epoch_seen = hot_->epoch();
  hot_->AckEpoch(idx, hot_epoch_seen);
  Rng sample_rng(0xabcd0000 + idx);

  while (!stop_) {
    // --- hot-set epoch adoption ---
    if (hot_->epoch() != hot_epoch_seen) {
      hot_epoch_seen = hot_->epoch();
      hot_->AckEpoch(idx, hot_epoch_seen);
      ctx.Charge(4);  // re-read the published pointer pair
    }
    // --- receive-ring poll ---
    bool claimed = false;
    bool switching = false;
    {
      StageScope s(ctx, Stage::kPoll);
      rx_->Advance(*env_.nic, 0, ctx.eng->now());
      ctx.Charge(4);
      co_await ctx.Read(rx_->Header(w.next_seq), 16);
      // The one split check (§3.5), between the header read and the claim: a
      // split published before or during the read owns next_seq once it is
      // at or past switch_seq, so this worker must switch before claiming.
      switching =
          cfg_.version != w.acked_version && w.next_seq >= cfg_.switch_seq;
      if (!switching && rx_->IsClosed(w.next_seq)) {
        rx_->Claim(w.next_seq);
        ctx.Charge(3);
        claimed = true;
      }
    }
    if (switching) {
      // Flush everything staged under the old MR set first: when the CR
      // layer grows, some staged targets are about to become CR workers and
      // would otherwise strand these descriptors. A worker leaving the CR
      // layer also waits out its forwarded requests, whose responses it
      // would never send as an MR worker.
      const bool leaving = idx >= cfg_.ncr;
      for (unsigned t = 0; t < env_.num_workers; t++) {
        if (!w.staging[t].Empty()) {
          co_await CrFlushStaging(idx, t);
        }
      }
      while (leaving && w.outstanding > 0 && !stop_) {
        co_await CrPollCompletions(idx);
        co_await ctx.Yield();
      }
      // The CR role's one acknowledgement point.
      w.acked_version = cfg_.version;
      w.is_cr = !leaving;
      if (leaving) {
        co_return;
      }
      w.next_seq = AlignSeq(cfg_.switch_seq, cfg_.ncr, idx);
      continue;
    }
    const unsigned ncr = NcrOf(w);
    if (claimed) {
      const uint64_t seq = w.next_seq;
      const unsigned cnt = rx_->Header(seq)->nreq;
      // The slot's records run in groups of at most batch_size, as the MR
      // layer runs its batches: a group's front halves interleave at memory
      // stalls, then its misses are forwarded one at a time. The forward
      // phase stays serial because two flushes suspended on one CR-MR ring
      // would claim the same slot.
      for (unsigned first = 0; first < cnt; first += opt_.batch_size) {
        const unsigned n = std::min(opt_.batch_size, cnt - first);
        obs::SpanScope span(trc_, ctx, "cr", "cr_batch",
                            obs::Tracer::kServerPid, idx);
        for (unsigned i = first; i < first + n; i++) {
          // Sampling for the hot-set tracker (1 request in kSamplePeriod).
          if ((sample_rng.Next() & (HotSetManager::kSamplePeriod - 1)) == 0) {
            hot_->Ring(idx).Push(rx_->Records(seq)[i].key);
            ctx.Charge(2);
          }
        }
        bool forward[CrMrRing::kMaxBatch] = {};
        if (n == 1) {
          co_await CrFront(idx, seq, first, &forward[0]);
        } else {
          Task<void> tasks[CrMrRing::kMaxBatch];
          for (unsigned i = 0; i < n; i++) {
            tasks[i] = CrFront(idx, seq, first + i, &forward[i]);
          }
          co_await sim::RunBatch(ctx, tasks, n);
        }
        for (unsigned i = 0; i < n; i++) {
          if (forward[i]) {
            co_await CrForward(idx, seq, first + i);
          }
        }
      }
      w.next_seq += ncr;
    }
    // --- staged-batch flush on timeout ---
    const unsigned nmr = env_.num_workers - ncr;
    for (unsigned t = ncr; t < env_.num_workers; t++) {
      Worker::Staging& st = w.staging[t];
      if (!st.Empty() &&
          ctx.Now() - st.first_ns >= kFlushTimeoutNs) {
        co_await CrFlushStaging(idx, t);
        if (t == ncr + (w.rr_next % nmr)) {
          w.rr_next++;
        }
      }
    }
    // --- completions from the MR layer ---
    co_await CrPollCompletions(idx);
    co_await ctx.Yield();
  }
}

Task<void> MuTpsServer::CrFront(unsigned idx, uint64_t rx_seq, unsigned rec_idx,
                                bool* forward) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  RxRecord* rec = &rx_->Records(rx_seq)[rec_idx];
  {
    StageScope s(ctx, Stage::kParse);
    co_await ctx.Read(rec, sizeof(RxRecord));
    ctx.Charge(env_.parse_cpu_ns);
  }
  const Key key = rec->key;
  const OpType op = rec->op();
  // The op nibble comes off the wire. μTPS executes GETs, PUTs and scans
  // only: the hot path would serve any other op as a PUT, and the MR layer
  // as a scan.
  UTPS_CHECK_MSG(op == OpType::kGet || op == OpType::kPut ||
                     op == OpType::kScan,
                 "uTPS cannot execute op %u (key %llu)",
                 static_cast<unsigned>(op), static_cast<unsigned long long>(key));

  if (!BeginOnce(ctx, env_, dedup_, *rx_, rx_seq, rec_idx, w.ops)) {
    co_return;
  }

  // --- hot path ---
  if (op != OpType::kScan) {
    // Both indexes look point keys up in the hot table; scans are forwarded
    // whole. An empty published table answers every key "cold". Its count
    // comes with the epoch pointer the loop re-reads, so skipping the probe
    // adds no modeled access.
    Item* hot_item = nullptr;
    const HotTable* ht = hot_->ActiveTable();
    if (ht->count != 0) {
      StageScope s(ctx, Stage::kCacheCheck);
      hot_item = co_await HotTableLookup(ctx, ht, key);
    }
    if (hot_item != nullptr && op == OpType::kPut &&
        rec->value_len() > hot_item->capacity) {
      hot_item = nullptr;  // needs reallocation: take the MR slow path
    }
    if (hot_item != nullptr) {
      w.hot_hits++;
      if (co_await CrServeHot(idx, hot_item, *rec, rx_seq, rec_idx)) {
        co_return;
      }
      // A grown PUT retired the item since the lookup: a miss after all
      // (unless ResetStats ran in between).
      w.hot_hits -= w.hot_hits > 0 ? 1 : 0;
    }
    w.hot_misses++;
  }
  if (mut::CrForwardInBatch()) {
    co_await CrForward(idx, rx_seq, rec_idx);
    co_return;
  }
  *forward = true;
}

Task<void> MuTpsServer::CrForward(unsigned idx, uint64_t rx_seq,
                                  unsigned rec_idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  // CrFront already paid for reading the record.
  const RxRecord& rec = rx_->Records(rx_seq)[rec_idx];
  const unsigned ncr = NcrOf(w);
  const unsigned nmr = env_.num_workers - ncr;
  const CrMrDesc d{rec.key, rec.op_len,
                   static_cast<uint32_t>(rx_seq % opt_.rx.num_slots) << 8 |
                       static_cast<uint32_t>(rec_idx)};
  // Round-robin over the MR set at BATCH granularity: fill the current
  // target's batch, then move to the next MR worker (§3.4: a CR thread
  // pushes an item only when enough requests have accumulated).
  unsigned target = ncr + (w.rr_next % nmr);
  if (UTPS_UNLIKELY(dead_mask_ != 0)) {
    // Failover routing: steer new batches away from confirmed-dead MR workers
    // (§3.5 reassignment reused for fault recovery). With a single injected
    // crash at least one MR target is always alive.
    unsigned tries = 0;
    while (((dead_mask_ >> target) & 1u) != 0 && tries++ < nmr) {
      w.rr_next++;
      target = ncr + (w.rr_next % nmr);
    }
  }
  Worker::Staging& st = w.staging[target];
  if (st.Empty()) {
    st.first_ns = ctx.Now();
  }
  st.descs.push_back(d);
  ctx.Charge(3);  // staging append
  if (st.Size() >= opt_.batch_size) {
    co_await CrFlushStaging(idx, target);
    w.rr_next++;
  }
}

Task<bool> MuTpsServer::CrServeHot(unsigned idx, Item* item, const RxRecord& rec,
                                   uint64_t rx_seq, unsigned rec_idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  CrMrHostDesc hd{.rx_seq = rx_seq, .rec_idx = static_cast<uint16_t>(rec_idx)};
  if (rec.op() == OpType::kGet) {
    // The next region of our own RespBuffer, unless the cyclic walk came
    // round to a region still held: then the record's own region.
    uint32_t cap = RespCap(OpType::kGet, rec.value_len());
    hd.resp = w.resp->TryHold(cap);
    if (hd.resp == nullptr) {
      hd.resp = RecordRegion(rx_seq, rec_idx);
      cap = kScanRespCap;
    }
    StageScope s(ctx, Stage::kData);
    hd.resp_len = co_await ItemRead(ctx, item, hd.resp, cap);
    if (UTPS_UNLIKELY(hd.resp_len > cap)) {
      hd.resp = SpillToRecord(*w.resp, hd, cap, hd.resp_len);
      ItemReadDirect(item, hd.resp);  // still the value ItemRead validated
    }
    // Checked at the instant the read validated: the item was still the
    // key's when its value was copied, or the copy is stale.
    if (ItemRetired(item) && !mut::ServeRetiredHotItem()) {
      w.resp->Release(hd.resp, cap);
      co_return false;
    }
    co_await ctx.Write(hd.resp, hd.resp_len);
  } else {
    const uint8_t* payload = rx_->Data(rx_seq) + rec.payload_off;
    StageScope s(ctx, Stage::kData);
    co_await ctx.Read(payload, rec.value_len());
    if (!co_await ItemWrite(ctx, item, payload, rec.value_len())) {
      co_return false;
    }
    if (UTPS_UNLIKELY(env_.wal != nullptr)) {
      const wal::WalToken tok =
          env_.wal->Append(ctx, rec.key, OpType::kPut, payload,
                           rec.value_len(), rx_->Msgs(rx_seq)[rec_idx].rid);
      co_await env_.wal->WaitDurable(ctx, tok);
    }
  }
  SendResponse(w, hd, *w.resp);
  co_return true;
}

void MuTpsServer::SendResponse(Worker& w, const CrMrHostDesc& hd,
                               RespBuffer& held_in) {
  const RxRecord& rec = rx_->Records(hd.rx_seq)[hd.rec_idx];
  held_in.Release(hd.resp, RespCap(rec.op(), rec.value_len()));
  SendAndComplete(w.ctx, env_, dedup_, *rx_, hd.rx_seq, hd.rec_idx, hd.resp,
                  hd.resp_len, w.ops);
}

uint8_t* MuTpsServer::SpillToRecord(RespBuffer& buf, const CrMrHostDesc& hd,
                                    uint32_t cap, uint32_t len) const {
  UTPS_CHECK_MSG(len <= kScanRespCap,
                 "a %u B value outgrows its receive record's region", len);
  buf.Release(hd.resp, cap);
  return RecordRegion(hd.rx_seq, hd.rec_idx);
}

Task<void> MuTpsServer::CrFlushStaging(unsigned idx, unsigned target) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  Worker::Staging& st = w.staging[target];
  if (st.Empty()) {
    co_return;
  }
  if (UTPS_UNLIKELY(w.flushing)) {
    // Another flush of this worker is suspended mid-way, which only a
    // forward phase run inside the CR batch allows: both would copy the same
    // staged prefix and claim the ring slot at head. Count it for the
    // quiesce audit and leave the descriptors staged.
    flush_races_++;
    co_return;
  }
  w.flushing = true;
  obs::SpanScope span(trc_, ctx, "cr", "cr_flush", obs::Tracer::kServerPid, idx);
  CrMrRing& r = RingAt(idx, target);
  // Flow control against OUR completion cursor, not the consumer's tail: a
  // physical slot must not be reused until its responses have been sent
  // (seen_tail advanced), or the new batch would overwrite the old one's
  // descriptors.
  while (r.head() - w.seen_tail[target] >= CrMrRing::kNumSlots && !stop_) {
    co_await CrPollCompletions(idx);
    co_await ctx.Yield();
  }
  if (stop_) {
    w.flushing = false;
    co_return;
  }
  const uint64_t seq = r.head();
  CrMrRing::Slot* slot = r.SlotAt(seq);
  const unsigned cnt = std::min<unsigned>(st.Size(), r.stride());
  slot->count = cnt;
  CrMrHostDesc* host = r.HostAt(seq);
  for (unsigned i = 0; i < cnt; i++) {
    const CrMrDesc& d = st.Desc(i);
    slot->descs[i] = d;
    // The descriptor names the receive record its companion answers.
    host[i] = CrMrHostDesc{.rx_seq = d.buf >> 8,
                           .rec_idx = static_cast<uint16_t>(d.buf & 0xff)};
  }
  {
    StageScope s(ctx, Stage::kQueue);
    co_await ctx.Write(slot, 8 + sizeof(CrMrDesc) * cnt);
    r.AdvanceHead();
    // head just moved past both cursors: flag the ring for the consumer's MR
    // sweep and for our own completion poll.
    mr_ready_[target] |= 1u << idx;
    w.cr_inflight |= 1u << target;
    co_await ctx.Write(r.head_addr(), 8);
  }
  w.outstanding += cnt;
  if (w.outstanding > w.peak_outstanding) {
    w.peak_outstanding = w.outstanding;
  }
  const uint64_t occ = r.head() - w.seen_tail[target];
  if (occ > peak_ring_occ_) {
    peak_ring_occ_ = occ;
  }
  if (trc_ != nullptr) {
    trc_->Counter(out_ctr_name_[idx], obs::Tracer::kServerPid, ctx.Now(),
                  w.outstanding);
  }
  st.Consume(cnt);
  if (!st.Empty()) {
    st.first_ns = ctx.Now();
  }
  w.flushing = false;
}

Task<void> MuTpsServer::CrPollCompletions(unsigned idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  if (w.outstanding == 0) {
    co_return;
  }
  // Visit exactly the rings with batches in flight (cr_inflight mirrors
  // seen_tail < head) in ascending order — same rings, same order as a full
  // scan. Bits cannot appear mid-loop: only this worker's own flushes set
  // them, and it is busy here.
  for (uint32_t m = w.cr_inflight; m != 0; m &= m - 1) {
    const unsigned t = static_cast<unsigned>(__builtin_ctz(m));
    CrMrRing& r = RingAt(idx, t);
    {
      StageScope s(ctx, Stage::kQueue);
      co_await ctx.Read(r.tail_addr(), 8);
    }
    bool drained = false;
    while (w.seen_tail[t] < r.tail()) {
      const uint64_t seq = w.seen_tail[t];
      CrMrRing::Slot* slot = r.SlotAt(seq);
      CrMrHostDesc* host = r.HostAt(seq);
      for (unsigned i = 0; i < slot->count; i++) {
        if (UTPS_UNLIKELY(host[i].wal_lsn != 0) && env_.wal != nullptr) {
          // MR-applied PUT: hold the ack until its log record is durable.
          co_await env_.wal->WaitDurable(
              ctx, wal::WalToken{host[i].wal_shard, host[i].wal_lsn});
        }
        SendResponse(w, host[i], *resp_bufs_[t]);
      }
      w.outstanding -= slot->count;
      w.seen_tail[t]++;
      drained = true;
    }
    if (w.seen_tail[t] >= r.head()) {
      w.cr_inflight &= ~(1u << t);
    }
    if (drained && trc_ != nullptr) {
      trc_->Counter(out_ctr_name_[idx], obs::Tracer::kServerPid, ctx.Now(),
                    w.outstanding);
    }
  }
}

// =========================================================================
// Memory-resident layer (§3.3): batched coroutine indexing + data copies.
// =========================================================================

Task<void> MuTpsServer::MrRun(unsigned idx) {
  Worker& w = workers_[idx];
  ExecCtx& ctx = w.ctx;
  ctx.clos = kMrClos;
  for (unsigned p = 0; p < env_.num_workers; p++) {
    // Resume consumption at the tail: CR workers that acknowledged the new
    // split first may already have pushed batches for us.
    w.pop_cursor[p] = RingAt(p, idx).tail();
  }
  RebuildMrReady(idx);
  uint64_t hot_epoch_seen = hot_->epoch();
  hot_->AckEpoch(idx, hot_epoch_seen);

  while (!stop_) {
    // --- injected crash-stop (DESIGN.md §9) ---
    if (UTPS_UNLIKELY(env_.fault != nullptr)) {
      if (env_.fault->IsCrashed(idx) || (w.crash_parked && salvage_busy_)) {
        // Park at the loop top: every initiated slot has finished, so
        // pop_cursor == tail on all inbound rings — the invariant the health
        // probe's ring salvage relies on. Stay parked through an in-flight
        // salvage pass even after restart, or both could pop the same slot.
        w.crash_parked = true;
        co_await ctx.Delay(sim::kUsec);
        continue;
      }
      if (UTPS_UNLIKELY(w.crash_parked)) {
        // Restart: the probe may have drained rings and resynced our cursors
        // while we were parked; rebuild the readiness mask from scratch.
        w.crash_parked = false;
        for (unsigned p = 0; p < env_.num_workers; p++) {
          w.pop_cursor[p] = std::max(w.pop_cursor[p], RingAt(p, idx).tail());
        }
        RebuildMrReady(idx);
      }
      w.heartbeat++;
    }
    // --- thread-split handshake (§3.5) ---
    if (cfg_.version != w.acked_version) {
      // Staying MR acknowledges at once. Joining the CR layer waits until
      // every old CR worker has acknowledged (none forwards to us any more)
      // and our inbound rings are drained.
      const bool joining = idx < cfg_.ncr;
      bool ready = true;
      for (unsigned p = 0; joining && ready && p < env_.num_workers; p++) {
        const CrMrRing& r = RingAt(p, idx);
        ready = (p >= cfg_.prev_ncr ||
                 workers_[p].acked_version == cfg_.version) &&
                r.head() == r.tail() && r.head() == w.pop_cursor[p];
      }
      if (ready) {
        // The MR role's one acknowledgement point.
        w.acked_version = cfg_.version;
        w.is_cr = joining;
        if (joining) {
          w.next_seq = AlignSeq(cfg_.switch_seq, cfg_.ncr, idx);
          co_return;  // WorkerMain re-enters as CR
        }
      }
    }
    if (hot_->epoch() != hot_epoch_seen) {
      hot_epoch_seen = hot_->epoch();
      hot_->AckEpoch(idx, hot_epoch_seen);
      ctx.Charge(4);
    }
    // --- scan producer rings (all-to-all mapping) ---
    // mr_ready_ mirrors pop_cursor < head per producer, so the round-robin
    // sweep reduces to a rotated first-set-bit: the producer picked (and the
    // modeled head read that confirms it) is exactly the one the full scan
    // would reach. head only ever advances, so the post-read recheck of the
    // original scan cannot fail and exactly one slot is consumed per find.
    bool found = false;
    const uint32_t avail = mr_ready_[idx];
    if (avail != 0) {
      const unsigned start = w.rr_next % env_.num_workers;
      const uint32_t hi = avail >> start;
      const unsigned p = hi != 0
                             ? start + static_cast<unsigned>(__builtin_ctz(hi))
                             : static_cast<unsigned>(__builtin_ctz(avail));
      CrMrRing& r = RingAt(p, idx);
      {
        StageScope s(ctx, Stage::kQueue);
        co_await ctx.Read(r.head_addr(), 8);
      }
      if (w.pop_cursor[p] < r.head()) {
        found = true;
        w.rr_next = p + 1;
        const uint64_t seq = w.pop_cursor[p];
        w.pop_cursor[p]++;
        if (w.pop_cursor[p] >= r.head()) {
          mr_ready_[idx] &= ~(1u << p);
        }
        co_await MrProcessSlot(ctx, p, idx, seq);
      }
    }
    if (!found) {
      ctx.Charge(4);  // idle ring sweep
    }
    co_await ctx.Yield();
  }
}

Task<void> MuTpsServer::MrProcessSlot(ExecCtx& ctx, unsigned producer,
                                      unsigned consumer, uint64_t seq) {
  obs::SpanScope span(trc_, ctx, "mr", "mr_batch", obs::Tracer::kServerPid,
                      consumer);
  CrMrRing& r = RingAt(producer, consumer);
  CrMrRing::Slot* slot = r.SlotAt(seq);
  CrMrHostDesc* host = r.HostAt(seq);
  unsigned cnt;
  {
    StageScope s(ctx, Stage::kQueue);
    co_await ctx.Read(slot, 8);
    cnt = slot->count;
    co_await ctx.Read(slot->descs, sizeof(CrMrDesc) * cnt);
  }
  UTPS_DCHECK(cnt <= r.stride());
  // Batched execution: index traversals (and data copies) of the whole batch
  // interleave at memory stalls.
  Task<void> tasks[CrMrRing::kMaxBatch];
  for (unsigned i = 0; i < cnt; i++) {
    tasks[i] = MrProcessOne(ctx, consumer, slot->descs[i], &host[i]);
  }
  co_await sim::RunBatch(ctx, tasks, cnt);
  // Completion signal: advance the tail pointer only now that all responses
  // of the batch are in place (§3.4).
  {
    StageScope s(ctx, Stage::kQueue);
    if (!mut::SkipRingTailPublish()) {
      r.AdvanceTail();
    }
    co_await ctx.Write(r.tail_addr(), 8);
  }
}

Task<void> MuTpsServer::MrProcessOne(ExecCtx& ctx, unsigned consumer,
                                     CrMrDesc d, CrMrHostDesc* hd) {
  const OpType op = OpOf(d.op_len);
  const uint32_t vlen = LenOf(d.op_len);
  // The request's payload and scan bounds stay in its receive record.
  const RxRecord& rec = rx_->Records(hd->rx_seq)[hd->rec_idx];
  if (op == OpType::kPut) {
    const uint8_t* payload = rx_->Data(hd->rx_seq) + rec.payload_off;
    co_await ExecPut(ctx, env_, d.key, payload, vlen);
    if (UTPS_UNLIKELY(env_.wal != nullptr)) {
      // Append here (where the op applied); the CR layer waits on the token
      // before releasing the ack, so the durability stall never blocks the
      // MR batch.
      const wal::WalToken tok =
          env_.wal->Append(ctx, d.key, OpType::kPut, payload, vlen,
                           rx_->Msgs(hd->rx_seq)[hd->rec_idx].rid);
      hd->wal_shard = static_cast<uint16_t>(tok.shard);
      hd->wal_lsn = tok.lsn;
    }
    co_return;
  }
  // Answer from the consumer's own RespBuffer, warm in its cache, instead of
  // the record's cold region. The producer releases the hold when it sends
  // the response (CrPollCompletions).
  RespBuffer& buf = *resp_bufs_[consumer];
  uint32_t cap = RespCap(op, vlen);
  hd->resp = mut::MrRegionWithoutHold() ? buf.Alloc(cap) : buf.TryHold(cap);
  if (hd->resp == nullptr) {
    hd->resp = RecordRegion(hd->rx_seq, hd->rec_idx);
    cap = kScanRespCap;
  }
  if (op == OpType::kGet) {
    hd->resp_len = co_await ExecGet(
        ctx, env_, d.key, hd->resp, cap,
        [&](uint32_t len) { return SpillToRecord(buf, *hd, cap, len); });
  } else {
    hd->resp_len = co_await ExecScan(ctx, env_, d.key, rec.scan_upper,
                                     rec.scan_count, hd->resp);
  }
}

// =========================================================================
// Health probe + failover (DESIGN.md §9): a manager-side probe detects a
// crash-stopped MR worker (park flag set, heartbeat frozen), steers CR
// routing away from it via dead_mask_, and drains its inbound rings by
// substituting for it in MrProcessSlot — §3.5's reassignment machinery
// reused for fault recovery. Salvaged responses flow through each producer's
// normal completion poll, so outstanding/seen_tail accounting is untouched.
// =========================================================================

Fiber MuTpsServer::HealthProbeMain() {
  ExecCtx& ctx = probe_ctx_;
  const Tick period = 10 * sim::kUsec;
  while (!stop_) {
    co_await ctx.Delay(period);
    if (stop_) {
      break;
    }
    for (unsigned i = 0; i < env_.num_workers && !stop_; i++) {
      Worker& w = workers_[i];
      const bool beat = w.heartbeat != hb_seen_[i];
      hb_seen_[i] = w.heartbeat;
      const bool dead = ((dead_mask_ >> i) & 1u) != 0;
      if (!w.is_cr && w.crash_parked && !beat && env_.fault->IsCrashed(i)) {
        if (!dead) {
          dead_mask_ |= 1u << i;
          failover_count_++;
          if (trc_ != nullptr) {
            trc_->Instant("mgr", "mr_failover", obs::Tracer::kServerPid,
                          mgr_tid_, ctx.Now());
          }
        }
        // Re-drain on every pass while the worker stays dead: staged batches
        // flushed before the CR workers observed dead_mask_ still land here.
        co_await SalvageWorker(i);
      } else if (dead && !env_.fault->IsCrashed(i)) {
        dead_mask_ &= ~(1u << i);
        restore_count_++;
        if (trc_ != nullptr) {
          trc_->Instant("mgr", "mr_restore", obs::Tracer::kServerPid, mgr_tid_,
                        ctx.Now());
        }
      }
    }
  }
}

Task<void> MuTpsServer::SalvageWorker(unsigned dead) {
  ExecCtx& ctx = probe_ctx_;
  salvage_busy_ = true;
  obs::SpanScope span(trc_, ctx, "mgr", "mr_salvage", obs::Tracer::kServerPid,
                      mgr_tid_);
  for (unsigned p = 0; p < env_.num_workers; p++) {
    CrMrRing& r = RingAt(p, dead);
    while (r.tail() < r.head() && !stop_) {
      // Crash-stop parks at the MR loop top, where pop_cursor == tail on
      // every inbound ring: the stranded work is exactly [tail, head).
      co_await MrProcessSlot(ctx, p, dead, r.tail());
      salvaged_slots_++;
    }
    workers_[dead].pop_cursor[p] = r.tail();
  }
  // Rebuild the dead worker's readiness mask from its resynced cursors with
  // no suspension in between: a stale set bit would wedge its restart sweep.
  RebuildMrReady(dead);
  salvage_busy_ = false;
}

void MuTpsServer::RebuildMrReady(unsigned c) {
  mr_ready_[c] = 0;
  for (unsigned p = 0; p < env_.num_workers; p++) {
    if (workers_[c].pop_cursor[p] < RingAt(p, c).head()) {
      mr_ready_[c] |= 1u << p;
    }
  }
}

// =========================================================================
// Manager: hot-set refresh + auto-tuner (§3.5).
// =========================================================================

Fiber MuTpsServer::ManagerMain() {
  ExecCtx& ctx = mgr_ctx_;
  // Build the first hot set early so warm-up converges quickly.
  co_await ctx.Delay(opt_.refresh_period_ns / 4);
  while (!stop_) {
    co_await RefreshHotSet(cache_k_, /*force=*/false);
    if (stop_) {
      break;
    }
    if (pending_ncr_request_ != 0 && pending_ncr_request_ != cfg_.ncr) {
      const unsigned req = pending_ncr_request_;
      pending_ncr_request_ = 0;
      co_await Reconfigure(req);
    }
    const double mops = co_await MeasureWindow();
    const bool drifted =
        ewma_mops_ > 0.0 &&
        (mops < ewma_mops_ * (1.0 - opt_.retune_drift) ||
         mops > ewma_mops_ * (1.0 + opt_.retune_drift));
    if (opt_.autotune && (!tuned_once_ || drifted)) {
      co_await Autotune();
      tuned_once_ = true;
    } else {
      ewma_mops_ = ewma_mops_ == 0.0 ? mops : 0.7 * ewma_mops_ + 0.3 * mops;
    }
    co_await ctx.Delay(opt_.refresh_period_ns);
  }
}

Task<void> MuTpsServer::RefreshHotSet(uint32_t k, bool force) {
  ExecCtx& ctx = mgr_ctx_;
  obs::SpanScope span(trc_, ctx, "mgr", "refresh_hotset",
                      obs::Tracer::kServerPid, mgr_tid_);
  const uint32_t samples = hot_->DrainSamples();
  // Sketch/top-K maintenance cost on the management core.
  co_await ctx.Delay(100 + samples * 25ull);
  // Epoch-switch safety: the inactive buffer may only be rebuilt once every
  // worker has acked the published epoch (otherwise a CR worker could still
  // be reading the buffer we are about to clear).
  UTPS_DCHECK(stop_ || hot_->AllWorkersAt(hot_->epoch()));
  // A drain-only period (the set is full and not yet due to age) ends here.
  const uint32_t target = std::min(k, HotSetManager::kMaxHot);
  if (!hot_->Refresh(target, force, [this](Key key) {
        return env_.index->GetDirect(key);
      })) {
    co_return;
  }
  min_cache_items_ = std::min(min_cache_items_, hot_->ActiveCount());
  if (trc_ != nullptr) {
    trc_->Counter("hotset_published", obs::Tracer::kServerPid, ctx.Now(),
                  hot_->ActiveCount());
    trc_->Counter("hotset_target", obs::Tracer::kServerPid, ctx.Now(), target);
  }
  co_await ctx.Delay(2 * sim::kUsec + uint64_t{k} * 40);
  // Epoch switch: wait until all workers observed the new epoch (they are
  // never blocked; this only orders buffer reuse).
  while (!hot_->AllWorkersAt(hot_->epoch()) && !stop_) {
    co_await ctx.Delay(2 * sim::kUsec);
  }
}

Task<void> MuTpsServer::Reconfigure(unsigned new_ncr) {
  ExecCtx& ctx = mgr_ctx_;
  new_ncr = std::max(1u, std::min(new_ncr, env_.num_workers - 1));
  if (new_ncr == cfg_.ncr) {
    co_return;
  }
  obs::SpanScope span(trc_, ctx, "mgr", "reconfigure", obs::Tracer::kServerPid,
                      mgr_tid_);
  cfg_ = Config{new_ncr, cfg_.ncr, rx_->fill_seq(), cfg_.version + 1};
  reconfig_count_++;
  if (trc_ != nullptr) {
    // Instant marker: makes thread-split changes visible as vertical lines.
    trc_->Instant("mgr", "thread_split_switch", obs::Tracer::kServerPid,
                  mgr_tid_, ctx.Now());
  }
  // Wait for every worker to acknowledge the new split before returning, so
  // the next publish finds them all at this version (request processing
  // continues throughout).
  if (mut::PublishWithoutAcks()) {
    co_return;
  }
  while (!stop_ && !SplitSettled()) {
    co_await ctx.Delay(5 * sim::kUsec);
  }
}

bool MuTpsServer::SplitSettled() const {
  return std::all_of(workers_.begin(), workers_.end(), [this](const Worker& w) {
    return w.acked_version == cfg_.version;
  });
}

Task<double> MuTpsServer::MeasureWindow() {
  ExecCtx& ctx = mgr_ctx_;
  obs::SpanScope span(trc_, ctx, "mgr", "measure_window",
                      obs::Tracer::kServerPid, mgr_tid_);
  // Counted across ResetStats, which a harness may call mid-window.
  const uint64_t base = ops_before_reset_ + OpsCompleted();
  const Tick t0 = ctx.eng->now();
  co_await ctx.Delay(opt_.tune_window_ns);
  const uint64_t delta = ops_before_reset_ + OpsCompleted() - base;
  const Tick dt = ctx.eng->now() - t0;
  co_return dt == 0 ? 0.0 : static_cast<double>(delta) * 1000.0 /
                                static_cast<double>(dt);
}

Task<double> MuTpsServer::MeasureSplit(unsigned ncr) {
  co_await Reconfigure(ncr);
  co_await mgr_ctx_.Delay(opt_.tune_window_ns / 2);  // settle
  co_return co_await MeasureWindow();
}

void MuTpsServer::SetMrWays(unsigned ways) {
  const unsigned total_ways = env_.mem->config().llc_ways;
  env_.mem->SetClosMask(kMrClos, ((1u << ways) - 1) << (total_ways - ways));
  mr_ways_ = ways;
}

Task<double> MuTpsServer::MeasureMrWays(unsigned ways) {
  SetMrWays(ways);
  co_await mgr_ctx_.Delay(opt_.tune_window_ns / 2);  // settle
  co_return co_await MeasureWindow();
}

Task<unsigned> MuTpsServer::Trisect(unsigned lo, unsigned hi,
                                    Task<double> (MuTpsServer::*measure)(
                                        unsigned),
                                    double* best_out) {
  // Trisection over the (empirically convex) throughput curve, then a linear
  // pass over the last two or three settings.
  while (hi - lo > 2) {
    const unsigned m1 = lo + (hi - lo) / 3;
    const unsigned m2 = hi - (hi - lo) / 3;
    const double p1 = co_await (this->*measure)(m1);
    const double p2 = co_await (this->*measure)(m2);
    if (p1 < p2) {
      lo = m1 + 1;
    } else {
      hi = m2;
    }
  }
  double best = -1.0;
  unsigned best_x = lo;
  for (unsigned x = lo; x <= hi; x++) {
    const double p = co_await (this->*measure)(x);
    if (p > best) {
      best = p;
      best_x = x;
    }
  }
  if (best_out != nullptr) {
    *best_out = best;
  }
  co_return best_x;
}

Task<void> MuTpsServer::Autotune() {
  obs::SpanScope span(trc_, mgr_ctx_, "mgr", "autotune",
                      obs::Tracer::kServerPid, mgr_tid_);
  double best = -1.0;
  uint32_t best_k = cache_k_;
  unsigned best_ncr = cfg_.ncr;
  // Hierarchical search (§3.5): linear probe over cache sizes; for each,
  // trisect the thread split.
  for (uint32_t k : opt_.cache_sizes) {
    co_await RefreshHotSet(k, /*force=*/true);
    double m = 0.0;
    unsigned ncr = 0;
    {
      obs::SpanScope span(trc_, mgr_ctx_, "mgr", "trisect_threads",
                          obs::Tracer::kServerPid, mgr_tid_);
      ncr = co_await Trisect(1, env_.num_workers - 1,
                             &MuTpsServer::MeasureSplit, &m);
    }
    if (m > best) {
      best = m;
      best_k = k;
      best_ncr = ncr;
    }
  }
  cache_k_ = best_k;
  co_await RefreshHotSet(best_k, /*force=*/true);
  // The probes ranked the whole pass's samples; the next aging interval
  // starts from the pick.
  hot_->Age();
  co_await Reconfigure(best_ncr);
  if (opt_.tune_llc) {
    // The pick is applied without another window.
    obs::SpanScope span(trc_, mgr_ctx_, "mgr", "tune_llc",
                        obs::Tracer::kServerPid, mgr_tid_);
    SetMrWays(co_await Trisect(1, env_.mem->config().llc_ways,
                               &MuTpsServer::MeasureMrWays, nullptr));
  }
  ewma_mops_ = co_await MeasureWindow();
}

bool MuTpsServer::Idle() const {
  if (!rx_->Idle()) {
    return false;
  }
  for (const CrMrRing& r : rings_) {
    if (!r.AuditQuiesced()) {
      return false;
    }
  }
  for (const Worker& w : workers_) {
    if (w.outstanding != 0) {
      return false;
    }
    for (const Worker::Staging& st : w.staging) {
      if (!st.Empty()) {
        return false;
      }
    }
  }
  return SplitSettled();
}

bool MuTpsServer::AuditQuiesced(std::string* err) const {
  const unsigned w = env_.num_workers;
  auto fail = [&](std::string msg) {
    if (err != nullptr) {
      *err = "mutps: " + std::move(msg) + " (split v" +
             std::to_string(cfg_.version) + ": ncr=" +
             std::to_string(cfg_.ncr) + " switch_seq=" +
             std::to_string(cfg_.switch_seq) + ")";
      for (unsigned i = 0; i < w; i++) {
        const Worker& wk = workers_[i];
        uint64_t staged = 0;
        for (const Worker::Staging& st : wk.staging) {
          staged += st.Size();
        }
        *err += "\n  w" + std::to_string(i) + (wk.is_cr ? " CR" : " MR") +
                " acked=v" + std::to_string(wk.acked_version) +
                " next_seq=" + std::to_string(wk.next_seq) +
                " outstanding=" + std::to_string(wk.outstanding) +
                " staged=" + std::to_string(staged);
      }
    }
    return false;
  };
  if (flush_races_ != 0) {
    return fail(std::to_string(flush_races_) +
                " staging flushes started while another was in flight");
  }
  for (unsigned p = 0; p < w; p++) {
    for (unsigned c = 0; c < w; c++) {
      const CrMrRing& r = rings_[size_t{p} * w + c];
      if (!r.AuditQuiesced()) {
        return fail("ring (" + std::to_string(p) + "," + std::to_string(c) +
                    ") head=" + std::to_string(r.head()) +
                    " tail=" + std::to_string(r.tail()) + " at quiesce");
      }
    }
  }
  // The handshake invariant: every worker has acknowledged the published
  // split, holds the role it assigns, and keeps no staged or forwarded work.
  for (unsigned i = 0; i < w; i++) {
    const Worker& wk = workers_[i];
    const std::string who = "worker " + std::to_string(i);
    if (wk.acked_version != cfg_.version) {
      return fail(who + " has not acknowledged the published split");
    }
    if (wk.is_cr != (i < cfg_.ncr)) {
      return fail(who + " holds the wrong role for the published split");
    }
    for (const Worker::Staging& st : wk.staging) {
      if (!st.Empty()) {
        return fail(who + " has " + std::to_string(st.Size()) +
                    " staged descriptors at quiesce");
      }
    }
    if (wk.outstanding != 0) {
      return fail(who + " has " + std::to_string(wk.outstanding) +
                  " uncompleted forwarded requests at quiesce");
    }
    // Every held response region is released when its response is sent.
    if (const uint32_t held = resp_bufs_[i]->HeldLines(); held != 0) {
      return fail(who + "'s response buffer still holds " +
                  std::to_string(held) + " lines at quiesce");
    }
  }
  return hot_->AuditEpochs(err);
}

}  // namespace utps
