// μTPS: the paper's thread architecture. Worker cores are split into a
// cache-resident (CR) layer and a memory-resident (MR) layer:
//
//  - CR workers (cores [0, ncr)) run the §3.2.3 FSM: poll the shared receive
//    ring (reconfigurable RPC), parse, serve hot keys from the epoch-switched
//    hot table, forward cold requests and every scan whole through the CR-MR
//    queue, and send responses (their own hits plus MR completions signalled
//    by tail-pointer advancement). A claimed slot's records parse, look up
//    and serve hot hits under sim::RunBatch, batch_size at a time; misses
//    are forwarded after each batch, one at a time. A PUT to a key the
//    worker forwarded a write to recently goes to the key's home MR worker
//    (DESIGN.md §2 "Write homes"); every other forward fills round-robin
//    batches over the MR set, each CR worker in an order of its own and
//    passing over an MR worker that is backed up.
//  - MR workers (cores [ncr, W)) pop descriptor batches from the CR-MR rings
//    and execute their index + data stages as a rolling batch: up to
//    batch_size descriptors interleave at memory stalls (batched indexing
//    with coroutines, §3.3), and a finished one's place goes to the next
//    descriptor, from the same ring slot or the next ready one. A slot's
//    completion is published in ring order once all its descriptors are
//    done (DESIGN.md §2 "Rolling MR batch").
//  - A manager fiber refreshes the hot set (count-min sketch + top-K + epoch
//    switch), monitors throughput in fixed windows, and runs the §3.5
//    auto-tuner: linear probe over cache sizes, trisection over the CR/MR
//    thread split, trisection over the LLC ways reused by the MR layer, all
//    without blocking request processing.
//
// Thread reassignment follows §3.5's predefined-slot protocol as one
// acknowledged handshake. The manager publishes version v = {ncr', switch_seq}
// and publishes v+1 only once every worker has acknowledged v, so a worker is
// always under v or v-1. Receive-ring slots with seq < switch_seq are
// processed under the old split and slots >= switch_seq under the new one.
// Each worker acknowledges v once, when it has fully switched:
//  - CR -> CR: its next claim is at or past switch_seq and its staged
//    batches are flushed;
//  - CR -> MR: as above, and its forwarded requests have all completed;
//  - MR -> MR: at once;
//  - MR -> CR: once every old CR worker has acknowledged v and its inbound
//    CR-MR rings are empty.
// No request is lost or processed twice.
#ifndef UTPS_CORE_MUTPS_H_
#define UTPS_CORE_MUTPS_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/crmr_queue.h"
#include "core/op_exec.h"
#include "core/server.h"
#include "hotset/hotset.h"
#include "net/resp_buf.h"
#include "net/rpc.h"
#include "obs/span.h"
#include "sim/batch.h"

namespace utps {

class MuTpsServer final : public KvServer {
 public:
  // Entries of a CR worker's direct-mapped table of recently forwarded PUT
  // keys (DESIGN.md §2 "Write homes"; the size was measured, not guessed). A
  // key's entry is Mix64(key) % kRecentPuts.
  static constexpr unsigned kRecentPuts = 128;
  static_assert((kRecentPuts & (kRecentPuts - 1)) == 0,
                "the table index masks the key hash");
  // Batches a CR worker may have in flight on its ring to an MR worker
  // before its round-robin batches pass that worker over (a quarter of the
  // ring; DESIGN.md §2 "Write homes", measured).
  static constexpr uint64_t kRrSkipSlots = CrMrRing::kNumSlots / 4;
  // The MR worker that round-robin cursor `rr` of CR worker `idx` names,
  // with MR workers [ncr, ncr + nmr). Each CR worker starts at its own MR
  // worker and walks the MR set at its own stride, coprime with nmr, so it
  // still visits every MR worker once in nmr batches. With one order for
  // all, CR workers that flush at the same pace fill batches for the same
  // MR worker at the same time and convoy (DESIGN.md §2 "Round-robin
  // order").
  static unsigned RrTarget(unsigned idx, unsigned rr, unsigned ncr,
                           unsigned nmr);

  struct Options {
    unsigned batch_size = 8;        // CR-MR batch size (and MR indexing
                                    // batch), at most CrMrRing::kMaxBatch
    unsigned initial_ncr = 0;       // 0 = num_workers / 3 heuristic
    uint32_t initial_cache_items = 8192;
    bool autotune = true;
    bool tune_llc = true;
    sim::Tick refresh_period_ns = 20 * sim::kMsec;
    sim::Tick tune_window_ns = 1 * sim::kMsec;
    double retune_drift = 0.25;     // retune when throughput drifts this much
    // Cache sizes probed by the hierarchical search (the paper linearly
    // probes 1K steps; benchmarks may use a coarser grid for speed).
    std::vector<uint32_t> cache_sizes = {0,    1000, 2000, 3000, 4000, 5000,
                                         6000, 7000, 8000, 9000, 10000};
    RxRing::Config rx;
  };

  MuTpsServer(const ServerEnv& env, const Options& opt);
  ~MuTpsServer() override = default;

  void Start() override;
  void Stop() override { stop_ = true; }
  uint64_t OpsCompleted() const override { return Sum(&Worker::ops); }
  void ResetStats() override;

  // Introspection for benchmarks (Figure 13).
  unsigned ncr() const { return cfg_.ncr; }
  unsigned nmr() const { return env_.num_workers - cfg_.ncr; }
  uint32_t cache_items() const { return hot_->ActiveCount(); }
  // The hot-set size the manager aims at (the tuner's pick, capped).
  uint32_t target_cache_items() const {
    return std::min(cache_k_, HotSetManager::kMaxHot);
  }
  // Hot sets published so far (one epoch each).
  uint64_t hotset_publishes() const { return hot_->epoch(); }
  // Smallest hot set the CR layer served from since ResetStats.
  uint32_t min_cache_items() const { return min_cache_items_; }
  unsigned mr_ways() const { return mr_ways_; }
  uint64_t reconfig_count() const { return reconfig_count_; }
  // Hot-cache effectiveness over the CR layer (cache-eligible requests only).
  uint64_t hot_hits() const { return Sum(&Worker::hot_hits); }
  uint64_t hot_misses() const { return Sum(&Worker::hot_misses); }
  // PUTs forwarded to their key's home MR worker (DESIGN.md §2 "Write
  // homes"), and item writes that found the item locked and backed off.
  uint64_t home_forwards() const { return Sum(&Worker::home_forwards); }
  uint64_t item_lock_spins() const;
  // Rolling MR batches (DESIGN.md §2 "Rolling MR batch"): ring slots an MR
  // worker started while an earlier slot of its was still running, slots
  // that finished while an earlier slot of the same ring was still running
  // (so their completion waited for it), and GETs and scans the MR layer
  // answered from the record's region because its RespBuffer had no free
  // region to hold.
  uint64_t slot_rolls() const { return Sum(&Worker::slot_rolls); }
  uint64_t held_publishes() const { return Sum(&Worker::held_publishes); }
  uint64_t resp_fallbacks() const { return Sum(&Worker::resp_fallbacks); }
  // The CR-MR ring from `producer` to `consumer` (global worker ids).
  const CrMrRing& ring(unsigned producer, unsigned consumer) const {
    return rings_[size_t{producer} * env_.num_workers + consumer];
  }
  // Fault-tolerance introspection (zero without an installed injector).
  uint64_t failover_count() const { return failover_count_; }
  uint64_t salvaged_slots() const { return salvaged_slots_; }
  uint64_t dedup_suppressed() const {
    return dedup_.dup_done() + dedup_.dup_inflight();
  }
  void ExportMetrics(obs::MetricsRegistry* m) const override;
  DedupWindow* MutableDedup() override { return &dedup_; }
  // True once the auto-tuner has completed its first search (always true when
  // auto-tuning is disabled) — the harness gates measurement on this.
  bool tuned() const { return tuned_once_ || !opt_.autotune; }

  // True once every worker has acknowledged the published thread split; the
  // manager publishes the next one only then.
  bool SplitSettled() const;

  // Manual thread split, applied at the manager's next hot-set refresh (the
  // DST harness uses it to reconfigure a running server).
  void RequestThreadSplit(unsigned ncr) { pending_ncr_request_ = ncr; }

  // True when no request is anywhere inside the server: every receive slot
  // is free (or an empty filling slot), every CR-MR ring is drained, no
  // worker holds staged or forwarded work, and the published split is
  // acknowledged. The DST harness runs until this holds before it stops the
  // server, so a late NIC duplicate is served rather than cut off mid-way.
  bool Idle() const;

  // Quiesce audit (DST harness): with all clients done and the engine idle,
  // every CR-MR ring must show head == tail, every worker must have
  // acknowledged the current split and hold the role it assigns, all staged
  // descriptors must be flushed, no forwarded request may be uncompleted, no
  // RespBuffer may still hold a region, and the hot-set epoch bookkeeping
  // must be consistent. Returns false with a description and a per-worker
  // state table in `err`.
  bool AuditQuiesced(std::string* err) const;

 private:
  // CR staging flush deadline.
  static constexpr sim::Tick kFlushTimeoutNs = 600;
  // LLC classes of service of the CR and MR workers (the auto-tuner sets
  // the MR class's way mask).
  static constexpr sim::ClosId kCrClos = 1;
  static constexpr sim::ClosId kMrClos = 2;

  struct Config {
    unsigned ncr = 1;
    unsigned prev_ncr = 1;  // ncr of version - 1
    uint64_t switch_seq = 0;
    uint64_t version = 0;
  };

  // Per-worker state.
  struct Worker {
    sim::ExecCtx ctx;
    RespBuffer* resp = nullptr;
    uint64_t ops = 0;
    uint64_t hot_hits = 0;           // CR: cache-eligible requests served hot
    uint64_t hot_misses = 0;         // CR: cache-eligible requests forwarded
    uint64_t home_forwards = 0;      // CR: PUTs forwarded to their key's home
    uint64_t slot_rolls = 0;         // MR: see slot_rolls()
    uint64_t held_publishes = 0;     // MR: see held_publishes()
    uint64_t resp_fallbacks = 0;     // MR: see resp_fallbacks()
    uint64_t peak_outstanding = 0;   // CR: high-water forwarded-not-completed
    uint64_t acked_version = 0;      // last split version acknowledged
    bool is_cr = false;              // role under acked_version
    // CR staging: per-target-MR pending descriptor batches.
    struct Staging {
      std::vector<CrMrDesc> descs;
      sim::Tick first_ns = 0;
      // Flushed prefix of descs. Flushes advance this cursor instead of
      // erasing from the front (per-flush memmove); storage is reclaimed
      // wholesale once everything staged has been consumed, so steady state
      // recycles the vector's capacity with no allocation.
      uint32_t consumed = 0;

      bool Empty() const { return consumed == descs.size(); }
      size_t Size() const { return descs.size() - consumed; }
      const CrMrDesc& Desc(unsigned i) const { return descs[consumed + i]; }
      void Consume(unsigned cnt) {
        consumed += cnt;
        if (consumed == descs.size()) {
          descs.clear();
          consumed = 0;
        }
      }
    };
    std::vector<Staging> staging;       // indexed by target worker id
    std::vector<uint64_t> seen_tail;    // CR: completion cursor per target ring
    std::vector<uint64_t> pop_cursor;   // MR: per producer ring read cursor
    // MR: per producer ring, the next slot whose completion is published;
    // it trails pop_cursor by the slots pulled and not yet published.
    std::vector<uint64_t> pub_cursor;
    // MR: descriptors of each pulled slot not yet finished, indexed
    // producer * kNumSlots + seq % kNumSlots, and (traced runs only) when
    // the slot was pulled, for its mr_batch span.
    std::vector<uint8_t> slot_left;
    std::vector<sim::Tick> slot_start;
    // MR: the rolling batch, kept here so entering MrRoll allocates nothing
    // beyond its own pooled frame.
    struct Roll {
      sim::BatchCtl ctl;
      sim::Task<void> tasks[CrMrRing::kMaxBatch];
      sim::Task<void> pull;              // an MrPull in flight, or empty
      uint32_t live = 0;                 // bit i: tasks[i] is running
      uint16_t owner[CrMrRing::kMaxBatch];  // tasks[i]'s slot_left index
      // The slot descriptors are started from: [next, count) are left.
      unsigned producer = 0;
      uint64_t seq = 0;
      unsigned next = 0;
      unsigned count = 0;
    } roll;
    uint64_t next_seq = 0;              // CR: next receive-ring sequence
    unsigned rr_next = 0;               // CR: round-robin MR target cursor
    // CR: kRecentPuts keys of recently forwarded PUTs, direct-mapped by key
    // hash, each stored as key + 1 (0 = empty). Modeled memory.
    Key* recent_puts = nullptr;
    uint64_t outstanding = 0;           // CR: forwarded, not yet completed
    // Fault tolerance: liveness counter bumped each MR loop iteration, and
    // the crash-stop park flag (set when the worker observes its injected
    // crash at the loop top — the point where pop_cursor == tail on every
    // inbound ring, which is the invariant ring salvage relies on).
    uint64_t heartbeat = 0;
    bool crash_parked = false;
    uint64_t hot_epoch_seen = 0;        // MR: last hot-set epoch acknowledged
    // CR: host-side summary of which target rings have batches in flight —
    // bit t set iff seen_tail[t] < RingAt(idx, t).head(). Pure bookkeeping
    // (no modeled state): lets CrPollCompletions visit exactly the rings the
    // full scan would, without walking all W of them. Rebuilt on CR entry.
    uint32_t cr_inflight = 0;
    bool flushing = false;  // CR: a CrFlushStaging is in progress
  };

  // A per-worker counter summed over the workers.
  uint64_t Sum(uint64_t Worker::*counter) const;
  // Puts the coroutine frames of the CR layer's slot batches and the MR
  // layer's rolling batches on the frame pool's free lists up front. The
  // batches' peak concurrency depends on how many workers run each role
  // with full slots, which a run may first reach after warm-up; steady state
  // must not allocate (DESIGN.md §13).
  void ReserveBatchFrames();
  sim::Fiber WorkerMain(unsigned idx);
  sim::Fiber ManagerMain();

  // Role bodies; return once the worker has acknowledged a split that moves
  // it to the other layer (or on stop).
  sim::Task<void> CrRun(unsigned idx);
  sim::Task<void> MrRun(unsigned idx);

  // CR helpers.
  // Serves a hot hit and returns true, or returns false having sent nothing
  // when `item` turns out retired (the request then takes the miss path).
  sim::Task<bool> CrServeHot(unsigned idx, Item* item, const RxRecord& rec,
                             uint64_t rx_seq, unsigned rec_idx);
  // A record's CR work up to the CR-MR queue: parse, dedup verdict, hot
  // lookup and hot serve. Sets *forward when the record is a miss for
  // CrForward. Runs batched; touches no CR-MR ring.
  sim::Task<void> CrFront(unsigned idx, uint64_t rx_seq, unsigned rec_idx,
                          bool* forward);
  // A miss's (or a scan's) descriptor and staging push to its MR target (a
  // recurring PUT's key home, else the round-robin batch), flushing the
  // target's staging once it holds batch_size descriptors. Runs serially.
  sim::Task<void> CrForward(unsigned idx, uint64_t rx_seq, unsigned rec_idx);
  sim::Task<void> CrFlushStaging(unsigned idx, unsigned target);
  sim::Task<void> CrPollCompletions(unsigned idx);
  // Sends hd's response and releases its region in `held_in`, the
  // RespBuffer that held it (a region outside that buffer is not released).
  void SendResponse(Worker& w, const CrMrHostDesc& hd, RespBuffer& held_in);
  // The response region receive record (rx_seq, rec_idx) owns: the fallback
  // when a RespBuffer has no free region.
  uint8_t* RecordRegion(uint64_t rx_seq, unsigned rec_idx) const;
  // A GET's value that outgrew hd.resp (`cap` bytes, maybe held in `buf`)
  // goes to the record's own region; releases the hold.
  uint8_t* SpillToRecord(RespBuffer& buf, const CrMrHostDesc& hd, uint32_t cap,
                         uint32_t len) const;

  // MR helpers. They take the execution context explicitly so the
  // manager-side health probe can substitute for a dead consumer (ring
  // salvage) with its own context; responses still go to the consumer's
  // RespBuffer, where the producer releases them.
  //
  // The rolling batch: runs `consumer`'s ready ring slots with up to
  // batch_size descriptors in flight, refilling from the next ready slot as
  // descriptors finish, and publishes each slot's tail in ring order once
  // its descriptors are done. It stops pulling slots when none is ready and
  // nothing runs, or, for the worker's own run (`salvage` false), once the
  // split version moves, the worker crash-stops or the server stops; then it
  // drains what it started and returns with every pulled slot published.
  sim::Task<void> MrRoll(sim::ExecCtx& ctx, unsigned consumer, bool salvage);
  // Pulls `consumer`'s round-robin-first ready slot into its Roll (modeled
  // head, slot header and descriptor reads). While descriptors run, MrRoll
  // runs it as one of the batch's coroutines.
  sim::Task<void> MrPull(sim::ExecCtx& ctx, unsigned consumer);
  // Acknowledges the current hot-set epoch for MR worker `idx` if it has not
  // yet (RefreshHotSet waits for every worker's acknowledgement).
  void MrAckHotEpoch(unsigned idx);
  // True while a slot `consumer` published has responses its producer has
  // not sent, so a region of consumer's RespBuffer is about to be freed.
  bool ReleasePending(unsigned consumer) const;
  sim::Task<void> MrProcessOne(sim::ExecCtx& ctx, unsigned consumer,
                               CrMrDesc d, CrMrHostDesc* hd);
  // Recomputes mr_ready_[c] from worker c's pop cursors; callers set the
  // cursors first.
  void RebuildMrReady(unsigned c);

  // Fault tolerance (§3.5 reassignment reused for failover; DESIGN.md §9).
  sim::Fiber HealthProbeMain();
  sim::Task<void> SalvageWorker(unsigned dead);

  // Manager / auto-tuner.
  // Drains the sample rings and publishes a hot set of min(k, kMaxHot) keys
  // when due (DESIGN.md §2 "Hot-set aging"); `force` publishes regardless
  // and does not age (the tuner's per-size probes).
  sim::Task<void> RefreshHotSet(uint32_t k, bool force);
  sim::Task<void> Reconfigure(unsigned new_ncr);
  sim::Task<double> MeasureWindow();
  // Settles and measures one thread split / one MR way count (the tuner's
  // two search dimensions); SetMrWays applies a way count without measuring.
  sim::Task<double> MeasureSplit(unsigned ncr);
  sim::Task<double> MeasureMrWays(unsigned ways);
  void SetMrWays(unsigned ways);
  // Searches [lo, hi] for the setting `measure` scores highest; stores its
  // Mops in *best_out when non-null. A member-function pointer, not a
  // std::function: a drift retune runs inside the measure window and must
  // not allocate.
  sim::Task<unsigned> Trisect(unsigned lo, unsigned hi,
                              sim::Task<double> (MuTpsServer::*measure)(
                                  unsigned),
                              double* best_out);
  sim::Task<void> Autotune();

  // CR layer size under the split `w` runs: the handshake keeps every worker
  // at the published version or the one before it.
  unsigned NcrOf(const Worker& w) const {
    return w.acked_version == cfg_.version ? cfg_.ncr : cfg_.prev_ncr;
  }

  // First sequence >= from with seq % n == residue.
  static uint64_t AlignSeq(uint64_t from, unsigned n, unsigned residue) {
    const uint64_t r = from % n;
    uint64_t s = from - r + residue;
    if (s < from) {
      s += n;
    }
    return s;
  }

  CrMrRing& RingAt(unsigned producer, unsigned consumer) {
    return rings_[size_t{producer} * env_.num_workers + consumer];
  }

  ServerEnv env_;
  Options opt_;
  std::unique_ptr<RxRing> rx_;
  std::vector<CrMrRing> rings_;  // W x W, addressed by global worker ids
  // Every ring's host companions, ring by ring: zero-filled and never
  // advised onto huge pages, so only the rings a split uses get pages.
  sim::Arena ring_host_;
  std::vector<Worker> workers_;
  // MR-side mirror of cr_inflight, indexed by CONSUMER (producers write it at
  // AdvanceHead time): bit p set iff workers_[c].pop_cursor[p] <
  // RingAt(p, c).head(). Valid while worker c runs MrRun (rebuilt on entry);
  // lets the MR sweep jump straight to the round-robin-first ready producer.
  std::vector<uint32_t> mr_ready_;
  std::vector<std::unique_ptr<RespBuffer>> resp_bufs_;
  uint8_t* record_regions_ = nullptr;  // one 8 KB region per rx record
  std::unique_ptr<HotSetManager> hot_;
  sim::ExecCtx mgr_ctx_;

  // Fault tolerance (inert without env_.fault). dead_mask_ bit i: worker i is
  // a confirmed-dead MR worker — CR routing skips it and the health probe
  // drains its rings until it restarts.
  DedupWindow dedup_;
  sim::ExecCtx probe_ctx_;
  std::vector<uint64_t> hb_seen_;   // heartbeat snapshot per worker (probe)
  uint32_t dead_mask_ = 0;
  bool salvage_busy_ = false;       // a salvage pass is mid-flight
  uint64_t failover_count_ = 0;
  uint64_t restore_count_ = 0;
  uint64_t salvaged_slots_ = 0;

  // Observability (null/empty when disabled; see ServerEnv::obs).
  obs::Tracer* trc_ = nullptr;
  uint32_t mgr_tid_ = 0;                   // tracer tid for the manager fiber
  std::vector<const char*> out_ctr_name_;  // interned per-CR counter names
  uint64_t peak_ring_occ_ = 0;
  // Staging flushes started while the same worker had one in flight (always
  // 0 while the forward phase runs serially; AuditQuiesced fails otherwise).
  uint64_t flush_races_ = 0;

  Config cfg_;  // current (latest published) configuration
  uint32_t cache_k_;
  uint32_t min_cache_items_ = 0;
  unsigned mr_ways_ = 0;
  uint64_t reconfig_count_ = 0;
  unsigned pending_ncr_request_ = 0;  // manual split request (0 = none)
  bool stop_ = false;

  // Throughput monitoring.
  uint64_t ops_before_reset_ = 0;  // completions zeroed by ResetStats
  double ewma_mops_ = 0.0;
  bool tuned_once_ = false;
};

}  // namespace utps

#endif  // UTPS_CORE_MUTPS_H_
