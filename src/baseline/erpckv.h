// eRPCKV: BaseKV with its RPC module replaced by an eRPC-style RPC (per-
// worker receive queues; clients pick the worker by modding the key hash) and
// a share-nothing data layout: each worker owns a shard (its own index) and
// writes without per-item synchronization. Matches the paper's §5.1 baseline.
#ifndef UTPS_BASELINE_ERPCKV_H_
#define UTPS_BASELINE_ERPCKV_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/op_exec.h"
#include "core/server.h"
#include "net/resp_buf.h"
#include "net/rpc.h"
#include "sim/batch.h"

namespace utps {

class ErpcKvServer final : public KvServer {
 public:
  // `shards[i]` is worker i's private index; the constructor takes ownership
  // semantics from the caller (indices live as long as the experiment).
  ErpcKvServer(const ServerEnv& env, std::vector<KvIndex*> shards)
      : env_(env), shards_(std::move(shards)) {
    UTPS_CHECK(shards_.size() == env_.num_workers);
    // eRPC's tighter per-message software stack: slightly cheaper parse than
    // the single-SRQ reconfigurable RPC (see DESIGN.md).
    env_.parse_cpu_ns = env_.parse_cpu_ns > 4 ? env_.parse_cpu_ns - 4 : 1;
    // The default ring geometry, its slots split across the workers.
    RxRing::Config per_worker;
    per_worker.num_slots =
        std::max(64u, per_worker.num_slots / env_.num_workers);
    for (unsigned i = 0; i < env_.num_workers; i++) {
      rx_.push_back(std::make_unique<RxRing>(env_.arena, per_worker));
      workers_.push_back(Worker{});
      workers_[i].ctx = sim::ExecCtx{.eng = env_.eng, .mem = env_.mem,
                                     .core = static_cast<sim::CoreId>(i)};
      if (env_.obs != nullptr) {
        workers_[i].ctx.stage_ns = env_.obs->StageNs(i);
      }
      resp_bufs_.push_back(std::make_unique<RespBuffer>(env_.arena));
      workers_[i].resp = resp_bufs_.back().get();
    }
  }

  void Start() override {
    for (unsigned i = 0; i < env_.num_workers; i++) {
      if (env_.fault != nullptr) {
        workers_[i].ctx.slow_q8 = env_.fault->SlowPtr(i);
      }
      env_.eng->Spawn(WorkerMain(i));
    }
  }
  void Stop() override { stop_ = true; }
  unsigned NumRings() const override { return env_.num_workers; }
  unsigned RingForKey(Key key) const override {
    return static_cast<unsigned>(ShardOf(key, env_.num_workers));
  }
  uint64_t OpsCompleted() const override {
    uint64_t t = 0;
    for (const auto& w : workers_) {
      t += w.ops;
    }
    return t;
  }
  void ResetStats() override {
    for (auto& w : workers_) {
      w.ops = 0;
    }
  }
  const char* Name() const override { return "eRPCKV"; }
  void ExportMetrics(obs::MetricsRegistry* m) const override {
    if (m == nullptr || env_.fault == nullptr) {
      return;  // gate on the injector: faultless output stays byte-identical
    }
    m->Count("erpckv", "dedup_done", dedup_.dup_done());
    m->Count("erpckv", "dedup_inflight", dedup_.dup_inflight());
  }

  // Shard routing shared with the populator.
  static uint64_t ShardOf(Key key, unsigned n) { return Mix64(key) % n; }

 private:
  struct Worker {
    sim::ExecCtx ctx;
    RespBuffer* resp = nullptr;
    uint64_t ops = 0;
  };

  sim::Fiber WorkerMain(unsigned idx);
  sim::Task<void> ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx);

  ServerEnv env_;
  std::vector<KvIndex*> shards_;
  std::vector<std::unique_ptr<RxRing>> rx_;
  std::vector<Worker> workers_;
  std::vector<std::unique_ptr<RespBuffer>> resp_bufs_;
  DedupWindow dedup_;  // at-most-once writes under retry (DESIGN.md §9)
  bool stop_ = false;
};

}  // namespace utps

#endif  // UTPS_BASELINE_ERPCKV_H_
