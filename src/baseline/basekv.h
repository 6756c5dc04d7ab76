// BaseKV: the paper's run-to-completion baseline (§5.1). Identical plumbing
// to μTPS — reconfigurable RPC (single shared receive ring), batching, and
// prefetch-interleaved indexing — but every worker executes the whole request
// from poll to respond in one monolithic function, share-everything.
#ifndef UTPS_BASELINE_BASEKV_H_
#define UTPS_BASELINE_BASEKV_H_

#include <memory>
#include <vector>

#include "core/op_exec.h"
#include "core/server.h"
#include "net/resp_buf.h"
#include "net/rpc.h"
#include "sim/batch.h"

namespace utps {

class BaseKvServer final : public KvServer {
 public:
  explicit BaseKvServer(const ServerEnv& env) : env_(env) {
    rx_ = std::make_unique<RxRing>(env_.arena, RxRing::Config{});
    workers_.resize(env_.num_workers);
    for (unsigned i = 0; i < env_.num_workers; i++) {
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
    if (env_.wal != nullptr) {
      env_.wal->EnsureFlusher(env_.eng);
    }
  }
  void Stop() override { stop_ = true; }
  unsigned NumRings() const override { return 1; }
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
  const char* Name() const override { return "BaseKV"; }
  void ExportMetrics(obs::MetricsRegistry* m) const override {
    if (m == nullptr || env_.fault == nullptr) {
      return;  // gate on the injector: faultless output stays byte-identical
    }
    m->Count("basekv", "dedup_done", dedup_.dup_done());
    m->Count("basekv", "dedup_inflight", dedup_.dup_inflight());
  }
  DedupWindow* MutableDedup() override { return &dedup_; }

 private:
  struct Worker {
    sim::ExecCtx ctx;
    RespBuffer* resp = nullptr;
    uint64_t ops = 0;
  };

  sim::Fiber WorkerMain(unsigned idx);
  sim::Task<void> ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx);

  ServerEnv env_;
  std::unique_ptr<RxRing> rx_;
  std::vector<Worker> workers_;
  std::vector<std::unique_ptr<RespBuffer>> resp_bufs_;
  DedupWindow dedup_;  // at-most-once writes under retry (DESIGN.md §9)
  bool stop_ = false;
};

}  // namespace utps

#endif  // UTPS_BASELINE_BASEKV_H_
