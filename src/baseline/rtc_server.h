// The paper's run-to-completion baselines (§5.1) as one server: a worker
// runs each request from poll to respond, batching a receive slot's requests
// with prefetch-interleaved indexing as μTPS does, but it cannot put stages
// on different cores. The constructor's shard list picks the layout:
//  - BaseKV (no shards): share-everything. One reconfigurable-RPC ring that
//    all workers share (worker i claims seq ≡ i mod n) and the shared index.
//  - eRPCKV (one shard per worker): eRPC-style per-worker receive queues
//    (clients pick the worker by key hash) and share-nothing data: each
//    worker owns a shard and writes it without per-item synchronization.
#ifndef UTPS_BASELINE_RTC_SERVER_H_
#define UTPS_BASELINE_RTC_SERVER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/server.h"
#include "net/resp_buf.h"
#include "net/rpc.h"
#include "sim/task.h"

namespace utps {

class RtcServer final : public KvServer {
 public:
  // `shards` empty: BaseKV. Otherwise `shards[i]` is worker i's private index
  // (eRPCKV); the caller keeps the shards alive as long as the server.
  explicit RtcServer(const ServerEnv& env, std::vector<KvIndex*> shards = {});

  void Start() override;
  void Stop() override { stop_ = true; }
  unsigned RingForKey(Key key) const override {
    return share_nothing_ ? ShardOf(key, env_.num_workers) : 0;
  }
  uint64_t OpsCompleted() const override;
  void ResetStats() override;
  void ExportMetrics(obs::MetricsRegistry* m) const override;
  DedupWindow* MutableDedup() override { return &dedup_; }

  // eRPCKV's shard routing, shared with the populators.
  static unsigned ShardOf(Key key, unsigned n) {
    return static_cast<unsigned>(Mix64(key) % n);
  }

 private:
  struct Worker {
    ServerEnv env;  // the server's, with this worker's index
    sim::ExecCtx ctx;
    RxRing* rx = nullptr;
    unsigned rx_id = 0;     // the NIC receive ring `rx` models
    uint64_t next_seq = 0;  // the next slot this worker claims
    std::unique_ptr<RespBuffer> resp;
    uint64_t ops = 0;
  };

  sim::Fiber WorkerMain(unsigned idx);
  sim::Task<void> ProcessOne(unsigned idx, uint64_t seq, unsigned rec_idx);

  ServerEnv env_;
  const bool share_nothing_;
  const char* const metrics_scope_;
  const sim::Tick poll_cpu_ns_;
  const unsigned seq_stride_;  // a worker's distance between claimed slots
  std::vector<std::unique_ptr<RxRing>> rings_;
  std::vector<Worker> workers_;
  DedupWindow dedup_;  // at-most-once writes under retry (DESIGN.md §9)
  bool stop_ = false;
};

}  // namespace utps

#endif  // UTPS_BASELINE_RTC_SERVER_H_
