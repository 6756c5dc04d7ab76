// Common server-side environment and the interface every KVS server
// implementation (μTPS, BaseKV, eRPCKV, passive baselines) exposes to the
// experiment harness.
#ifndef UTPS_CORE_SERVER_H_
#define UTPS_CORE_SERVER_H_

#include <cstdint>

#include "fault/fault.h"
#include "index/index.h"
#include "obs/obs.h"
#include "sim/arena.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "sim/nic.h"
#include "store/slab.h"
#include "wal/wal.h"

namespace utps {

// Shared plumbing owned by the experiment; servers borrow these.
struct ServerEnv {
  sim::Engine* eng = nullptr;
  sim::MemoryModel* mem = nullptr;
  sim::Nic* nic = nullptr;
  sim::Arena* arena = nullptr;
  SlabAllocator* slab = nullptr;
  KvIndex* index = nullptr;  // shared index (share-everything servers)
  unsigned num_workers = 28;
  // Observability bundle (null = everything disabled). Servers wire worker
  // contexts to its cycle-accounting arrays and emit tracer spans through it.
  obs::Observer* obs = nullptr;

  // Fault injector (null = no faults, byte-identical to a faultless build).
  // Servers consult IsCrashed() in worker loops, wire worker contexts to
  // SlowPtr(), and — for μTPS — run the manager health probe when set.
  fault::FaultInjector* fault = nullptr;

  // Write-ahead log (null = durability off, byte-identical to a WAL-free
  // build). Servers append applied PUT/DELETEs and hold each ack until the
  // record is durable per the commit mode; Start() spawns the log-writer.
  wal::WalManager* wal = nullptr;

  // Fixed per-request CPU costs (ns), identical across server systems.
  sim::Tick parse_cpu_ns = 30;
  sim::Tick respond_cpu_ns = 30;
};

class KvServer {
 public:
  virtual ~KvServer() = default;

  // Spawns worker fibers on the engine. Called once.
  virtual void Start() = 0;
  // Requests cooperative shutdown (workers exit their loops).
  virtual void Stop() = 0;

  // Which ring a client should address for `key` (share-nothing servers route
  // by key; single-ring servers return 0).
  virtual unsigned RingForKey(Key key) const {
    (void)key;
    return 0;
  }

  // Ops completed (responses sent) since Start.
  virtual uint64_t OpsCompleted() const = 0;
  virtual void ResetStats() {}

  // Snapshot server-internal counters into a metrics registry (called by the
  // harness at the end of the measurement window; no-op by default).
  virtual void ExportMetrics(obs::MetricsRegistry* m) const { (void)m; }

  // At-most-once dedup window, for WAL recovery to re-seed from logged
  // request ids. Null for servers without a retry-capable dedup path.
  virtual DedupWindow* MutableDedup() { return nullptr; }
};

}  // namespace utps

#endif  // UTPS_CORE_SERVER_H_
