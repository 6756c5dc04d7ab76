// Experiment harness: builds the simulated testbed (server machine, NIC,
// client machines), populates the store, runs a workload point, and reports
// paper-style metrics.
//
// A TestBed owns one populated database (items + index) and serves exactly
// one experiment point: TestBed::Run aborts when called a second time. A run
// writes to the store, the slab and the cache model, so a shared bed would
// hand each point whatever the one before it left behind; a fresh bed per
// point makes every point start from the same state. Per-run structures
// (engine, NIC, server rings, response buffers) live in a per-run arena.
#ifndef UTPS_HARNESS_EXPERIMENT_H_
#define UTPS_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/passive.h"
#include "baseline/rtc_server.h"
#include "core/mutps.h"
#include "core/server.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/sample.h"
#include "stats/histogram.h"
#include "stats/node_counters.h"
#include "stats/run_recorder.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace utps {

enum class SystemKind : uint8_t {
  kMuTps = 0,
  kBaseKv,
  kErpcKv,
  kRaceHash,
  kSherman,
};

inline const char* SystemName(SystemKind s) {
  switch (s) {
    case SystemKind::kMuTps:
      return "uTPS";
    case SystemKind::kBaseKv:
      return "BaseKV";
    case SystemKind::kErpcKv:
      return "eRPCKV";
    case SystemKind::kRaceHash:
      return "RaceHash";
    case SystemKind::kSherman:
      return "Sherman";
  }
  return "?";
}

struct ExperimentConfig {
  SystemKind system = SystemKind::kMuTps;
  WorkloadSpec workload;
  unsigned client_threads = 64;
  unsigned pipeline_depth = 4;
  sim::Tick warmup_ns = 4 * sim::kMsec;
  sim::Tick measure_ns = 4 * sim::kMsec;
  sim::Tick max_warmup_ns = 60 * sim::kMsec;  // cap while waiting for tuning
  uint64_t seed = 42;
  MuTpsServer::Options mutps;  // applies when system == kMuTps
  bool record_timeline = false;           // per-bucket throughput time series
  const WorkloadSpec* phase2 = nullptr;   // workload switch mid-run (Fig 14)
  sim::Tick phase2_at_ns = 0;
  sim::Tick phase2_extra_ns = 0;          // extra measure time after switch
  // Observability (all off by default; see obs/obs.h and DESIGN.md).
  obs::ObsConfig obs;
  // Fault injection (DESIGN.md §9). Disabled by default; a run with
  // fault.enabled() == false is byte-identical to a build without faults.
  // When enabled, clients of two-sided systems switch to rid-tagged
  // timeout/retry sends (RpcCall with a RetryPolicy) so the run survives drops.
  fault::FaultConfig fault;
  // fig15: also record a per-bucket P99 latency timeline (implies
  // record_timeline).
  bool record_latency_timeline = false;
  // Durability tier (DESIGN.md §10). Disabled by default; a run with
  // wal.enabled == false is byte-identical to a build without the WAL. When
  // enabled, servers log every PUT/DELETE and gate the ack per wal.mode —
  // the fig17 sweep compares sync vs group vs async commit.
  wal::WalConfig wal;
  // Kept only so that code which still assigns it (kvbench's audit test)
  // compiles. The simulator has one engine (DESIGN.md §11); TestBed::Run
  // checks that this stays 1.
  unsigned sim_threads = 1;
  // Sampled simulation (DESIGN.md §12). Disabled by default; a run with
  // sample.enabled == false is byte-identical to a build without sampling.
  // When enabled, the measurement interval alternates functional
  // fast-forward segments with seeded detailed windows, and throughput/tail
  // latency are extrapolated from the windows (est fields + CI95 in the
  // result). Incompatible with phase2 (the phase switch would race the
  // window plan).
  sim::SampleConfig sample;
};

// Bucket width of a run's throughput / P99 time series (single-node and
// cluster harnesses alike).
constexpr sim::Tick kTimelineBucketNs = 100 * sim::kUsec;

struct ExperimentResult {
  double mops = 0.0;
  uint64_t ops = 0;
  sim::Tick p50_ns = 0;
  sim::Tick p99_ns = 0;
  sim::Tick mean_ns = 0;
  // Cache behaviour (whole measurement window, server cores only).
  double llc_miss_rate = 0.0;
  double poll_miss_rate = 0.0;   // poll+parse+respond stages
  double index_miss_rate = 0.0;  // index+data stages
  // μTPS introspection.
  unsigned ncr = 0;
  unsigned nmr = 0;
  uint32_t cache_items = 0;   // hot set published at the window's end
  uint32_t cache_target = 0;  // the size the manager aims it at
  uint32_t cache_min_items = 0;  // smallest hot set active in the window
  unsigned mr_ways = 0;
  uint64_t reconfigs = 0;
  // Optional timelines (record_timeline, record_latency_timeline): every
  // completion of the run from tick 0, warm-up and drain included, in
  // buckets of timeline_bucket_ns (see stats/run_recorder.h). With both
  // recorded the two series have the same length.
  std::vector<double> timeline_mops;
  sim::Tick timeline_bucket_ns = 0;
  std::vector<sim::Tick> timeline_p99_ns;
  // Fault-tolerance outcome (all zero when cfg.fault is disabled).
  uint64_t retries = 0;           // client retransmits (attempts - 1)
  uint64_t failovers = 0;         // μTPS MR-worker failover events
  uint64_t salvaged_slots = 0;    // ring slots drained by the health probe
  uint64_t dedup_suppressed = 0;  // duplicate writes suppressed server-side
  fault::FaultCounters fault_counters;
  // Durability outcome (all zero when cfg.wal is disabled).
  wal::WalCounters wal_counters;
  // Observability outputs (populated only when the matching knob is on).
  obs::CycleReport cycles;       // per-op stage breakdown over the window
  std::string trace_file;        // path the Chrome trace JSON was written to
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
  uint64_t hot_hits = 0;         // μTPS CR hot-cache outcome counters
  uint64_t hot_misses = 0;
  std::string metrics_dump;      // MetricsRegistry::ToString() snapshot
  // Host-side simulator effort for the whole run (populate excluded): how
  // many engine events this point cost. wall-clock / sched_events is the
  // simulator's core speed metric (see bench/selfperf.cc).
  uint64_t sched_events = 0;
  // ScheduleAt calls that had to clamp a past deadline to now (release
  // builds; debug DCHECKs instead). Nonzero means a scheduling bug.
  uint64_t sched_clamps = 0;
  // Sampled-simulation outputs (sampled == cfg.sample.enabled). In sampled
  // mode `mops`/`p50_ns`/`p99_ns` are the extrapolated estimates (from the
  // detailed windows only) and est_mops_ci95 is the 95% confidence
  // half-width of the throughput estimate across windows.
  bool sampled = false;
  double est_mops = 0.0;
  double est_mops_ci95 = 0.0;
  uint64_t detail_windows = 0;   // windows that contributed measurements
  sim::Tick detail_ns = 0;       // total measured (in-window) virtual time
  // Host heap allocations performed during the measure phase (warmup and
  // populate excluded). Filled only when g_alloc_probe is installed; the
  // zero-allocation steady-state invariant (DESIGN.md §13) is enforced by
  // tests/alloc_regression_test against this value.
  uint64_t measure_allocs = 0;
  // Cluster outcome (src/cluster): per-node counters plus the final ring
  // epoch. Empty / zero for single-node experiments.
  std::vector<NodeCounters> node_counters;
  uint64_t ring_epoch = 0;
  uint64_t shard_migrations = 0;  // completed shard migrations, cluster-wide
};

// Writes what `rec` recorded into `res`: ops, mops over a window of
// `window_ns` (0.0 for an empty window), P50/P99/mean of the measured
// latencies and, when `rec` keeps them, the timeline series. Both harnesses
// report through it.
void FillRecorded(RunRecorder& rec, sim::Tick window_ns, ExperimentResult* res);

// Test hook: when non-null, called by TestBed::Run at the measure-phase
// boundaries; the difference lands in ExperimentResult::measure_allocs.
// tests/alloc_regression_test points this at its operator-new counter.
extern uint64_t (*g_alloc_probe)();

class TestBed {
 public:
  // `populate_spec` fixes the key count and per-key value sizing.
  TestBed(IndexType index_type, const WorkloadSpec& populate_spec,
          unsigned server_workers = 28,
          const sim::MachineConfig& machine = sim::MachineConfig{},
          const sim::NicConfig& nic = sim::NicConfig{}, uint64_t seed = 1);
  ~TestBed();

  // Runs one point; a bed runs once (UTPS_CHECKed).
  ExperimentResult Run(const ExperimentConfig& cfg);

  IndexType index_type() const { return index_type_; }
  unsigned server_workers() const { return server_workers_; }
  KvIndex* index() { return index_.get(); }
  sim::MemoryModel* mem() { return mem_.get(); }
  const WorkloadSpec& populate_spec() const { return populate_spec_; }

 private:
  void Populate();
  std::vector<std::unique_ptr<KvIndex>> BuildShards();
  std::vector<Item*> IndexedItems() const;

  IndexType index_type_;
  WorkloadSpec populate_spec_;
  unsigned server_workers_;
  sim::MachineConfig machine_;
  sim::NicConfig nic_cfg_;
  uint64_t seed_;
  bool ran_ = false;

  std::unique_ptr<sim::Arena> arena_;
  std::unique_ptr<sim::MemoryModel> mem_;
  std::unique_ptr<SlabAllocator> slab_;
  std::unique_ptr<KvIndex> index_;
};

}  // namespace utps

#endif  // UTPS_HARNESS_EXPERIMENT_H_
