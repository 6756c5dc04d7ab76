// kvbench: the end-to-end benchmark of the μTPS simulator (README.md beside
// this file lists the workloads and metrics).
//
// One process runs one workload. A workload compares two legs: the system
// under test ("sut") and a reference ("ref"). On the single-node workloads
// the sut is μTPS and the ref is BaseKV; on cluster-crowd both are the
// 8-node cluster, with and without its hotset rebalancer. Every leg gets a
// freshly populated TestBed (runs on a shared bed leak state into each
// other), runs one closed-loop window on the serial engine, and has its store
// audited afterwards. Host time is taken around the public calls into each
// layer from here; nothing inside the simulator is instrumented.
//
//   kvbench --workload NAME [--seed N] [--seconds S] [--traced DIR]
//           [--smoke] [--sha SHA]
//
// A run simulates a fixed number of rounds: as many as --seconds holds at the
// workload's nominal host cost per round, and at least one. Round 0 is seeded
// with --seed, every later round with the Mix64 of the round before, and the
// seed drives the TestBed and the clients. The simulated metrics are means
// over the rounds and a pure function of (workload, seed, seconds); the host
// times are medians over them. Averaging over several seeds matters because
// the simulated metrics of one seed repeat exactly, so what varies from one
// run to the next is the seed. --traced DIR runs one plain and one observed
// round on --seed and reports the per-layer metrics instead of the end-to-end
// ones. --smoke shrinks every workload to 16k keys and sub-millisecond
// windows.
//
// Output: "# ..." provenance lines, one "workload metric value unit" line per
// metric, and last one JSON object {correct, attempted, failed, metrics}
// holding the end-to-end (or, traced, the per-layer) metrics. The lines also
// carry unbounded context: latencies, wall_s and fail_frac. Units prefixed
// "sim_" are simulated time; "s" and "ns" are host time.
// Exit status: 0 = correct, 1 = a correctness check failed, 2 = bad usage or
// a build that cannot be timed.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "audit.h"
#include "cluster/harness.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "sim/cache.h"

extern char** environ;

namespace kvbench {
namespace {

using utps::ExperimentConfig;
using utps::ExperimentResult;
using utps::IndexType;
using utps::SystemKind;
using utps::TestBed;
using utps::WorkloadSpec;
using utps::sim::kMsec;
using utps::sim::kUsec;
using utps::sim::Tick;
using Clock = std::chrono::steady_clock;

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

constexpr unsigned kPipelineDepth = 16;
constexpr size_t kMaxSetups = 15;
constexpr size_t kMaxRounds = 16;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- workloads

enum class Kind { kSingleNode, kCluster };

struct Workload {
  std::string name;
  Kind kind = Kind::kSingleNode;
  IndexType index = IndexType::kHash;
  WorkloadSpec spec;  // on cluster-crowd: the clients' key and op mix
  unsigned client_threads = 64;
  bool sut_autotune = true;  // μTPS auto-tuner, as users run it
  bool sampled = false;      // fig16's sampled plan
  // Host seconds one round (set-up, both legs' Run calls and audits) takes
  // on a 4-vCPU Xeon VM; fixes how many rounds --seconds holds.
  double round_s = 0.0;
  Tick warmup_ns = 1 * kMsec;
  Tick measure_ns = 2 * kMsec;
  Tick max_warmup_ns = 25 * kMsec;  // cap while the tuner has not finished
  utps::cluster::ClusterBenchConfig cluster;
};

utps::cluster::ClusterBenchConfig CrowdConfig(bool smoke) {
  utps::cluster::ClusterBenchConfig c;
  c.cluster.nodes = 8;
  c.cluster.workers = 4;
  c.cluster.shards = 16;
  c.cluster.num_keys = 16384;
  c.cluster.value_size = 100;
  c.clients = 32;
  c.put_frac = 0.05;
  c.zipf_theta = 1.05;
  c.warmup_ns = 300 * kUsec;
  c.measure_ns = smoke ? 3 * kMsec : 100 * kMsec;
  c.hotshift_at_ns = c.warmup_ns + c.measure_ns / 3;
  c.record_timeline = true;  // for the post-warmup dip
  // fig19's flash-crowd rebalancer; the ref leg turns it off.
  c.cluster.rebalance_period_ns = 150 * kUsec;
  c.cluster.imbalance_factor = 1.8;
  c.cluster.rebalance_min_ops = 200;
  c.cluster.rebalance_cooldown_ns = 600 * kUsec;
  return c;
}

std::vector<Workload> Workloads(bool smoke) {
  // Smoke scale avoids key counts such as 20000, where BulkLoadDirect leaves
  // an internal node with one child that BTreeIndex::AuditDirect rejects.
  const uint64_t big = smoke ? 16'384 : 2'000'000;  // ≈5x the modeled LLC
  const uint64_t fit = smoke ? 16'384 : 200'000;    // fits in the LLC
  std::vector<Workload> ws;
  Workload w;
  w.name = "ycsb-a-tree";
  w.index = IndexType::kTree;
  w.spec = WorkloadSpec::YcsbA(big, 64);
  w.round_s = 7.2;
  ws.push_back(w);

  // The tuner sizes the hot cache to 0 items here at nearly every seed; at
  // the rare seed where it picks more, μTPS may stall, which the stall
  // accounting reports.
  w = Workload{};
  w.name = "get-uniform-fit";
  w.spec = WorkloadSpec::GetOnly(fit, 8, /*skewed=*/false);
  w.round_s = 5.6;
  ws.push_back(w);

  w = Workload{};
  w.name = "put-skew-hash";
  w.spec = WorkloadSpec::PutOnly(big, 64, /*skewed=*/true);
  w.round_s = 7.7;
  ws.push_back(w);

  // The auto-tuned μTPS-T completes no request on YCSB-E at 2M keys, at
  // every seed, so scan-tree keeps μTPS on its default split.
  w = Workload{};
  w.name = "scan-tree";
  w.index = IndexType::kTree;
  w.spec = WorkloadSpec::YcsbE(big, 64);
  w.sut_autotune = false;
  w.round_s = 2.8;
  ws.push_back(w);

  w = Workload{};
  w.name = "sampled-2048c";
  w.spec = WorkloadSpec::YcsbA(big, 64);
  w.client_threads = 128;
  w.sut_autotune = false;  // as fig16 runs it
  w.sampled = true;
  w.measure_ns = 10 * kMsec;
  w.round_s = 8.5;
  ws.push_back(w);

  w = Workload{};
  w.name = "cluster-crowd";
  w.kind = Kind::kCluster;
  w.cluster = CrowdConfig(smoke);
  w.spec = WorkloadSpec::YcsbB(w.cluster.cluster.num_keys,
                               w.cluster.cluster.value_size);
  w.spec.zipf_theta = w.cluster.zipf_theta;
  w.spec.get_ratio = 1.0 - w.cluster.put_frac;
  w.spec.put_ratio = w.cluster.put_frac;
  w.round_s = 2.4;
  ws.push_back(w);

  if (smoke) {
    for (Workload& s : ws) {
      s.client_threads = 8;
      s.warmup_ns = 100 * kUsec;
      s.measure_ns = s.sampled ? 1 * kMsec : 200 * kUsec;
      s.max_warmup_ns = 1 * kMsec;
    }
  }
  return ws;
}

ExperimentConfig SingleNodeConfig(const Workload& w, bool sut, uint64_t seed) {
  // Built field by field rather than from bench::StdConfig, which reads
  // MUTPS_* knobs from the environment.
  ExperimentConfig cfg;
  cfg.system = sut ? SystemKind::kMuTps : SystemKind::kBaseKv;
  cfg.workload = w.spec;
  cfg.client_threads = w.client_threads;
  cfg.pipeline_depth = kPipelineDepth;
  cfg.warmup_ns = w.warmup_ns;
  cfg.measure_ns = w.measure_ns;
  cfg.max_warmup_ns = w.max_warmup_ns;
  cfg.seed = seed;
  // StdConfig's quick hierarchical tune.
  cfg.mutps.autotune = w.sut_autotune;
  cfg.mutps.tune_llc = false;
  cfg.mutps.cache_sizes = {0, 4000, 8000};
  cfg.mutps.tune_window_ns = 150 * kUsec;
  cfg.mutps.refresh_period_ns = 2 * kMsec;
  if (w.sampled) {
    cfg.sample.enabled = true;
    cfg.sample.plan = utps::sim::SamplePlan::kPeriodic;
    cfg.sample.period_ns = 150 * kUsec;
    cfg.sample.window_ns = 50 * kUsec;
    cfg.sample.rewarm_ns = 20 * kUsec;
  }
  return cfg;
}

utps::cluster::ClusterBenchConfig ClusterConfig(const Workload& w, bool sut,
                                                uint64_t seed) {
  utps::cluster::ClusterBenchConfig cfg = w.cluster;
  cfg.cluster.seed = seed;
  if (!sut) {
    cfg.cluster.rebalance_period_ns = 0;
  }
  return cfg;
}

std::unique_ptr<TestBed> MakeBed(const Workload& w, uint64_t seed) {
  return std::make_unique<TestBed>(w.index, w.spec, 28,
                                   utps::sim::MachineConfig{},
                                   utps::sim::NicConfig{}, seed);
}

// ------------------------------------------------------------ host spans

// Host-time spans around the calls into each layer, kept in memory and
// written as a Chrome trace at the end of a traced run.
class HostSpans {
 public:
  template <class Fn>
  double Time(const std::string& name, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    spans_.push_back({name, Micros(t0 - origin_), Micros(t1 - t0)});
    return spans_.back().dur_us / 1e6;
  }

  // Durations of the spans named `name`, in seconds.
  std::vector<double> Seconds(const std::string& name) const {
    std::vector<double> s;
    for (const Span& sp : spans_) {
      if (sp.name == name) {
        s.push_back(sp.dur_us / 1e6);
      }
    }
    return s;
  }

  bool WriteChromeTrace(const std::string& path, unsigned pid,
                        const std::string& workload) const {
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n"
      << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"args\": {\"name\": \"kvbench " << workload << "\"}}";
    char buf[64];
    for (const Span& sp : spans_) {
      std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                    sp.start_us, sp.dur_us);
      f << ",\n  {\"name\": \"" << sp.name << "\", \"ph\": \"X\", \"pid\": "
        << pid << ", \"tid\": 0, " << buf << ", \"args\": {\"workload\": \""
        << workload << "\"}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double dur_us;
  };
  static double Micros(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------ legs

struct LegResult {
  ExperimentResult res;
  double run_s = 0.0;     // host seconds in the Run call
  double audit_s = 0.0;   // host seconds in the store audit
  uint64_t inflight = 0;  // requests outstanding when the window closes
  std::string error;      // first failed correctness check, "" if none
};

using Round = std::array<LegResult, 2>;  // [0] = sut, [1] = ref

const char* LegTag(int leg) { return leg == 0 ? "sut" : "ref"; }

LegResult RunSingleNodeLeg(const Workload& w, int leg, uint64_t seed,
                           const utps::obs::ObsConfig& obs,
                           HostSpans& spans) {
  const std::string tag = LegTag(leg);
  std::unique_ptr<TestBed> bed;
  spans.Time("setup", [&] { bed = MakeBed(w, seed); });
  ExperimentConfig cfg = SingleNodeConfig(w, leg == 0, seed);
  cfg.obs = obs;
  LegResult r;
  r.inflight = uint64_t{cfg.client_threads} * cfg.pipeline_depth;
  r.run_s = spans.Time("run." + tag, [&] { r.res = bed->Run(cfg); });
  r.audit_s = spans.Time("audit." + tag,
                         [&] { r.error = AuditStore(*bed->index(), w.spec); });
  if (r.error.empty() && r.res.sched_clamps != 0) {
    r.error = std::to_string(r.res.sched_clamps) +
              " events scheduled in the past (sched_clamps)";
  }
  return r;
}

LegResult RunClusterLeg(const Workload& w, int leg, uint64_t seed,
                        HostSpans& spans) {
  const std::string tag = LegTag(leg);
  const utps::cluster::ClusterBenchConfig cfg =
      ClusterConfig(w, leg == 0, seed);
  LegResult r;
  r.inflight = cfg.clients;
  r.run_s = spans.Time("run." + tag, [&] {
    r.res = utps::cluster::RunClusterExperiment(cfg);
  });
  r.audit_s = spans.Time("audit." + tag, [&] {
    if (r.res.ops == 0) {
      r.error = "the cluster completed no request";
    }
    for (size_t n = 0; n < r.res.node_counters.size(); n++) {
      const utps::NodeCounters& c = r.res.node_counters[n];
      if ((c.crashed || c.fenced) && r.error.empty()) {
        r.error = "node " + std::to_string(n) + " crashed or fenced";
      }
    }
  });
  return r;
}

Round RunRound(const Workload& w, uint64_t seed, bool observed,
               const std::string& trace_dir, HostSpans& spans) {
  Round round;
  for (int leg = 0; leg < 2; leg++) {
    if (w.kind == Kind::kCluster) {
      // The cluster harness has no observability hooks: its observed round
      // is a plain rerun.
      round[leg] = RunClusterLeg(w, leg, seed, spans);
      continue;
    }
    utps::obs::ObsConfig obs;
    if (observed) {
      obs.metrics = true;
      obs.cycle_accounting = true;
      // A tuner search still suspended inside an obs::SpanScope when Run
      // returns reads the freed server as the engine tears down, so only
      // untuned μTPS runs are traced. The tracer keeps the first events: the
      // run's start, not its window.
      if (leg == 0 && !w.sut_autotune) {
        obs.trace = true;
        obs.trace_path = trace_dir + "/" + w.name + ".sut.trace.json";
        obs.max_trace_events = 1u << 18;
      }
    }
    round[leg] = RunSingleNodeLeg(w, leg, seed, obs, spans);
  }
  return round;
}

// A set-up-only TestBed construction, or a zero-window cluster run.
void SetupOnly(const Workload& w, uint64_t seed, HostSpans& spans) {
  if (w.kind == Kind::kCluster) {
    utps::cluster::ClusterBenchConfig cfg = ClusterConfig(w, true, seed);
    cfg.warmup_ns = 0;
    cfg.measure_ns = 0;
    cfg.hotshift_at_ns = 0;
    cfg.record_timeline = false;
    spans.Time("setup", [&] { utps::cluster::RunClusterExperiment(cfg); });
    return;
  }
  std::unique_ptr<TestBed> bed;
  spans.Time("setup", [&] { bed = MakeBed(w, seed); });
}

// Rounds a plain run makes: as many as fit in `seconds` at the workload's
// nominal cost, so the count, and with it the simulated metrics, does not
// depend on how fast this host happens to be.
size_t RoundsFor(const Workload& w, double seconds) {
  return static_cast<size_t>(std::clamp(seconds / w.round_s, 1.0,
                                        static_cast<double>(kMaxRounds)));
}

// The simulated outcome that must repeat exactly for a (workload, seed).
bool SameSimulation(const Round& a, const Round& b) {
  for (int leg = 0; leg < 2; leg++) {
    const ExperimentResult& x = a[leg].res;
    const ExperimentResult& y = b[leg].res;
    if (x.ops != y.ops || x.mops != y.mops || x.p50_ns != y.p50_ns ||
        x.p99_ns != y.p99_ns || x.sched_events != y.sched_events ||
        x.shard_migrations != y.shard_migrations) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// "component.name = value" lines of a MetricsRegistry dump (machine-wide
// entries only).
std::map<std::string, double> ParseMetricsDump(const std::string& dump) {
  std::map<std::string, double> m;
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    const size_t eq = line.find(" = ");
    if (eq != std::string::npos && line.find('[') == std::string::npos) {
      m[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 3, nullptr);
    }
  }
  return m;
}

struct Probes {
  double cache_access_ns = 0.0;
  double index_get_ns = 0.0;
  double workload_next_ns = 0.0;
};

// A leg that completes nothing has its latencies censored at the window
// length: a lower bound, so a later fix never reads as a latency regression.
double LatencyUs(const Workload& w, const LegResult& l, Tick ns) {
  const Tick window =
      w.kind == Kind::kCluster ? w.cluster.measure_ns : w.measure_ns;
  return static_cast<double>(l.res.ops == 0 ? window : ns) / 1e3;
}

void AddLatencies(const Workload& w, int leg, const LegResult& l,
                  std::vector<Metric>* out) {
  const std::string p = std::string(LegTag(leg)) + ".";
  out->push_back({p + "p50_us", LatencyUs(w, l, l.res.p50_ns), "sim_us"});
  out->push_back({p + "p99_us", LatencyUs(w, l, l.res.p99_ns), "sim_us"});
}

void AddLegLayers(const Workload& w, int leg, const LegResult& l,
                  std::vector<Metric>* out) {
  const std::string p = std::string(LegTag(leg)) + ".";
  const ExperimentResult& res = l.res;
  const double ops = static_cast<double>(res.ops);
  const double events = static_cast<double>(res.sched_events);
  AddLatencies(w, leg, l, out);
  // Events of the whole Run call (warmup and tuning included) per op
  // measured in the window.
  out->push_back({p + "engine.events_per_op", Ratio(events, ops), "count"});
  out->push_back(
      {p + "engine.ns_per_event", Ratio(l.run_s * 1e9, events), "ns"});

  // Cache, NIC and stage figures exist only for the single-node server; the
  // cache and stage counters cover the measure window, the NIC's the Run up
  // to the window's end.
  std::map<std::string, double> m = ParseMetricsDump(res.metrics_dump);
  const double server_ops =
      res.cycles.valid ? static_cast<double>(res.cycles.ops) : ops;
  const double requests = m["nic.rx_messages"];
  out->push_back({p + "cache.accesses_per_op",
                  Ratio(m["cache.accesses"], server_ops), "count"});
  out->push_back({p + "cache.llc_miss_rate", res.llc_miss_rate, "fraction"});
  out->push_back(
      {p + "cache.net_miss_rate", res.poll_miss_rate, "fraction"});
  out->push_back(
      {p + "cache.index_miss_rate", res.index_miss_rate, "fraction"});
  out->push_back({p + "nic.msgs_per_op",
                  Ratio(m["nic.rx_messages"] + m["nic.tx_messages"], requests),
                  "count"});
  out->push_back({p + "nic.bytes_per_op",
                  Ratio(m["nic.rx_bytes"] + m["nic.tx_bytes"], requests),
                  "B"});
  out->push_back(
      {p + "nic.peak_ring_depth", m["nic.peak_ring_depth"], "count"});
  static const struct {
    const char* name;
    utps::sim::Stage stage;
  } kStages[] = {
      {"poll", utps::sim::Stage::kPoll},
      {"parse", utps::sim::Stage::kParse},
      {"cache_check", utps::sim::Stage::kCacheCheck},
      {"index", utps::sim::Stage::kIndex},
      {"data", utps::sim::Stage::kData},
      {"respond", utps::sim::Stage::kRespond},
      {"queue", utps::sim::Stage::kQueue},
      {"idle", utps::sim::Stage::kIdle},
  };
  for (const auto& s : kStages) {
    out->push_back({p + "stage." + s.name + "_ns",
                    res.cycles.ns_per_op[static_cast<unsigned>(s.stage)],
                    "sim_ns"});
  }
  out->push_back({p + "stage.busy_ns", res.cycles.busy_ns_per_op, "sim_ns"});

  out->push_back({p + "sample.windows",
                  static_cast<double>(res.detail_windows), "count"});
  out->push_back({p + "sample.ci95_rel",
                  Ratio(res.est_mops_ci95, res.est_mops), "fraction"});

  uint64_t not_owner = 0;
  uint64_t repl = 0;
  for (const utps::NodeCounters& c : res.node_counters) {
    not_owner += c.not_owner;
    repl += c.repl_applied;
  }
  out->push_back({p + "cluster.migrations",
                  static_cast<double>(res.shard_migrations), "count"});
  out->push_back({p + "cluster.not_owner_per_kop",
                  Ratio(1e3 * static_cast<double>(not_owner), ops), "count"});
  out->push_back({p + "cluster.retries_per_kop",
                  Ratio(1e3 * static_cast<double>(res.retries), ops),
                  "count"});
  out->push_back({p + "cluster.repl_per_op",
                  Ratio(static_cast<double>(repl), ops), "count"});
  // Lowest 100 us throughput bucket lying wholly inside the window.
  double dip = 0.0;
  if (w.kind == Kind::kCluster && res.timeline_bucket_ns > 0) {
    const Tick b = res.timeline_bucket_ns;
    const size_t first = (w.cluster.warmup_ns + b - 1) / b;
    const size_t last = (w.cluster.warmup_ns + w.cluster.measure_ns) / b;
    for (size_t i = first; i < last && i < res.timeline_mops.size(); i++) {
      dip = i == first ? res.timeline_mops[i]
                       : std::min(dip, res.timeline_mops[i]);
    }
  }
  out->push_back({p + "cluster.dip_mops", dip, "Mops"});
}

std::vector<Metric> LayerMetrics(const Workload& w, const Round& plain,
                                 const Round& observed, const Probes& probes) {
  std::vector<Metric> out;
  for (int leg = 0; leg < 2; leg++) {
    AddLegLayers(w, leg, observed[leg], &out);
  }
  const ExperimentResult& sut = observed[0].res;
  out.push_back({"sut.core.ncr", static_cast<double>(sut.ncr), "count"});
  out.push_back({"sut.core.nmr", static_cast<double>(sut.nmr), "count"});
  out.push_back(
      {"sut.core.cache_items", static_cast<double>(sut.cache_items), "count"});
  out.push_back(
      {"sut.core.mr_ways", static_cast<double>(sut.mr_ways), "count"});
  out.push_back(
      {"sut.core.reconfigs", static_cast<double>(sut.reconfigs), "count"});
  out.push_back({"sut.hotset.hit_ratio",
                 Ratio(static_cast<double>(sut.hot_hits),
                       static_cast<double>(sut.hot_hits + sut.hot_misses)),
                 "fraction"});
  out.push_back({"cache.access_host_ns", probes.cache_access_ns, "ns"});
  out.push_back({"index.get_direct_host_ns", probes.index_get_ns, "ns"});
  out.push_back({"workload.next_host_ns", probes.workload_next_ns, "ns"});
  out.push_back({"harness.run_s.sut", plain[0].run_s, "s"});
  out.push_back({"harness.run_s.ref", plain[1].run_s, "s"});
  out.push_back(
      {"harness.audit_s", plain[0].audit_s + plain[1].audit_s, "s"});
  out.push_back({"obs.overhead_frac",
                 Ratio(observed[0].run_s + observed[1].run_s,
                       plain[0].run_s + plain[1].run_s) -
                     1.0,
                 "fraction"});
  return out;
}

// --------------------------------------------------------------- probes

// Median host ns per call of `body` over five timed batches of `n` calls.
template <class Body>
double NsPerCall(size_t n, Body&& body) {
  std::vector<double> per;
  for (int r = 0; r < 5; r++) {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; i++) {
      body(i);
    }
    per.push_back(SecondsSince(t0) * 1e9 / static_cast<double>(n));
  }
  return Median(per);
}

// Host cost of one call into three layers, on the workload's own request
// stream: WorkloadGenerator::Next, KvIndex::GetDirect on the drawn keys, and
// MemoryModel::Access on the items they locate, from every server core.
Probes RunProbes(const Workload& w, uint64_t seed, size_t calls,
                 HostSpans& spans) {
  Probes p;
  std::unique_ptr<TestBed> bed;
  spans.Time("probe.populate", [&] { bed = MakeBed(w, seed); });
  std::vector<utps::Op> ops(calls);
  spans.Time("probe.workload", [&] {
    utps::WorkloadGenerator gen(w.spec, seed);
    p.workload_next_ns =
        NsPerCall(calls, [&](size_t i) { ops[i] = gen.Next(); });
  });
  std::vector<const utps::Item*> items(calls);
  spans.Time("probe.index", [&] {
    const utps::KvIndex& index = *bed->index();
    p.index_get_ns = NsPerCall(
        calls, [&](size_t i) { items[i] = index.GetDirect(ops[i].key); });
  });
  spans.Time("probe.cache", [&] {
    utps::sim::MemoryModel mem{utps::sim::MachineConfig{}};
    volatile Tick sink = 0;
    p.cache_access_ns = NsPerCall(calls, [&](size_t i) {
      sink = sink + mem.Access(static_cast<utps::sim::CoreId>(i % 28), 0,
                               utps::sim::Stage::kData, items[i],
                               sizeof(utps::Item) + items[i]->value_len,
                               ops[i].type == utps::OpType::kPut)
                        .latency;
    });
  });
  return p;
}

// ----------------------------------------------------------------- output

// Space-separated "key=value" pairs, free of quotes and backslashes so the
// line can also sit in a JSON string.
std::string Provenance(const std::string& sha) {
  std::string compiler = __VERSION__;
  std::replace(compiler.begin(), compiler.end(), ' ', '_');
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "sha=%s nproc=%ld compiler=%s build=%s engine=serial",
                sha.c_str(), sysconf(_SC_NPROCESSORS_ONLN), compiler.c_str(),
                KVBENCH_BUILD_TYPE);
  std::string line = buf;
  for (char& c : line) {
    if (c == '"' || c == '\\') {
      c = '_';
    }
  }
  return line;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  char num[64];
  for (size_t i = 0; i < ms.size(); i++) {
    std::snprintf(num, sizeof(num), "%.12g", ms[i].value);
    s += (i > 0 ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + num +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

// Removes every MUTPS_* variable: StdConfig-style helpers and TestBed::Run
// read fault, WAL, sampling, tracing and backend knobs from them.
std::vector<std::string> ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "MUTPS_", 6) == 0) {
      names.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& n : names) {
    unsetenv(n.c_str());
  }
  return names;
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 0.0;
  std::string traced_dir;
  bool smoke = false;
  std::string sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--traced") {
      a->traced_dir = v;
    } else if (flag == "--sha") {
      a->sha = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

int Main(int argc, char** argv) {
  const std::vector<std::string> scrubbed = ScrubEnvironment();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kvbench --workload NAME [--seed N] [--seconds S] "
                 "[--traced DIR] [--smoke] [--sha SHA]\nworkloads:");
    for (const Workload& w : Workloads(false)) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (!kTimingBuild) {
    std::fprintf(stderr, "kvbench: refusing a debug or sanitizer build; "
                         "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n");
    return 2;
  }
  const std::vector<Workload> ws = Workloads(args.smoke);
  const auto it = std::find_if(ws.begin(), ws.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == ws.end()) {
    std::fprintf(stderr, "kvbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *it;
  const unsigned id = static_cast<unsigned>(it - ws.begin());
  const bool traced = !args.traced_dir.empty();
  std::printf("# kvbench workload=%s seed=%llu seconds=%g traced=%d smoke=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, traced ? 1 : 0, args.smoke ? 1 : 0);
  std::printf("# %s\n", Provenance(args.sha).c_str());
  for (const std::string& n : scrubbed) {
    std::printf("# ignored environment variable %s\n", n.c_str());
  }
  std::fflush(stdout);

  HostSpans spans;
  // setup_s is the median over every TestBed construction (two per
  // single-node round) or zero-window cluster run. Set-up-only samples come
  // first: at least three, and more while they add up to under a second,
  // because the quickest set-ups are the noisiest.
  const Clock::time_point setup_start = Clock::now();
  for (size_t i = 0;
       i < kMaxSetups && (i < 3 || SecondsSince(setup_start) < 1.0); i++) {
    SetupOnly(w, args.seed, spans);
  }

  std::vector<std::string> errors;
  const auto check = [&errors](const Round& r) {
    for (const LegResult& l : r) {
      if (!l.error.empty()) {
        errors.push_back(l.error);
      }
    }
  };
  std::vector<Round> rounds;
  uint64_t seed = args.seed;
  const size_t n_rounds = traced ? 1 : RoundsFor(w, args.seconds);
  for (size_t i = 0; i < n_rounds; i++) {
    rounds.push_back(RunRound(w, seed, false, "", spans));
    check(rounds.back());
    seed = utps::Mix64(seed);
  }
  std::vector<Metric> metrics;  // the result object's: bounded or per-layer
  std::vector<Metric> context;  // printed only
  Round observed;
  if (traced) {
    observed = RunRound(w, args.seed, true, args.traced_dir, spans);
    check(observed);
    if (!SameSimulation(rounds[0], observed)) {
      errors.push_back("the observed round changed the simulated metrics");
    }
    const Probes probes =
        RunProbes(w, args.seed, args.smoke ? 1 << 12 : 1 << 18, spans);
    metrics = LayerMetrics(w, rounds[0], observed, probes);
  } else {
    const auto mean = [&rounds](auto&& of) {
      double sum = 0.0;
      for (const Round& r : rounds) {
        sum += of(r);
      }
      return sum / static_cast<double>(rounds.size());
    };
    std::vector<double> walls;
    for (const Round& r : rounds) {
      walls.push_back(r[0].run_s + r[1].run_s);
    }
    metrics.push_back(
        {"sut.mops", mean([](const Round& r) { return r[0].res.mops; }),
         "Mops"});
    metrics.push_back(
        {"ref.mops", mean([](const Round& r) { return r[1].res.mops; }),
         "Mops"});
    metrics.push_back({"setup_s", Median(spans.Seconds("setup")), "s"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    context.push_back({"wall_s", Median(walls), "s"});
    for (int leg = 0; leg < 2; leg++) {
      const std::string p = std::string(LegTag(leg)) + ".";
      context.push_back({p + "p50_us", mean([&](const Round& r) {
                           return LatencyUs(w, r[leg], r[leg].res.p50_ns);
                         }),
                         "sim_us"});
      context.push_back({p + "p99_us", mean([&](const Round& r) {
                           return LatencyUs(w, r[leg], r[leg].res.p99_ns);
                         }),
                         "sim_us"});
    }
  }

  // Stall accounting: a request counts as attempted once issued, so the
  // attempts are the completions plus what is still in flight when the
  // window closes; a leg that completes nothing fails all of those.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Round& r : rounds) {
    for (const LegResult& l : r) {
      attempted += l.res.ops + l.inflight;
      failed += l.res.ops == 0 ? l.inflight : 0;
    }
  }
  context.push_back({"fail_frac",
                     Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "fraction"});

  if (traced) {
    const std::string base = args.traced_dir + "/" + w.name;
    std::ofstream f(base + ".layers.json");
    const ExperimentResult& sut = observed[0].res;
    f << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
      << ", \"provenance\": \"" << Provenance(args.sha)
      << "\", \"sut_trace\": {\"file\": \"" << sut.trace_file
      << "\", \"events\": " << sut.trace_events
      << ", \"dropped\": " << sut.trace_dropped
      << "}, \"metrics\": " << MetricsJson(metrics) << "}\n";
    if (!f || !spans.WriteChromeTrace(base + ".host.trace.json", id, w.name)) {
      errors.push_back("cannot write the traced outputs under " +
                       args.traced_dir);
    }
  }

  for (const std::vector<Metric>* ms : {&metrics, &context}) {
    for (const Metric& m : *ms) {
      std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("# rounds=%zu attempted=%llu failed=%llu\n", rounds.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& e : errors) {
    std::printf("# CORRECTNESS: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) { return kvbench::Main(argc, argv); }
