// Figure 15 (extension): resilience under fault injection. A server worker
// crash-stops mid-measurement and restarts later; the bench reports the
// throughput and P99 time series around the fault plus a recovery-time
// metric (first bucket back at >=90% of the pre-fault rate). μTPS detects
// the dead MR worker with the manager's health probe and salvages its rings
// (DESIGN.md §9); BaseKV/eRPCKV stall the affected requests until restart.
//
// MUTPS_FAULTS overrides the default crash profile, e.g.:
//   MUTPS_FAULTS=loss:0.01 ./build/bench/fig15_resilience
#include <algorithm>

#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

namespace {

// Default plan: crash worker 20 a quarter into the measurement window,
// restart it a quarter-window later. Worker 20 is an MR worker under the
// fixed μTPS split below (ncr = workers/2 = 14 => MR is 14..27).
fault::FaultConfig DefaultProfile(const ExperimentConfig& cfg) {
  fault::FaultConfig f;
  f.crash_worker = 20;
  f.crash_at_ns = cfg.warmup_ns + cfg.measure_ns / 4;
  f.restart_after_ns = cfg.measure_ns / 4;
  return f;
}

void RunOne(SystemKind sys, const WorkloadSpec& spec) {
  TestBed bed(IndexType::kHash, spec);
  ExperimentConfig cfg = StdConfig(sys, spec);
  // Fixed split: the recovery metric should isolate the fault reaction, not
  // the auto-tuner's search transient.
  cfg.mutps.autotune = false;
  cfg.mutps.initial_ncr = bed.server_workers() / 2;
  cfg.mutps.initial_cache_items = 4000;
  cfg.record_timeline = true;
  cfg.record_latency_timeline = true;
  if (!cfg.fault.enabled()) {
    cfg.fault = DefaultProfile(cfg);
  }
  const ExperimentResult r = bed.Run(cfg);

  std::printf("-- %s --\n", DisplayName(sys, bed.index_type()));
  PrintTableHeader({"t(ms)", "Mops", "P99(us)"});
  for (size_t i = 0; i < r.timeline_mops.size(); i++) {
    const double p99us =
        i < r.timeline_p99_ns.size() ? r.timeline_p99_ns[i] / 1e3 : 0.0;
    std::printf("%-14.2f%-14.2f%-14.1f\n",
                static_cast<double>(i) * r.timeline_bucket_ns / 1e6,
                r.timeline_mops[i], p99us);
  }

  // Recovery time: average the complete pre-fault measurement buckets, then
  // find the first post-fault bucket back at >=90% of that rate.
  const fault::FaultConfig& f = cfg.fault;
  const size_t warm_b = static_cast<size_t>(cfg.warmup_ns / r.timeline_bucket_ns);
  const size_t fault_b = static_cast<size_t>(
      std::max(f.crash_at_ns, f.start_ns) / r.timeline_bucket_ns);
  double pre = 0.0;
  size_t n = 0;
  for (size_t i = warm_b; i < fault_b && i < r.timeline_mops.size(); i++) {
    pre += r.timeline_mops[i];
    n++;
  }
  pre = n > 0 ? pre / static_cast<double>(n) : 0.0;
  double recovery_us = -1.0;
  for (size_t i = fault_b + 1; i < r.timeline_mops.size(); i++) {
    if (r.timeline_mops[i] >= 0.9 * pre) {
      recovery_us = (static_cast<double>(i) * r.timeline_bucket_ns -
                     static_cast<double>(f.crash_at_ns)) / 1e3;
      break;
    }
  }
  std::printf("pre-fault %.2f Mops; ", pre);
  if (f.crash_worker >= 0) {
    std::printf("crash t=%.2fms; ", f.crash_at_ns / 1e6);
  }
  if (recovery_us >= 0.0) {
    std::printf("recovery %.0fus (>=90%% of pre-fault)\n", recovery_us);
  } else {
    std::printf("recovery: not within the run\n");
  }
  std::printf(
      "retries %llu  failovers %llu  salvaged %llu  dedup %llu  "
      "drops %llu  dups %llu  delays %llu\n\n",
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.failovers),
      static_cast<unsigned long long>(r.salvaged_slots),
      static_cast<unsigned long long>(r.dedup_suppressed),
      static_cast<unsigned long long>(r.fault_counters.req_drops +
                                      r.fault_counters.resp_drops),
      static_cast<unsigned long long>(r.fault_counters.req_dups +
                                      r.fault_counters.resp_dups),
      static_cast<unsigned long long>(r.fault_counters.delays));
  PrintObsReport(r);
}

}  // namespace

int main() {
  const WorkloadSpec spec = WorkloadSpec::YcsbA(DbKeys(), 64);
  std::printf("== Figure 15: throughput/P99 around an injected worker "
              "crash-stop + restart ==\n");
  for (SystemKind sys :
       {SystemKind::kMuTps, SystemKind::kBaseKv, SystemKind::kErpcKv}) {
    RunOne(sys, spec);
  }
  return 0;
}
