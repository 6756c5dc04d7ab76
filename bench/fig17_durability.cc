// Figure 17 (extension): the cost of durability. Servers append every
// PUT to a per-shard write-ahead log backed by a simulated log device and
// gate the ack per commit mode (DESIGN.md §10):
//
//   off    no WAL — the in-memory baseline every other figure measures
//   sync   every op issues (or joins) a device sync before acking
//   group  a dedicated log-writer flushes on a window; acks wait for it
//   async  acks release right after the in-memory append
//
// The sweep reports throughput and latency for each mode over a write-heavy
// mix, plus the log-device counters (appends, syncs, bytes), for μTPS and
// the run-to-completion baseline. MUTPS_WAL does not apply here — the bench
// owns the mode sweep — but the device/window knobs can be tuned by editing
// Profile() below.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

namespace {

wal::WalConfig Profile(wal::CommitMode mode) {
  wal::WalConfig w;
  w.enabled = true;
  w.mode = mode;
  return w;
}

void RunSystem(SystemKind sys, const WorkloadSpec& spec) {
  std::printf("-- %s --\n", DisplayName(sys, IndexType::kHash));
  PrintTableHeader({"commit", "Mops", "P50(us)", "P99(us)", "appends",
                    "syncs", "MB-logged"});
  for (int point = 0; point < 4; point++) {
    TestBed bed(IndexType::kHash, spec);
    ExperimentConfig cfg = StdConfig(sys, spec);
    // Fixed split: the mode sweep should isolate the commit path, not the
    // auto-tuner's search transient.
    cfg.mutps.autotune = false;
    cfg.mutps.initial_ncr = bed.server_workers() / 2;
    cfg.mutps.initial_cache_items = 4000;
    const char* name = "off";
    if (point > 0) {
      const wal::CommitMode mode = static_cast<wal::CommitMode>(point - 1);
      cfg.wal = Profile(mode);
      name = wal::CommitModeName(mode);
    } else {
      cfg.wal = wal::WalConfig{};  // off: ignore any MUTPS_WAL in the env
    }
    const ExperimentResult r = bed.Run(cfg);
    const auto& wc = r.wal_counters;
    std::printf("%-14s%-14.2f%-14.1f%-14.1f%-14llu%-14llu%-14.1f\n", name,
                r.mops, r.p50_ns / 1e3, r.p99_ns / 1e3,
                static_cast<unsigned long long>(wc.appends),
                static_cast<unsigned long long>(wc.flushes),
                wc.appended_bytes / 1e6);
    PrintObsReport(r);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // Write-heavy skewed mix: every put crosses the commit path, so the mode
  // spread is maximal (read-only traffic would measure nothing).
  const WorkloadSpec spec = WorkloadSpec::YcsbA(DbKeys(), 64);
  std::printf(
      "== Figure 17: durability commit modes — throughput/latency vs "
      "sync, group-commit, async WAL ==\n");
  for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv}) {
    RunSystem(sys, spec);
  }
  return 0;
}
