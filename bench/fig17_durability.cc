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
// the WalConfig in main() below.
#include "harness/bench_util.h"

using namespace utps;
using namespace utps::bench;

namespace {

// This table's latency columns print one decimal, under their own headers.
constexpr Metric kWalP50{"P50(us)", "%-14.1f",
                         [](const auto& r) { return r.p50_ns / 1e3; }};
constexpr Metric kWalP99{"P99(us)", "%-14.1f",
                         [](const auto& r) { return r.p99_ns / 1e3; }};
constexpr Metric kAppends{"appends", "%-14.0f", [](const auto& r) {
  return static_cast<double>(r.wal_counters.appends);
}};
constexpr Metric kSyncs{"syncs", "%-14.0f", [](const auto& r) {
  return static_cast<double>(r.wal_counters.flushes);
}};
constexpr Metric kMbLogged{"MB-logged", "%-14.1f", [](const auto& r) {
  return r.wal_counters.appended_bytes / 1e6;
}};

}  // namespace

int main() {
  // Write-heavy skewed mix: every put crosses the commit path, so the mode
  // spread is maximal (read-only traffic would measure nothing).
  const WorkloadSpec spec = WorkloadSpec::YcsbA(DbKeys(), 64);
  std::printf(
      "== Figure 17: durability commit modes — throughput/latency vs "
      "sync, group-commit, async WAL ==\n");
  Figure fig;
  for (SystemKind sys : {SystemKind::kMuTps, SystemKind::kBaseKv}) {
    fig.Table(std::string("-- ") + DisplayName(sys, IndexType::kHash) + " --",
              {"commit"},
              {kMops, kWalP50, kWalP99, kAppends, kSyncs, kMbLogged});
    for (int point = 0; point < 4; point++) {
      // Off unless set below: any MUTPS_WAL in the env is ignored.
      wal::WalConfig w;
      const char* name = "off";
      if (point > 0) {
        w.enabled = true;
        w.mode = static_cast<wal::CommitMode>(point - 1);
        name = wal::CommitModeName(w.mode);
      }
      fig.Point({name}, [&] {
        TestBed bed(IndexType::kHash, spec);
        ExperimentConfig cfg = StdConfig(sys, spec);
        // Fixed split: the mode sweep should isolate the commit path, not
        // the auto-tuner's search transient.
        cfg.mutps.autotune = false;
        cfg.mutps.initial_ncr = bed.server_workers() / 2;
        cfg.mutps.initial_cache_items = 4000;
        cfg.wal = w;
        return bed.Run(cfg);
      });
    }
    std::printf("\n");
  }
  return 0;
}
