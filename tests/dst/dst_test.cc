// DST sweep driver: seeds x workloads x server systems under perturbed
// schedules. Every run must complete all issued ops, pass the quiesce-time
// structural audits, and yield a linearizable history. A failing seed is
// shrunk to a minimal op prefix before reporting.
//
// Seed count defaults to the CI budget and can be raised for soak runs via
// MUTPS_DST_SEEDS (see scripts/run_checks.sh).
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "dst_harness.h"

namespace utps::dst {
namespace {

unsigned SeedCount() {
  if (const char* s = std::getenv("MUTPS_DST_SEEDS")) {
    const long v = std::atol(s);
    if (v > 0) {
      return static_cast<unsigned>(v);
    }
  }
  return 20;
}

// Runs one cell and reports a failure; stores the run's result in *out when
// non-null.
void RunAndReport(DstConfig cfg, const char* load_name,
                  DstResult* out = nullptr) {
  DstResult r = RunDst(cfg);
  if (out != nullptr) {
    *out = r;
  }
  EXPECT_FALSE(r.inconclusive)
      << SysName(cfg.sys) << "/" << load_name << " seed=" << cfg.seed
      << ": checker ran out of node budget";
  // Coverage guard: a μTPS cell with a short manager period exists to race
  // hot-set publishes against CR reads (and replaced items), so it must
  // publish at least twice after its first set. Cells with the default
  // 1 ms measure window in each period publish once in their run.
  const bool mutps = cfg.sys == Sys::kMuTpsH || cfg.sys == Sys::kMuTpsT;
  if (mutps && (cfg.fast_refresh || cfg.split_storm)) {
    EXPECT_GE(r.hot_publishes, 3u)
        << SysName(cfg.sys) << "/" << load_name << " seed=" << cfg.seed
        << ": hot-set publishes no longer race the CR layer";
  }
  if (r.ok) {
    EXPECT_EQ(r.ops_issued, r.ops_completed);
    return;
  }
  DstResult min;
  const uint64_t min_ops = ShrinkToMinimalPrefix(cfg, r, &min);
  FAIL() << SysName(cfg.sys) << "/" << load_name << " seed=" << cfg.seed
         << " failed after " << r.ops_issued << " ops: " << r.error
         << "\n  shrunk to a " << min_ops
         << "-op prefix reproducing: " << min.error;
}

DstConfig SweepConfig(Sys sys, const Mix& mix, uint64_t seed) {
  DstConfig cfg;
  cfg.sys = sys;
  cfg.mix = mix;
  cfg.seed = seed;
  // Alternate pure tie-permutation with added latency jitter across seeds.
  cfg.jitter_ns = seed % 2 == 0 ? 0 : 48;
  // Exercise μTPS thread reassignment mid-run on a third of the seeds.
  cfg.inject_split = seed % 3 == 0;
  return cfg;
}

TEST(DstSweep, YcsbA) {
  const unsigned seeds = SeedCount();
  for (Sys sys : kAllSystems) {
    for (uint64_t seed = 1; seed <= seeds; seed++) {
      RunAndReport(SweepConfig(sys, kYcsbA, seed), "ycsb-a");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

TEST(DstSweep, PutSkew) {
  const unsigned seeds = SeedCount();
  for (Sys sys : kAllSystems) {
    for (uint64_t seed = 1; seed <= seeds; seed++) {
      RunAndReport(SweepConfig(sys, kPutSkew, seed), "put-skew");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Scans are only meaningful on the tree systems; every one is checked exactly
// (ascending order, exact count).
TEST(DstSweep, ScanMixTreeSystems) {
  const unsigned seeds = std::max(4u, SeedCount() / 4);
  for (Sys sys : {Sys::kMuTpsT, Sys::kBaseKv, Sys::kSherman}) {
    for (uint64_t seed = 1; seed <= seeds; seed++) {
      DstConfig cfg = SweepConfig(sys, kScanMix, seed);
      cfg.scan_len_avg = 8;
      RunAndReport(cfg, "scan-mix");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// μTPS-T with more than eight forwarded scans in flight per CR worker (32
// clients, 70% scans, two CR workers): each scan's 8 KB response must stay
// its own until the response leaves, however many follow it.
TEST(DstSweep, ScanMixDeepInFlight) {
  for (uint64_t seed = 1; seed <= SeedCount(); seed++) {
    DstConfig cfg = SweepConfig(Sys::kMuTpsT, Mix{0.0, 0.3, 0.0, 0.7}, seed);
    cfg.inject_split = false;  // keep the two-CR split throughout
    cfg.num_keys = 4096;
    cfg.clients = 32;
    cfg.ops_per_client = 40;
    cfg.scan_len_avg = 8;
    RunAndReport(cfg, "scan-deep");
    if (HasFatalFailure()) {
      return;
    }
  }
}

// Thread-split storm on uniform gets (μTPS-H) with the hot set empty, as the
// tuner leaves it for LLC-resident keys. Two legs:
//  - 1 KB values: a CR's 64 KB response buffer has 60 GET-sized regions, and
//    the splits leave more GETs than that forwarded per CR at times; no
//    response may be overwritten while its GET waits on the MR layer.
//  - 8 B values on a machine with tiny private caches and LLC, so receive-
//    ring header reads stall on DRAM: a split published during such a read
//    must be adopted before the CR claims a slot past the switch point.
//    (Claiming under the old split serves a slot one lap late, which
//    RxRing::Claim aborts on, and used to wedge the server.)
TEST(DstSweep, SplitStormUniformGets) {
  for (const uint32_t vsize : {1024u, 8u}) {
    const unsigned seeds = vsize == 8 ? 2 * SeedCount() : SeedCount();
    for (uint64_t seed = 1; seed <= seeds; seed++) {
      DstConfig cfg = SweepConfig(Sys::kMuTpsH, Mix{1.0, 0.0, 0.0, 0.0}, seed);
      cfg.inject_split = false;
      cfg.split_storm = true;
      cfg.num_keys = 4096;
      cfg.zipf_theta = 0.0;
      cfg.value_size = vsize;
      cfg.clients = 192;
      cfg.ops_per_client = vsize == 8 ? 60 : 40;
      if (vsize == 8) {
        cfg.machine.priv_sets_log2 = 2;
        cfg.machine.llc_sets_log2 = 6;
      }
      RunAndReport(cfg, vsize == 8 ? "split-storm-8B" : "split-storm-1KB");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Half the PUTs grow their key's value, from 32 B up to 512 B over each
// client's ops, so a key outgrows its item's slab class several times and
// ExecPut replaces the item in the index each time. μTPS refreshes its hot
// set every 10 μs here: a μTPS-T CR worker then often finds a replaced item
// in its published hot array, and a hot hit on it must neither serve nor
// absorb a value its replacement has superseded.
TEST(DstSweep, ValueGrowth) {
  for (Sys sys : {Sys::kMuTpsT, Sys::kMuTpsH, Sys::kBaseKv, Sys::kErpcKv}) {
    for (uint64_t seed = 1; seed <= SeedCount(); seed++) {
      DstConfig cfg = SweepConfig(sys, kYcsbA, seed);
      cfg.grow_value_size = 512;
      cfg.fast_refresh = true;
      cfg.clients = 8;
      cfg.ops_per_client = 100;
      RunAndReport(cfg, "value-growth");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Write homes (DESIGN.md §2): skewed PUTs with the hot set empty, so every
// PUT is forwarded and a key's recurring PUTs go to its home MR worker,
// under a split storm on six workers (three to five of them CR): each split
// moves the homes while homed writes are staged and in flight.
TEST(DstSweep, WriteHomesUnderSplitStorm) {
  for (Sys sys : {Sys::kMuTpsH, Sys::kMuTpsT}) {
    for (uint64_t seed = 1; seed <= SeedCount(); seed++) {
      DstConfig cfg = SweepConfig(sys, kPutSkew, seed);
      cfg.inject_split = false;
      cfg.split_storm = true;
      cfg.workers = 6;
      cfg.clients = 16;
      cfg.ops_per_client = 40;
      DstResult r;
      RunAndReport(cfg, "write-homes-split-storm", &r);
      EXPECT_GT(r.home_forwards, 0u)
          << SysName(sys) << " seed=" << seed << ": no PUT was homed";
      if (HasFailure()) {
        return;
      }
    }
  }
}

// Write homes with an MR worker that crash-stops mid-run: under the DST
// split (four workers, two CR) worker 3 is the home of about half the keys.
// Once the health probe marks it dead, their PUTs fall back to round-robin
// steering around it; on odd seeds it restarts and becomes their home again.
TEST(DstSweep, WriteHomesSurviveMrCrash) {
  for (Sys sys : {Sys::kMuTpsH, Sys::kMuTpsT}) {
    for (uint64_t seed = 1; seed <= SeedCount(); seed++) {
      DstConfig cfg = SweepConfig(sys, kPutSkew, seed);
      cfg.inject_split = false;
      cfg.fault.crash_worker = 3;
      cfg.fault.crash_at_ns = 60 * sim::kUsec;
      cfg.fault.restart_after_ns = seed % 2 == 1 ? 150 * sim::kUsec : 0;
      DstResult r;
      RunAndReport(cfg, "write-homes-mr-crash", &r);
      EXPECT_GT(r.failovers, 0u) << SysName(sys) << " seed=" << seed;
      EXPECT_GT(r.home_forwards, 0u)
          << SysName(sys) << " seed=" << seed << ": no PUT was homed";
      if (HasFailure()) {
        return;
      }
    }
  }
}

// Rolling MR batches (DESIGN.md §2): 8-key scans beside skewed PUTs (GETs
// on μTPS-H), so an MR worker finishes later slots of a ring while a scan or
// a spinning PUT of an earlier one still runs and their completions wait
// for it. 48 clients keep several slots per ring queued; 1024 keys keep the
// checker's same-key histories small. A split storm on six workers (three
// to five of them CR) makes workers leave the MR layer with rolling batches
// to drain, and worker 5, MR under every split, crash-stops mid-run and
// restarts: its batch drains before it parks, and the health probe salvages
// its rings through the same rolling batch.
TEST(DstSweep, RollingBatchesFinishOutOfOrder) {
  for (Sys sys : {Sys::kMuTpsH, Sys::kMuTpsT}) {
    uint64_t held = 0;
    for (uint64_t seed = 1; seed <= SeedCount(); seed++) {
      DstConfig cfg = SweepConfig(sys, Mix{0.1, 0.6, 0.0, 0.3}, seed);
      cfg.inject_split = false;
      cfg.split_storm = true;
      cfg.workers = 6;
      cfg.clients = 48;
      cfg.num_keys = 1024;
      cfg.ops_per_client = 40;
      cfg.scan_len_avg = 8;
      cfg.fault.crash_worker = 5;
      cfg.fault.crash_at_ns = 40 * sim::kUsec;
      cfg.fault.restart_after_ns = 60 * sim::kUsec;
      DstResult r;
      RunAndReport(cfg, "rolling-out-of-order", &r);
      EXPECT_GT(r.failovers, 0u) << SysName(sys) << " seed=" << seed;
      held += r.held_publishes;
      if (HasFailure()) {
        return;
      }
    }
    EXPECT_GT(held, 0u) << SysName(sys)
                        << ": no slot finished before an earlier one";
  }
}

// Deletes are only wired on the RPC baselines (μTPS has no delete opcode);
// slab accounting switches to lax mode because erase leaks items by design.
TEST(DstSweep, DeleteMixServers) {
  const unsigned seeds = std::max(4u, SeedCount() / 4);
  for (Sys sys : {Sys::kBaseKv, Sys::kErpcKv}) {
    for (uint64_t seed = 1; seed <= seeds; seed++) {
      RunAndReport(SweepConfig(sys, kDeleteMix, seed), "delete-mix");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// ------------------------------------------------------------------------
// Checker self-tests: hand-built histories with known verdicts, so a checker
// regression cannot silently turn the whole sweep green.

check::History BaseHistory() {
  check::History h;
  h.initial[1] = check::MakeStamp(1, 0);
  h.initial[2] = check::MakeStamp(2, 0);
  return h;
}

TEST(LinearizeCheck, AcceptsSequentialHistory) {
  check::History h = BaseHistory();
  const uint64_t s1 = check::MakeStamp(1, 7);
  h.RecordGet(0, 1, h.initial[1], false, 10, 20);
  h.RecordPut(0, 1, s1, 30, 40);
  h.RecordGet(1, 1, s1, false, 50, 60);
  EXPECT_TRUE(check::CheckLinearizability(h, {}).ok);
}

TEST(LinearizeCheck, AcceptsConcurrentEitherOrder) {
  check::History h = BaseHistory();
  const uint64_t s1 = check::MakeStamp(1, 7);
  h.RecordPut(0, 1, s1, 10, 50);  // overlaps the get
  h.RecordGet(1, 1, h.initial[1], false, 20, 40);
  EXPECT_TRUE(check::CheckLinearizability(h, {}).ok);
}

TEST(LinearizeCheck, RejectsStaleRead) {
  check::History h = BaseHistory();
  const uint64_t s1 = check::MakeStamp(1, 7);
  h.RecordPut(0, 1, s1, 10, 20);
  h.RecordGet(1, 1, h.initial[1], false, 30, 40);  // put already done
  const auto r = check::CheckLinearizability(h, {});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.bad_key, 1u);
}

TEST(LinearizeCheck, RejectsTornValue) {
  check::History h = BaseHistory();
  h.RecordGet(0, 1, 0, /*corrupt=*/true, 10, 20);
  const auto r = check::CheckLinearizability(h, {});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("torn"), std::string::npos);
}

TEST(LinearizeCheck, RejectsValueFromThinAir) {
  check::History h = BaseHistory();
  h.RecordGet(0, 1, check::MakeStamp(1, 99), false, 10, 20);
  EXPECT_FALSE(check::CheckLinearizability(h, {}).ok);
}

TEST(LinearizeCheck, RejectsLostDelete) {
  check::History h = BaseHistory();
  h.RecordDelete(0, 1, 10, 20);
  h.RecordGet(1, 1, h.initial[1], false, 30, 40);  // delete already done
  EXPECT_FALSE(check::CheckLinearizability(h, {}).ok);
}

TEST(LinearizeCheck, AcceptsAbsentAfterDelete) {
  check::History h = BaseHistory();
  h.RecordDelete(0, 1, 10, 20);
  h.RecordGet(1, 1, 0, false, 30, 40);
  EXPECT_TRUE(check::CheckLinearizability(h, {}).ok);
}

TEST(LinearizeCheck, RejectsScanEntryOverwrittenBeforeScan) {
  check::History h = BaseHistory();
  const uint64_t s1 = check::MakeStamp(1, 7);
  h.RecordPut(0, 1, s1, 10, 20);  // overwrites the populate value
  // Scan starts well after the overwrite yet returns the populate stamp.
  h.RecordScan(1, 1, 2, 2, {h.initial[1], h.initial[2]}, false, 50, 60);
  const auto r = check::CheckLinearizability(h, {});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("overwritten"), std::string::npos);
}

TEST(LinearizeCheck, RejectsIncompleteExactScan) {
  check::History h = BaseHistory();
  h.RecordScan(0, 1, 2, 2, {h.initial[1]}, false, 10, 20);  // missing key 2
  EXPECT_FALSE(check::CheckLinearizability(h, {}).ok);
}

TEST(LinearizeCheck, RejectsUnorderedExactScan) {
  check::History h = BaseHistory();
  h.RecordScan(0, 1, 2, 2, {h.initial[2], h.initial[1]}, false, 10, 20);
  const auto r = check::CheckLinearizability(h, {});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("ascending"), std::string::npos);
}

}  // namespace
}  // namespace utps::dst
