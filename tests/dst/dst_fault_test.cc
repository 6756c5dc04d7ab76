// DST fault sweep (DESIGN.md §9): every system must stay linearizable under
// deterministic fault plans — message loss + duplication, a straggler core,
// and a crash-stop/restart of a server worker — across several seeds. Also
// locks down that the fault schedule itself is a pure function of the config:
// an identical run repeats byte-for-byte in-process and in a fresh process.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../fresh_process.h"
#include "dst_cluster.h"
#include "dst_harness.h"

namespace utps::dst {
namespace {

constexpr uint64_t kSeeds[] = {1, 7, 42};

// Profile sweeps honour MUTPS_DST_FAULT_SEEDS=N: N extra seeds on top of the
// fixed three (run_checks.sh raises it for the fault-sweep stage). The
// determinism tests below stay on fixed seeds on purpose.
std::vector<uint64_t> SweepSeeds() {
  std::vector<uint64_t> seeds(std::begin(kSeeds), std::end(kSeeds));
  const int extra = static_cast<int>(EnvInt("MUTPS_DST_FAULT_SEEDS", 0));
  for (int i = 0; i < extra; i++) {
    seeds.push_back(100 + static_cast<uint64_t>(i));
  }
  return seeds;
}

DstConfig Base(Sys sys, uint64_t seed) {
  DstConfig cfg;
  cfg.sys = sys;
  cfg.mix = kYcsbA;
  cfg.seed = seed;
  cfg.jitter_ns = 48;
  return cfg;
}

// Profile 1: lossy, duplicating, delay-spiking network.
fault::FaultConfig LossDup() {
  fault::FaultConfig f;
  f.drop_prob = 0.02;
  f.dup_prob = 0.05;
  f.delay_prob = 0.10;
  return f;
}

// Profile 2: one worker core runs at quarter frequency for a window.
fault::FaultConfig Straggler() {
  fault::FaultConfig f;
  f.straggler_core = 1;
  f.slow_factor = 4.0;
  f.start_ns = 20 * sim::kUsec;
  f.stop_ns = 400 * sim::kUsec;
  return f;
}

// Profile 3: crash-stop worker 3 mid-run, restart it later. Under the DST
// μTPS split (workers=4, ncr=2) worker 3 is an MR worker, so this exercises
// the manager's health probe + ring salvage; BaseKV/eRPCKV just stall the
// affected requests until restart.
fault::FaultConfig CrashRestart() {
  fault::FaultConfig f;
  f.crash_worker = 3;
  f.crash_at_ns = 60 * sim::kUsec;
  f.restart_after_ns = 150 * sim::kUsec;
  return f;
}

void SweepProfile(const fault::FaultConfig& f, const char* name) {
  for (Sys sys : kAllSystems) {
    for (uint64_t seed : SweepSeeds()) {
      DstConfig cfg = Base(sys, seed);
      cfg.fault = f;
      const DstResult r = RunDst(cfg);
      EXPECT_TRUE(r.ok) << name << " " << SysName(sys) << " seed=" << seed
                        << ": " << r.error;
      EXPECT_EQ(r.ops_stuck, 0u) << name << " " << SysName(sys);
    }
  }
}

TEST(DstFaults, LossDupLinearizable) { SweepProfile(LossDup(), "loss+dup"); }

TEST(DstFaults, StragglerLinearizable) {
  SweepProfile(Straggler(), "straggler");
}

TEST(DstFaults, CrashRestartLinearizable) {
  SweepProfile(CrashRestart(), "crash-restart");
}

// Loss actually fires and the retry layer absorbs it (a vacuous sweep would
// also "pass"): at least one seed must see client retransmits.
TEST(DstFaults, LossProducesRetries) {
  uint64_t retries = 0;
  for (uint64_t seed : kSeeds) {
    DstConfig cfg = Base(Sys::kBaseKv, seed);
    cfg.fault = LossDup();
    retries += RunDst(cfg).retries;
  }
  EXPECT_GT(retries, 0u);
}

// μTPS detects the dead MR worker (failover fires) and still passes its
// quiesce-time structural audits — salvage must leave rings/staging clean.
TEST(DstFaults, MuTpsMrFailoverRecovers) {
  for (uint64_t seed : kSeeds) {
    DstConfig cfg = Base(Sys::kMuTpsH, seed);
    cfg.fault = CrashRestart();
    const DstResult r = RunDst(cfg);
    EXPECT_TRUE(r.ok) << "seed=" << seed << ": " << r.error;
    EXPECT_GT(r.failovers, 0u) << "seed=" << seed;
  }
}

// Crash without restart: the dead MR worker never comes back; CR workers must
// steer around it and the probe must salvage its rings for the run to finish.
TEST(DstFaults, MuTpsSurvivesPermanentMrCrash) {
  for (uint64_t seed : kSeeds) {
    DstConfig cfg = Base(Sys::kMuTpsT, seed);
    cfg.fault = CrashRestart();
    cfg.fault.restart_after_ns = 0;  // never restarts
    const DstResult r = RunDst(cfg);
    EXPECT_TRUE(r.ok) << "seed=" << seed << ": " << r.error;
    EXPECT_GT(r.failovers, 0u) << "seed=" << seed;
  }
}

// --------------------------------------------------------------- durability
// Whole-server crash + WAL replay (DESIGN.md §10): at cfg.server_crash_at_ns
// the serving instance stops, queued NIC requests are lost, and a fresh
// instance is rebuilt from the populated base image + WAL replay. The
// harness then appends a post-quiesce read of every key to the history, so
// the linearizability checker enforces the durability rule: every acked
// PUT/DELETE survives recovery.

wal::WalConfig WalProfile(wal::CommitMode mode) {
  wal::WalConfig w;
  w.enabled = true;
  w.mode = mode;
  return w;
}

constexpr wal::CommitMode kAllModes[] = {
    wal::CommitMode::kSync, wal::CommitMode::kGroup, wal::CommitMode::kAsync};

// Crash-recoverable systems (single shared ring + Direct-plane rebuild).
constexpr Sys kWalSystems[] = {Sys::kMuTpsH, Sys::kBaseKv};

// No crash: the log + commit-mode ack gating alone must not break
// linearizability or strand waiters (a WaitDurable deadlock shows up here as
// stuck clients).
TEST(DstWal, CleanRunsStayLinearizableInAllModes) {
  for (Sys sys : kWalSystems) {
    for (wal::CommitMode mode : kAllModes) {
      for (uint64_t seed : kSeeds) {
        DstConfig cfg = Base(sys, seed);
        cfg.wal = WalProfile(mode);
        const DstResult r = RunDst(cfg);
        EXPECT_TRUE(r.ok) << SysName(sys) << " mode="
                          << wal::CommitModeName(mode) << " seed=" << seed
                          << ": " << r.error;
        EXPECT_EQ(r.ops_stuck, 0u);
        EXPECT_EQ(r.recoveries, 0u);
      }
    }
  }
}

// The acceptance sweep: every fault profile x commit mode x seed, with a
// whole-server crash mid-run. run_checks.sh widens the seed set via
// MUTPS_DST_FAULT_SEEDS for its durability stage.
TEST(DstWal, CrashReplayDurableAcrossProfilesAndModes) {
  const struct {
    const char* name;
    fault::FaultConfig f;
  } profiles[] = {{"loss+dup", LossDup()},
                  {"straggler", Straggler()},
                  {"crash-restart", CrashRestart()}};
  for (const auto& p : profiles) {
    for (Sys sys : kWalSystems) {
      for (wal::CommitMode mode : kAllModes) {
        for (uint64_t seed : SweepSeeds()) {
          DstConfig cfg = Base(sys, seed);
          cfg.fault = p.f;
          cfg.wal = WalProfile(mode);
          cfg.server_crash_at_ns = 60 * sim::kUsec;
          const DstResult r = RunDst(cfg);
          EXPECT_TRUE(r.ok)
              << p.name << " " << SysName(sys) << " mode="
              << wal::CommitModeName(mode) << " seed=" << seed << ": "
              << r.error;
          EXPECT_EQ(r.recoveries, 1u) << p.name << " " << SysName(sys);
          EXPECT_EQ(r.ops_stuck, 0u) << p.name << " " << SysName(sys);
        }
      }
    }
  }
}

// Deletes must replay too: a key deleted before the crash has to stay absent
// after recovery (replay erases it from the rebuilt base image), and an acked
// delete that recovery resurrected would fail the final-read audit.
TEST(DstWal, BaseKvDeleteMixCrashReplayDurable) {
  for (uint64_t seed : kSeeds) {
    DstConfig cfg = Base(Sys::kBaseKv, seed);
    cfg.mix = kDeleteMix;
    cfg.fault = LossDup();
    cfg.wal = WalProfile(wal::CommitMode::kGroup);
    cfg.server_crash_at_ns = 60 * sim::kUsec;
    const DstResult r = RunDst(cfg);
    EXPECT_TRUE(r.ok) << "seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.recoveries, 1u);
  }
}

// At-most-once across the crash (regression): a PUT applied + logged by the
// dying instance whose ack was lost is retransmitted into the recovered
// instance. Replay re-seeds the dedup window from the logged rids, so the
// retransmit is answered from the window, not re-executed — re-applying it
// after a newer write to the same hot key would resurrect the old stamp and
// fail the checker. Write-heavy skewed traffic maximizes that window.
TEST(DstWal, RetransmitRacingCrashIsAtMostOnce) {
  uint64_t retries = 0;
  for (Sys sys : kWalSystems) {
    for (uint64_t seed : kSeeds) {
      DstConfig cfg = Base(sys, seed);
      cfg.mix = kPutSkew;
      cfg.fault = LossDup();
      cfg.wal = WalProfile(wal::CommitMode::kGroup);
      cfg.server_crash_at_ns = 60 * sim::kUsec;
      const DstResult r = RunDst(cfg);
      EXPECT_TRUE(r.ok) << SysName(sys) << " seed=" << seed << ": "
                        << r.error;
      EXPECT_EQ(r.recoveries, 1u) << SysName(sys) << " seed=" << seed;
      EXPECT_GT(r.wal_replayed, 0u) << SysName(sys) << " seed=" << seed;
      retries += r.retries;
    }
  }
  // The race must actually fire somewhere in the sweep, or the test is
  // vacuous.
  EXPECT_GT(retries, 0u);
}

// ---------------------------------------------------- schedule determinism
// Faulted runs use KitchenSink (dst_harness.h), every fault class at once.

std::string RowFor(Sys sys) {
  const DstResult r = RunDst(KitchenSink(sys));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s digest=%016llx issued=%llu completed=%llu retries=%llu "
                "failovers=%llu ok=%d",
                SysName(sys), static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.ops_issued),
                static_cast<unsigned long long>(r.ops_completed),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.failovers), r.ok ? 1 : 0);
  return buf;
}

std::string AllRows() {
  std::string rows;
  for (Sys sys : kAllSystems) {
    rows += RowFor(sys);
    rows += '\n';
  }
  return rows;
}

// Child-side emitter: skipped unless the parent test set the output path.
TEST(DstFaultDeterminism, ChildEmit) {
  const char* path = std::getenv("MUTPS_DST_FAULT_CHILD_OUT");
  if (path == nullptr) {
    GTEST_SKIP() << "subprocess helper (driven by SubprocessIdentical)";
  }
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  f << AllRows();
}

TEST(DstFaultDeterminism, InProcessRepeatIdentical) {
  for (Sys sys : kAllSystems) {
    EXPECT_EQ(RowFor(sys), RowFor(sys))
        << SysName(sys) << ": faulted repeat run diverged";
  }
}

TEST(DstFaultDeterminism, SeedSweepsFaultSchedule) {
  DstConfig a = KitchenSink(Sys::kBaseKv);
  DstConfig b = a;
  b.seed++;  // injector seed mixes in cfg.seed => different schedule
  EXPECT_NE(RunDst(a).digest, RunDst(b).digest);
}

TEST(DstFaultDeterminism, SubprocessIdentical) {
  const std::string expected = AllRows();

  std::string got;
  ASSERT_TRUE(RunFreshProcess("MUTPS_DST_FAULT_CHILD_OUT", "DstFaultDeterminism.ChildEmit",
                              &got));
  EXPECT_EQ(expected, got)
      << "fresh-process faulted run produced different result rows";
}

// ------------------------------------------------------------------ cluster
// Scale-out tier (DESIGN.md §14): linearizability must survive node-scoped
// faults — a primary crash with backup promotion, a live shard migration
// racing lossy/duplicating delivery, and a partition window that heals.
// run_checks.sh widens the seed set via MUTPS_DST_FAULT_SEEDS.

DstClusterConfig ClusterBase(uint64_t seed) {
  DstClusterConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.shards = 8;
  cfg.clients = 4;
  cfg.ops_per_client = 40;
  return cfg;
}

// The cluster fault profiles, one config per seed. The sweeps below run them
// over SweepSeeds(); DigestsMatchCommitted pins one seed of each.
DstClusterConfig FailoverCell(uint64_t seed) {
  DstClusterConfig cfg = ClusterBase(seed);
  cfg.fault.crash_node = 0;
  cfg.fault.node_crash_at_ns = 150 * sim::kUsec;
  return cfg;
}

DstClusterConfig MigrationCell(uint64_t seed) {
  DstClusterConfig cfg = ClusterBase(seed);
  cfg.forced.push_back(
      cluster::ForcedMigration{150 * sim::kUsec, seed % cfg.shards, -1});
  cfg.fault.drop_prob = 0.02;
  cfg.fault.dup_prob = 0.05;
  return cfg;
}

DstClusterConfig PartitionCell(uint64_t seed) {
  DstClusterConfig cfg = ClusterBase(seed);
  cfg.fault.partition_node = 1;
  cfg.fault.partition_start_ns = 100 * sim::kUsec;
  cfg.fault.partition_stop_ns = 280 * sim::kUsec;
  return cfg;
}

DstClusterConfig RebalancerCell(uint64_t seed) {
  DstClusterConfig cfg = ClusterBase(seed);
  cfg.ops_per_client = 60;
  cfg.put_frac = 0.3;
  cfg.rebalance_period_ns = 150 * sim::kUsec;
  return cfg;
}

DstClusterConfig HotShiftCell(uint64_t seed) {
  DstClusterConfig cfg = ClusterBase(seed);
  cfg.clients = 16;
  cfg.ops_per_client = 600;
  cfg.put_frac = 0.3;
  cfg.zipf_theta = 1.05;
  cfg.rebalance_period_ns = 400 * sim::kUsec;
  cfg.imbalance_factor = 1.5;
  cfg.rebalance_cooldown_ns = 100 * sim::kUsec;
  cfg.hotshift_at_ns = 600 * sim::kUsec;
  return cfg;
}

// Primary crash -> probe misses -> lease expiry -> backup promotion; writes
// acked by the dead primary must already be on the backup (chain order), and
// retransmits that land on the promoted backup must dedup, not re-apply.
TEST(DstCluster, FailoverLinearizable) {
  uint64_t promotions = 0;
  for (uint64_t seed : SweepSeeds()) {
    const DstClusterResult r = RunDstCluster(FailoverCell(seed));
    EXPECT_TRUE(r.ok) << "failover seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.clients_stuck, 0u) << "failover seed=" << seed;
    promotions += r.promotions;
  }
  // Node 0 owns at least one shard in these placements; promotion must
  // actually fire somewhere or the sweep is vacuous.
  EXPECT_GT(promotions, 0u);
}

// Live migration under message loss + duplication: a write retransmitted
// across the ownership flip must stay at-most-once (the dedup watermarks
// travel with the shard), and redirected clients must converge on the new
// owner via ring-epoch NOT_OWNER answers.
TEST(DstCluster, MigrationRacingRetransmits) {
  uint64_t migrations = 0;
  uint64_t retries = 0;
  for (uint64_t seed : SweepSeeds()) {
    const DstClusterResult r = RunDstCluster(MigrationCell(seed));
    EXPECT_TRUE(r.ok) << "migration seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.clients_stuck, 0u) << "migration seed=" << seed;
    migrations += r.migrations;
    retries += r.retries;
  }
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(retries, 0u);  // the race must actually fire in the sweep
}

// Partition a node for a window, then heal: while cut off it must fence
// itself (lease expiry) before the manager promotes its shards elsewhere, so
// no two live primaries ever serve the same shard; after the heal the
// manager's resync folds it back in as a backup.
TEST(DstCluster, PartitionHealLinearizable) {
  for (uint64_t seed : SweepSeeds()) {
    const DstClusterResult r = RunDstCluster(PartitionCell(seed));
    EXPECT_TRUE(r.ok) << "partition seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.clients_stuck, 0u) << "partition seed=" << seed;
  }
}

// Hotset rebalancer live: skewed traffic with the rebalancer enabled stays
// linearizable whether or not it decides to move a shard (its migrations use
// the same frozen-transfer path the forced profile pins down).
TEST(DstCluster, RebalancerStaysLinearizable) {
  for (uint64_t seed : kSeeds) {
    const DstClusterResult r = RunDstCluster(RebalancerCell(seed));
    EXPECT_TRUE(r.ok) << "rebalance seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.clients_stuck, 0u) << "rebalance seed=" << seed;
  }
}

// The hot set jumps mid-run with a rebalancer eager enough to react. Every
// migration must lower the predicted peak node load, so the rebalancer
// settles: a shard that dominates its node stays put instead of bouncing
// between two nodes every cooldown, and the run needs at most one move per
// shard. A rule that always moves the hottest shard ping-pongs past that
// bound at most seeds.
TEST(DstCluster, HotShiftRebalancerConverges) {
  uint64_t migrations = 0;
  for (uint64_t seed : SweepSeeds()) {
    const DstClusterConfig cfg = HotShiftCell(seed);
    const DstClusterResult r = RunDstCluster(cfg);
    EXPECT_TRUE(r.ok) << "hot shift seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.clients_stuck, 0u) << "hot shift seed=" << seed;
    EXPECT_LE(r.migrations, cfg.shards) << "hot shift seed=" << seed;
    migrations += r.migrations;
  }
  EXPECT_GT(migrations, 0u);  // the shift must actually trigger a move
}

// Duplicated control and data messages whose late copy (up to 40us behind
// the original) is served after the call that sent it is over: after a
// forced migration finished (a kMigStart copy re-acked into the manager) and
// after a client's last operation (a request copy re-acked into its gate).
// The gates and response buffers those copies point at must still be alive;
// under ASan a copy reaching a freed frame or object fails the run. Message
// delays stay off: a delay past the lease margin breaks the bounded-delay
// assumption the fencing protocol rests on (DESIGN.md §14).
TEST(DstCluster, LateCopiesOutliveTheirCalls) {
  uint64_t migrations = 0;
  for (uint64_t seed : SweepSeeds()) {
    DstClusterConfig cfg = ClusterBase(seed);
    cfg.forced.push_back(
        cluster::ForcedMigration{100 * sim::kUsec, seed % cfg.shards, -1});
    cfg.fault.dup_prob = 0.3;
    cfg.fault.delay_ns = 40 * sim::kUsec;  // the duplicates' lag span
    const DstClusterResult r = RunDstCluster(cfg);
    EXPECT_TRUE(r.ok) << "late copies seed=" << seed << ": " << r.error;
    EXPECT_EQ(r.clients_stuck, 0u) << "late copies seed=" << seed;
    migrations += r.migrations;
  }
  EXPECT_GT(migrations, 0u);
}

// Cluster behaviour pinned across commits: one seed-42 cell per profile, with
// the history digest and counters the cluster produced when this table was
// generated. A change to src/cluster meant to preserve behaviour keeps every
// row; a change that moves simulated numbers regenerates the table (a
// mismatch prints it in paste-ready form) and says why. The single-node
// table is DstDeterminism.DigestsMatchCommitted.
TEST(DstCluster, DigestsMatchCommitted) {
  const struct {
    const char* name;
    DstClusterConfig cfg;
    uint64_t digest;
    uint64_t ops_completed;
    uint64_t retries;
    uint64_t promotions;
    uint64_t migrations;
    uint64_t final_epoch;
  } cells[] = {
      {DST_CELL(FailoverCell(42)), 0xd625309c2a2ed3c9ULL, 160, 16, 2, 0, 3},
      {DST_CELL(MigrationCell(42)), 0x488407942a7028d2ULL, 160, 7, 1, 1, 2},
      {DST_CELL(PartitionCell(42)), 0x39cf22315e3eb335ULL, 160, 12, 3, 0, 4},
      {DST_CELL(RebalancerCell(42)), 0x64e053b31396e0a4ULL, 240, 0, 0, 0, 1},
      {DST_CELL(HotShiftCell(42)), 0x7805b90c08836bdfULL, 9600, 0, 1, 2, 3},
  };
  std::string table;
  bool moved = false;
  for (const auto& c : cells) {
    const DstClusterResult r = RunDstCluster(c.cfg);
    EXPECT_TRUE(r.ok) << c.name << ": " << r.error;
    EXPECT_EQ(r.digest, c.digest) << c.name;
    EXPECT_EQ(r.ops_completed, c.ops_completed) << c.name;
    EXPECT_EQ(r.retries, c.retries) << c.name;
    EXPECT_EQ(r.promotions, c.promotions) << c.name;
    EXPECT_EQ(r.migrations, c.migrations) << c.name;
    EXPECT_EQ(r.final_epoch, c.final_epoch) << c.name;
    moved |= r.digest != c.digest || r.ops_completed != c.ops_completed ||
             r.retries != c.retries || r.promotions != c.promotions ||
             r.migrations != c.migrations || r.final_epoch != c.final_epoch;
    char row[160];
    std::snprintf(row, sizeof(row),
                  "      {DST_CELL(%s), 0x%016llxULL, %llu, %llu, %llu, %llu, "
                  "%llu},\n",
                  c.name, static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(r.ops_completed),
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.promotions),
                  static_cast<unsigned long long>(r.migrations),
                  static_cast<unsigned long long>(r.final_epoch));
    table += row;
  }
  if (moved) {
    ADD_FAILURE() << "cells as this build runs them:\n" << table;
  }
}

// Determinism: the whole faulted cluster run — failover timing, promotion,
// migration, history digest — repeats exactly for a fixed (config, backend).
TEST(DstCluster, RepeatRunsIdentical) {
  DstClusterConfig cfg = ClusterBase(42);
  cfg.fault.crash_node = 0;
  cfg.fault.node_crash_at_ns = 150 * sim::kUsec;
  cfg.forced.push_back(cluster::ForcedMigration{120 * sim::kUsec, 3, -1});
  const DstClusterResult a = RunDstCluster(cfg);
  const DstClusterResult b = RunDstCluster(cfg);
  EXPECT_TRUE(a.ok) << a.error;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
}

TEST(DstCluster, SeedSweepsSchedule) {
  DstClusterConfig a = ClusterBase(42);
  a.fault.drop_prob = 0.02;
  DstClusterConfig b = a;
  b.seed++;
  EXPECT_NE(RunDstCluster(a).digest, RunDstCluster(b).digest);
}

}  // namespace
}  // namespace utps::dst
