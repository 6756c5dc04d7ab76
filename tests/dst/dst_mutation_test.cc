// Mutation smoke-check: proves the DST stack detects real defects.
//
// This binary is compiled with -DMUTPS_MUTATION (its own copies of the
// affected translation units; the library is untouched), which arms seeded
// bugs behind runtime switches (src/check/mutation.h):
//
//  1. kDropSeqlockBump — ItemWrite skips both seqlock version bumps, so a
//     concurrent reader can return a torn value undetected. Caught by the
//     history checker as a torn/corrupt get.
//  2. kSkipRingTailPublish — one CR-MR ring tail publish is dropped, so a
//     batch's completions (and everything behind them on that ring) are
//     never sent. Caught as stuck ops plus a failed quiesce audit.
//  3. kDropDedupWindow — the server's at-most-once window always answers
//     kExecute, so a duplicated PUT re-applies. Under a dup+delay fault plan
//     the second apply can straddle another writer's PUT to the same key and
//     a later read returns the resurrected value — caught by the checker as
//     a stale-read linearizability violation.
//  4. kDropRingEpochCheck — a cluster node skips its ownership/fence/freeze
//     gate, so after a live migration flips the ring epoch the old owner
//     keeps serving (and applying writes for) a shard it handed off, and
//     stale-routed clients are never redirected. Caught by the cluster DST:
//     the post-run replica audit sees the diverged copies, and the auditor's
//     final reads from the real owner miss the stale-applied writes.
//  5. kPublishWithoutAcks — μTPS's manager publishes each thread split
//     without waiting for every worker to acknowledge the previous one.
//     Under the split storm workers jump versions and forward to workers
//     that already left the MR layer: caught as stuck ops or as a quiesce
//     audit that finds a worker off the handshake.
//  6. kMrRegionWithoutHold — a μTPS MR worker takes a forwarded request's
//     response region from its RespBuffer without holding it. With more than
//     eight 8 KB scans in flight the cyclic buffer laps a response the CR
//     layer has not sent yet, and the client reads another scan's bytes:
//     caught by the checker as a corrupt or non-linearizable scan.
//  7. kCrForwardInBatch — a μTPS CR worker forwards each miss from inside
//     its slot batch instead of after it. Two records of one batch then
//     flush staging to the same CR-MR ring while the first flush is
//     suspended: both fill the slot at head, so a batch's descriptors are
//     overwritten and its requests never answered. Caught as stuck ops or a
//     failed quiesce audit.
//  8. kServeRetiredHotItem — a μTPS CR worker's hot GET serves the value of
//     an item its hot structure still points at although a grown PUT has
//     replaced (and retired) it in the index. μTPS-T and μTPS-H both look
//     hot keys up in a hot table of item pointers, so the value-growth cell
//     reads a superseded value after the replacing PUT was acknowledged:
//     caught by the checker on both systems.
//  9. kReplSlotsShareStream — a cluster worker's replication slots share one
//     dedup stream. A lost replication message overtaken by a later slot's
//     reads as done at the backup when retransmitted, so the primary applies
//     a write the backup never did: caught by the replica audit.
// 10. kReplSameKeyOverlap — a cluster worker replicates a write while an
//     earlier write to the same key is still in flight. A delayed or
//     duplicated replication message lets the backup apply the two in the
//     other order: caught by the replica audit, or by the checker once a
//     promoted backup serves the older value.
// 11. kPublishSlotOutOfOrder — a μTPS MR worker's rolling batch publishes a
//     finished slot's tail while an earlier slot of the same ring still has
//     descriptors running. The tail counts slots, so the CR worker takes the
//     earlier slot as done and sends its responses before they are in place:
//     a PUT is acknowledged before it is applied, and a GET or scan leaves
//     empty or half-written. Caught by the checker, or as stuck ops or a
//     failed quiesce audit once a reused slot or receive record is answered
//     twice.
//
// Each mutation must be detected within the CI seed budget; the clean control
// configuration must pass.
#include <string>

#include <gtest/gtest.h>

#include "check/mutation.h"
#include "dst_cluster.h"
#include "dst_harness.h"

namespace utps::dst {
namespace {

// Small hot keyspace + large values: many same-key read/write races, and a
// wide torn window inside each value write.
DstConfig SeqlockConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kBaseKv;
  cfg.mix = kYcsbA;
  cfg.seed = seed;
  cfg.num_keys = 4;
  cfg.value_size = 512;
  cfg.clients = 10;
  cfg.ops_per_client = 60;
  cfg.jitter_ns = 48;
  return cfg;
}

DstConfig RingConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kMuTpsH;
  cfg.mix = kYcsbA;
  cfg.seed = seed;
  cfg.clients = 6;
  cfg.ops_per_client = 40;
  cfg.jitter_ns = 48;
  return cfg;
}

// Few hot keys + put-heavy mix + aggressive duplication with delay spread:
// a duplicate PUT's re-apply lands tens of µs after the original, giving
// another writer time to overwrite the key in between and a reader time to
// observe the resurrected value afterwards.
DstConfig DedupConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kBaseKv;
  cfg.mix = kPutSkew;
  cfg.seed = seed;
  cfg.num_keys = 4;
  cfg.value_size = 32;
  cfg.clients = 8;
  cfg.ops_per_client = 48;
  cfg.jitter_ns = 48;
  cfg.fault.dup_prob = 0.3;
  cfg.fault.delay_prob = 0.2;
  cfg.fault.delay_ns = 30 * sim::kUsec;
  return cfg;
}

// Put-heavy traffic over a small keyspace with a forced mid-run migration:
// plenty of writes land after the ownership flip, and with the epoch gate
// dropped they all land on the node that no longer owns the shard.
DstClusterConfig ClusterMigConfig(uint64_t seed) {
  DstClusterConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 3;
  cfg.shards = 8;
  cfg.clients = 4;
  cfg.ops_per_client = 48;
  cfg.put_frac = 0.6;
  cfg.forced.push_back(
      cluster::ForcedMigration{100 * sim::kUsec, seed % 8, -1});
  return cfg;
}

// Hot keys, put-heavy, one worker per node and a lossy, duplicating,
// delaying control wire: several writes to one key reach a worker close
// together, and their replication messages can overtake each other.
DstClusterConfig ReplPipelineConfig(uint64_t seed) {
  DstClusterConfig cfg;
  cfg.seed = seed;
  cfg.nodes = 2;
  cfg.shards = 2;
  cfg.workers = 1;
  cfg.num_keys = 8;
  cfg.clients = 12;
  cfg.ops_per_client = 48;
  cfg.put_frac = 0.8;
  cfg.fault.drop_prob = 0.02;
  cfg.fault.dup_prob = 0.2;
  cfg.fault.delay_prob = 0.3;
  cfg.fault.delay_ns = 6 * sim::kUsec;
  return cfg;
}

// dst_test's SplitStormUniformGets cell (8 B leg): a new split every 2 μs.
DstConfig SplitStormConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kMuTpsH;
  cfg.mix = Mix{1.0, 0.0, 0.0, 0.0};
  cfg.seed = seed;
  cfg.jitter_ns = seed % 2 == 0 ? 0 : 48;
  cfg.split_storm = true;
  cfg.num_keys = 4096;
  cfg.zipf_theta = 0.0;
  cfg.value_size = 8;
  cfg.clients = 192;
  cfg.ops_per_client = 60;
  cfg.machine.priv_sets_log2 = 2;
  cfg.machine.llc_sets_log2 = 6;
  return cfg;
}

// dst_test's ScanMixDeepInFlight cell: 32 clients, 70% scans, so an MR
// worker answers more scans than its 64 KB RespBuffer has 8 KB regions
// before the CR layer sends the first.
DstConfig ScanDeepConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kMuTpsT;
  cfg.mix = Mix{0.0, 0.3, 0.0, 0.7};
  cfg.seed = seed;
  cfg.jitter_ns = seed % 2 == 0 ? 0 : 48;
  cfg.num_keys = 4096;
  cfg.clients = 32;
  cfg.ops_per_client = 40;
  cfg.scan_len_avg = 8;
  return cfg;
}

// Full receive slots of uniform misses: 48 clients over 4096 keys keep every
// slot at its eight records, and with the hot set empty each record of a CR
// batch is forwarded, so staging reaches batch_size inside one batch.
DstConfig CrBatchConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kMuTpsH;
  cfg.mix = kYcsbA;
  cfg.seed = seed;
  cfg.jitter_ns = seed % 2 == 0 ? 0 : 48;
  cfg.num_keys = 4096;
  cfg.zipf_theta = 0.0;
  cfg.clients = 48;
  cfg.ops_per_client = 20;
  return cfg;
}

// dst_test's ValueGrowth cell: half the PUTs grow their key's value, so items
// are replaced (and retired) while an 8 μs refresh keeps republishing them.
DstConfig ValueGrowthConfig(Sys sys, uint64_t seed) {
  DstConfig cfg;
  cfg.sys = sys;
  cfg.mix = kYcsbA;
  cfg.seed = seed;
  cfg.jitter_ns = seed % 2 == 0 ? 0 : 48;
  cfg.inject_split = seed % 3 == 0;
  cfg.grow_value_size = 512;
  cfg.fast_refresh = true;
  cfg.clients = 8;
  cfg.ops_per_client = 100;
  return cfg;
}

// dst_test's RollingBatchesFinishOutOfOrder mix on μTPS-T without its faults
// and splits: 8-key scans beside skewed PUTs, so an MR worker finishes later
// slots of a ring while a scan of an earlier one still runs.
DstConfig RollingConfig(uint64_t seed) {
  DstConfig cfg;
  cfg.sys = Sys::kMuTpsT;
  cfg.mix = Mix{0.1, 0.6, 0.0, 0.3};
  cfg.seed = seed;
  cfg.jitter_ns = seed % 2 == 0 ? 0 : 48;
  cfg.workers = 6;
  cfg.clients = 32;
  cfg.ops_per_client = 40;
  cfg.scan_len_avg = 8;
  return cfg;
}

constexpr uint64_t kSeedBudget = 12;

TEST(DstMutation, ControlRunsPass) {
  mut::Reset(mut::Mode::kNone);
  const DstResult a = RunDst(SeqlockConfig(1));
  EXPECT_TRUE(a.ok) << a.error;
  const DstResult b = RunDst(RingConfig(1));
  EXPECT_TRUE(b.ok) << b.error;
  // With the dedup window armed, the same dup-heavy fault plan is absorbed.
  const DstResult c = RunDst(DedupConfig(1));
  EXPECT_TRUE(c.ok) << c.error;
  // With the epoch gate armed, the migration profile is clean too.
  const DstClusterResult d = RunDstCluster(ClusterMigConfig(1));
  EXPECT_TRUE(d.ok) << d.error;
  EXPECT_GT(d.migrations, 0u);
  // With one stream per slot and per-key order, the pipelined cell is clean.
  const DstClusterResult r = RunDstCluster(ReplPipelineConfig(1));
  EXPECT_TRUE(r.ok) << r.error;
  // With the acknowledgement wait armed, the split storm is clean.
  const DstResult e = RunDst(SplitStormConfig(1));
  EXPECT_TRUE(e.ok) << e.error;
  // With MR response regions held, deep scan traffic is clean.
  const DstResult f = RunDst(ScanDeepConfig(1));
  EXPECT_TRUE(f.ok) << f.error;
  // With misses forwarded after the batch, full slots are clean.
  const DstResult g = RunDst(CrBatchConfig(1));
  EXPECT_TRUE(g.ok) << g.error;
  // With slots published in ring order, out-of-order finishes are clean.
  const DstResult i = RunDst(RollingConfig(1));
  EXPECT_TRUE(i.ok) << i.error;
  EXPECT_GT(i.held_publishes, 0u);
  // With retired hot items turned into misses, value growth is clean.
  for (Sys sys : {Sys::kMuTpsT, Sys::kMuTpsH}) {
    const DstResult h = RunDst(ValueGrowthConfig(sys, 1));
    EXPECT_TRUE(h.ok) << h.error;
  }
}

TEST(DstMutation, DropSeqlockBumpCaught) {
  mut::Reset(mut::Mode::kDropSeqlockBump);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstConfig cfg = SeqlockConfig(seed);
    const DstResult r = RunDst(cfg);
    if (!r.ok) {
      caught = true;
      EXPECT_NE(r.error.find("torn"), std::string::npos)
          << "unexpected failure mode: " << r.error;
      // The failing seed must shrink to a still-failing minimal prefix.
      DstResult min;
      const uint64_t min_ops = ShrinkToMinimalPrefix(cfg, r, &min);
      EXPECT_FALSE(min.ok);
      EXPECT_LE(min_ops, r.ops_issued);
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "dropped seqlock bump survived " << kSeedBudget << " seeds";
}

TEST(DstMutation, SkipRingTailPublishCaught) {
  mut::Reset(mut::Mode::kSkipRingTailPublish);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstResult r = RunDst(RingConfig(seed));
    if (mut::g_fired == 0) {
      continue;  // too little ring traffic to reach the dropped publish
    }
    if (!r.ok) {
      caught = true;
      const bool stuck = r.error.find("stuck") != std::string::npos;
      const bool audit = r.error.find("ring") != std::string::npos ||
                         r.error.find("head") != std::string::npos ||
                         r.error.find("outstanding") != std::string::npos;
      EXPECT_TRUE(stuck || audit) << "unexpected failure mode: " << r.error;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "dropped ring-tail publish survived " << kSeedBudget << " seeds";
}

TEST(DstMutation, DropDedupWindowCaught) {
  mut::Reset(mut::Mode::kDropDedupWindow);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstConfig cfg = DedupConfig(seed);
    const DstResult r = RunDst(cfg);
    ASSERT_GT(mut::g_fired, 0u) << "dedup window never consulted";
    if (!r.ok) {
      caught = true;
      // Duplicate re-apply corrupts history consistency, it must not wedge
      // the run: the failure has to come from the checker, not a hang.
      EXPECT_EQ(r.error.find("stuck"), std::string::npos)
          << "unexpected failure mode: " << r.error;
      // The failing seed must shrink to a still-failing minimal prefix.
      DstResult min;
      const uint64_t min_ops = ShrinkToMinimalPrefix(cfg, r, &min);
      EXPECT_FALSE(min.ok);
      EXPECT_LE(min_ops, r.ops_issued);
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "disabled dedup window survived " << kSeedBudget << " seeds";
}

TEST(DstMutation, DropRingEpochCheckCaught) {
  mut::Reset(mut::Mode::kDropRingEpochCheck);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstClusterResult r = RunDstCluster(ClusterMigConfig(seed));
    ASSERT_GT(mut::g_fired, 0u) << "epoch gate never consulted";
    if (!r.ok) {
      caught = true;
      // The stale owner keeps answering, so clients never hang: the failure
      // must come from the replica audit or the history checker, not a
      // stuck-client timeout.
      EXPECT_EQ(r.error.find("stuck"), std::string::npos)
          << "unexpected failure mode: " << r.error;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "dropped ring-epoch check survived " << kSeedBudget << " seeds";
}

// Both replication mutations fail the same way: the primary and its backup
// hold different values, which the replica audit or the checker sees; the
// clients still get answers, so a stuck client is not a catch.
void ExpectReplMutationCaught(mut::Mode mode, const char* what) {
  mut::Reset(mode);
  bool caught = false;
  uint64_t fired = 0;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstClusterResult r = RunDstCluster(ReplPipelineConfig(seed));
    fired += mut::g_fired;
    if (!r.ok) {
      caught = true;
      const bool audit = r.error.find("divergence") != std::string::npos;
      const bool checker = r.error.find("linearization") != std::string::npos;
      EXPECT_TRUE(audit || checker) << "unexpected failure mode: " << r.error;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_GT(fired, 0u) << what << " never fired";
  EXPECT_TRUE(caught) << what << " survived " << kSeedBudget << " seeds";
}

TEST(DstMutation, ReplSlotsShareStreamCaught) {
  ExpectReplMutationCaught(mut::Mode::kReplSlotsShareStream,
                           "replication slots sharing a stream");
}

TEST(DstMutation, ReplSameKeyOverlapCaught) {
  ExpectReplMutationCaught(mut::Mode::kReplSameKeyOverlap,
                           "same-key replications overlapping");
}

TEST(DstMutation, PublishWithoutAcksCaught) {
  mut::Reset(mut::Mode::kPublishWithoutAcks);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstResult r = RunDst(SplitStormConfig(seed));
    ASSERT_GT(mut::g_fired, 0u) << "no split published";
    if (!r.ok) {
      caught = true;
      const bool stuck = r.error.find("stuck") != std::string::npos;
      const bool audit = r.error.find("mutps:") != std::string::npos;
      EXPECT_TRUE(stuck || audit) << "unexpected failure mode: " << r.error;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "split published without acknowledgements survived " << kSeedBudget
      << " seeds";
}

TEST(DstMutation, MrRegionWithoutHoldCaught) {
  mut::Reset(mut::Mode::kMrRegionWithoutHold);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstConfig cfg = ScanDeepConfig(seed);
    const DstResult r = RunDst(cfg);
    ASSERT_GT(mut::g_fired, 0u) << "no MR response region taken";
    if (!r.ok) {
      caught = true;
      // Overwritten responses still leave: the failure must come from the
      // checker's scan rules, not a hang.
      EXPECT_NE(r.error.find("scan"), std::string::npos)
          << "unexpected failure mode: " << r.error;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "MR response regions taken without a hold survived " << kSeedBudget
      << " seeds";
}

TEST(DstMutation, CrForwardInBatchCaught) {
  mut::Reset(mut::Mode::kCrForwardInBatch);
  bool caught = false;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    const DstResult r = RunDst(CrBatchConfig(seed));
    ASSERT_GT(mut::g_fired, 0u) << "no miss forwarded";
    if (!r.ok) {
      caught = true;
      const bool stuck = r.error.find("stuck") != std::string::npos;
      const bool audit = r.error.find("mutps:") != std::string::npos;
      EXPECT_TRUE(stuck || audit) << "unexpected failure mode: " << r.error;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_TRUE(caught)
      << "misses forwarded inside the CR batch survived " << kSeedBudget
      << " seeds";
}

TEST(DstMutation, PublishSlotOutOfOrderCaught) {
  mut::Reset(mut::Mode::kPublishSlotOutOfOrder);
  bool caught = false;
  uint64_t fired = 0;
  for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
    mut::g_fired = 0;
    const DstResult r = RunDst(RollingConfig(seed));
    fired += mut::g_fired;
    if (mut::g_fired != 0 && !r.ok) {
      caught = true;
    }
  }
  mut::Reset(mut::Mode::kNone);
  EXPECT_GT(fired, 0u) << "no slot finished before an earlier one";
  EXPECT_TRUE(caught) << "slots published out of ring order survived "
                      << kSeedBudget << " seeds";
}

TEST(DstMutation, ServeRetiredHotItemCaught) {
  for (Sys sys : {Sys::kMuTpsT, Sys::kMuTpsH}) {
    mut::Reset(mut::Mode::kServeRetiredHotItem);
    bool caught = false;
    uint64_t fired = 0;
    for (uint64_t seed = 1; seed <= kSeedBudget && !caught; seed++) {
      mut::g_fired = 0;
      const DstResult r = RunDst(ValueGrowthConfig(sys, seed));
      fired += mut::g_fired;
      if (mut::g_fired != 0 && !r.ok) {
        caught = true;
        // The stale value still leaves in a response: the failure must come
        // from the checker, not a hang.
        EXPECT_EQ(r.error.find("stuck"), std::string::npos)
            << "unexpected failure mode: " << r.error;
      }
    }
    mut::Reset(mut::Mode::kNone);
    EXPECT_GT(fired, 0u) << SysName(sys) << ": no retired hot item read";
    EXPECT_TRUE(caught) << SysName(sys)
                        << ": serving retired hot items survived "
                        << kSeedBudget << " seeds";
  }
}

}  // namespace
}  // namespace utps::dst
