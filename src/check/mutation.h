// Mutation smoke-check hooks (tests/dst/dst_mutation_test.cc).
//
// Seeded bugs can be reintroduced into the concurrency machinery to prove
// the DST harness detects real defects. The hook sites compile to nothing
// unless MUTPS_MUTATION is defined; the mutation test builds its own copies of
// the affected translation units with that flag, so the library and every
// other binary are unaffected. Which bug is active is a runtime mode so one
// binary covers every mutation plus a clean control run.
#ifndef UTPS_CHECK_MUTATION_H_
#define UTPS_CHECK_MUTATION_H_

#include <cstdint>

namespace utps::mut {

enum class Mode : uint8_t {
  kNone = 0,
  // ItemWrite's locked path skips both seqlock ctrl bumps: readers no longer
  // see an odd/changed version around the write and can return a torn value.
  kDropSeqlockBump = 1,
  // MrProcessSlot skips one AdvanceTail: the batch's completion signal never
  // reaches the CR worker, so its responses (and every later batch on that
  // ring) are never sent — ops hang and the ring fails its quiesce audit.
  kSkipRingTailPublish = 2,
  // DedupWindow::Begin always answers kExecute: a retransmitted or duplicated
  // PUT/DELETE is applied again. Under a loss+dup fault plan the second apply
  // can straddle another writer's PUT to the same key, so a later read returns
  // the resurrected old value — a stale-read linearizability violation.
  kDropDedupWindow = 3,
  // A cluster node skips the per-shard ownership/epoch check
  // (ClusterNode::Admit, and StepSlot's role check before a write's
  // replication, cluster/cluster.h): after a migration it keeps
  // serving (and acking writes against its stale replica of) a shard it
  // handed off, instead of answering NOT_OWNER. A straggler write applied
  // there never reaches the new primary, so reads routed by the flipped ring
  // miss an acked write (stale read) and the primary/backup replica audit
  // sees divergent copies.
  kDropRingEpochCheck = 4,
  // MuTpsServer::Reconfigure publishes a thread split and returns without
  // waiting for every worker to acknowledge it, so the next split can be
  // published while workers are still switching to this one. Workers then
  // jump versions: slots are claimed under splits their owners never ran,
  // and a CR worker that skipped a version forwards to an MR worker that has
  // already joined the CR layer — stuck ops or a failed quiesce audit.
  kPublishWithoutAcks = 5,
  // MrProcessOne takes a forwarded GET's or scan's region from the MR
  // worker's RespBuffer with Alloc instead of TryHold: nothing holds it, so
  // the worker's later responses lap the cyclic buffer and overwrite it
  // before the CR layer sends it (eight 8 KB scans fill the 64 KB buffer).
  // The client reads another request's bytes.
  kMrRegionWithoutHold = 6,
  // A CR worker forwards each miss from inside its slot batch (CrFront calls
  // CrForward) instead of after it. A staging flush then suspends while
  // another record of the batch pushes to the same target and flushes too:
  // both claim the ring slot at head, so one batch's descriptors overwrite
  // the other's and requests are lost or answered twice.
  kCrForwardInBatch = 7,
  // CrServeHot's GET path serves a hot item's value even when kItemRetired
  // is set: a hot-structure pointer that a grown PUT has replaced in the
  // index answers with the superseded value, after the PUT that replaced it
  // was acknowledged — a stale read.
  kServeRetiredHotItem = 8,
  // A cluster worker's replication slots (ClusterNode, cluster/cluster.h)
  // share one dedup stream per worker instead of one per slot. When a lost
  // replication message is overtaken by a later slot's, the backup's window
  // records the later rid as started and done, so the retransmit of the
  // earlier one is acked as done without being applied: the primary applies
  // a write its backup never did, and the replica audit sees the divergence.
  kReplSlotsShareStream = 9,
  // A cluster worker replicates a write while an earlier write to the same
  // key is still in flight on another of its slots. When the wire reorders
  // the two, the backup applies them in one order and the primary in the
  // other: the replicas diverge, and a promoted backup serves the older
  // value.
  kReplSameKeyOverlap = 10,
};

inline Mode g_mode = Mode::kNone;

// kSkipRingTailPublish drops the Nth tail publish (1-based); a small N keeps
// detection within the CI seed budget.
inline uint64_t g_tail_publish_skip_at = 5;
inline uint64_t g_tail_publish_count = 0;

// Number of times the active mutation actually fired (diagnostic: a mutation
// that never fires cannot be detected).
inline uint64_t g_fired = 0;

inline void Reset(Mode m) {
  g_mode = m;
  g_tail_publish_count = 0;
  g_fired = 0;
}

#ifdef MUTPS_MUTATION
inline bool DropSeqlockBump() {
  if (g_mode != Mode::kDropSeqlockBump) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool SkipRingTailPublish() {
  if (g_mode != Mode::kSkipRingTailPublish) {
    return false;
  }
  if (++g_tail_publish_count != g_tail_publish_skip_at) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool DropDedupWindow() {
  if (g_mode != Mode::kDropDedupWindow) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool DropRingEpochCheck() {
  if (g_mode != Mode::kDropRingEpochCheck) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool PublishWithoutAcks() {
  if (g_mode != Mode::kPublishWithoutAcks) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool MrRegionWithoutHold() {
  if (g_mode != Mode::kMrRegionWithoutHold) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool CrForwardInBatch() {
  if (g_mode != Mode::kCrForwardInBatch) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool ServeRetiredHotItem() {
  if (g_mode != Mode::kServeRetiredHotItem) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool ReplSlotsShareStream() {
  if (g_mode != Mode::kReplSlotsShareStream) {
    return false;
  }
  g_fired++;
  return true;
}

inline bool ReplSameKeyOverlap() {
  if (g_mode != Mode::kReplSameKeyOverlap) {
    return false;
  }
  g_fired++;
  return true;
}
#else
inline constexpr bool DropSeqlockBump() { return false; }
inline constexpr bool SkipRingTailPublish() { return false; }
inline constexpr bool DropDedupWindow() { return false; }
inline constexpr bool DropRingEpochCheck() { return false; }
inline constexpr bool PublishWithoutAcks() { return false; }
inline constexpr bool MrRegionWithoutHold() { return false; }
inline constexpr bool CrForwardInBatch() { return false; }
inline constexpr bool ServeRetiredHotItem() { return false; }
inline constexpr bool ReplSlotsShareStream() { return false; }
inline constexpr bool ReplSameKeyOverlap() { return false; }
#endif

}  // namespace utps::mut

#endif  // UTPS_CHECK_MUTATION_H_
