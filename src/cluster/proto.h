// Cluster wire protocol (DESIGN.md §14).
//
// Cluster messages reuse the single-node NicMessage header words: the op
// nibble in h[1] (bits 31..28) carries either a data-plane OpType (kGet,
// kPut, kDelete = 0..2) or one of the control opcodes 3..15 (9 is unused;
// cluster mode serves no scans, so kScan's 3 is free). Data requests are
// encoded by EncodeRequest (net/rpc.h) exactly as in single-node mode, with one
// addition: h[2] carries the client's believed ring epoch (unused by data
// ops, which only use h[2]/h[3] for scans — cluster mode serves no scans).
//
// Every cluster response leads with a fixed 16-byte header so a redirected
// client learns the authoritative owner without a second round trip:
//   { u32 status, u32 owner, u64 epoch }   (little-endian memcpy fields)
// followed by the value bytes for a successful GET.
#ifndef UTPS_CLUSTER_PROTO_H_
#define UTPS_CLUSTER_PROTO_H_

#include <cstdint>
#include <cstring>

#include "common/macros.h"
#include "store/kv.h"

namespace utps::cluster {

// Control opcodes, carried in the h[1] op nibble next to OpType 0..3.
enum class Ctl : uint8_t {
  // 0-2 are the data-plane OpType values; the ctl plane starts at 3.
  kResync = 3,    // manager -> node: full assignment-table snapshot (payload)
  kReplPut = 4,   // primary -> backup: replicate a PUT (h[2] = client rid)
  kReplDel = 5,   // primary -> backup: replicate a DELETE
  kMigStart = 6,  // manager -> src: freeze shard h[0], transfer to node h[2]
  kMigChunk = 7,  // src -> dst: snapshot items chunk for shard h[0]
  kMigDedup = 8,  // src -> dst: dedup-window watermarks (sorted by stream)
  kMigDone = 10,  // src -> manager: transfer of shard h[0] complete
  kOwn = 11,      // manager -> node: assignment for shard h[0] (see PackOwn)
  kDemote = 12,   // manager -> node: you do not hold shard h[0]; owner hint
  kNoRepl = 13,   // manager -> primary: backup for shard h[0] died, stop repl
  kProbe = 14,    // manager -> node: health probe; renews the node's lease
  kResolve = 15,  // client -> manager: who owns shard h[0]?
};

enum class Status : uint32_t {
  kOk = 0,
  kNotOwner = 1,  // node is not the shard's primary; header names the owner
  kFrozen = 2,    // mid-migration freeze; retry shortly
  kFenced = 3,    // node's lease lapsed or it missed assignment updates
};

constexpr uint32_t kRespHeaderBytes = 16;
constexpr uint32_t kNoOwner = 0xffffffffu;  // owner field: unknown

struct RespHeader {
  Status status = Status::kOk;
  uint32_t owner = kNoOwner;
  uint64_t epoch = 0;
};

inline void PutRespHeader(uint8_t* dst, Status st, uint32_t owner,
                          uint64_t epoch) {
  const uint32_t s = static_cast<uint32_t>(st);
  std::memcpy(dst, &s, 4);
  std::memcpy(dst + 4, &owner, 4);
  std::memcpy(dst + 8, &epoch, 8);
}

inline RespHeader ParseRespHeader(const uint8_t* src) {
  RespHeader h;
  uint32_t s = 0;
  std::memcpy(&s, src, 4);
  h.status = static_cast<Status>(s);
  std::memcpy(&h.owner, src + 4, 4);
  std::memcpy(&h.epoch, src + 8, 8);
  return h;
}

// kOwn / kDemote payload word (h[3]): role + backup id + owner hint. The
// assignment epoch rides in h[0]'s sibling word h[2]... kept separate so the
// shard id stays in h[0] like every other message:
//   h[0] = shard, h[2] = (node_seq << 16) | role | ((backup+1) << 2),
//   h[3] = (assignment epoch << 32) | (owner_hint + 1).
// node_seq is the manager's per-node assignment sequence number used for
// fencing (a node that missed an assignment message stays fenced until the
// resync catches it up — see ClusterManager).
enum class Role : uint8_t { kNone = 0, kPrimary = 1, kBackup = 2 };

inline uint64_t PackOwnWord(Role role, int backup, uint64_t node_seq) {
  return (node_seq << 16) | static_cast<uint64_t>(role) |
         (static_cast<uint64_t>(backup + 1) << 2);
}

inline Role OwnRole(uint64_t w) {
  return static_cast<Role>(w & 0x3);
}
inline int OwnBackup(uint64_t w) {
  return static_cast<int>((w >> 2) & 0x3fff) - 1;
}
inline uint64_t OwnNodeSeq(uint64_t w) { return w >> 16; }

inline uint64_t PackOwnerEpoch(uint64_t epoch, int owner_hint) {
  UTPS_DCHECK(epoch < (1ull << 32));
  return (epoch << 32) | static_cast<uint32_t>(owner_hint + 1);
}
inline uint64_t OwnEpoch(uint64_t w) { return w >> 32; }
inline int OwnHint(uint64_t w) {
  return static_cast<int>(static_cast<uint32_t>(w)) - 1;
}

// ---------------------------------------------------------------- sharding
// Range partitioning: contiguous key segments map to the same shard, so a
// zipf hot set concentrates on few shards — exactly the signal the hotset
// rebalancer migrates on (a hashed placement would smear the hot set and
// leave nothing to move). Keys outside the populated range fall back to
// modulo so routing is total.
inline uint64_t ShardOfKey(Key key, unsigned shards, uint64_t num_keys) {
  if (key >= num_keys) {
    return key % shards;
  }
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(key) * shards) / num_keys);
}

// ------------------------------------------------------------- rid streams
// DedupWindow streams (rid >> 32) are partitioned so client data streams,
// client control streams, node-to-node replication, migration transfers and
// manager probes never collide:
//   client data:   id + 1                  (same as single-node DST/harness)
//   node repl:     0x10000 + node*256 + worker
//   migration:     0x20000 + node
//   manager:       0x30000 + node          (probes + assignments per node)
//   client ctl:    0x40000 + id            (kResolve to the manager)
inline uint64_t ReplStream(unsigned node, unsigned worker) {
  return 0x10000ull + node * 256 + worker;
}
inline uint64_t MigStream(unsigned node) { return 0x20000ull + node; }
inline uint64_t MgrStream(unsigned node) { return 0x30000ull + node; }
inline uint64_t ClientCtlStream(unsigned id) { return 0x40000ull + id; }

}  // namespace utps::cluster

#endif  // UTPS_CLUSTER_PROTO_H_
