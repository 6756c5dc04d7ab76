// Consistent-hash ring with virtual nodes (DESIGN.md §14).
//
// Shard -> node placement for the scale-out tier: each node contributes
// `vnodes` seeded points on a 64-bit ring, and a shard is owned by the first
// point clockwise of its hash (its successor). The backup replica lives on
// the next *distinct* node clockwise, so primary and backup never coincide.
//
// Properties the unit tests lock down (tests/cluster_ring_test.cc):
//  - placement is a pure function of (seed, membership): two processes agree
//    on every shard without coordination;
//  - balance: with >= 64 vnodes the per-node shard-count coefficient of
//    variation stays below a fixed bound;
//  - minimal movement: adding or removing one node only moves the shards
//    that land on that node's arcs — every other shard keeps its owner.
//
// All hashing goes through Mix64 (common/rng.h), never std::hash, so the
// ring is identical across standard libraries and processes.
#ifndef UTPS_CLUSTER_RING_H_
#define UTPS_CLUSTER_RING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"

namespace utps::cluster {

class HashRing {
 public:
  HashRing(unsigned num_nodes, unsigned vnodes, uint64_t seed)
      : vnodes_(vnodes), seed_(seed) {
    UTPS_CHECK(vnodes_ > 0);
    for (unsigned n = 0; n < num_nodes; n++) {
      AddNode(n);
    }
  }

  // Inserts `node`'s vnode points. Idempotent membership is the caller's
  // concern (the cluster only adds each node once).
  void AddNode(unsigned node) {
    points_.reserve(points_.size() + vnodes_);
    for (unsigned v = 0; v < vnodes_; v++) {
      points_.push_back(Point{PointHash(node, v), node});
    }
    std::sort(points_.begin(), points_.end(), PointLess);
  }

  void RemoveNode(unsigned node) {
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [node](const Point& p) {
                                   return p.node == node;
                                 }),
                  points_.end());
  }

  // Primary owner: successor point of the shard's ring position.
  unsigned OwnerOf(uint64_t shard) const {
    UTPS_CHECK(!points_.empty());
    return points_[Successor(ShardHash(shard))].node;
  }

  // Backup replica: the next distinct node clockwise after the owner, or -1
  // when the ring holds a single node.
  int BackupOf(uint64_t shard) const {
    UTPS_CHECK(!points_.empty());
    const size_t i = Successor(ShardHash(shard));
    const unsigned owner = points_[i].node;
    for (size_t step = 1; step < points_.size(); step++) {
      const unsigned n = points_[(i + step) % points_.size()].node;
      if (n != owner) {
        return static_cast<int>(n);
      }
    }
    return -1;
  }

  uint64_t seed() const { return seed_; }
  unsigned vnodes() const { return vnodes_; }

 private:
  struct Point {
    uint64_t hash;
    unsigned node;
  };

  // Ties (astronomically unlikely but cheap to handle) break by node id so
  // the order is total and process-independent.
  static bool PointLess(const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
  }

  uint64_t PointHash(unsigned node, unsigned v) const {
    return Mix64(seed_ ^ Mix64((uint64_t{node} << 24) | (v + 1)) ^
                 0x52696e67ULL);  // "Ring"
  }

  uint64_t ShardHash(uint64_t shard) const {
    return Mix64(seed_ ^ Mix64(shard + 0x5368617264ULL));  // "Shard"
  }

  // Index of the first point with hash >= h, wrapping to 0 past the end.
  size_t Successor(uint64_t h) const {
    const Point probe{h, 0};
    const auto it =
        std::lower_bound(points_.begin(), points_.end(), probe, PointLess);
    return it == points_.end() ? 0
                               : static_cast<size_t>(it - points_.begin());
  }

  unsigned vnodes_;
  uint64_t seed_;
  std::vector<Point> points_;  // sorted by (hash, node)
};

}  // namespace utps::cluster

#endif  // UTPS_CLUSTER_RING_H_
