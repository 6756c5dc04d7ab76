// Per-node counters of a cluster run (src/cluster). A node counts into one
// directly; the cluster harness reports one per server node in
// ExperimentResult::node_counters (empty for single-node experiments).
#ifndef UTPS_STATS_NODE_COUNTERS_H_
#define UTPS_STATS_NODE_COUNTERS_H_

#include <cstdint>

namespace utps {

struct NodeCounters {
  uint64_t ops_served = 0;        // data ops this node executed as primary
  uint64_t repl_sent = 0;         // replication RPCs sent as primary
  uint64_t repl_applied = 0;      // replication ops applied as backup
  uint64_t not_owner = 0;         // requests answered NOT_OWNER / FROZEN
  uint64_t migrations_out = 0;    // shards this node handed off
  uint64_t migrations_in = 0;     // shards this node took over
  uint64_t promotions = 0;        // backup -> primary promotions
  bool crashed = false;           // node was crash-stopped by the fault plan
  bool fenced = false;            // node self-fenced on lease expiry
};

}  // namespace utps

#endif  // UTPS_STATS_NODE_COUNTERS_H_
