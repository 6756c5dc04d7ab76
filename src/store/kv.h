// Core KV types shared by indexes, RPC, and servers.
#ifndef UTPS_STORE_KV_H_
#define UTPS_STORE_KV_H_

#include <cstdint>

#include "common/macros.h"

namespace utps {

// Keys are 64-bit. The paper's wire format hashes longer keys into 8 bytes
// (with chained disambiguation); our workloads generate 64-bit keys directly.
using Key = uint64_t;

enum class OpType : uint8_t {
  kGet = 0,
  kPut = 1,
  kDelete = 2,
  kScan = 3,
};

// A request's op/length word (RxRecord::op_len, WalRecord::op_len and
// NicMessage::h[1]): the op in the top 4 bits, a 28-bit length below. The op
// is an OpType on the data path and a cluster::Ctl on the control path.
template <typename Op>
inline uint32_t PackOpLen(Op op, uint32_t len) {
  UTPS_DCHECK(len < (1u << 28));
  return (static_cast<uint32_t>(op) << 28) | len;
}

template <typename Op = OpType>
inline Op OpOf(uint64_t word) {
  return static_cast<Op>(static_cast<uint32_t>(word) >> 28);
}

inline uint32_t LenOf(uint64_t word) {
  return static_cast<uint32_t>(word) & 0x0fffffffu;
}

}  // namespace utps

#endif  // UTPS_STORE_KV_H_
