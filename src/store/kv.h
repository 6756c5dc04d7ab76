// Core KV types shared by indexes, RPC, and servers.
#ifndef UTPS_STORE_KV_H_
#define UTPS_STORE_KV_H_

#include <cstdint>

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

}  // namespace utps

#endif  // UTPS_STORE_KV_H_
