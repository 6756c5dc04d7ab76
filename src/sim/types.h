// Fundamental types for the discrete-event multicore simulator.
#ifndef UTPS_SIM_TYPES_H_
#define UTPS_SIM_TYPES_H_

#include <cstdint>

namespace utps::sim {

// Virtual time, in nanoseconds since simulation start.
using Tick = uint64_t;

using CoreId = uint16_t;
using ClosId = uint8_t;

inline constexpr Tick kUsec = 1000;
inline constexpr Tick kMsec = 1000 * 1000;
inline constexpr Tick kSec = 1000ull * 1000 * 1000;

// Pipeline stages used for PCM-style counter attribution (which stage of
// request processing caused which cache events). Mirrors the sub-tasks the
// paper's §2.2.1 analysis decomposes a KV operation into.
enum class Stage : uint8_t {
  kIdle = 0,
  kPoll,        // fetching requests from the network receive buffer
  kParse,       // decoding request headers
  kCacheCheck,  // CR-layer hot-set lookup
  kIndex,       // index traversal
  kData,        // KV item read/write + buffer copies
  kRespond,     // response buffer writes / send posting
  kQueue,       // CR-MR queue push/pop
  kCount,
};

inline constexpr unsigned kNumStages = static_cast<unsigned>(Stage::kCount);

}  // namespace utps::sim

#endif  // UTPS_SIM_TYPES_H_
