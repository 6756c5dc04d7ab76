// Sampled simulation (DESIGN.md §12): configuration and window planning for
// the two-mode execution engine. The harness alternates a functional
// fast-forward mode (state mutation only — flat costs, frozen cache tags, no
// NIC token-bucket accounting) with short detailed sample windows, and
// extrapolates throughput and tail latency from the windows onto the full
// measurement interval. The planner is seeded and fully deterministic: a
// given (seed, plan) pair always yields the same window placements, so
// sampled runs are byte-reproducible.
#ifndef UTPS_SIM_SAMPLE_H_
#define UTPS_SIM_SAMPLE_H_

#include <cstdint>
#include <string>

#include "common/env.h"
#include "common/rng.h"
#include "sim/types.h"

namespace utps::sim {

// How detailed windows are placed inside each sampling period.
enum class SamplePlan : uint8_t {
  // Window at a fixed offset (0) in every period. The workhorse plan.
  kPeriodic = 0,
  // Window at a seeded pseudo-random offset per period. Decorrelates the
  // sample clock from any periodicity in the workload or the autotuner.
  kRandom = 1,
  // Deliberately broken negative control: windows are "measured" while the
  // machine stays functional, so latencies collapse to the flat functional
  // costs and throughput inflates. Exists so the error-bound test can prove
  // the 5% validation harness actually has teeth.
  kBiased = 2,
};

inline const char* SamplePlanName(SamplePlan p) {
  switch (p) {
    case SamplePlan::kPeriodic: return "periodic";
    case SamplePlan::kRandom: return "random";
    case SamplePlan::kBiased: return "biased";
  }
  return "?";
}

struct SampleConfig {
  bool enabled = false;
  // Length of one sampling period. Each period contributes one detailed
  // window; everything else in the period runs functionally.
  Tick period_ns = 1'000'000;  // 1 ms
  // Measured portion of each period.
  Tick window_ns = 120'000;  // 120 us
  // Detailed-but-unmeasured prefix before each window: absorbs cache rewarm
  // and lets requests issued under functional costs drain before statistics
  // are taken.
  Tick rewarm_ns = 40'000;  // 40 us
  SamplePlan plan = SamplePlan::kPeriodic;
  // Seed for kRandom offsets. Independent from the experiment seed so the
  // same workload can be sampled under different plans.
  uint64_t plan_seed = 1;

  Tick DetailPerPeriod() const { return rewarm_ns + window_ns; }
};

// Deterministic placement of the detailed segment inside period `i`.
// Returns the offset of the rewarm start from the period start; the window
// occupies [offset + rewarm_ns, offset + rewarm_ns + window_ns).
inline Tick SampleWindowOffset(const SampleConfig& cfg, uint64_t period_index) {
  if (cfg.plan != SamplePlan::kRandom) {
    return 0;
  }
  const Tick slack = cfg.period_ns - cfg.DetailPerPeriod();
  if (slack <= 0) {
    return 0;
  }
  const uint64_t h =
      Mix64(cfg.plan_seed ^ (period_index * 0x9e3779b97f4a7c15ULL) ^
            0x53414d504c45ULL);  // "SAMPLE"
  return static_cast<Tick>(h % static_cast<uint64_t>(slack + 1));
}

// Parses the MUTPS_SAMPLE token list, e.g.
//   MUTPS_SAMPLE="on,period=1000000,window=120000,rewarm=40000,plan=random,seed=3"
// Unknown tokens are ignored; "off" (or unset) leaves sampling disabled so
// the default path stays byte-identical to a build without this feature.
inline SampleConfig SampleFromEnv() {
  SampleConfig cfg;
  std::string spec = EnvStr("MUTPS_SAMPLE", "");
  if (spec.empty()) {
    return cfg;
  }
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) {
      continue;
    }
    const size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? std::string() : tok.substr(eq + 1);
    if (key == "on" || key == "sampled") {
      cfg.enabled = true;
    } else if (key == "off") {
      cfg.enabled = false;
    } else if (key == "period") {
      cfg.period_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "window") {
      cfg.window_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "rewarm") {
      cfg.rewarm_ns = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "seed") {
      cfg.plan_seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "plan") {
      if (val == "periodic") {
        cfg.plan = SamplePlan::kPeriodic;
      } else if (val == "random") {
        cfg.plan = SamplePlan::kRandom;
      } else if (val == "biased") {
        cfg.plan = SamplePlan::kBiased;
      }
    }
  }
  return cfg;
}

}  // namespace utps::sim

#endif  // UTPS_SIM_SAMPLE_H_
