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

// Parses an MUTPS_SAMPLE-style profile, e.g.
//   "on,period=1000000,window=120000,rewarm=40000,plan=random,seed=3"
// (lengths in ns; "sampled" = "on"). Without "on" sampling stays disabled,
// so the default path stays byte-identical to a build without this feature.
inline SampleConfig ParseSampleProfile(const std::string& profile) {
  SampleConfig cfg;
  ParseProfile("MUTPS_SAMPLE", profile, '=',
               [&cfg](const std::string& key, const std::string& val) {
    if (key == "on" || key == "sampled" || key == "off") {
      cfg.enabled = key != "off";
      return val.empty();
    }
    if (key == "period") return ParseNumber(val, cfg.period_ns);
    if (key == "window") return ParseNumber(val, cfg.window_ns);
    if (key == "rewarm") return ParseNumber(val, cfg.rewarm_ns);
    if (key == "seed") return ParseNumber(val, cfg.plan_seed);
    if (key == "plan") {
      for (SamplePlan p : {SamplePlan::kPeriodic, SamplePlan::kRandom,
                           SamplePlan::kBiased}) {
        if (val == SamplePlanName(p)) {
          cfg.plan = p;
          return true;
        }
      }
    }
    return false;
  });
  return cfg;
}

// Profile from the MUTPS_SAMPLE environment variable (empty: disabled).
inline SampleConfig SampleFromEnv() {
  return ParseSampleProfile(EnvStr("MUTPS_SAMPLE", ""));
}

}  // namespace utps::sim

#endif  // UTPS_SIM_SAMPLE_H_
