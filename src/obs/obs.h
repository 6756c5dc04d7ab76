// Observability front door: ObsConfig (the harness-level knobs) and Observer
// (the per-run bundle of metrics registry + tracer + per-core cycle
// accounting). Everything is opt-in; a disabled Observer hands out null
// pointers and instrumented code degenerates to untaken branches, so tier-1
// benchmark numbers are unchanged when observability is off.
#ifndef UTPS_OBS_OBS_H_
#define UTPS_OBS_OBS_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/types.h"

namespace utps::obs {

struct ObsConfig {
  bool metrics = false;           // counter/gauge registry + end-of-run dump
  bool trace = false;             // virtual-time span tracing
  bool cycle_accounting = false;  // per-stage virtual-ns attribution
  std::string trace_path;         // where TestBed::Run writes the JSON with
                                  // Tracer::WriteFile ("" = keep in memory only)
  size_t max_trace_events = 1u << 20;

  bool any() const { return metrics || trace || cycle_accounting; }
};

// Per-stage virtual-time totals for one core. ExecCtx accumulates into this
// through a raw pointer (see ExecCtx::stage_ns).
struct StageTimes {
  std::array<sim::Tick, sim::kNumStages> ns{};

  sim::Tick Total() const {
    sim::Tick t = 0;
    for (sim::Tick v : ns) {
      t += v;
    }
    return t;
  }

  void Add(const StageTimes& o) {
    for (unsigned i = 0; i < sim::kNumStages; i++) {
      ns[i] += o.ns[i];
    }
  }

  void Reset() { ns.fill(0); }
};

// The per-op cycle-accounting breakdown the harness reports next to each
// throughput line — the paper's §2 "where cycles go" analysis as output.
struct CycleReport {
  bool valid = false;
  uint64_t ops = 0;                                   // server ops in window
  std::array<double, sim::kNumStages> ns_per_op{};    // per completed op
  std::array<sim::Tick, sim::kNumStages> total_ns{};  // summed over cores
  double busy_ns_per_op = 0.0;  // all stages incl. idle/poll overhead
};

class Observer {
 public:
  Observer(const ObsConfig& cfg, unsigned num_cores) : cfg_(cfg) {
    if (cfg.metrics) {
      metrics_ = std::make_unique<MetricsRegistry>();
    }
    if (cfg.trace) {
      tracer_ = std::make_unique<Tracer>(cfg.max_trace_events);
    }
    if (cfg.cycle_accounting) {
      stage_times_.resize(num_cores);
    }
  }

  const ObsConfig& config() const { return cfg_; }
  MetricsRegistry* metrics() { return metrics_.get(); }
  Tracer* tracer() { return tracer_.get(); }

  // Raw per-core stage-time array for ExecCtx wiring (null when disabled or
  // core out of range).
  sim::Tick* StageNs(unsigned core) {
    if (stage_times_.empty() || core >= stage_times_.size()) {
      return nullptr;
    }
    return stage_times_[core].ns.data();
  }

  void ResetCycles() {
    for (StageTimes& st : stage_times_) {
      st.Reset();
    }
  }

  // Aggregates cores [0, num_cores) into a per-op report. `ops` is the number
  // of server-completed operations over the same window.
  CycleReport BuildCycleReport(unsigned num_cores, uint64_t ops) const {
    CycleReport r;
    if (stage_times_.empty()) {
      return r;
    }
    r.valid = true;
    r.ops = ops;
    StageTimes sum;
    const unsigned n =
        num_cores < stage_times_.size() ? num_cores
                                        : static_cast<unsigned>(stage_times_.size());
    for (unsigned c = 0; c < n; c++) {
      sum.Add(stage_times_[c]);
    }
    r.total_ns = sum.ns;
    if (ops > 0) {
      for (unsigned i = 0; i < sim::kNumStages; i++) {
        r.ns_per_op[i] = static_cast<double>(sum.ns[i]) / static_cast<double>(ops);
      }
      r.busy_ns_per_op =
          static_cast<double>(sum.Total()) / static_cast<double>(ops);
    }
    return r;
  }

 private:
  ObsConfig cfg_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::vector<StageTimes> stage_times_;  // indexed by core
};

}  // namespace utps::obs

#endif  // UTPS_OBS_OBS_H_
