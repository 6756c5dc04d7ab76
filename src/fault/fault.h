// Deterministic fault injection (DESIGN.md §9).
//
// A FaultConfig describes a *plan*: probabilistic message-level faults on the
// two-sided NIC path (drop / duplicate / delay spike / link-rate
// degradation), a per-core straggler window (frequency-scaled CPU), a worker
// crash-stop with optional restart, and an LLC "noisy neighbor" that occupies
// CLOS ways mid-run. The FaultInjector turns the plan into simulator state:
// timed transitions run on a plan fiber scheduled on sim::Engine, and
// per-message decisions are drawn from a seeded RNG in message order — so the
// same seed and plan always reproduce the same fault schedule, byte for byte,
// and every failure scenario found by the DST sweep is replayable.
//
// Everything is inert until Install() is called: a run without an injector is
// byte-identical to a build without this header (null hooks throughout).
//
// Header-only on purpose: the mutation smoke-check binary compiles its own
// copies of server translation units without linking libutps.
#ifndef UTPS_FAULT_FAULT_H_
#define UTPS_FAULT_FAULT_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/macros.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "sim/exec.h"
#include "sim/nic.h"
#include "sim/task.h"

namespace utps::fault {

struct FaultConfig {
  // Message-level faults on the two-sided path, per direction, while the
  // fault window is active. One-sided verbs model reliable RDMA transport
  // and only see link-rate degradation.
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  sim::Tick delay_ns = 20 * sim::kUsec;  // max delay spike (uniform 1..N)
  double link_scale = 1.0;               // >1: serialization cost multiplier

  // Per-core straggler: core runs at 1/slow_factor frequency inside the
  // fault window.
  int straggler_core = -1;
  double slow_factor = 4.0;

  // Worker crash-stop/restart (server worker index).
  int crash_worker = -1;
  sim::Tick crash_at_ns = 100 * sim::kUsec;
  sim::Tick restart_after_ns = 0;  // 0: never restarts

  // LLC noisy neighbor: ways occupied inside the fault window.
  unsigned llc_steal_ways = 0;

  // Active window for message faults, straggler, and LLC steal:
  // [start_ns, stop_ns), stop_ns == 0 meaning "until the end of the run".
  sim::Tick start_ns = 0;
  sim::Tick stop_ns = 0;

  uint64_t seed = 1;

  // Node-scoped cluster faults (src/cluster): crash-stop a whole server node
  // (its workers park and its NICs drop everything queued), or cut a node off
  // the network for a window (both directions drop; the node itself keeps
  // running and self-fences once its lease expires). Interpreted by the
  // cluster harness — FaultInjector::Install and enabled() deliberately
  // ignore them, so single-node paths never see a cluster-only plan.
  int crash_node = -1;
  sim::Tick node_crash_at_ns = 100 * sim::kUsec;
  int partition_node = -1;
  sim::Tick partition_start_ns = 40 * sim::kUsec;
  sim::Tick partition_stop_ns = 140 * sim::kUsec;

  bool enabled() const {
    return drop_prob > 0.0 || dup_prob > 0.0 || delay_prob > 0.0 ||
           link_scale != 1.0 || straggler_core >= 0 || crash_worker >= 0 ||
           llc_steal_ways > 0;
  }

  bool cluster_enabled() const {
    return crash_node >= 0 || partition_node >= 0;
  }

  // Inside the [start_ns, stop_ns) window at `now`.
  bool InWindow(sim::Tick now) const {
    return now >= start_ns && (stop_ns == 0 || now < stop_ns);
  }

  // Inside partition_node's [partition_start_ns, partition_stop_ns) window.
  bool InPartitionWindow(sim::Tick now) const {
    return now >= partition_start_ns && now < partition_stop_ns;
  }
};

// Parses an MUTPS_FAULTS-style profile string: comma-separated key:value
// tokens. Example: "loss:0.01,dup:0.02,delayus:50,crash:7,restartus:200".
//
//   loss:P dup:P delay:P     fault probabilities per message per direction
//   delayus:N                max delay spike, µs (also the dup reorder span;
//                            delay:P defaults to 0 — set it to use spikes)
//   link:F                   link serialization cost multiplier (e.g. 4)
//   straggler:CORE slow:F    frequency-scale CORE by 1/F (default F = 4)
//   crash:W crashus:T restartus:D   crash worker W at T µs, restart D µs later
//   llc:N                    noisy neighbor occupies N LLC ways
//   startus:T stopus:T       fault window bounds, µs
//   seed:S                   fault-plan RNG seed
//   nodecrash:N nodecrashus:T       cluster: crash-stop node N at T µs
//   partition:N partstartus:T partstopus:T   cluster: cut node N off the
//                            network during [T_start, T_stop) µs
inline FaultConfig ParseFaultProfile(const std::string& profile) {
  FaultConfig cfg;
  ParseProfile("MUTPS_FAULTS", profile, ':',
               [&cfg](const std::string& key, const std::string& val) {
    if (key == "loss") return ParseNumber(val, cfg.drop_prob);
    if (key == "dup") return ParseNumber(val, cfg.dup_prob);
    if (key == "delay") return ParseNumber(val, cfg.delay_prob);
    if (key == "delayus") return ParseUsAsNs(val, cfg.delay_ns);
    if (key == "link") return ParseNumber(val, cfg.link_scale);
    if (key == "straggler") return ParseNumber(val, cfg.straggler_core);
    if (key == "slow") return ParseNumber(val, cfg.slow_factor);
    if (key == "crash") return ParseNumber(val, cfg.crash_worker);
    if (key == "crashus") return ParseUsAsNs(val, cfg.crash_at_ns);
    if (key == "restartus") return ParseUsAsNs(val, cfg.restart_after_ns);
    if (key == "llc") return ParseNumber(val, cfg.llc_steal_ways);
    if (key == "startus") return ParseUsAsNs(val, cfg.start_ns);
    if (key == "stopus") return ParseUsAsNs(val, cfg.stop_ns);
    if (key == "seed") return ParseNumber(val, cfg.seed);
    if (key == "nodecrash") return ParseNumber(val, cfg.crash_node);
    if (key == "nodecrashus") return ParseUsAsNs(val, cfg.node_crash_at_ns);
    if (key == "partition") return ParseNumber(val, cfg.partition_node);
    if (key == "partstartus") return ParseUsAsNs(val, cfg.partition_start_ns);
    if (key == "partstopus") return ParseUsAsNs(val, cfg.partition_stop_ns);
    return false;
  });
  return cfg;
}

// Profile from the MUTPS_FAULTS environment variable (empty: disabled).
inline FaultConfig FaultFromEnv() {
  return ParseFaultProfile(EnvStr("MUTPS_FAULTS", ""));
}

// One message's fault decision under `cfg`, drawn from `rng` (the caller's
// own per-hook generator). Outside the active window nothing is drawn;
// inside it every message takes exactly three draws for the probability
// gates, whichever fire, so the schedule stays a pure function of message
// order. The delay spike's and the duplicate's lag draws follow, in that
// order, only when their gate fires.
inline sim::NicFault DecideMessageFault(const FaultConfig& cfg, Rng& rng,
                                        sim::Tick now) {
  sim::NicFault f;
  if (!cfg.InWindow(now)) {
    return f;
  }
  const double d_drop = rng.NextDouble();
  const double d_dup = rng.NextDouble();
  const double d_delay = rng.NextDouble();
  f.drop = d_drop < cfg.drop_prob;
  f.dup = d_dup < cfg.dup_prob;
  if (d_delay < cfg.delay_prob) {
    f.extra_delay = 1 + rng.NextBounded(cfg.delay_ns);
  }
  if (f.dup) {
    // The duplicate trails the original by a bounded span: enough to land
    // behind later sends (reordering) and, for requests, typically after the
    // first copy's execution reached the dedup window.
    const sim::Tick span = cfg.delay_ns > 2000 ? cfg.delay_ns : 2000;
    f.dup_delay = 1 + rng.NextBounded(span);
  }
  return f;
}

struct FaultCounters {
  uint64_t req_drops = 0;
  uint64_t resp_drops = 0;
  uint64_t req_dups = 0;
  uint64_t resp_dups = 0;
  uint64_t delays = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
};

class FaultInjector final : public sim::NicFaultHook {
 public:
  explicit FaultInjector(const FaultConfig& cfg)
      : cfg_(cfg), rng_(Mix64(cfg.seed ^ 0x4641554c54ULL)) {
    slow_q8_.assign(kMaxCores, 256u);  // Q8: 256 = 1x
  }

  // Arms the injector on a simulation: NIC hook, plan fiber for timed
  // transitions (straggler window, LLC steal window, crash/restart).
  // `mem` and `trc` may be null.
  void Install(sim::Engine* eng, sim::Nic* nic, sim::MemoryModel* mem,
               obs::Tracer* trc) {
    eng_ = eng;
    mem_ = mem;
    trc_ = trc;
    plan_ctx_.eng = eng;
    nic->SetFaultHook(this);
    if (cfg_.straggler_core >= 0 || cfg_.llc_steal_ways > 0 ||
        cfg_.crash_worker >= 0) {
      eng->Spawn(PlanMain());
    }
  }

  // ------------------------------------------------------- NicFaultHook
  sim::NicFault OnRequest(sim::Tick now) override {
    return Decide(now, /*request=*/true);
  }
  sim::NicFault OnResponse(sim::Tick now) override {
    return Decide(now, /*request=*/false);
  }
  double LinkCostScale(sim::Tick now) override {
    return cfg_.InWindow(now) ? cfg_.link_scale : 1.0;
  }

  // --------------------------------------------------------- server hooks
  bool IsCrashed(unsigned worker) const {
    return (crashed_mask_ >> worker) & 1u;
  }

  // Pointer for ExecCtx::slow_q8 — live value changes as the plan fiber
  // opens/closes the straggler window.
  const uint32_t* SlowPtr(unsigned core) const {
    return &slow_q8_[core < kMaxCores ? core : kMaxCores - 1];
  }

  const FaultConfig& config() const { return cfg_; }
  const FaultCounters& counters() const { return ctr_; }

 private:
  static constexpr unsigned kMaxCores = 512;

  // One decision per message, in send order (DecideMessageFault), counted.
  sim::NicFault Decide(sim::Tick now, bool request) {
    const sim::NicFault f = DecideMessageFault(cfg_, rng_, now);
    if (f.extra_delay > 0) {
      ctr_.delays++;
    }
    if (f.drop) {
      (request ? ctr_.req_drops : ctr_.resp_drops)++;
    }
    if (f.dup) {
      (request ? ctr_.req_dups : ctr_.resp_dups)++;
    }
    return f;
  }

  void TraceInstant(const char* name, sim::Tick at) {
    if (trc_ != nullptr) {
      trc_->Instant("fault", name, obs::Tracer::kServerPid, /*tid=*/999, at);
    }
  }

  sim::Fiber PlanMain() {
    auto& ctx = plan_ctx_;
    // Window open.
    if (cfg_.start_ns > ctx.Now()) {
      co_await ctx.Delay(cfg_.start_ns - ctx.Now());
    }
    if (cfg_.straggler_core >= 0) {
      const auto q8 = static_cast<uint32_t>(cfg_.slow_factor * 256.0);
      slow_q8_[static_cast<unsigned>(cfg_.straggler_core) %
               kMaxCores] = q8 < 256 ? 256 : q8;
      TraceInstant("straggler_on", ctx.Now());
    }
    if (cfg_.llc_steal_ways > 0 && mem_ != nullptr) {
      mem_->SetStolenWays(cfg_.llc_steal_ways);
      TraceInstant("llc_steal_on", ctx.Now());
    }
    // Crash (and optional restart) are ordered against the window bounds by
    // plain virtual-time arithmetic; the plan fiber visits each transition in
    // time order.
    if (cfg_.crash_worker >= 0) {
      if (cfg_.crash_at_ns > ctx.Now()) {
        co_await ctx.Delay(cfg_.crash_at_ns - ctx.Now());
      }
      crashed_mask_ |= uint64_t{1} << (cfg_.crash_worker & 63);
      ctr_.crashes++;
      TraceInstant("worker_crash", ctx.Now());
      if (cfg_.restart_after_ns > 0) {
        co_await ctx.Delay(cfg_.restart_after_ns);
        crashed_mask_ &= ~(uint64_t{1} << (cfg_.crash_worker & 63));
        ctr_.restarts++;
        TraceInstant("worker_restart", ctx.Now());
      }
    }
    // Window close.
    if (cfg_.stop_ns > 0) {
      if (cfg_.stop_ns > ctx.Now()) {
        co_await ctx.Delay(cfg_.stop_ns - ctx.Now());
      }
      if (cfg_.straggler_core >= 0) {
        slow_q8_[static_cast<unsigned>(cfg_.straggler_core) % kMaxCores] = 256;
        TraceInstant("straggler_off", ctx.Now());
      }
      if (cfg_.llc_steal_ways > 0 && mem_ != nullptr) {
        mem_->SetStolenWays(0);
        TraceInstant("llc_steal_off", ctx.Now());
      }
    }
  }

  FaultConfig cfg_;
  Rng rng_;
  sim::Engine* eng_ = nullptr;
  sim::MemoryModel* mem_ = nullptr;
  obs::Tracer* trc_ = nullptr;
  sim::ExecCtx plan_ctx_{};
  std::vector<uint32_t> slow_q8_;
  uint64_t crashed_mask_ = 0;
  FaultCounters ctr_;
};

}  // namespace utps::fault

#endif  // UTPS_FAULT_FAULT_H_
