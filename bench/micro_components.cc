// Component micro-benchmarks (google-benchmark): host-side costs of the
// simulator's building blocks and the μTPS support structures. These are the
// supporting numbers behind the figure benches (e.g. how expensive one cache
// model access or one Zipfian sample is), and double as performance
// regression guards for the simulator itself.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "hotset/sketch.h"
#include "hotset/topk.h"
#include "sim/arena.h"
#include "sim/cache.h"
#include "sim/engine.h"
#include "sim/exec.h"
#include "stats/histogram.h"

namespace utps {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfianSample(benchmark::State& state) {
  Rng rng(1);
  ScrambledZipfian zipf(10'000'000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfianSample);

void BM_CacheModelAccessHit(benchmark::State& state) {
  sim::MachineConfig cfg;
  sim::MemoryModel mem(cfg);
  sim::Arena arena(16 << 20);
  void* p = arena.Allocate(64);
  mem.Access(0, 0, sim::Stage::kData, p, 8, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Access(0, 0, sim::Stage::kData, p, 8, false));
  }
}
BENCHMARK(BM_CacheModelAccessHit);

void BM_CacheModelAccessStream(benchmark::State& state) {
  sim::MachineConfig cfg;
  sim::MemoryModel mem(cfg);
  sim::Arena arena(256 << 20);
  uint8_t* base = arena.AllocateArray<uint8_t>(128 << 20);
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.Access(0, 0, sim::Stage::kData, base + off, 8, false));
    off = (off + 64) & ((128ull << 20) - 1);
  }
}
BENCHMARK(BM_CacheModelAccessStream);

// LLC hit path: a working set larger than one core's private cache but far
// smaller than the LLC, so steady state is (mostly) private misses served by
// the shared level — the probe sequence the tag fast path accelerates.
void BM_CacheModelLlcHit(benchmark::State& state) {
  sim::MachineConfig cfg;
  sim::MemoryModel mem(cfg);
  sim::Arena arena(64 << 20);
  constexpr uint64_t kSpan = 8ull << 20;  // 8 MB: ~6x private, ~1/6 LLC
  uint8_t* base = arena.AllocateArray<uint8_t>(kSpan);
  for (uint64_t off = 0; off < kSpan; off += 64) {
    mem.Access(0, 0, sim::Stage::kData, base + off, 8, false);  // warm LLC
  }
  uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.Access(0, 0, sim::Stage::kData, base + off, 8, false));
    off = (off + 64) & (kSpan - 1);
  }
}
BENCHMARK(BM_CacheModelLlcHit);

// LLC miss path: every access victimizes and installs (dominated by
// LlcVictim + LlcInstall + private back-invalidation bookkeeping).
void BM_CacheModelLlcMiss(benchmark::State& state) {
  sim::MachineConfig cfg;
  sim::MemoryModel mem(cfg);
  sim::Arena arena(1 << 20);
  uint8_t* base = arena.AllocateArray<uint8_t>(64);
  // Walk aliases of a single LLC set (line stride = set count): more distinct
  // tags than ways, so past warmup every probe misses and every access runs
  // the victim-selection + install + back-invalidation path.
  const uint64_t line0 = reinterpret_cast<uint64_t>(base) >> 6;
  uint64_t alias = 0;
  for (auto _ : state) {
    const uint64_t addr = (line0 + (alias << 16)) << 6;
    benchmark::DoNotOptimize(mem.Access(
        0, 0, sim::Stage::kData, reinterpret_cast<void*>(addr), 8, false));
    alias = alias == 23 ? 0 : alias + 1;  // 24 aliases > 12 ways
  }
}
BENCHMARK(BM_CacheModelLlcMiss);

void BM_CountMinSketchAdd(benchmark::State& state) {
  CountMinSketch sketch;
  uint64_t k = 0;
  for (auto _ : state) {
    sketch.Add(k++ & 0xffff);
  }
}
BENCHMARK(BM_CountMinSketchAdd);

// Distinct keys, as the hot-set manager's deduplicated candidates are.
void BM_TopKOffer(benchmark::State& state) {
  TopK topk(1024);
  Rng rng(3);
  Key key = 0;
  for (auto _ : state) {
    topk.Offer(key++, static_cast<uint32_t>(rng.NextBounded(1000)));
  }
}
BENCHMARK(BM_TopKOffer);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(4);
  for (auto _ : state) {
    h.Record(rng.NextBounded(1 << 20));
  }
}
BENCHMARK(BM_HistogramRecord);

// Cost of one simulated event (schedule + resume a trivial fiber).
sim::Fiber TickFiber(sim::ExecCtx* ctx, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    co_await ctx->Delay(10);
  }
}

void BM_EngineEventRoundTrip(benchmark::State& state) {
  const uint64_t n = 100000;
  for (auto _ : state) {
    sim::Engine eng;
    sim::ExecCtx ctx{.eng = &eng};
    eng.Spawn(TickFiber(&ctx, n));
    eng.RunToQuiescence(sim::kSec * 100);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EngineEventRoundTrip)->Unit(benchmark::kMillisecond);

// Raw ScheduleAt/pop throughput on a realistic horizon mix: most wakeups land
// within a few hundred ns of now (cache latencies, queue hops) and stay in
// the bucket ring; a tail (NIC RTT, timers, think time) spills to the far
// heap. No coroutine work — resumed handles are noops.
void BM_EngineScheduleMix(benchmark::State& state) {
  sim::Engine eng;
  Rng rng(7);
  const std::coroutine_handle<> h = std::noop_coroutine();
  uint64_t pushed = 0;
  for (auto _ : state) {
    const uint64_t r = rng.Next();
    sim::Tick extra;
    switch (r & 15) {
      case 0:
        extra = 2000 + (r >> 8) % 8000;  // beyond the ring window -> heap
        break;
      case 1:
      case 2:
        extra = 100 + (r >> 8) % 1000;
        break;
      default:
        extra = (r >> 8) % 64;
        break;
    }
    eng.ScheduleAt(eng.now() + extra, h);
    if ((++pushed & 63) == 0) {
      eng.RunToQuiescence(~sim::Tick{0});
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineScheduleMix);

// Same-tick suspend/resume: two fibers alternating at t+0 exercise the
// symmetric-transfer handoff (awaiter jumps straight to the next fiber
// instead of unwinding into the dispatch loop).
sim::Fiber ZeroDelayFiber(sim::ExecCtx* ctx, uint64_t n) {
  for (uint64_t i = 0; i < n; i++) {
    co_await ctx->Delay(0);
  }
}

void BM_EngineZeroDelayHandoff(benchmark::State& state) {
  const uint64_t n = 100000;
  for (auto _ : state) {
    sim::Engine eng;
    sim::ExecCtx a{.eng = &eng};
    sim::ExecCtx b{.eng = &eng};
    eng.Spawn(ZeroDelayFiber(&a, n));
    eng.Spawn(ZeroDelayFiber(&b, n));
    eng.RunToQuiescence(sim::kSec);
    benchmark::DoNotOptimize(eng.stats().handoffs);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_EngineZeroDelayHandoff)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace utps

BENCHMARK_MAIN();
