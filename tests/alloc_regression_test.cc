// Zero-allocation steady-state regression test (DESIGN.md §13).
//
// The simulator's hot path — NIC rings, engine scheduler, server staging,
// hot-set refresh, stats recording — must not touch the host heap once a run
// reaches steady state: every buffer is preallocated or high-water-marked
// during populate/warmup. This test counts global operator new calls with an
// interposed allocator, runs a fig07-style μTPS point, and asserts that the
// measure phase (population and warmup excluded, via the g_alloc_probe hook
// in harness/experiment.h) performed zero heap allocations. A cluster flash
// crowd, whose live migrations allocate, has its count pinned instead.
//
// If this fails after a change, run with MUTPS_ALLOC_TRACE=1 under a
// breakpoint on OnAlloc, or use scripts/profile.sh's allocation histogram,
// to find the new steady-state allocation site.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "cluster/harness.h"
#include "harness/experiment.h"
#include "hotset/hotset.h"
#include "index/btree.h"
#include "index/cuckoo.h"
#include "sim/sync.h"
#include "store/slab.h"
#include "workload/workload.h"

namespace {

std::atomic<uint64_t> g_new_calls{0};

inline void OnAlloc() {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// Global interposers: every heap allocation in the binary (simulator,
// coroutine frames, gtest itself) routes through these. delete variants
// forward straight to free — only the allocation count matters here.
void* operator new(std::size_t size) {
  OnAlloc();
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  OnAlloc();
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& nt) noexcept {
  return ::operator new(size, nt);
}

void* operator new(std::size_t size, std::align_val_t align) {
  OnAlloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size != 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace utps {
namespace {

uint64_t AllocProbe() { return g_new_calls.load(std::memory_order_relaxed); }

TEST(AllocRegression, InterposerCountsAllocations) {
  const uint64_t before = AllocProbe();
  // Direct operator-new call: a plain `new int` is elidable under
  // -felide-constructors/heap elision and can skip the interposer.
  void* p = ::operator new(sizeof(int));
  EXPECT_NE(p, nullptr);
  ::operator delete(p);
  EXPECT_GT(AllocProbe(), before);
}

// fig07 shape at test scale: tree index, 64 B values, YCSB-A, auto-tuned
// μTPS. The measure window spans many hot-set refresh passes and CR-MR
// batches, so any per-op, per-batch, or per-refresh allocation trips it.
TEST(AllocRegression, MuTpsMeasurePhaseIsAllocationFree) {
  constexpr uint64_t kKeys = 20000;
  TestBed bed(IndexType::kTree, WorkloadSpec::YcsbA(kKeys, 64));

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = WorkloadSpec::YcsbA(kKeys, 64);
  cfg.client_threads = 32;
  cfg.pipeline_depth = 8;
  cfg.warmup_ns = 500 * sim::kUsec;
  cfg.measure_ns = 2 * sim::kMsec;
  cfg.max_warmup_ns = 20 * sim::kMsec;
  cfg.mutps.autotune = true;  // tuning completes during warmup (tuned() gate)

  g_alloc_probe = &AllocProbe;
  const ExperimentResult res = bed.Run(cfg);
  g_alloc_probe = nullptr;

  EXPECT_GT(res.ops, 0u);
  EXPECT_EQ(res.measure_allocs, 0u)
      << "steady-state heap allocations crept back into the measure phase";
}

// Same invariant for a hash-index point with batching, the other fig07 wing
// (uTPS-H): exercises the CR-MR overlapped-miss path and its staging rings.
TEST(AllocRegression, MuTpsHashMeasurePhaseIsAllocationFree) {
  constexpr uint64_t kKeys = 20000;
  TestBed bed(IndexType::kHash, WorkloadSpec::YcsbA(kKeys, 8));

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = WorkloadSpec::YcsbA(kKeys, 8);
  cfg.client_threads = 32;
  cfg.pipeline_depth = 8;
  cfg.warmup_ns = 500 * sim::kUsec;
  cfg.measure_ns = 2 * sim::kMsec;
  cfg.max_warmup_ns = 20 * sim::kMsec;
  cfg.mutps.autotune = false;
  cfg.mutps.initial_ncr = 0;
  cfg.mutps.batch_size = 8;

  g_alloc_probe = &AllocProbe;
  const ExperimentResult res = bed.Run(cfg);
  g_alloc_probe = nullptr;

  EXPECT_GT(res.ops, 0u);
  EXPECT_EQ(res.measure_allocs, 0u)
      << "steady-state heap allocations crept back into the measure phase";
}

// The hash wing with an empty hot set (cache size 0, as the tuner picks for
// LLC-resident uniform gets): the CR layer skips the filter probe and
// refreshes publish a minimal filter, still without allocating.
TEST(AllocRegression, MuTpsHashEmptyHotSetIsAllocationFree) {
  constexpr uint64_t kKeys = 20000;
  TestBed bed(IndexType::kHash, WorkloadSpec::GetOnly(kKeys, 8, false));

  ExperimentConfig cfg;
  cfg.system = SystemKind::kMuTps;
  cfg.workload = WorkloadSpec::GetOnly(kKeys, 8, false);
  cfg.client_threads = 32;
  cfg.pipeline_depth = 8;
  cfg.warmup_ns = 500 * sim::kUsec;
  cfg.measure_ns = 2 * sim::kMsec;
  cfg.max_warmup_ns = 20 * sim::kMsec;
  cfg.mutps.autotune = false;
  cfg.mutps.initial_cache_items = 0;
  cfg.mutps.refresh_period_ns = 200 * sim::kUsec;  // refreshes in the window

  g_alloc_probe = &AllocProbe;
  const ExperimentResult res = bed.Run(cfg);
  g_alloc_probe = nullptr;

  EXPECT_GT(res.ops, 0u);
  EXPECT_EQ(res.cache_items, 0u);
  EXPECT_EQ(res.measure_allocs, 0u)
      << "steady-state heap allocations crept back into the measure phase";
}

// A hot-set refresh allocates nothing however fast the CR layer samples.
// Between two agings the candidate list holds the carried set, fewer than
// one aging interval of samples and one last drain of at most a full ring
// per worker; it and its dedup table are reserved to that bound when the
// manager is built. After a warm-up publish at kMaxHot, one full aging
// interval: drains of full rings up to one sample short of the interval,
// which leave the full set alone, then a drain after every ring filled up,
// which publishes and ages.
TEST(AllocRegression, HotSetRefreshAtFullRingsIsAllocationFree) {
  constexpr unsigned kWorkers = 28;
  constexpr uint32_t kHot = HotSetManager::kMaxHot;
  constexpr uint32_t kInterval = HotSetManager::kAgingSamplesPerItem * kHot;
  sim::Arena arena(16ull << 20);
  HotSetManager hot(&arena, kWorkers);
  Item item;
  const auto resolve = [&item](Key) -> Item* { return &item; };
  Key next = 0;
  const auto sample = [&](uint64_t n) {
    for (uint64_t i = 0; i < n; i++) {
      hot.Ring(static_cast<unsigned>(i % kWorkers)).Push(next++);
    }
  };
  sample(2 * kHot);
  hot.DrainSamples();
  hot.BuildAndPublish(kHot, resolve);
  hot.Age();
  ASSERT_EQ(hot.ActiveCount(), kHot);

  const uint64_t before = AllocProbe();
  // The interval outgrows the rings (16·k samples against 28 rings of 4096),
  // so it arrives in drains of at most a full ring per worker.
  for (uint64_t left = kInterval - 1; left > 0;) {
    const uint64_t n =
        std::min(left, uint64_t{kWorkers} * SampleRing::kCapacity);
    sample(n);
    EXPECT_EQ(hot.DrainSamples(), n);
    left -= n;
  }
  EXPECT_FALSE(hot.AgingDue(kHot));
  sample(uint64_t{kWorkers} * SampleRing::kCapacity);
  EXPECT_EQ(hot.DrainSamples(), kWorkers * SampleRing::kCapacity);
  EXPECT_TRUE(hot.AgingDue(kHot));
  hot.BuildAndPublish(kHot, resolve);
  hot.Age();
  EXPECT_EQ(AllocProbe() - before, 0u);
  EXPECT_EQ(hot.ActiveCount(), kHot);
  EXPECT_FALSE(hot.AgingDue(kHot));
}

// The index audit runs after every kvbench leg: an O(keys) set on the heap
// there would set the process peak and, kept by glibc once freed, raise the
// next leg's floor (DESIGN.md §13). The cuckoo audit checks duplicates in
// the candidate buckets instead, and the tree audit follows the leaf chain
// as it walks.
TEST(AllocRegression, IndexAuditsAreAllocationFree) {
  constexpr uint64_t kKeys = 200000;
  sim::Arena arena(512ull << 20);
  SlabAllocator slab(&arena);
  // The key -> item table lives in the arena too: no heap in this test.
  Item** items = arena.AllocateArray<Item*>(kKeys);
  for (Key k = 0; k < kKeys; k++) {
    items[k] = slab.AllocateItem(k, 8);
  }
  CuckooIndex cuckoo(&arena, kKeys + kKeys / 4);
  cuckoo.PopulateDirect({items, kKeys});
  BTreeIndex tree(&arena);
  tree.BulkLoadDirect({items, kKeys});
  std::string err;
  uint64_t before = AllocProbe();
  EXPECT_TRUE(cuckoo.AuditDirect(&err)) << err;
  EXPECT_EQ(AllocProbe() - before, 0u);
  before = AllocProbe();
  EXPECT_TRUE(tree.AuditDirect(&err)) << err;
  EXPECT_EQ(AllocProbe() - before, 0u);
}

sim::Fiber Contender(sim::ExecCtx* ctx, sim::SimSpinlock* lock) {
  co_await lock->Acquire(*ctx);
  co_await ctx->Delay(10);
  lock->Release(*ctx);
}

// A SimSpinlock parks contended acquirers in an intrusive FIFO threaded
// through their awaiters: constructing one allocates nothing, and neither
// does queueing 256 fibers on it.
TEST(AllocRegression, ContendedSpinlockIsAllocationFree) {
  constexpr int kFibers = 256;
  sim::Engine eng;
  std::array<sim::ExecCtx, kFibers> ctxs{};
  for (sim::ExecCtx& c : ctxs) {
    c.eng = &eng;
  }
  const uint64_t before_lock = AllocProbe();
  sim::SimSpinlock lock;
  EXPECT_EQ(AllocProbe(), before_lock);
  for (int i = 0; i < kFibers; i++) {
    eng.Spawn(Contender(&ctxs[i], &lock), /*start_at=*/i);
  }
  const uint64_t before = AllocProbe();
  eng.RunToQuiescence(sim::kSec);
  EXPECT_EQ(AllocProbe() - before, 0u);
  EXPECT_FALSE(lock.held());
}

// A small flash crowd on a 4-node cluster with the rebalancer on. Every
// request of the measure window (8,056) waits on its gate with a deadline,
// every node loop parks on its ring between messages and the writes
// replicate, so a wait that allocated per request or per park would add
// thousands. The window is not allocation-free: the hot shift's two live
// migrations (snapshot and dedup-watermark buffers, the importing node's
// dedup entries) and the rebalancer's per-period load vectors allocate. The
// count is pinned so that any new source shows.
TEST(AllocRegression, ClusterFlashCrowdMeasurePhase) {
  cluster::ClusterBenchConfig cfg;
  cfg.cluster.nodes = 4;
  cfg.cluster.shards = 8;
  cfg.cluster.workers = 2;
  cfg.cluster.num_keys = 4096;
  cfg.cluster.value_size = 64;
  cfg.cluster.arena_mb = 64;
  cfg.cluster.rebalance_period_ns = 150 * sim::kUsec;
  cfg.cluster.imbalance_factor = 1.8;
  cfg.cluster.rebalance_cooldown_ns = 600 * sim::kUsec;
  cfg.clients = 16;
  cfg.zipf_theta = 1.05;
  cfg.warmup_ns = 300 * sim::kUsec;
  cfg.measure_ns = 1500 * sim::kUsec;
  cfg.hotshift_at_ns = cfg.warmup_ns + cfg.measure_ns / 3;

  // A first run fills the coroutine frame pool, which other tests in this
  // binary may or may not have filled already.
  cluster::RunClusterExperiment(cfg);
  g_alloc_probe = &AllocProbe;
  const ExperimentResult res = cluster::RunClusterExperiment(cfg);
  g_alloc_probe = nullptr;

  EXPECT_GT(res.ops, 8000u);
  EXPECT_EQ(res.shard_migrations, 2u);
  EXPECT_EQ(res.measure_allocs, 134u)
      << "heap allocations in the cluster's measure phase changed";
}

}  // namespace
}  // namespace utps
