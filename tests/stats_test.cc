// Tests for the statistics utilities: histogram bucketing/percentiles,
// the run recorder, and the item seqlock under simulated concurrency.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/arena.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "stats/histogram.h"
#include "stats/run_recorder.h"
#include "store/slab.h"

namespace utps {
namespace {

TEST(Histogram, ExactForSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 64; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.total(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 32.0, 1.0);
}

TEST(Histogram, PercentilesWithinRelativeError) {
  Histogram h;
  Rng rng(1);
  std::vector<uint64_t> values;
  for (int i = 0; i < 200000; i++) {
    const uint64_t v = 100 + rng.NextBounded(1000000);
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const uint64_t exact = values[static_cast<size_t>(q * values.size())];
    const uint64_t est = h.Percentile(q);
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(exact),
                0.03 * static_cast<double>(exact))
        << "q=" << q;
  }
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(100);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.max(), 1000000u);
  EXPECT_EQ(a.min(), 100u);
}

// Merging with an empty operand (either direction) must not disturb totals,
// min, or max — an empty histogram's internal min sentinel (UINT64_MAX) must
// not leak into the merged result.
TEST(Histogram, MergeWithEmptyOperandIsIdentity) {
  Histogram a;
  a.Record(100);
  a.Record(5000);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 5000u);
  EXPECT_GE(a.Percentile(1.0), a.min());
  EXPECT_LE(a.Percentile(1.0), a.max());

  Histogram b;
  b.Merge(a);  // empty receiver
  EXPECT_EQ(b.total(), 2u);
  EXPECT_EQ(b.min(), 100u);
  EXPECT_EQ(b.max(), 5000u);

  Histogram c;
  Histogram d;
  c.Merge(d);  // empty with empty
  EXPECT_EQ(c.total(), 0u);
  EXPECT_EQ(c.min(), 0u);
  c.Record(7);  // still usable afterwards
  EXPECT_EQ(c.min(), 7u);
  EXPECT_EQ(c.max(), 7u);
}

TEST(Histogram, HugeValuesClampToLastBucket) {
  Histogram h;
  h.Record(UINT64_MAX / 2);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_GT(h.Percentile(0.5), 0u);
}

// Regression: in-bucket interpolation used to overshoot the observed maximum
// (many identical values land part-way into one bucket, so a high quantile
// interpolated past them). Percentiles must stay within [min, max].
TEST(Histogram, PercentileNeverExceedsObservedRange) {
  Histogram h;
  for (int i = 0; i < 1000; i++) {
    h.Record(1'000'000);
  }
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.Percentile(q), 1'000'000u) << "q=" << q;
  }

  Histogram mixed;
  Rng rng(7);
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (int i = 0; i < 5000; i++) {
    const uint64_t v = 500 + rng.NextBounded(100000);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    mixed.Record(v);
  }
  for (double q : {0.001, 0.01, 0.5, 0.99, 0.999}) {
    const uint64_t p = mixed.Percentile(q);
    EXPECT_GE(p, lo) << "q=" << q;
    EXPECT_LE(p, hi) << "q=" << q;
  }
}

// Records `n` completions at `now` with latency `lat`.
void RecordN(RunRecorder& rec, uint64_t now, uint64_t n, uint64_t lat = 10,
             bool measured = true) {
  for (uint64_t i = 0; i < n; i++) {
    rec.Record(now, lat, measured);
  }
}

// Both series, throughput and latency, bucket each completion by time.
TEST(RunRecorder, BucketsByTime) {
  RunRecorder rec(1000, /*timeline=*/true, /*latency_timeline=*/true);
  rec.Record(100, 5, true);
  rec.Record(999, 6, true);
  rec.Record(1000, 7, true);
  rec.Record(2500, 8, true);
  ASSERT_EQ(rec.NumBuckets(), 3u);
  EXPECT_DOUBLE_EQ(rec.MopsAt(0), 2.0);  // 2 completions per microsecond
  EXPECT_DOUBLE_EQ(rec.MopsAt(1), 1.0);
  EXPECT_DOUBLE_EQ(rec.MopsAt(2), 1.0);
  EXPECT_EQ(rec.LatencyAt(0).total(), 2u);
  EXPECT_EQ(rec.LatencyAt(0).max(), 6u);
  EXPECT_EQ(rec.LatencyAt(1).total(), 1u);
  EXPECT_EQ(rec.LatencyAt(2).min(), 8u);
}

// Regression: a single completion stamped far in the virtual future used to
// resize the bucket vector to its index (gigabytes). Completions beyond the
// cap saturate into the last bucket of both series and are tallied once.
TEST(RunRecorder, CapsBucketsAndCountsOverflow) {
  RunRecorder rec(1000, /*timeline=*/true, /*latency_timeline=*/true);
  const size_t last = RunRecorder::kMaxBuckets - 1;
  rec.Record(500, 1, true);           // normal completion
  RecordN(rec, UINT64_MAX / 2, 3);    // absurd timestamp: must not explode
  RecordN(rec, UINT64_MAX, 2);
  EXPECT_EQ(rec.NumBuckets(), RunRecorder::kMaxBuckets);
  EXPECT_EQ(rec.overflow(), 5u);
  EXPECT_DOUBLE_EQ(rec.MopsAt(0), 1.0);  // 1 us buckets: Mops = count
  EXPECT_DOUBLE_EQ(rec.MopsAt(last), 5.0);
  EXPECT_EQ(rec.LatencyAt(0).total(), 1u);
  EXPECT_EQ(rec.LatencyAt(last).total(), 5u);
  // In-range completions still work after saturation.
  rec.Record(1500, 1, true);
  EXPECT_DOUBLE_EQ(rec.MopsAt(1), 1.0);
  EXPECT_EQ(rec.LatencyAt(1).total(), 1u);
  EXPECT_EQ(rec.overflow(), 5u);
}

// The last bucket is unreliable once overflow() is non-zero: saturated
// completions inflate it past what genuinely landed in that time window. The
// tally is exactly the amount a consumer must discount, in both series, and
// without overflow the last bucket stays trustworthy.
TEST(RunRecorder, OverflowFlagsLastBucketUnreliable) {
  RunRecorder rec(1000, /*timeline=*/true, /*latency_timeline=*/true);
  const uint64_t last = RunRecorder::kMaxBuckets - 1;
  rec.Record(last * 1000 + 10, 100, true);  // genuinely in the last bucket
  EXPECT_EQ(rec.overflow(), 0u);
  EXPECT_DOUBLE_EQ(rec.MopsAt(last), 1.0);  // trustworthy: no overflow
  EXPECT_EQ(rec.LatencyAt(last).Percentile(0.99), 100u);

  RecordN(rec, UINT64_MAX / 4, 4, /*lat=*/5000);  // saturates into the last
  EXPECT_EQ(rec.overflow(), 4u);
  // The raw rate now over-reports by exactly the overflow tally, and the
  // saturated latencies take over the bucket's P99.
  EXPECT_DOUBLE_EQ(rec.MopsAt(last), 5.0);
  EXPECT_EQ(rec.LatencyAt(last).total() - rec.overflow(), 1u);
  EXPECT_GT(rec.LatencyAt(last).Percentile(0.99), 100u);
  const double corrected =
      rec.MopsAt(last) - static_cast<double>(rec.overflow()) * 1e3 /
                             static_cast<double>(rec.bucket_ns());
  EXPECT_DOUBLE_EQ(corrected, 1.0);
  // Earlier buckets stay unaffected by saturation.
  rec.Record(500, 100, true);
  EXPECT_DOUBLE_EQ(rec.MopsAt(0), 1.0);
  EXPECT_EQ(rec.LatencyAt(0).total(), 1u);
  EXPECT_EQ(rec.overflow(), 4u);
}

// A bucket's P99 is that of a Histogram fed the same samples.
TEST(RunRecorder, BucketP99MatchesAHistogramOfItsSamples) {
  RunRecorder rec(1000, /*timeline=*/false, /*latency_timeline=*/true);
  Histogram want;
  Rng rng(7);
  for (int i = 0; i < 5000; i++) {
    const uint64_t lat = 1000 + rng.Next() % 200000;
    rec.Record(3000 + rng.Next() % 1000, lat, true);  // all in bucket 3
    want.Record(lat);
  }
  ASSERT_TRUE(rec.timeline());  // implied by the latency timeline
  ASSERT_EQ(rec.NumBuckets(), 4u);
  EXPECT_DOUBLE_EQ(rec.MopsAt(0), 0.0);
  EXPECT_EQ(rec.LatencyAt(0).total(), 0u);
  EXPECT_EQ(rec.LatencyAt(3).Percentile(0.99), want.Percentile(0.99));
  EXPECT_EQ(rec.LatencyAt(3).Percentile(0.5), want.Percentile(0.5));
  // Every sample was measured, so the run's histogram holds them too.
  EXPECT_EQ(rec.Latency().Percentile(0.99), want.Percentile(0.99));
}

// An unmeasured completion (warm-up, drain) is on the timeline but counts
// towards neither ops() nor the run's latency histogram.
TEST(RunRecorder, UnmeasuredCompletionIsOnlyOnTheTimeline) {
  RunRecorder rec(1000, /*timeline=*/true, /*latency_timeline=*/true);
  rec.Record(100, 50, /*measured=*/false);
  rec.Record(1100, 70, /*measured=*/true);
  EXPECT_EQ(rec.ops(), 1u);
  EXPECT_EQ(rec.Latency().total(), 1u);
  EXPECT_EQ(rec.Latency().min(), 70u);
  ASSERT_EQ(rec.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(rec.MopsAt(0), 1.0);
  EXPECT_EQ(rec.LatencyAt(0).max(), 50u);

  // Without a timeline only measured completions leave a trace.
  RunRecorder plain(1000, /*timeline=*/false, /*latency_timeline=*/false);
  plain.Record(100, 50, /*measured=*/false);
  EXPECT_EQ(plain.ops(), 0u);
  EXPECT_EQ(plain.NumBuckets(), 0u);
  EXPECT_EQ(plain.Latency().total(), 0u);
}

// -------------------------------------------------- seqlock property tests

sim::Fiber WriterFiber(sim::ExecCtx* ctx, Item* it, int rounds, bool* done) {
  std::vector<uint8_t> buf(64);
  for (int r = 0; r < rounds; r++) {
    // Value bytes are all equal to the round's tag: readers can detect torn
    // reads as mixed-tag buffers.
    std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(r & 0xff));
    co_await ItemWrite(*ctx, it, buf.data(), 64);
    co_await ctx->Delay(20);
  }
  *done = true;
}

sim::Fiber ReaderFiber(sim::ExecCtx* ctx, Item* it, int rounds, int* torn,
                       const bool* writer_done) {
  std::vector<uint8_t> buf(64);
  for (int r = 0; r < rounds && !*writer_done; r++) {
    const uint32_t n = co_await ItemRead(*ctx, it, buf.data());
    for (uint32_t i = 1; i < n; i++) {
      if (buf[i] != buf[0]) {
        (*torn)++;
        break;
      }
    }
    co_await ctx->Delay(15);
  }
}

TEST(ItemSeqlock, ReadersNeverObserveTornWrites) {
  sim::Arena arena(16 << 20);
  sim::MachineConfig mc;
  mc.num_cores = 6;
  sim::MemoryModel mem(mc);
  SlabAllocator slab(&arena);
  Item* it = slab.AllocateItem(1, 64);
  std::vector<uint8_t> init(64, 0);
  ItemWriteDirect(it, init.data(), 64);
  sim::Engine eng;
  sim::ExecCtx wctx{.eng = &eng, .mem = &mem, .core = 0};
  bool done = false;
  int torn = 0;
  eng.Spawn(WriterFiber(&wctx, it, 3000, &done));
  std::vector<sim::ExecCtx> rctx(4);
  for (int i = 0; i < 4; i++) {
    rctx[i] = sim::ExecCtx{.eng = &eng, .mem = &mem,
                           .core = static_cast<sim::CoreId>(i + 1)};
    eng.Spawn(ReaderFiber(&rctx[i], it, 1000000, &torn, &done));
  }
  eng.RunToQuiescence(10 * sim::kSec);
  EXPECT_TRUE(done);
  EXPECT_EQ(torn, 0);
}

TEST(ItemSeqlock, SmallValuesUseAtomicPath) {
  sim::Arena arena(1 << 20);
  sim::MachineConfig mc;
  mc.num_cores = 2;
  sim::MemoryModel mem(mc);
  SlabAllocator slab(&arena);
  Item* it = slab.AllocateItem(2, 8);
  sim::Engine eng;
  sim::ExecCtx ctx{.eng = &eng, .mem = &mem, .core = 0};
  bool ok = false;
  auto fib = [](sim::ExecCtx* c, Item* item, bool* flag) -> sim::Fiber {
    const uint64_t v = 0x1122334455667788ULL;
    co_await ItemWrite(*c, item, &v, 8);
    EXPECT_EQ(item->ctrl & 1, 0u);  // never locked
    uint64_t out = 0;
    const uint32_t n = co_await ItemRead(*c, item, &out);
    EXPECT_EQ(n, 8u);
    EXPECT_EQ(out, v);
    *flag = true;
  };
  eng.Spawn(fib(&ctx, it, &ok));
  eng.RunToQuiescence(sim::kSec);
  EXPECT_TRUE(ok);
}

// RunBatch overlaps stalls: 8 independent DRAM misses back to back should
// take far less than 8 serial miss latencies.
sim::Task<void> TouchOne(sim::ExecCtx* ctx, const void* p) {
  co_await ctx->Read(p, 8);
}

sim::Fiber BatchFiber(sim::ExecCtx* ctx, uint8_t* base, sim::Tick* elapsed) {
  const sim::Tick t0 = ctx->Now();
  sim::Task<void> tasks[8];
  for (int i = 0; i < 8; i++) {
    tasks[i] = TouchOne(ctx, base + i * 8192);
  }
  co_await sim::RunBatch(*ctx, tasks, 8);
  *elapsed = ctx->Now() - t0;
}

TEST(RunBatch, OverlapsIndependentMisses) {
  sim::Arena arena(16 << 20);
  sim::MachineConfig mc;
  mc.num_cores = 1;
  sim::MemoryModel mem(mc);
  sim::Engine eng;
  sim::ExecCtx ctx{.eng = &eng, .mem = &mem, .core = 0};
  uint8_t* base = arena.AllocateArray<uint8_t>(1 << 20);
  sim::Tick elapsed = 0;
  eng.Spawn(BatchFiber(&ctx, base, &elapsed));
  eng.RunToQuiescence(sim::kSec);
  // Serial execution would cost ~8 * (dram + miss_cpu) = ~900 ns; the batch
  // overlaps fills, so the wall time is dominated by one fill plus the
  // serial per-miss CPU charges.
  EXPECT_LT(elapsed, 8 * mc.dram_ns);
  EXPECT_GE(elapsed, mc.dram_ns);
}

}  // namespace
}  // namespace utps
