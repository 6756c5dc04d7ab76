// Tests for workload synthesis: mix ratios, Zipfian skew properties, per-key
// value sizing (ETC), and Twitter trace parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "harness/bench_util.h"
#include "workload/workload.h"

namespace utps {
namespace {

TEST(Zipfian, UniformWhenThetaZero) {
  ZipfianGenerator gen(1000, 0.0);
  Rng rng(1);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    counts[gen.Next(rng)]++;
  }
  // Rough uniformity: max bucket within 2x of mean.
  int max_count = 0;
  for (const auto& [k, c] : counts) {
    max_count = std::max(max_count, c);
  }
  EXPECT_LT(max_count, 2 * 100000 / 1000);
}

TEST(Zipfian, SkewConcentratesOnLowRanks) {
  ZipfianGenerator gen(1'000'000, 0.99);
  Rng rng(2);
  uint64_t top100 = 0;
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; i++) {
    if (gen.Next(rng) < 100) {
      top100++;
    }
  }
  // With theta=0.99 over 1M keys, the 100 hottest ranks draw roughly a
  // quarter of the traffic.
  EXPECT_GT(top100, kSamples / 6u);
  EXPECT_LT(top100, kSamples / 2u);
}

TEST(Zipfian, RankZeroIsHottest) {
  ZipfianGenerator gen(100000, 0.99);
  Rng rng(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    counts[gen.Next(rng)]++;
  }
  int best_rank = -1;
  int best = 0;
  for (const auto& [r, c] : counts) {
    if (c > best) {
      best = c;
      best_rank = static_cast<int>(r);
    }
  }
  EXPECT_EQ(best_rank, 0);
}

// Regression: theta == 1.0 (the classic harmonic distribution) used to
// divide by 1 - theta in both the alpha constant and the zeta tail integral,
// producing inf/NaN ranks. The harmonic branch must sample finite, in-range
// ranks with sane skew, and the neighbors of the singularity must keep
// working through the generic path.
TEST(Zipfian, HarmonicThetaNeighborhoodIsFiniteAndSkewed) {
  const uint64_t kN = 1'000'000;
  const int kSamples = 200000;
  for (double theta : {0.99, 1.0, 1.01}) {
    ZipfianGenerator gen(kN, theta);
    Rng rng(42);
    std::map<uint64_t, int> counts;
    uint64_t top100 = 0;
    for (int i = 0; i < kSamples; i++) {
      const uint64_t r = gen.Next(rng);
      ASSERT_LT(r, kN) << "theta=" << theta;  // finite and in range
      counts[r]++;
      if (r < 100) {
        top100++;
      }
    }
    // Rank 0 is the hottest.
    int best = 0;
    uint64_t best_rank = kN;
    for (const auto& [r, c] : counts) {
      if (c > best) {
        best = c;
        best_rank = r;
      }
    }
    EXPECT_EQ(best_rank, 0u) << "theta=" << theta;
    // Sane skew: around theta = 1 the 100 hottest ranks draw roughly a
    // quarter to a third of the traffic over 1M keys — far from uniform
    // (which would put ~0.01% there) and far from degenerate.
    EXPECT_GT(top100, kSamples / 8u) << "theta=" << theta;
    EXPECT_LT(top100, kSamples / 2u) << "theta=" << theta;
  }
}

TEST(Zipfian, HarmonicSkewIncreasesWithTheta) {
  // The theta sweep must order itself: more skew concentrates more traffic
  // on the head, and theta = 1.0 must land between its neighbors.
  const uint64_t kN = 1'000'000;
  const int kSamples = 100000;
  double prev = -1.0;
  for (double theta : {0.99, 1.0, 1.01}) {
    ZipfianGenerator gen(kN, theta);
    Rng rng(7);
    uint64_t top1000 = 0;
    for (int i = 0; i < kSamples; i++) {
      if (gen.Next(rng) < 1000) {
        top1000++;
      }
    }
    const double frac = static_cast<double>(top1000) / kSamples;
    EXPECT_GT(frac, prev) << "theta=" << theta;
    prev = frac;
  }
}

TEST(ScrambledZipfian, SpreadsHotKeysOverKeyspace) {
  ScrambledZipfian gen(1'000'000, 0.99);
  // The 10 hottest keys should not be clustered in a narrow key range.
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (uint64_t r = 0; r < 10; r++) {
    const Key k = gen.KeyOfRank(r);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  EXPECT_GT(hi - lo, 100000u);
}

TEST(Workload, MixRatiosRespected) {
  WorkloadGenerator gen(WorkloadSpec::YcsbB(10000, 64), 7);
  int gets = 0;
  int puts = 0;
  const int kOps = 100000;
  for (int i = 0; i < kOps; i++) {
    const Op op = gen.Next();
    if (op.type == OpType::kGet) {
      gets++;
    } else if (op.type == OpType::kPut) {
      puts++;
    }
  }
  EXPECT_NEAR(static_cast<double>(gets) / kOps, 0.95, 0.01);
  EXPECT_NEAR(static_cast<double>(puts) / kOps, 0.05, 0.01);
}

TEST(Workload, ScanMixAndLength) {
  WorkloadGenerator gen(WorkloadSpec::YcsbE(10000, 8), 8);
  int scans = 0;
  uint64_t total_len = 0;
  const int kOps = 50000;
  for (int i = 0; i < kOps; i++) {
    const Op op = gen.Next();
    if (op.type == OpType::kScan) {
      scans++;
      total_len += op.scan_count;
      EXPECT_GE(op.scan_count, 1u);
      EXPECT_LE(op.scan_count, 100u);
    }
  }
  EXPECT_NEAR(static_cast<double>(scans) / kOps, 0.95, 0.01);
  // Average range size ~50 (uniform in [1, 100]).
  EXPECT_NEAR(static_cast<double>(total_len) / scans, 50.0, 3.0);
}

TEST(Workload, EtcValueSizeMix) {
  const WorkloadSpec spec = WorkloadSpec::Etc(1'000'000, 0.9);
  int small = 0;
  int mid = 0;
  int large = 0;
  for (Key k = 0; k < 100000; k++) {
    const uint32_t v = ValueSizeOfKey(spec, k);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1024u);
    if (v <= 13) {
      small++;
    } else if (v <= 300) {
      mid++;
    } else {
      large++;
    }
  }
  // Published mix: 40% / 55% / 5%.
  EXPECT_NEAR(small / 100000.0, 0.40, 0.02);
  EXPECT_NEAR(mid / 100000.0, 0.55, 0.02);
  EXPECT_NEAR(large / 100000.0, 0.05, 0.02);
}

TEST(Workload, ValueSizeIsDeterministicPerKey) {
  const WorkloadSpec spec = WorkloadSpec::Etc(1000, 0.5);
  for (Key k = 0; k < 1000; k++) {
    EXPECT_EQ(ValueSizeOfKey(spec, k), ValueSizeOfKey(spec, k));
  }
}

TEST(Workload, TwitterClusterParametersMatchTable1) {
  const WorkloadSpec c12 = WorkloadSpec::TwitterCluster(12);
  EXPECT_DOUBLE_EQ(c12.put_ratio, 0.80);
  EXPECT_EQ(c12.value_size, 1030u);
  EXPECT_DOUBLE_EQ(c12.zipf_theta, 0.30);
  const WorkloadSpec c19 = WorkloadSpec::TwitterCluster(19);
  EXPECT_DOUBLE_EQ(c19.put_ratio, 0.25);
  EXPECT_EQ(c19.value_size, 101u);
  const WorkloadSpec c31 = WorkloadSpec::TwitterCluster(31);
  EXPECT_DOUBLE_EQ(c31.put_ratio, 0.94);
  EXPECT_DOUBLE_EQ(c31.zipf_theta, 0.0);
}

TEST(Workload, DeterministicAcrossRunsWithSameSeed) {
  WorkloadGenerator a(WorkloadSpec::YcsbA(5000, 64), 123);
  WorkloadGenerator b(WorkloadSpec::YcsbA(5000, 64), 123);
  for (int i = 0; i < 1000; i++) {
    const Op oa = a.Next();
    const Op ob = b.Next();
    EXPECT_EQ(oa.key, ob.key);
    EXPECT_EQ(oa.type, ob.type);
  }
}

// ---------------------------------------------------------------- at scale
// The sampled-simulation regime (bench/fig16_at_scale) drives 10M-key
// databases; these tests pin down that the generation side holds up there:
// the distribution keeps its head/tail shape, a draw stays O(1) (the zeta
// normalizer is computed once, not per draw), and populating at that size
// stays within a sane memory envelope.

TEST(ZipfianAtScale, TenMillionKeysKeepHeadTailShape) {
  const uint64_t kN = 10'000'000;
  ZipfianGenerator gen(kN, 0.99);
  Rng rng(11);
  const int kSamples = 500000;
  uint64_t top100 = 0;
  uint64_t tail_half = 0;  // ranks in the cold upper half of the keyspace
  for (int i = 0; i < kSamples; i++) {
    const uint64_t r = gen.Next(rng);
    ASSERT_LT(r, kN);
    if (r < 100) {
      top100++;
    }
    if (r >= kN / 2) {
      tail_half++;
    }
  }
  // Head: theta=0.99 over 10M keys puts roughly a fifth of the traffic on
  // the 100 hottest ranks (the zeta normalizer grows with ln n, so the head
  // share shrinks slightly vs the 1M-key tests above).
  EXPECT_GT(top100, kSamples / 8u);
  EXPECT_LT(top100, kSamples / 2u);
  // Tail: the cold half still sees traffic (a truncated or overflowed
  // normalizer would zero it out) but only a small share.
  EXPECT_GT(tail_half, 0u);
  EXPECT_LT(tail_half, kSamples / 10u);
}

TEST(ZipfianAtScale, DrawsAreConstantTimeInKeyCount) {
  // 10M draws complete in seconds only if Next() is O(1): any O(n) work per
  // draw (e.g. recomputing the zeta sum) would push this into hours. The
  // generous wall-clock bound keeps the test robust on slow CI hosts while
  // still being ~4 orders of magnitude below an O(n)-per-draw runtime.
  const uint64_t kN = 10'000'000;
  ZipfianGenerator gen(kN, 0.99);
  Rng rng(12);
  const auto start = std::chrono::steady_clock::now();
  uint64_t sink = 0;
  for (int i = 0; i < 10'000'000; i++) {
    sink ^= gen.Next(rng);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_NE(sink, 0u);  // keep the loop from being optimized away
  EXPECT_LT(secs, 60.0) << "Zipfian draw is not O(1) in the key count";
}

TEST(ZipfianAtScale, ScrambledCoversKeyspaceWithoutCollisionsInHead) {
  // KeyOfRank at 10M must land hot ranks all over the keyspace and map
  // distinct head ranks to distinct keys (Mix64 is a permutation; only the
  // final modulo can collide, which is vanishingly unlikely for 1k draws).
  const uint64_t kN = 10'000'000;
  ScrambledZipfian gen(kN, 0.99);
  std::map<uint64_t, int> seen;
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  for (uint64_t r = 0; r < 1000; r++) {
    const Key k = gen.KeyOfRank(r);
    ASSERT_LT(k, kN);
    seen[k]++;
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_GT(hi - lo, kN / 2);
}

TEST(WorkloadAtScale, PopulatePathStaysInMemoryEnvelope) {
  // Walk the populate path's sizing exactly as TestBed::Populate does —
  // per-key value sizes summed over 10M keys — and bound the generator-side
  // memory: drawing sizes for 10M keys must not allocate per key. The spec
  // sizing itself is pure arithmetic, so peak RSS should not grow by more
  // than a small constant over the baseline.
  const size_t before_kb = bench::PeakRssKb();
  const WorkloadSpec spec = WorkloadSpec::Etc(10'000'000, 0.9);
  uint64_t total_bytes = 0;
  uint32_t min_v = UINT32_MAX;
  uint32_t max_v = 0;
  for (Key k = 0; k < spec.num_keys; k++) {
    const uint32_t v = ValueSizeOfKey(spec, k);
    total_bytes += v;
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  const size_t after_kb = bench::PeakRssKb();
  ASSERT_GE(min_v, 1u);
  ASSERT_LE(max_v, 1024u);
  // ETC averages ~120 B/value: 10M keys is roughly a 0.9-1.6 GB data set —
  // the arena TestBed would size for this fits comfortably in the envelope
  // fig16 runs under.
  EXPECT_GT(total_bytes, 800ull << 20);
  EXPECT_LT(total_bytes, 2ull << 30);
  if (before_kb != 0 && after_kb != 0) {
    EXPECT_LT(after_kb - before_kb, 64ull * 1024)  // < 64 MiB growth
        << "sizing 10M keys allocated per-key state";
  }
}

}  // namespace
}  // namespace utps
